//! Eyeriss-style energy accounting (§4.1.3: "calculates the number of
//! accesses of the MAC units and each memory layer, and then multiplies
//! each by its unit energy, which is normalized by the energy consumption
//! of the MAC unit").

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Normalized unit energies per access, relative to one MAC operation.
///
/// Defaults follow the Eyeriss hierarchy ratios (MAC 1×, register file
/// 1×, inter-PE transfer 2×, global buffer 6×, DRAM 200×). The paper
/// "modified the unit energy slightly to match this hardware
/// configuration"; the exact constants are unpublished, so they are
/// configuration here (see DESIGN.md §3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy of one MAC operation (the normalization unit).
    pub mac: f64,
    /// Energy of one register-file access.
    pub register_file: f64,
    /// Energy of one inter-PE (mesh/broadcast) transfer.
    pub inter_pe: f64,
    /// Energy of one global-buffer access.
    pub global_buffer: f64,
    /// Energy of one DRAM element access.
    pub dram: f64,
}

impl EnergyModel {
    /// The Eyeriss-normalized default table.
    pub fn eyeriss_normalized() -> Self {
        Self { mac: 1.0, register_file: 1.0, inter_pe: 2.0, global_buffer: 6.0, dram: 200.0 }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::eyeriss_normalized()
    }
}

/// Access counts at every level of the memory hierarchy for some unit of
/// work (a layer, or a whole network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessCounts {
    /// MAC operations actually executed (zero-skipped MACs excluded).
    pub macs: u64,
    /// Register-file reads + writes.
    pub register_file: u64,
    /// Inter-PE transfers (mesh shifts, broadcasts, adder-chain hops).
    pub inter_pe: u64,
    /// Global-buffer reads + writes (elements).
    pub global_buffer: u64,
    /// DRAM traffic (elements).
    pub dram: u64,
}

impl AccessCounts {
    /// No accesses.
    pub const fn zero() -> Self {
        Self { macs: 0, register_file: 0, inter_pe: 0, global_buffer: 0, dram: 0 }
    }

    /// Total energy under `model`, in MAC-normalized units.
    pub fn energy(&self, model: &EnergyModel) -> f64 {
        self.macs as f64 * model.mac
            + self.register_file as f64 * model.register_file
            + self.inter_pe as f64 * model.inter_pe
            + self.global_buffer as f64 * model.global_buffer
            + self.dram as f64 * model.dram
    }
}

impl Add for AccessCounts {
    type Output = AccessCounts;

    fn add(self, rhs: AccessCounts) -> AccessCounts {
        AccessCounts {
            macs: self.macs + rhs.macs,
            register_file: self.register_file + rhs.register_file,
            inter_pe: self.inter_pe + rhs.inter_pe,
            global_buffer: self.global_buffer + rhs.global_buffer,
            dram: self.dram + rhs.dram,
        }
    }
}

impl AddAssign for AccessCounts {
    fn add_assign(&mut self, rhs: AccessCounts) {
        *self = *self + rhs;
    }
}

impl Sum for AccessCounts {
    fn sum<I: Iterator<Item = AccessCounts>>(iter: I) -> AccessCounts {
        iter.fold(AccessCounts::zero(), Add::add)
    }
}

impl fmt::Display for AccessCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "macs={} rf={} pe2pe={} gb={} dram={}",
            self.macs, self.register_file, self.inter_pe, self.global_buffer, self.dram
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_is_weighted_sum() {
        let m = EnergyModel::eyeriss_normalized();
        let c =
            AccessCounts { macs: 10, register_file: 20, inter_pe: 5, global_buffer: 2, dram: 1 };
        assert!((c.energy(&m) - (10.0 + 20.0 + 10.0 + 12.0 + 200.0)).abs() < 1e-12);
    }

    #[test]
    fn counts_add() {
        let a = AccessCounts { macs: 1, register_file: 2, inter_pe: 3, global_buffer: 4, dram: 5 };
        let b = a;
        let c = a + b;
        assert_eq!(c.macs, 2);
        assert_eq!(c.dram, 10);
        let total: AccessCounts = [a, b].into_iter().sum();
        assert_eq!(total, c);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn dram_dominates_per_access() {
        let m = EnergyModel::default();
        assert!(m.dram > m.global_buffer);
        assert!(m.global_buffer > m.inter_pe);
        assert!(m.inter_pe >= m.register_file);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!AccessCounts::zero().to_string().is_empty());
    }
}
