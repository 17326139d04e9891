//! Performance-result types produced by the simulator.

use std::fmt;

use codesign_arch::{AccessCounts, Dataflow, EnergyModel};

use crate::error::{SimError, SimResult};

/// Cycle breakdown of one PE-array execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseCycles {
    /// Cycles loading stationary data into the array (weights in WS,
    /// input tiles in OS).
    pub load: u64,
    /// Cycles performing MAC work (streaming in WS, weight broadcasts in
    /// OS).
    pub compute: u64,
    /// Cycles storing results to the global buffer (OS drain; zero for WS
    /// whose outputs stream out continuously).
    pub drain: u64,
}

impl PhaseCycles {
    /// Total cycles across phases.
    pub fn total(&self) -> u64 {
        self.load + self.compute + self.drain
    }
}

/// Result of running one layer's MAC work on the PE array under one
/// dataflow (DRAM excluded — see [`LayerPerf`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComputePerf {
    /// Phase breakdown; `phases.total()` is the PE-array busy time.
    pub phases: PhaseCycles,
    /// MAC operations actually executed (zero-skipped work excluded,
    /// wasted idle PEs excluded).
    pub executed_macs: u64,
    /// Memory-hierarchy access counts for energy accounting.
    pub accesses: AccessCounts,
}

impl ComputePerf {
    /// PE-array busy cycles.
    pub fn cycles(&self) -> u64 {
        self.phases.total()
    }

    /// Average PE utilization: useful MACs per PE per cycle.
    pub fn utilization(&self, pe_count: usize) -> f64 {
        let denom = self.cycles() as f64 * pe_count as f64;
        if denom == 0.0 {
            0.0
        } else {
            self.executed_macs as f64 / denom
        }
    }

    /// This work done `n` times over (a batch of images, or one slice on
    /// each of `n` cores): MAC and on-chip access counts multiply by `n`,
    /// phases are left to the caller, and DRAM accesses stay zero for the
    /// layer's traffic to fill in. An overflowing count is an
    /// [`SimError::ArithmeticOverflow`] naming `context`.
    pub(crate) fn repeated(self, n: u64, context: &'static str) -> SimResult<Self> {
        let times = |count: u64| count.checked_mul(n).ok_or_else(|| SimError::overflow(context));
        let a = self.accesses;
        Ok(Self {
            phases: self.phases,
            executed_macs: times(self.executed_macs)?,
            accesses: AccessCounts {
                macs: times(a.macs)?,
                register_file: times(a.register_file)?,
                inter_pe: times(a.inter_pe)?,
                global_buffer: times(a.global_buffer)?,
                dram: 0,
            },
        })
    }
}

/// Full per-layer simulation result: PE-array work plus the DRAM picture.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPerf {
    /// Layer name.
    pub name: String,
    /// Dataflow used; `None` for layers handled by the 1-D SIMD path
    /// (pooling, element-wise, concat).
    pub dataflow: Option<Dataflow>,
    /// PE-array (or SIMD-path) execution.
    pub compute: ComputePerf,
    /// DRAM traffic in bytes (input + weights + output, including tiling
    /// re-fetches).
    pub dram_bytes: u64,
    /// Cycles the DMA needs for that traffic.
    pub dram_cycles: u64,
    /// End-to-end layer cycles after double-buffering overlap.
    pub total_cycles: u64,
    /// Useful-MAC utilization of the PE array over `total_cycles`.
    pub utilization: f64,
}

impl LayerPerf {
    /// Total energy of this layer under `model`.
    pub fn energy(&self, model: &EnergyModel) -> f64 {
        self.compute.accesses.energy(model)
    }
}

impl fmt::Display for LayerPerf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} cycles ({}), util {:.1}%",
            self.name,
            self.total_cycles,
            self.dataflow.map_or("SIMD", |d| d.tag()),
            100.0 * self.utilization
        )
    }
}

/// Whole-network simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkPerf {
    /// Network name.
    pub name: String,
    /// Per-layer results in execution order.
    pub layers: Vec<LayerPerf>,
}

impl NetworkPerf {
    /// Total inference cycles (batch 1, layers sequential).
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.total_cycles).sum()
    }

    /// Total energy under `model` (MAC-normalized units).
    pub fn total_energy(&self, model: &EnergyModel) -> f64 {
        self.layers.iter().map(|l| l.energy(model)).sum()
    }

    /// Aggregated access counts.
    pub fn total_accesses(&self) -> AccessCounts {
        self.layers.iter().map(|l| l.compute.accesses).sum()
    }

    /// Total executed MACs.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.compute.executed_macs).sum()
    }

    /// MAC-weighted average PE utilization over the whole inference.
    pub fn average_utilization(&self, pe_count: usize) -> f64 {
        let cycles: u64 = self.total_cycles();
        if cycles == 0 {
            return 0.0;
        }
        self.total_macs() as f64 / (cycles as f64 * pe_count as f64)
    }

    /// Looks up a layer's result by name.
    pub fn layer(&self, name: &str) -> Option<&LayerPerf> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Fraction of total cycles spent in layers matching `pred`.
    pub fn cycle_fraction(&self, mut pred: impl FnMut(&LayerPerf) -> bool) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            return 0.0;
        }
        let m: u64 = self.layers.iter().filter(|l| pred(l)).map(|l| l.total_cycles).sum();
        m as f64 / total as f64
    }
}

impl fmt::Display for NetworkPerf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} cycles over {} layers", self.name, self.total_cycles(), self.layers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perf(name: &str, cycles: u64, macs: u64) -> LayerPerf {
        LayerPerf {
            name: name.into(),
            dataflow: Some(Dataflow::WeightStationary),
            compute: ComputePerf {
                phases: PhaseCycles { load: 0, compute: cycles, drain: 0 },
                executed_macs: macs,
                accesses: AccessCounts { macs, ..AccessCounts::zero() },
            },
            dram_bytes: 0,
            dram_cycles: 0,
            total_cycles: cycles,
            utilization: 0.5,
        }
    }

    #[test]
    fn phases_sum() {
        let p = PhaseCycles { load: 1, compute: 2, drain: 3 };
        assert_eq!(p.total(), 6);
    }

    #[test]
    fn utilization_counts_useful_macs() {
        let c = ComputePerf {
            phases: PhaseCycles { load: 0, compute: 100, drain: 0 },
            executed_macs: 6400,
            accesses: AccessCounts::zero(),
        };
        assert!((c.utilization(256) - 0.25).abs() < 1e-12);
        assert_eq!(ComputePerf::default().utilization(256), 0.0);
    }

    #[test]
    fn network_totals() {
        let net = NetworkPerf {
            name: "t".into(),
            layers: vec![perf("a", 100, 1000), perf("b", 300, 3000)],
        };
        assert_eq!(net.total_cycles(), 400);
        assert_eq!(net.total_macs(), 4000);
        assert!((net.cycle_fraction(|l| l.name == "b") - 0.75).abs() < 1e-12);
        assert!(net.layer("a").is_some());
        assert!(net.layer("zz").is_none());
        let m = EnergyModel::default();
        assert!((net.total_energy(&m) - 4000.0).abs() < 1e-9);
    }
}
