//! Silicon area model.
//!
//! §4.1.1: "In order to support two dataflows, we implemented all the
//! interconnections and functions required for both dataflows. The area
//! overhead is minimized..." — this module quantifies that trade. Unit
//! areas are normalized to one 16-bit MAC datapath (the same style of
//! normalization the energy model uses); absolute mm² are not claimed.

use crate::config::AcceleratorConfig;

/// Normalized unit areas (1.0 = one 16-bit multiply-accumulate datapath).
///
/// Defaults are synthetic but ordered like published 28 nm blocks: an RF
/// entry is a small fraction of a MAC, SRAM is dense per byte, and the
/// dual-dataflow muxing/interconnect adds a small per-PE overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// One MAC datapath (multiplier + adder).
    pub mac: f64,
    /// One register-file entry.
    pub rf_entry: f64,
    /// One byte of on-chip SRAM (global/preload/stream buffers).
    pub sram_byte: f64,
    /// Per-PE overhead of supporting *both* dataflows (input muxes, mesh
    /// + broadcast ports, mode control).
    pub dual_dataflow_per_pe: f64,
    /// Fixed overhead (DMA engine, controller, buffer switching logic).
    pub fixed: f64,
}

impl AreaModel {
    /// The default normalized table.
    pub fn normalized_default() -> Self {
        Self {
            mac: 1.0,
            rf_entry: 0.02,
            sram_byte: 0.002,
            dual_dataflow_per_pe: 0.08,
            fixed: 200.0,
        }
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        Self::normalized_default()
    }
}

/// Area breakdown of one accelerator configuration, in MAC-normalized
/// units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaBreakdown {
    /// PE datapaths.
    pub pes: f64,
    /// Register files.
    pub register_files: f64,
    /// On-chip buffers.
    pub buffers: f64,
    /// Dual-dataflow support overhead.
    pub dual_dataflow: f64,
    /// Fixed blocks.
    pub fixed: f64,
}

impl AreaBreakdown {
    /// Total area.
    pub fn total(&self) -> f64 {
        self.pes + self.register_files + self.buffers + self.dual_dataflow + self.fixed
    }
}

/// Computes the area of a configuration. `dual_dataflow` selects whether
/// the array carries both dataflows' plumbing (the Squeezelerator) or
/// only one (the fixed references).
pub fn area(cfg: &AcceleratorConfig, model: &AreaModel, dual_dataflow: bool) -> AreaBreakdown {
    let pes = cfg.pe_count() as f64;
    // Preload + stream buffers: one array row's worth of double-buffered
    // staging each.
    let staging_bytes = 4 * cfg.array_size() * cfg.bytes_per_element();
    AreaBreakdown {
        pes: pes * model.mac,
        register_files: pes * cfg.rf_depth() as f64 * model.rf_entry,
        buffers: (cfg.global_buffer_bytes() + staging_bytes) as f64 * model.sram_byte,
        dual_dataflow: if dual_dataflow { pes * model.dual_dataflow_per_pe } else { 0.0 },
        fixed: model.fixed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::paper_default()
    }

    #[test]
    fn dual_dataflow_overhead_is_small() {
        // The paper's design claim: supporting both dataflows costs little.
        let a = area(&cfg(), &AreaModel::default(), true);
        let frac = a.dual_dataflow / a.total();
        assert!(frac > 0.0 && frac < 0.08, "overhead fraction = {frac:.3}");
    }

    #[test]
    fn fixed_dataflow_references_are_smaller_but_barely() {
        let m = AreaModel::default();
        let hybrid = area(&cfg(), &m, true).total();
        let fixed = area(&cfg(), &m, false).total();
        assert!(fixed < hybrid);
        assert!(hybrid / fixed < 1.08, "ratio = {:.3}", hybrid / fixed);
    }

    #[test]
    fn rf_tuneup_costs_area() {
        let m = AreaModel::default();
        let rf8 = AcceleratorConfig::builder().rf_depth(8).build().unwrap();
        let rf16 = AcceleratorConfig::builder().rf_depth(16).build().unwrap();
        let a8 = area(&rf8, &m, true);
        let a16 = area(&rf16, &m, true);
        assert!(a16.register_files > a8.register_files);
        assert_eq!(a16.register_files, 2.0 * a8.register_files);
        // ...but the whole-accelerator cost is modest.
        assert!(a16.total() / a8.total() < 1.15, "ratio = {:.3}", a16.total() / a8.total());
    }

    #[test]
    fn area_scales_with_array_and_buffer() {
        let m = AreaModel::default();
        let small = AcceleratorConfig::builder().array_size(8).build().unwrap();
        let big = AcceleratorConfig::builder().array_size(32).build().unwrap();
        assert!(area(&big, &m, true).pes > area(&small, &m, true).pes);
        let buf_big = AcceleratorConfig::builder().global_buffer_bytes(512 * 1024).build().unwrap();
        assert!(area(&buf_big, &m, true).buffers > area(&cfg(), &m, true).buffers);
    }

    #[test]
    fn breakdown_sums() {
        let a = area(&cfg(), &AreaModel::default(), true);
        let total = a.pes + a.register_files + a.buffers + a.dual_dataflow + a.fixed;
        assert!((a.total() - total).abs() < 1e-9);
    }
}
