//! Analytic output-stationary (OS) dataflow model.
//!
//! Mapping (§4.1.2 of the paper, ShiDianNao-style): the PE array holds a
//! 2-D block of output pixels. Per block, output channels are processed
//! in groups of up to the register-file depth (each PE keeps one partial
//! sum per resident filter). For every input channel the input tile is
//! preloaded row-by-row (mesh links reuse interior pixels), then the
//! stream buffer broadcasts weights one per cycle — **skipping zero
//! weights**, the paper's sparsity optimization — and every active PE
//! performs one MAC per broadcast. Finished blocks drain to the global
//! buffer, which "takes additional processing time".
//!
//! Consequences the paper leans on, reproduced here:
//!
//! * `1×1` layers do one useful broadcast per loaded input pixel — load
//!   dominated, OS's worst case (mitigated by a deeper RF: the tune-up);
//! * the first conv layer has a huge output plane and only 3 channels —
//!   OS's best case;
//! * depthwise layers need no cross-channel reduction and a single
//!   resident partial sum — near-ideal on OS;
//! * small late-layer feature maps underfill the N×N array ("mismatch
//!   between the size of the PE array and the size of the feature map").

use codesign_arch::AcceleratorConfig;

use crate::perf::ComputePerf;
use crate::steps;
use crate::workload::ConvWork;

/// Sparsity treatment for the OS weight broadcast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsityModel {
    /// Fraction of zero weights in the layer (the paper conservatively
    /// uses 0.4).
    pub zero_fraction: f64,
    /// Whether the stream buffer skips zero weights (true for the
    /// Squeezelerator; false for the ablation).
    pub exploit: bool,
}

impl SparsityModel {
    /// The paper's setting: 40 % zeros, skipped.
    pub fn paper_default() -> Self {
        Self { zero_fraction: 0.4, exploit: true }
    }

    /// No sparsity exploitation at all.
    pub fn dense() -> Self {
        Self { zero_fraction: 0.0, exploit: false }
    }

    /// Effective fraction of broadcasts that actually occur.
    pub fn efficiency(&self) -> f64 {
        if self.exploit {
            (1.0 - self.zero_fraction).clamp(0.0, 1.0)
        } else {
            1.0
        }
    }
}

impl Default for SparsityModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Microarchitectural options of the OS datapath. Each switch models one
/// optimization the Squeezelerator's operation sequence (§4.1.2) implies;
/// all default on, and each can be disabled for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsModelOptions {
    /// Weight-sparsity treatment of the broadcast stream.
    pub sparsity: SparsityModel,
    /// Overlap the next channel's input-tile preload with the current
    /// channel's broadcasts ("the preload buffer prepares the data to be
    /// transferred to the PE array before the operation starts").
    pub preload_overlap: bool,
    /// When a small output tile underfills the N×N array, replicate it for
    /// several output-channel groups so one input load feeds more filters.
    pub channel_packing: bool,
}

impl OsModelOptions {
    /// The paper's configuration: 40 % sparsity skipped, preload
    /// overlapped, channel packing on.
    pub fn paper_default() -> Self {
        Self {
            sparsity: SparsityModel::paper_default(),
            preload_overlap: true,
            channel_packing: true,
        }
    }

    /// Replaces the sparsity model.
    pub fn with_sparsity(mut self, sparsity: SparsityModel) -> Self {
        self.sparsity = sparsity;
        self
    }
}

impl Default for OsModelOptions {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Simulates one layer's MAC work under the OS dataflow: the fold of its
/// run-length schedule. `executed_macs` is the sparsity model's expected
/// MAC count, rounded once per layer; the machine trace instead counts
/// whole broadcasts ([`crate::cycle::trace_os`]).
pub fn simulate_os(work: &ConvWork, cfg: &AcceleratorConfig, opts: OsModelOptions) -> ComputePerf {
    steps::fold(&steps::os(work, cfg, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkKind;

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::paper_default()
    }

    /// Options with overlap/packing off — the raw operation sequence,
    /// used by the hand-calculation tests.
    fn raw(sparsity: SparsityModel) -> OsModelOptions {
        OsModelOptions { sparsity, preload_overlap: false, channel_packing: false }
    }

    fn dense(c: usize, k: usize, f: usize, stride: usize, oh: usize, ow: usize) -> ConvWork {
        ConvWork {
            kind: WorkKind::Dense,
            groups: 1,
            in_channels: c,
            out_channels: k,
            kernel_h: f,
            kernel_w: f,
            stride,
            in_h: (oh - 1) * stride + f,
            in_w: (ow - 1) * stride + f,
            out_h: oh,
            out_w: ow,
        }
    }

    #[test]
    fn squeeze_layer_cycle_count_matches_hand_calculation() {
        // fire2/squeeze1x1: C=96, K=16, 55x55 output, N=32, RF=16, 40%.
        let w = dense(96, 16, 1, 1, 55, 55);
        let p = simulate_os(&w, &cfg(), raw(SparsityModel::paper_default()));
        // 4 tiles: (32,32),(32,23),(23,32),(23,23); one filter pass each.
        // load per tile = 96 * th (cols fit the preload row).
        let expected_load = 96 * (32 + 32 + 23 + 23) as u64;
        assert_eq!(p.phases.load, expected_load);
        // compute per tile = ceil(96 * 16 * 0.6) = 922; full plane covered.
        assert_eq!(p.phases.compute, 4 * 922);
        // drains: ceil(th*tw*16/32) summed.
        let expected_drain = [(32, 32), (32, 23), (23, 32), (23, 23)]
            .iter()
            .map(|&(a, b)| ((a * b * 16) as u64).div_ceil(32))
            .sum::<u64>();
        assert_eq!(p.phases.drain, expected_drain);
    }

    #[test]
    fn sparsity_reduces_compute_but_not_load() {
        let w = dense(64, 64, 3, 1, 28, 28);
        let sparse = simulate_os(&w, &cfg(), raw(SparsityModel::paper_default()));
        let dense_run = simulate_os(&w, &cfg(), raw(SparsityModel::dense()));
        assert!(sparse.phases.compute < dense_run.phases.compute);
        assert_eq!(sparse.phases.load, dense_run.phases.load);
        assert_eq!(sparse.phases.drain, dense_run.phases.drain);
        // 40% of MACs skipped.
        let ratio = sparse.executed_macs as f64 / dense_run.executed_macs as f64;
        assert!((ratio - 0.6).abs() < 0.01, "ratio = {ratio}");
        assert_eq!(dense_run.executed_macs, w.macs());
    }

    #[test]
    fn deeper_rf_halves_input_loads() {
        let w = dense(64, 64, 3, 1, 28, 28);
        let rf8 = AcceleratorConfig::builder().rf_depth(8).build().unwrap();
        let rf16 = AcceleratorConfig::builder().rf_depth(16).build().unwrap();
        let p8 = simulate_os(&w, &rf8, raw(SparsityModel::paper_default()));
        let p16 = simulate_os(&w, &rf16, raw(SparsityModel::paper_default()));
        assert_eq!(p8.phases.load, 2 * p16.phases.load);
        assert_eq!(p8.phases.compute, p16.phases.compute);
        assert!(p8.cycles() > p16.cycles());
    }

    #[test]
    fn first_conv_utilizes_well() {
        // SqueezeNet conv1 on OS: large output plane, 3 channels.
        let w = ConvWork {
            kind: WorkKind::Dense,
            groups: 1,
            in_channels: 3,
            out_channels: 96,
            kernel_h: 7,
            kernel_w: 7,
            stride: 2,
            in_h: 227,
            in_w: 227,
            out_h: 111,
            out_w: 111,
        };
        let p = simulate_os(&w, &cfg(), OsModelOptions::paper_default());
        let util = p.utilization(1024);
        assert!(util > 0.3, "conv1 OS utilization should be decent, got {util}");
    }

    #[test]
    fn late_small_maps_underfill_the_array() {
        // 13x13 plane on a 32x32 array: at most 169/1024 PEs active.
        let w = dense(64, 256, 3, 1, 13, 13);
        let p = simulate_os(&w, &cfg(), raw(SparsityModel::paper_default()));
        assert!(p.utilization(1024) < 0.17);
    }

    #[test]
    fn depthwise_single_pass() {
        let w = ConvWork {
            kind: WorkKind::Depthwise,
            groups: 1,
            in_channels: 512,
            out_channels: 512,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            in_h: 9,
            in_w: 9,
            out_h: 7,
            out_w: 7,
        };
        let p = simulate_os(&w, &cfg(), raw(SparsityModel::paper_default()));
        // One tile, per channel: 9-row load + ceil(9*0.6) compute.
        assert_eq!(p.phases.load, 512 * 9);
        assert_eq!(p.phases.compute, (512.0 * 9.0 * 0.6_f64).ceil() as u64);
        assert_eq!(p.phases.drain, (49u64 * 512).div_ceil(32));
    }

    #[test]
    fn fc_is_weight_supply_bound() {
        let w = ConvWork {
            kind: WorkKind::FullyConnected,
            groups: 1,
            in_channels: 4096,
            out_channels: 4096,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            in_h: 1,
            in_w: 1,
            out_h: 1,
            out_w: 1,
        };
        let p = simulate_os(&w, &cfg(), OsModelOptions::paper_default());
        // 4 chunks of 1024 outputs; each needs 4096*1024/32 cycles.
        assert_eq!(p.phases.compute, 4 * (4096 * 1024 / 32));
        assert_eq!(p.executed_macs, 4096 * 4096);
    }

    #[test]
    fn stride_widens_the_loaded_tile() {
        let s1 = simulate_os(&dense(3, 16, 7, 1, 32, 32), &cfg(), raw(SparsityModel::dense()));
        let s2 = simulate_os(&dense(3, 16, 7, 2, 32, 32), &cfg(), raw(SparsityModel::dense()));
        assert!(s2.phases.load > s1.phases.load);
        assert_eq!(s2.phases.compute, s1.phases.compute);
    }

    #[test]
    fn preload_overlap_hides_loads_behind_compute() {
        // 3x3 with RF-16 filters: compute per channel (86.4) exceeds the
        // 34-cycle load, so overlapped loads almost vanish.
        let w = dense(64, 16, 3, 1, 32, 32);
        let overlapped = simulate_os(&w, &cfg(), OsModelOptions::paper_default());
        let serial = simulate_os(&w, &cfg(), raw(SparsityModel::paper_default()));
        assert!(overlapped.phases.load < serial.phases.load / 10);
        assert_eq!(overlapped.phases.compute, serial.phases.compute);
    }

    #[test]
    fn channel_packing_amortizes_loads_on_small_maps() {
        // 13x13 output on a 32x32 array: 6 channel groups fit.
        let w = dense(512, 1000, 1, 1, 13, 13);
        let packed = simulate_os(
            &w,
            &cfg(),
            OsModelOptions {
                channel_packing: true,
                preload_overlap: false,
                ..OsModelOptions::paper_default()
            },
        );
        let unpacked = simulate_os(&w, &cfg(), raw(SparsityModel::paper_default()));
        assert!(packed.phases.load * 4 < unpacked.phases.load);
        assert_eq!(packed.executed_macs, unpacked.executed_macs);
        assert!(packed.utilization(1024) > unpacked.utilization(1024));
    }

    #[test]
    fn fc_parts_fill_the_whole_array() {
        // FC outputs split into parts of the full 1,024-PE array: fc8
        // (4096 → 1000) is one part, fc6 (9216 → 4096) four. Each part
        // broadcasts all `c` inputs once, so parts of half the array
        // would keep every cycle count but read the global buffer more.
        let net = codesign_dnn::zoo::alexnet();
        for (name, compute, drain, global_buffer) in
            [("fc8", 128_000, 32, 4_101_096), ("fc6", 1_179_648, 128, 37_789_696)]
        {
            let w = ConvWork::from_layer(net.layer(name).unwrap()).unwrap();
            let p = simulate_os(&w, &cfg(), OsModelOptions::paper_default());
            assert_eq!(
                (p.phases.compute, p.phases.drain, p.accesses.global_buffer),
                (compute, drain, global_buffer),
                "{name}"
            );
        }
    }

    #[test]
    fn access_counts_are_consistent() {
        let w = dense(32, 32, 3, 1, 14, 14);
        let p = simulate_os(&w, &cfg(), OsModelOptions::paper_default());
        assert_eq!(p.accesses.macs, p.executed_macs);
        assert_eq!(p.accesses.register_file, 3 * p.executed_macs);
        assert!(p.accesses.global_buffer > 0);
    }
}
