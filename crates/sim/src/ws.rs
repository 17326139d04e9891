//! Analytic weight-stationary (WS) dataflow model.
//!
//! Mapping (§3.2/§4.1.2 of the paper, TPU-style): PE rows hold input
//! channels, PE columns hold output channels. An `rt × ct` weight tile is
//! preloaded one row per cycle, then the stream buffer broadcasts one
//! pixel from each of the `rt` input channels per cycle while per-column
//! adder chains reduce the products; this repeats for every output pixel,
//! every filter tap, and every `(row-tile, column-tile)` pair.
//!
//! Consequences the paper leans on, all reproduced by this model:
//!
//! * `1×1` layers stream at full array utilization — WS's best case;
//! * the first conv layer has only 3 input channels, so only 3 of N rows
//!   are ever active;
//! * depthwise convolutions present a diagonal weight matrix, which the
//!   ("naive WS") array executes as a dense `C × C` matrix of mostly
//!   zeros;
//! * weight zeros cannot be skipped — the weights are resident, and the
//!   streaming schedule is oblivious to their values.

use codesign_arch::AcceleratorConfig;

use crate::perf::ComputePerf;
use crate::steps;
use crate::workload::ConvWork;

/// Simulates one layer's MAC work under the WS dataflow: the fold of
/// its run-length schedule.
///
/// Weight sparsity is intentionally ignored (WS cannot exploit it).
pub fn simulate_ws(work: &ConvWork, cfg: &AcceleratorConfig) -> ComputePerf {
    steps::fold(&steps::ws(work, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkKind;

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::paper_default()
    }

    fn dense(c: usize, k: usize, f: usize, oh: usize, ow: usize) -> ConvWork {
        ConvWork {
            kind: WorkKind::Dense,
            groups: 1,
            in_channels: c,
            out_channels: k,
            kernel_h: f,
            kernel_w: f,
            stride: 1,
            in_h: oh + f - 1,
            in_w: ow + f - 1,
            out_h: oh,
            out_w: ow,
        }
    }

    #[test]
    fn pointwise_single_tile_cycle_count() {
        // C=32, K=32 fits one tile: preload 32 + stream OHW.
        let w = dense(32, 32, 1, 55, 55);
        let p = simulate_ws(&w, &cfg());
        assert_eq!(p.phases.load, 32);
        assert_eq!(p.phases.compute, 55 * 55);
        assert_eq!(p.executed_macs, w.macs());
        // Full array active while streaming: utilization just under 1.
        let util = p.utilization(1024);
        assert!(util > 0.95, "util = {util}");
    }

    #[test]
    fn multi_tile_scales_linearly() {
        let small = simulate_ws(&dense(32, 32, 1, 13, 13), &cfg());
        let big = simulate_ws(&dense(64, 64, 1, 13, 13), &cfg());
        // 2x2 tiles: 4x the passes.
        assert_eq!(big.phases.compute, 4 * small.phases.compute);
        assert_eq!(big.executed_macs, 4 * small.executed_macs);
    }

    #[test]
    fn first_conv_rows_limited() {
        // SqueezeNet conv1 shape: C=3 limits active rows to 3/32.
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
        let p = simulate_ws(&w, &cfg());
        let util = p.utilization(1024);
        assert!(util < 0.12, "conv1 WS utilization should be poor, got {util}");
        assert_eq!(p.executed_macs, w.macs());
    }

    #[test]
    fn depthwise_is_dense_cycles_sparse_utility() {
        let w = ConvWork {
            kind: WorkKind::Depthwise,
            groups: 1,
            in_channels: 64,
            out_channels: 64,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            in_h: 58,
            in_w: 58,
            out_h: 56,
            out_w: 56,
        };
        let p = simulate_ws(&w, &cfg());
        // Cycles are those of a dense 64x64 map (2x2 tiles)...
        let dense_equiv = simulate_ws(&dense(64, 64, 3, 56, 56), &cfg());
        assert_eq!(p.cycles(), dense_equiv.cycles());
        // ...but only the diagonal MACs are useful.
        assert_eq!(p.executed_macs, (56 * 56 * 9 * 64) as u64);
        assert!(p.utilization(1024) < 0.04);
    }

    #[test]
    fn fc_is_one_pixel_stream() {
        let w = ConvWork {
            kind: WorkKind::FullyConnected,
            groups: 1,
            in_channels: 256,
            out_channels: 128,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            in_h: 1,
            in_w: 1,
            out_h: 1,
            out_w: 1,
        };
        let p = simulate_ws(&w, &cfg());
        // 8 row tiles x 4 col tiles, each: preload 32 + stream 1.
        assert_eq!(p.phases.load, 8 * 4 * 32);
        assert_eq!(p.phases.compute, 8 * 4);
        assert_eq!(p.executed_macs, 256 * 128);
    }

    #[test]
    fn grouped_conv_repeats_groups() {
        let mut w = dense(8, 8, 3, 13, 13);
        w.groups = 2;
        let single = simulate_ws(&dense(8, 8, 3, 13, 13), &cfg());
        let grouped = simulate_ws(&w, &cfg());
        assert_eq!(grouped.cycles(), 2 * single.cycles());
        assert_eq!(grouped.executed_macs, 2 * single.executed_macs);
    }

    #[test]
    fn access_counts_are_consistent() {
        let w = dense(32, 32, 3, 14, 14);
        let p = simulate_ws(&w, &cfg());
        assert_eq!(p.accesses.macs, p.executed_macs);
        // One RF (weight) access per MAC in a dense layer.
        assert_eq!(p.accesses.register_file, p.executed_macs);
        assert!(p.accesses.global_buffer > 0);
        assert_eq!(p.phases.drain, 0);
    }
}
