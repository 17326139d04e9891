//! Analytic row-stationary (RS) dataflow model (Eyeriss \[3\]).
//!
//! §3.2 lists four dataflows — WS, OS, RS, NLR — and the paper builds its
//! accelerator on the first two. This model and the crate's NLR model
//! fill in the other half of the taxonomy ([`crate::taxonomy`]) so the
//! choice can be examined: would a Squeezelerator that also offered RS or
//! NLR per layer be faster?
//!
//! Mapping (after Eyeriss): PE `(i, j)` keeps **filter row i** resident
//! and processes **input row i+j**, producing partial sums of **output
//! row j**; a column of `Fh` PEs composes one output row through
//! vertical psum hops. The array holds `Fh` rows × up to `N` output rows,
//! and folds additional (input-channel, output-channel) plane pairs onto
//! leftover vertical space. Each resident PE streams its row pair: `W'`
//! output positions × `Fw` taps per position. Kernels taller than the
//! array split their filter rows into ⌈Fh / N⌉ passes, so no cycle runs
//! more MACs than the array has PEs.

use codesign_arch::AcceleratorConfig;

use crate::perf::ComputePerf;
use crate::steps;
use crate::workload::ConvWork;

/// Simulates one layer's MAC work under the RS dataflow: the fold of its
/// run-length schedule.
///
/// Like WS, row-stationary keeps weights resident, so weight sparsity is
/// not exploitable. Fully-connected layers degenerate to `Fh = Fw = 1`
/// row pairs — effectively a worse WS — and are modeled the same way.
pub fn simulate_rs(work: &ConvWork, cfg: &AcceleratorConfig) -> ComputePerf {
    steps::fold(&steps::rs(work, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkKind;
    use crate::ws::simulate_ws;

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
    fn executes_every_algorithmic_mac() {
        let w = dense(16, 32, 3, 28, 28);
        let p = simulate_rs(&w, &cfg());
        assert_eq!(p.executed_macs, w.macs());
        assert!(p.cycles() > 0);
    }

    #[test]
    fn spatial_convs_are_competitive_with_ws() {
        // RS's home turf: 3x3 layers with large maps.
        let w = dense(64, 64, 3, 56, 56);
        let rs = simulate_rs(&w, &cfg()).cycles();
        let ws = simulate_ws(&w, &cfg()).cycles();
        let ratio = rs as f64 / ws as f64;
        assert!((0.2..5.0).contains(&ratio), "rs/ws = {ratio:.2}");
    }

    #[test]
    fn pointwise_layers_degenerate() {
        // Fh = 1: no filter-row reuse to exploit; pair count C*K explodes
        // relative to the fold.
        let w = dense(512, 64, 1, 13, 13);
        let rs = simulate_rs(&w, &cfg()).cycles();
        let ws = simulate_ws(&w, &cfg()).cycles();
        assert!(rs > ws, "1x1 should favor WS: rs={rs} ws={ws}");
    }

    #[test]
    fn depthwise_pairs_per_channel() {
        let w = ConvWork {
            kind: WorkKind::Depthwise,
            groups: 1,
            in_channels: 64,
            out_channels: 64,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            in_h: 30,
            in_w: 30,
            out_h: 28,
            out_w: 28,
        };
        let p = simulate_rs(&w, &cfg());
        assert_eq!(p.executed_macs, w.macs());
        // Far fewer pair waves than a dense 64x64 crossing.
        let dense_equiv = simulate_rs(&dense(64, 64, 3, 28, 28), &cfg());
        assert!(p.cycles() < dense_equiv.cycles() / 8);
    }

    #[test]
    fn tall_kernels_split_into_row_passes() {
        // 11 filter rows on an 8-row array: an 8-row pass folding one
        // plane pair per wave, then a 3-row pass folding two.
        let w = dense(3, 8, 11, 20, 20);
        let small = AcceleratorConfig::builder().array_size(8).build().unwrap();
        let p = simulate_rs(&w, &small);
        assert_eq!(p.executed_macs, w.macs());
        // 3 output-row strips x (24 waves x 8 rows + 12 waves x 3 rows).
        assert_eq!(p.phases.load, 3 * (24 * 8 + 12 * 3));
        assert!(p.utilization(small.pe_count()) <= 1.0);
    }
}
