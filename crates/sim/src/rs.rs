//! Analytic row-stationary (RS) dataflow model (Eyeriss \[3\]).
//!
//! §3.2 lists four dataflows — WS, OS, RS, NLR — and the paper builds its
//! accelerator on the first two. This model (and [`crate::nlr`]) fills in
//! the other half of the taxonomy so the choice can be examined: would a
//! Squeezelerator that also offered RS or NLR per layer be faster?
//!
//! Mapping (after Eyeriss): PE `(i, j)` keeps **filter row i** resident
//! and processes **input row i+j**, producing partial sums of **output
//! row j**; a column of `Fh` PEs composes one output row through
//! vertical psum hops. The array holds `Fh` rows × up to `N` output rows,
//! and folds additional (input-channel, output-channel) plane pairs onto
//! leftover vertical space. Each resident PE streams its row pair: `W'`
//! output positions × `Fw` taps per position.

use codesign_arch::{AcceleratorConfig, AccessCounts};

use crate::perf::{ComputePerf, PhaseCycles};
use crate::workload::{split, ConvWork, WorkKind};

/// Simulates one layer's MAC work under the RS dataflow.
///
/// Like WS, row-stationary keeps weights resident, so weight sparsity is
/// not exploitable. Fully-connected layers degenerate to `Fh = Fw = 1`
/// row pairs — effectively a worse WS — and are modeled the same way.
pub fn simulate_rs(work: &ConvWork, cfg: &AcceleratorConfig) -> ComputePerf {
    let n = cfg.array_size();
    let fh = work.kernel_h.min(n);
    let fw = work.kernel_w as u64;
    let ow = work.out_w as u64;

    // Output-row strips of at most N rows sit across the array.
    let row_strips = split(work.out_h, n);
    // Plane pairs folded side by side: each pair needs fh PE rows.
    let fold = (n / fh).max(1);

    // Plane pairs to process per group: depthwise pairs each channel with
    // its own filter; dense crosses C x K.
    let pairs_per_group = match work.kind {
        WorkKind::Depthwise => work.in_channels as u64,
        _ => (work.in_channels * work.out_channels) as u64,
    };
    let pair_waves = pairs_per_group.div_ceil(fold as u64);

    let mut load = 0u64;
    let mut compute = 0u64;
    let mut drain = 0u64;
    let mut acc = AccessCounts::zero();

    for _group in 0..work.groups {
        for &strip in &row_strips {
            let strip = strip as u64;
            // Preload filter rows for the folded pairs: fh rows of fw
            // taps each, one row per cycle per fold slot.
            load += pair_waves * fh as u64;
            acc.global_buffer += pair_waves * (fh as u64 * fw) * fold as u64;
            // Stream: each PE walks W' output positions x Fw taps.
            let stream = ow * fw;
            compute += pair_waves * stream;
            // Active PEs: fh x strip per folded pair.
            let active = fh as u64 * strip * fold as u64;
            acc.register_file += pair_waves * stream * active * 2; // weight + input regs
            acc.inter_pe += pair_waves * stream * active; // vertical psum hops
                                                          // Input rows stream in diagonally from the buffer.
            acc.global_buffer += pair_waves * (strip + fh as u64 - 1) * work.in_w as u64;
            // Output rows drain per pair wave (each wave's rows leave
            // the array before the next wave's preload).
            drain += pair_waves * (strip * ow).div_ceil(n as u64);
            acc.global_buffer += strip * ow * pair_waves;
        }
    }

    // Useful MACs: the dense count (no sparsity skipping in RS).
    let macs = work.macs();
    acc.macs = macs;

    ComputePerf { phases: PhaseCycles { load, compute, drain }, executed_macs: macs, accesses: acc }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn oversized_kernels_clamp_to_the_array() {
        let w = dense(3, 8, 11, 20, 20);
        let small = AcceleratorConfig::builder().array_size(8).build().unwrap();
        let p = simulate_rs(&w, &small);
        assert!(p.cycles() > 0);
        assert_eq!(p.executed_macs, w.macs());
    }
}
