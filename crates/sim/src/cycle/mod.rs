//! Machine traces: a layer's schedule laid out on the PE array's phase
//! timeline.
//!
//! A [`MachineTrace`] is a list of run-length [`PhaseSegment`]s (load,
//! compute, drain, each with a repeat count); its aggregates — cycles,
//! MACs, busy-PE cycles, per-phase totals, step count — fold the repeats
//! in closed form (the unit tests check the folds against a
//! cycle-by-cycle expansion). The `trace_*` functions
//! project the same run-length schedule that `simulate_ws`/`simulate_os`/
//! `simulate_rs` fold into a [`ComputePerf`](crate::ComputePerf), so the
//! trace and the analytic counts are one description and cannot drift
//! apart. The compiled command stream ([`crate::program`]) and the VCD
//! writer ([`vcd`]) read traces. The independent check is the workspace's
//! test-only loop-nest spec, which walks every schedule step literally.

mod machine;
pub mod vcd;

use codesign_arch::AcceleratorConfig;

use crate::os::OsModelOptions;
use crate::steps;
use crate::workload::ConvWork;

pub use machine::{MachineTrace, Phase, PhaseSegment};
pub use vcd::write_vcd;

/// The WS machine trace: one (preload, stream) macro pair per distinct
/// (column-tile, row-tile) shape, repeated `groups × tiles × taps` times.
/// Depthwise layers split each shape into the diagonal pairs, which do
/// useful MACs, and the off-diagonal ones, which burn the same cycles
/// with none.
pub fn trace_ws(work: &ConvWork, cfg: &AcceleratorConfig) -> MachineTrace {
    steps::trace(&steps::ws(work, cfg))
}

/// The OS machine trace. Compute segments issue whole broadcasts, each
/// worth one MAC per tile pixel, so [`MachineTrace::macs`] can exceed
/// [`simulate_os`](crate::simulate_os)'s expected-MAC count by the
/// per-pass round-up.
pub fn trace_os(work: &ConvWork, cfg: &AcceleratorConfig, opts: OsModelOptions) -> MachineTrace {
    steps::trace(&steps::os(work, cfg, opts))
}

/// The RS machine trace: per filter-row pass and output-row strip shape,
/// the folded pair waves' preloads, streams and drains. Every stream runs
/// exactly one MAC per busy PE per cycle.
pub fn trace_rs(work: &ConvWork, cfg: &AcceleratorConfig) -> MachineTrace {
    steps::trace(&steps::rs(work, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkKind;

    fn work(kind: WorkKind, c: usize, k: usize, f: usize, oh: usize) -> ConvWork {
        ConvWork {
            kind,
            groups: 1,
            in_channels: c,
            out_channels: k,
            kernel_h: f,
            kernel_w: f,
            stride: 1,
            in_h: oh + f - 1,
            in_w: oh + f - 1,
            out_h: oh,
            out_w: oh,
        }
    }

    fn array(n: usize, rf: usize) -> AcceleratorConfig {
        AcceleratorConfig::builder().array_size(n).rf_depth(rf).build().unwrap()
    }

    #[test]
    fn ws_segment_structure() {
        // 2 full row tiles x 1 col tile x 1 tap: one macro pair.
        let w = work(WorkKind::Dense, 16, 8, 1, 4);
        let t = trace_ws(&w, &array(8, 16));
        assert_eq!(t.segments().len(), 2);
        assert_eq!(t.steps(), 4);
        assert_eq!((t.phase_totals().load, t.phase_totals().compute), (16, 32));
        assert_eq!(t.macs(), w.macs());
    }

    #[test]
    fn ws_depthwise_burns_dense_cycles_for_diagonal_macs() {
        let t = trace_ws(&work(WorkKind::Depthwise, 16, 16, 3, 4), &array(8, 16));
        assert_eq!(t.macs(), 16 * 9 * 16);
        assert_eq!(t.phase_totals().compute, 4 * 9 * 16);
        // MobileNet-style 512 channels on 16 columns: 32x32 tile pairs x
        // 9 taps, 992 of 1024 pairs dead, still a handful of segments.
        let t = trace_ws(&work(WorkKind::Depthwise, 512, 512, 3, 7), &array(16, 16));
        assert!(t.segments().len() <= 8, "{} macro-segments", t.segments().len());
        assert_eq!(t.steps(), 2 * 32 * 32 * 9);
    }

    #[test]
    fn os_serial_loads_appear_per_channel() {
        let opts = OsModelOptions {
            sparsity: crate::os::SparsityModel::dense(),
            preload_overlap: false,
            channel_packing: false,
        };
        let w = work(WorkKind::Dense, 4, 8, 3, 8);
        let t = trace_os(&w, &array(8, 8), opts);
        // One tile, one pass, 4 channels: 10 rows x ceil(10 / 8) each.
        assert_eq!(t.phase_totals().load, 4 * 10 * 2);
        assert_eq!(t.phase_totals().compute, 4 * 72);
        assert_eq!(t.macs(), w.macs());
        // 512 channels emit two channel-budget rates, not 1024 segments.
        let t = trace_os(&work(WorkKind::Dense, 512, 64, 3, 13), &array(32, 16), opts);
        assert!(t.segments().len() < 64, "{} macro-segments", t.segments().len());
    }

    #[test]
    fn os_fc_mac_total_is_exact() {
        let fc =
            ConvWork { kind: WorkKind::FullyConnected, ..work(WorkKind::Dense, 4096, 1000, 1, 1) };
        let t = trace_os(&fc, &AcceleratorConfig::paper_default(), OsModelOptions::default());
        assert_eq!(t.macs(), 4096 * 1000);
    }

    #[test]
    fn rs_waves_preload_stream_and_drain() {
        let t = trace_rs(&work(WorkKind::Dense, 16, 32, 3, 28), &array(8, 16));
        let repeats = |p: Phase| -> u64 {
            t.segments().iter().filter(|s| s.phase == p).map(|s| s.repeat).sum()
        };
        assert!(repeats(Phase::Drain) > 0);
        assert_eq!(repeats(Phase::Load), repeats(Phase::Drain), "one drain per wave");
        assert_eq!(repeats(Phase::Compute), repeats(Phase::Drain), "one stream per wave");
        assert!(t.segments().iter().all(|s| s.macs_per_cycle <= s.active_pes));
    }

    #[test]
    fn per_cycle_expansion_is_consistent() {
        let w = work(WorkKind::Dense, 8, 16, 3, 10);
        let cfg = array(8, 8);
        for t in
            [trace_ws(&w, &cfg), trace_os(&w, &cfg, OsModelOptions::default()), trace_rs(&w, &cfg)]
        {
            assert_eq!(t.iter_cycles().count() as u64, t.cycles());
            assert_eq!(t.iter_cycles().map(|c| c.macs).sum::<u64>(), t.macs());
        }
    }
}
