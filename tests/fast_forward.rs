//! Property tests for the run-length schedules and the fast-forward
//! event model.
//!
//! Each dataflow's schedule is written once, as run-length steps, and
//! folded two ways: into `ComputePerf` (`simulate_ws`/`simulate_os`/
//! `simulate_rs`) and into a `MachineTrace` (`cycle::trace_*`). Both folds
//! must equal the test-only loop-nest spec (`tests/loopnest`), which walks
//! every schedule step literally — every phase total, the MAC count, every
//! access counter, and every trace aggregate. Likewise the event model's
//! steady-state time skip must reproduce the tile-by-tile baseline
//! exactly. These invariants are the licence to ship the fast paths as
//! the defaults.

mod loopnest;

use codesign::arch::{AcceleratorConfig, DataflowPolicy};
use codesign::dnn::{zoo, Network, NetworkBuilder, Shape};
use codesign::sim::cycle::{self, MachineTrace};
use codesign::sim::{
    simulate_os, simulate_rs, simulate_ws, try_simulate_network_event_mode, ComputePerf, ConvWork,
    OsModelOptions, SimOptions, SparsityModel, TimeSkip, WorkKind,
};
use loopnest::Walk;
use proptest::prelude::*;

/// Every observable count of both folds must equal the spec walk's.
fn assert_folds_match_spec(perf: &ComputePerf, trace: &MachineTrace, spec: &Walk, what: &str) {
    assert_eq!(perf.phases, spec.perf.phases, "{what}: per-phase cycles");
    assert_eq!(perf.executed_macs, spec.perf.executed_macs, "{what}: executed MACs");
    assert_eq!(perf.accesses, spec.perf.accesses, "{what}: access counts");
    assert_eq!(trace.cycles(), spec.trace.cycles(), "{what}: trace cycles");
    assert_eq!(trace.phase_totals(), spec.trace.phase_totals(), "{what}: trace phases");
    assert_eq!(trace.macs(), spec.trace.macs(), "{what}: trace MACs");
    assert_eq!(trace.active_pe_cycles(), spec.trace.active_pe_cycles(), "{what}: busy-PE cycles");
    assert_eq!(trace.steps(), spec.trace.steps(), "{what}: expanded step count");
}

fn check_all_dataflows(work: &ConvWork, cfg: &AcceleratorConfig, os_opts: OsModelOptions) {
    assert_folds_match_spec(
        &simulate_ws(work, cfg),
        &cycle::trace_ws(work, cfg),
        &loopnest::ws(work, cfg, None),
        &format!("ws {work:?} on {cfg}"),
    );
    assert_folds_match_spec(
        &simulate_os(work, cfg, os_opts),
        &cycle::trace_os(work, cfg, os_opts),
        &loopnest::os(work, cfg, os_opts, None),
        &format!("os {work:?} on {cfg} with {os_opts:?}"),
    );
    assert_folds_match_spec(
        &simulate_rs(work, cfg),
        &cycle::trace_rs(work, cfg),
        &loopnest::rs(work, cfg),
        &format!("rs {work:?} on {cfg}"),
    );
}

/// A random but well-formed accelerator configuration.
fn config() -> impl Strategy<Value = AcceleratorConfig> {
    (
        prop_oneof![Just(8usize), Just(16), Just(32)],
        prop_oneof![Just(4usize), Just(8), Just(16), Just(32)],
        prop_oneof![Just(64usize), Just(128), Just(256)],
        any::<bool>(),
    )
        .prop_map(|(n, rf, kb, db)| {
            AcceleratorConfig::builder()
                .array_size(n)
                .rf_depth(rf)
                .global_buffer_bytes(kb * 1024)
                .double_buffering(db)
                .build()
                .expect("generated configurations are valid")
        })
}

/// A random convolution workload covering dense, grouped, depthwise,
/// and fully-connected shapes.
fn work() -> impl Strategy<Value = ConvWork> {
    (
        prop_oneof![
            Just(WorkKind::Dense),
            Just(WorkKind::Depthwise),
            Just(WorkKind::FullyConnected),
        ],
        1usize..=96, // channels (per group)
        1usize..=96, // filters (per group)
        prop_oneof![Just(1usize), Just(3), Just(5), Just(7)],
        1usize..=2,  // stride
        1usize..=32, // output extent
        prop_oneof![Just(1usize), Just(2), Just(4)],
    )
        .prop_map(|(kind, c, k, f, stride, oh, g)| {
            let (groups, cin, cout, f, stride, oh) = match kind {
                WorkKind::Depthwise => (1, c, c, f, stride, oh),
                WorkKind::FullyConnected => (1, c * 16, k * 8, 1, 1, 1),
                _ => (g, c * g, k * g, f, stride, oh),
            };
            ConvWork {
                kind,
                groups,
                in_channels: cin,
                out_channels: cout,
                kernel_h: f,
                kernel_w: f,
                stride,
                in_h: (oh - 1) * stride + f,
                in_w: (oh - 1) * stride + f,
                out_h: oh,
                out_w: oh,
            }
        })
}

/// Random OS datapath model switches.
fn os_opts() -> impl Strategy<Value = OsModelOptions> {
    (prop_oneof![Just(0.0f64), Just(0.25), Just(0.4)], any::<bool>(), any::<bool>(), any::<bool>())
        .prop_map(|(zero_fraction, exploit, preload_overlap, channel_packing)| OsModelOptions {
            sparsity: SparsityModel { zero_fraction, exploit },
            preload_overlap,
            channel_packing,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The schedules' contract: both folds == the loop-nest spec, bit
    /// for bit, over arbitrary `ConvWork` × `AcceleratorConfig` × OS model
    /// options.
    #[test]
    fn fast_forward_machines_match_the_spec(
        work in work(),
        cfg in config(),
        os_opts in os_opts(),
    ) {
        work.validate().expect("generated workloads are well-formed");
        check_all_dataflows(&work, &cfg, os_opts);
    }
}

fn pinned(
    kind: WorkKind,
    groups: usize,
    c: usize,
    k: usize,
    f: usize,
    s: usize,
    oh: usize,
) -> ConvWork {
    ConvWork {
        kind,
        groups,
        in_channels: c,
        out_channels: k,
        kernel_h: f,
        kernel_w: f,
        stride: s,
        in_h: (oh - 1) * s + f,
        in_w: (oh - 1) * s + f,
        out_h: oh,
        out_w: oh,
    }
}

/// Shapes that have historically exercised distinct aggregation paths:
/// depthwise (off-diagonal dead tiles), grouped dense, 1×1 pointwise, a
/// single-tile layer whose whole schedule is one repeat block, and an
/// 11×11 kernel taller than an 8-row array (two RS row passes).
#[test]
fn pinned_regressions_match_the_spec() {
    let cases = [
        pinned(WorkKind::Depthwise, 1, 32, 32, 3, 1, 112), // MobileNet stem block
        pinned(WorkKind::Depthwise, 1, 512, 512, 3, 2, 7),
        pinned(WorkKind::Dense, 2, 48, 128, 5, 1, 27), // AlexNet-style grouped conv
        pinned(WorkKind::Dense, 4, 64, 64, 3, 1, 14),
        pinned(WorkKind::Dense, 1, 96, 16, 1, 1, 55), // fire-module squeeze (1×1)
        pinned(WorkKind::Dense, 1, 8, 8, 3, 1, 4),    // single tile on every array size
        pinned(WorkKind::FullyConnected, 1, 4096, 1000, 1, 1, 1),
        pinned(WorkKind::Dense, 1, 3, 96, 11, 4, 55), // AlexNet conv1
    ];
    let cfgs = [
        AcceleratorConfig::paper_default(),
        AcceleratorConfig::builder().array_size(8).rf_depth(32).build().expect("valid config"),
    ];
    for cfg in &cfgs {
        for work in &cases {
            work.validate().expect("pinned workloads are well-formed");
            check_all_dataflows(work, cfg, OsModelOptions::paper_default());
        }
    }
}

/// The event pipeline's steady-state time skip must reproduce the
/// tile-by-tile baseline exactly — totals, per-layer results, stall and
/// utilization accounting — across the whole six-network zoo.
#[test]
fn event_time_skip_matches_the_interleaved_baseline_on_the_zoo() {
    let cfg = AcceleratorConfig::paper_default();
    let opts = SimOptions::paper_default();
    for net in zoo::table_networks() {
        let fast = try_simulate_network_event_mode(
            &net,
            &cfg,
            DataflowPolicy::PerLayer,
            opts,
            TimeSkip::Enabled,
        )
        .expect("zoo networks simulate");
        let baseline = try_simulate_network_event_mode(
            &net,
            &cfg,
            DataflowPolicy::PerLayer,
            opts,
            TimeSkip::Disabled,
        )
        .expect("zoo networks simulate");
        assert_eq!(fast, baseline, "{}", net.name());
    }
}

/// A one-convolution network on a configuration whose buffer ranges from
/// a few tiles' worth to the whole layer. The event lowering's tile count
/// then runs from 1 (untiled, one group) through the group count
/// (untiled, two to four groups) to hundreds, with and without remainders
/// on the last tile; the 512 cases below draw every such combination in
/// both buffering modes. On a 16×16 array the tiles compute quickly
/// enough that the DMA's access latency shapes the steady state, so a
/// jump that lands on the wrong tile changes the layer's cycles.
fn one_conv_case() -> impl Strategy<Value = (Network, AcceleratorConfig)> {
    (
        1usize..=4,  // groups
        1usize..=12, // channels per group
        1usize..=12, // filters per group
        prop_oneof![Just(1usize), Just(3)],
        1usize..=2,  // stride
        1usize..=20, // output extent
        prop_oneof![Just(1usize), Just(2), Just(4), Just(8), Just(16), Just(32), Just(64)],
        prop_oneof![Just(1usize), Just(2)],
        any::<bool>(),
    )
        .prop_map(|(g, c, k, f, stride, out, kib, bytes, double_buffering)| {
            let side = (out - 1) * stride + f;
            let net = NetworkBuilder::new("one-conv", Shape::new(c * g, side, side))
                .grouped_conv("conv", k * g, f, stride, 0, g)
                .finish()
                .expect("generated networks are well-formed");
            let cfg = AcceleratorConfig::builder()
                .array_size(16)
                .global_buffer_bytes(kib * 1024)
                .bytes_per_element(bytes)
                .double_buffering(double_buffering)
                .build()
                .expect("generated configurations are valid");
            (net, cfg)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The jump over a run-length layer's body tiles must land exactly
    /// where the tile-by-tile walk does, at every tile count and in both
    /// buffering modes: the steady window's `- 2` is where an off-by-one
    /// would hide.
    #[test]
    fn event_time_skip_matches_the_tile_walk_on_one_conv_layers(
        (net, cfg) in one_conv_case(),
    ) {
        let opts = SimOptions::paper_default();
        let run = |skip| {
            try_simulate_network_event_mode(&net, &cfg, DataflowPolicy::PerLayer, opts, skip)
        };
        let (fast, walk) = (run(TimeSkip::Enabled), run(TimeSkip::Disabled));
        prop_assert_eq!(format!("{fast:?}"), format!("{walk:?}"), "{} on {}", net, cfg);
    }
}
