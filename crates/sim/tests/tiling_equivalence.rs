//! Property test: the pruned (branch-and-bound) tiling search is
//! observationally identical to the exhaustive search it replaced.
//!
//! For arbitrary `ConvWork` shapes, buffer sizes, element widths and
//! double-buffering settings, both searches must return the same
//! `TilingPlan` (tiling, traffic, working set) — or fail with the same
//! error. Pinned regressions cover the bound's edge cases (depthwise
//! diagonal-only reuse and an r-candidate list of length one), the
//! input-channel boundary where only the largest fitting tile is
//! evaluated, and a plan whose traffic total overflows 64 bits, beside
//! the closed-form traffic model's own overflow.

use codesign_arch::{AcceleratorConfig, DataflowPolicy};
use codesign_dnn::{NetworkBuilder, Shape};
use codesign_sim::dram::conv_traffic;
use codesign_sim::{
    optimize_tiling, optimize_tiling_exhaustive, ConvWork, SimError, SimOptions, Simulator,
    TrafficModel, WorkKind,
};
use proptest::prelude::*;

fn kind() -> impl Strategy<Value = WorkKind> {
    prop_oneof![Just(WorkKind::Dense), Just(WorkKind::Depthwise), Just(WorkKind::FullyConnected),]
}

/// Arbitrary convolution-ish work. Output extents are derived from the
/// input extents so shapes stay plausible, but nothing here guarantees
/// the search finds a feasible tiling — infeasible shapes must fail
/// identically in both searches, which is exactly what we assert.
fn conv_work() -> impl Strategy<Value = ConvWork> {
    (
        kind(),
        1usize..4,    // groups
        1usize..512,  // in_channels
        1usize..1024, // out_channels
        prop_oneof![Just(1usize), Just(3), Just(5), Just(7), Just(11)],
        1usize..4,   // stride
        1usize..128, // out_h seed
        1usize..128, // out_w seed
    )
        .prop_map(|(kind, groups, c, k, f, stride, oh, ow)| {
            let (kernel_h, kernel_w, out_h, out_w) = match kind {
                WorkKind::FullyConnected => (1, 1, 1, 1),
                _ => (f, f, oh, ow),
            };
            let (out_channels, groups) = match kind {
                // Depthwise layers carry one filter per channel.
                WorkKind::Depthwise => (c, 1),
                WorkKind::FullyConnected => (k, 1),
                WorkKind::Dense => (k, groups),
            };
            ConvWork {
                kind,
                groups,
                in_channels: c,
                out_channels,
                kernel_h,
                kernel_w,
                stride,
                in_h: (out_h - 1) * stride + kernel_h,
                in_w: (out_w - 1) * stride + kernel_w,
                out_h,
                out_w,
            }
        })
}

fn buffer_kib() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(4),
        Just(8),
        Just(16),
        Just(32),
        Just(64),
        Just(128),
        Just(256),
        Just(1024),
        Just(4096),
    ]
}

fn assert_equivalent(work: &ConvWork, cfg: &AcceleratorConfig) -> Result<(), TestCaseError> {
    let pruned = optimize_tiling(work, cfg);
    let exhaustive = optimize_tiling_exhaustive(work, cfg);
    match (&pruned, &exhaustive) {
        (Ok(p), Ok(e)) => prop_assert_eq!(p, e, "plan mismatch for {:?} on {}", work, cfg),
        (Err(p), Err(e)) => prop_assert_eq!(
            format!("{p:?}"),
            format!("{e:?}"),
            "error mismatch for {:?} on {}",
            work,
            cfg
        ),
        _ => prop_assert!(
            false,
            "feasibility mismatch for {:?}: pruned={:?} exhaustive={:?}",
            work,
            pruned,
            exhaustive
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The search reads only the working buffer (global buffer, halved
    /// under double buffering) and the element width, so those are the
    /// axes drawn here. An 8×8 array keeps 1 KiB buffers legal.
    #[test]
    fn pruned_search_matches_exhaustive(
        work in conv_work(),
        buf_kib in buffer_kib(),
        bytes in prop_oneof![Just(1usize), Just(2), Just(4)],
        double_buffering in any::<bool>(),
    ) {
        let cfg = AcceleratorConfig::builder()
            .array_size(8)
            .global_buffer_bytes(buf_kib * 1024)
            .bytes_per_element(bytes)
            .double_buffering(double_buffering)
            .build()
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        assert_equivalent(&work, &cfg)?;
    }

    #[test]
    fn pruned_search_matches_exhaustive_across_arrays(
        work in conv_work(),
        array in prop_oneof![Just(8usize), Just(16), Just(32)],
        rf in prop_oneof![Just(8usize), Just(16), Just(32)],
    ) {
        let cfg = match AcceleratorConfig::builder()
            .array_size(array)
            .rf_depth(rf)
            .build()
        {
            Ok(cfg) => cfg,
            Err(_) => return Ok(()),
        };
        assert_equivalent(&work, &cfg)?;
    }
}

mod pinned {
    use super::*;

    fn check(work: &ConvWork, cfg: &AcceleratorConfig) {
        let pruned = optimize_tiling(work, cfg);
        let exhaustive = optimize_tiling_exhaustive(work, cfg);
        match (&pruned, &exhaustive) {
            (Ok(p), Ok(e)) => assert_eq!(p, e, "plan mismatch for {work:?}"),
            (Err(p), Err(e)) => {
                assert_eq!(format!("{p:?}"), format!("{e:?}"), "error mismatch for {work:?}");
            }
            _ => panic!("feasibility mismatch for {work:?}: {pruned:?} vs {exhaustive:?}"),
        }
    }

    /// Depthwise layers reuse no input across filters, which makes the
    /// channel dimension of the bound degenerate — pruning must not cut
    /// the channel loop short.
    #[test]
    fn depthwise_regression() {
        let work = ConvWork {
            kind: WorkKind::Depthwise,
            groups: 1,
            in_channels: 512,
            out_channels: 512,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            in_h: 16,
            in_w: 16,
            out_h: 14,
            out_w: 14,
        };
        for buf in [16 * 1024, 64 * 1024, 256 * 1024] {
            if let Ok(cfg) = AcceleratorConfig::builder().global_buffer_bytes(buf).build() {
                check(&work, &cfg);
            }
        }
    }

    fn work(
        kind: WorkKind,
        groups: usize,
        c: usize,
        k: usize,
        kernel: usize,
        out: usize,
    ) -> ConvWork {
        ConvWork {
            kind,
            groups,
            in_channels: c,
            out_channels: k,
            kernel_h: kernel,
            kernel_w: kernel,
            stride: 1,
            in_h: out + kernel - 1,
            in_w: out + kernel - 1,
            out_h: out,
            out_w: out,
        }
    }

    /// The pruned search evaluates only the largest input-channel tile
    /// that fits for each (strip, filter tile) pair. Pin every work kind
    /// where the winner is a proper input-channel tile: once with C a
    /// power of two whose full tile overflows, and once with C = 96,
    /// where 64 is the largest candidate that fits.
    #[test]
    fn largest_fitting_input_channel_tile_regression() {
        use WorkKind::{Dense, Depthwise, FullyConnected};
        // (work, array size, global buffer bytes, winning input-channel tile)
        let cases = [
            (work(Dense, 1, 256, 64, 1, 7), 32, 32 * 1024, 128),
            (work(Dense, 1, 96, 16, 1, 28), 32, 16 * 1024, 64),
            (work(Dense, 4, 256, 64, 1, 7), 32, 32 * 1024, 128),
            (work(Dense, 4, 96, 16, 1, 28), 32, 16 * 1024, 64),
            (work(FullyConnected, 1, 4096, 1000, 1, 1), 32, 16 * 1024, 1024),
            // 64 + 64 + 1 elements fit the 160-element working half;
            // 96 + 96 + 1 do not.
            (work(FullyConnected, 1, 96, 10, 1, 1), 2, 640, 64),
            (work(Depthwise, 1, 256, 256, 3, 7), 32, 64 * 1024, 128),
            (work(Depthwise, 1, 96, 96, 5, 7), 32, 64 * 1024, 64),
        ];
        for (work, array, buffer, in_channels) in cases {
            let cfg = AcceleratorConfig::builder()
                .array_size(array)
                .global_buffer_bytes(buffer)
                .build()
                .expect("valid pinned config");
            check(&work, &cfg);
            let plan = optimize_tiling(&work, &cfg).expect("pinned case is feasible");
            assert_eq!(plan.tiling.in_channels, in_channels, "for {work:?} on {cfg}");
        }
    }

    /// A dense 1×1 work that validates, yet whose weights-outer input
    /// traffic at filter tile 1 is exactly 2^64 − 1 bytes
    /// (641 · 65537 · 6700417 · 65535). The plan's operand sum overflows
    /// 64 bits: unchecked, it panics in debug builds and in release
    /// wraps to 131,069 bytes, which makes the plan look cheapest. Both
    /// searches must fail with the same typed error instead.
    #[test]
    fn traffic_total_overflow_regression() {
        let work = ConvWork {
            kind: WorkKind::Dense,
            groups: 1,
            in_channels: 1,
            out_channels: 65_535,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            in_h: 42_009_217,
            in_w: 6_700_417,
            out_h: 1,
            out_w: 1,
        };
        work.validate().expect("the work is within the modeling range");
        let cfg = AcceleratorConfig::builder()
            .bytes_per_element(1)
            .global_buffer_bytes(16 << 20)
            .double_buffering(false)
            .build()
            .expect("valid pinned config");
        check(&work, &cfg);
        let err = optimize_tiling(&work, &cfg).expect_err("the traffic total overflows");
        assert_eq!(err.kind(), "arithmetic_overflow", "{err}");
    }

    /// The closed-form traffic model on a dense 1×1 work that validates
    /// (2^24 input channels on a 32,768 × 29,000 plane, one filter): the
    /// 16 KiB buffer holds neither operand, so the input is re-fetched
    /// once per 4 KiB of weights, 8,192 times, and its bytes pass 64
    /// bits. Unchecked, that panics in debug builds and in release
    /// wraps to 2,954,361,357,489,143,808 bytes. It must fail typed,
    /// as the tiling search (which finds no feasible tile) does.
    #[test]
    fn closed_form_traffic_overflow_regression() {
        let net = NetworkBuilder::new("wide", Shape::new(1 << 24, 32_768, 29_000))
            .conv("c", 1, 1, 1, 0)
            .finish()
            .expect("the shape builds");
        let work = ConvWork::from_layer(&net.layers()[0]).expect("a conv layer");
        work.validate().expect("the work is within the modeling range");
        let cfg = AcceleratorConfig::builder()
            .global_buffer_bytes(16 << 10)
            .build()
            .expect("valid pinned config");
        let overflow =
            SimError::ArithmeticOverflow { layer: None, context: "closed-form DRAM traffic" };
        assert_eq!(conv_traffic(&work, &cfg), Err(overflow.clone()));
        let sim = Simulator::new();
        let policy = DataflowPolicy::PerLayer;
        let closed_form = SimOptions { traffic: TrafficModel::ClosedForm, ..Default::default() };
        let err = sim.try_simulate_network(&net, &cfg, policy, closed_form).unwrap_err();
        assert_eq!(err, overflow.for_layer("c"));
        let err = sim.try_simulate_network(&net, &cfg, policy, SimOptions::default()).unwrap_err();
        assert_eq!(err.kind(), "infeasible_tiling", "{err}");
    }

    /// A classifier-head layer with a 1×1 output plane admits exactly
    /// one row-strip candidate; the strip loop must still visit it
    /// rather than prune on the (equal) lower bound.
    #[test]
    fn single_strip_regression() {
        let work = ConvWork {
            kind: WorkKind::Dense,
            groups: 1,
            in_channels: 512,
            out_channels: 1000,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            in_h: 1,
            in_w: 1,
            out_h: 1,
            out_w: 1,
        };
        for buf in [16 * 1024, 64 * 1024, 1024 * 1024] {
            if let Ok(cfg) = AcceleratorConfig::builder().global_buffer_bytes(buf).build() {
                check(&work, &cfg);
            }
        }
    }
}
