//! Property-based panic-freedom tests: the fallible simulation API must
//! return `Ok` or a typed [`codesign_sim::SimError`] for *any* layer ×
//! configuration pair — including shapes no parser would ever emit
//! (zero-sized planes, zero groups, kernels larger than the input,
//! overflow-scale channel counts). A panic anywhere in the `try_*` path
//! fails the property.

use codesign_arch::{AcceleratorConfig, Dataflow, DataflowPolicy};
use codesign_dnn::{ConvSpec, Kernel, Layer, LayerOp, NetworkBuilder, PoolKind, Shape};
use codesign_sim::{SimOptions, Simulator};
use proptest::prelude::*;

/// A possibly-degenerate feature-map shape. Zero extents are in-range on
/// every axis: the simulator must reject them, not divide by them.
fn arb_shape() -> impl Strategy<Value = Shape> {
    (0usize..=64, 0usize..=64, 0usize..=64).prop_map(|(c, h, w)| Shape::new(c, h, w))
}

/// A possibly-degenerate layer operation. Conv kernel/stride/groups all
/// range down to 0 and up past any plausible input extent; the vendored
/// proptest's `prop_oneof!` is homogeneous, so the op kind is drawn as a
/// discriminant and mapped in one place.
fn arb_op() -> impl Strategy<Value = LayerOp> {
    (
        0usize..4, // discriminant: conv | fc | pool | gap
        0usize..=512,
        prop_oneof![Just(1usize), Just(3), Just(7), Just(11)],
        0usize..=4,
        0usize..=3,
        0usize..=4,
        0usize..=4096,
    )
        .prop_map(|(kind, out_channels, k, stride, pad, groups, out_features)| match kind {
            0 => LayerOp::Conv(ConvSpec {
                out_channels,
                kernel: Kernel::square(k),
                stride,
                pad_h: pad,
                pad_w: pad,
                groups,
            }),
            1 => LayerOp::FullyConnected { out_features },
            2 => LayerOp::Pool { kind: PoolKind::Max, kernel: k, stride, pad },
            _ => LayerOp::GlobalAvgPool,
        })
}

/// A layer whose input/output shapes need not be consistent with its op:
/// hostile by construction.
fn arb_layer() -> impl Strategy<Value = (Layer, bool)> {
    (arb_op(), arb_shape(), arb_shape(), any::<bool>()).prop_map(|(op, input, output, first)| {
        let layer = Layer {
            name: "hostile".to_owned(),
            op,
            input,
            output,
            is_first_conv: first,
            primary_input: None,
            extra_input: None,
        };
        (layer, first)
    })
}

/// A hardware point drawn from the builder's full accepted range plus
/// out-of-range values (which must surface as a builder error, never a
/// panic downstream).
fn arb_config() -> impl Strategy<Value = Option<AcceleratorConfig>> {
    (
        prop_oneof![Just(2usize), Just(4), Just(8), Just(32), Just(0), Just(1000)],
        prop_oneof![Just(1usize), Just(4), Just(16), Just(0)],
        prop_oneof![Just(1usize), Just(2), Just(8), Just(0)],
        prop_oneof![Just(1usize), Just(8), Just(1024), Just(128 * 1024)],
        any::<bool>(),
    )
        .prop_map(|(array, rf, bpe, buffer, double)| {
            let mut b = AcceleratorConfig::builder();
            b.array_size(array)
                .rf_depth(rf)
                .bytes_per_element(bpe)
                .global_buffer_bytes(buffer)
                .double_buffering(double);
            // An invalid point is a valid outcome: the builder rejected
            // it before the simulator ever saw it.
            b.build().ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any layer on any buildable configuration either simulates or is
    /// rejected with a typed error — under both dataflows, in both the
    /// analytic and event-driven engines.
    #[test]
    fn simulation_never_panics((layer, _) in arb_layer(), cfg in arb_config()) {
        let Some(cfg) = cfg else { return Ok(()) };
        let opts = SimOptions::paper_default();
        for dataflow in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
            let _ = Simulator::new().try_simulate_layer(&layer, &cfg, opts, dataflow);
            let _ = Simulator::new().try_simulate_layer_event(&layer, &cfg, opts, dataflow);
        }
    }

    /// A rejection must identify itself: non-empty message, known kind.
    #[test]
    fn errors_are_self_describing((layer, _) in arb_layer(), cfg in arb_config()) {
        let Some(cfg) = cfg else { return Ok(()) };
        let opts = SimOptions::paper_default();
        if let Err(e) = Simulator::new().try_simulate_layer(&layer, &cfg, opts, Dataflow::WeightStationary) {
            prop_assert!(!e.to_string().is_empty());
            prop_assert!([
                "infeasible_tiling",
                "unsupported_layer",
                "arithmetic_overflow",
                "buffer_exceeded",
                "invalid_workload",
            ].contains(&e.kind()));
        }
    }

    /// Whole parser-built networks (always shape-consistent) never panic
    /// either, on arbitrary hardware.
    #[test]
    fn well_formed_networks_never_panic(
        c in 1usize..=16, hw in 1usize..=32, k in prop_oneof![Just(1usize), Just(3), Just(7)],
        out in 1usize..=32, cfg in arb_config(),
    ) {
        let Some(cfg) = cfg else { return Ok(()) };
        let net = NetworkBuilder::new("prop", Shape::new(c, hw, hw))
            .conv("c1", out, k, 1, k / 2)
            .global_avg_pool("gap")
            .fully_connected("fc", 10)
            .finish();
        // Builder may reject (e.g. kernel larger than padded input) —
        // also a non-panic outcome.
        if let Ok(net) = net {
            let opts = SimOptions::paper_default();
            let _ = Simulator::new().try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts);
            let _ = Simulator::new().try_compare_taxonomy(&net, &cfg, opts);
        }
    }
}

/// The three degenerate cases the issue names, pinned as plain tests so
/// they run on every `cargo test` regardless of proptest seeds.
mod pinned {
    use super::*;

    fn conv(name: &str, input: Shape, output: Shape, spec: ConvSpec) -> Layer {
        Layer {
            name: name.to_owned(),
            op: LayerOp::Conv(spec),
            input,
            output,
            is_first_conv: false,
            primary_input: None,
            extra_input: None,
        }
    }

    #[test]
    fn zero_channel_layer_is_rejected_not_panicked() {
        let cfg = AcceleratorConfig::paper_default();
        let layer = conv(
            "zero-ch",
            Shape::new(0, 8, 8),
            Shape::new(16, 8, 8),
            ConvSpec {
                out_channels: 16,
                kernel: Kernel::square(3),
                stride: 1,
                pad_h: 1,
                pad_w: 1,
                groups: 1,
            },
        );
        let err = Simulator::new()
            .try_simulate_layer(
                &layer,
                &cfg,
                SimOptions::paper_default(),
                Dataflow::WeightStationary,
            )
            .expect_err("zero input channels must be rejected");
        assert_eq!(err.kind(), "invalid_workload");
    }

    #[test]
    fn seven_by_seven_filter_on_one_by_one_input_is_rejected() {
        let cfg = AcceleratorConfig::paper_default();
        let layer = conv(
            "big-k",
            Shape::new(3, 1, 1),
            Shape::new(16, 1, 1),
            ConvSpec {
                out_channels: 16,
                kernel: Kernel::square(7),
                stride: 1,
                pad_h: 0,
                pad_w: 0,
                groups: 1,
            },
        );
        for dataflow in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
            let err = Simulator::new()
                .try_simulate_layer(&layer, &cfg, SimOptions::paper_default(), dataflow)
                .expect_err("7x7 kernel cannot slide over a 1x1 plane");
            assert_eq!(err.kind(), "invalid_workload");
        }
    }

    #[test]
    fn one_byte_buffer_is_rejected_by_the_builder() {
        // The builder's floor (double the smallest array's working set)
        // makes a 1-byte global buffer unrepresentable — the config is
        // refused before any simulation can divide by it.
        let mut b = AcceleratorConfig::builder();
        b.array_size(2).bytes_per_element(1).global_buffer_bytes(1);
        assert!(b.build().is_err());
    }
}
