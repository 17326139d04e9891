//! Property-based tests spanning the whole stack: random layer shapes
//! and accelerator configurations must uphold the simulator's structural
//! invariants, and randomly built networks must survive the full
//! pipeline.

use codesign::arch::{AcceleratorConfig, Dataflow, DataflowPolicy};
use codesign::dnn::{Network, NetworkBuilder, Shape};
use codesign::sim::{
    ConvWork, OsModelOptions, Program, SimOptions, Simulator, SparsityModel, WorkKind,
};
use proptest::prelude::*;

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

/// A random convolution workload.
fn conv_work() -> impl Strategy<Value = ConvWork> {
    (
        prop_oneof![Just(WorkKind::Dense), Just(WorkKind::Depthwise)],
        1usize..=128, // channels
        1usize..=128, // filters
        prop_oneof![Just(1usize), Just(3), Just(5), Just(7)],
        1usize..=2,  // stride
        1usize..=64, // output extent
    )
        .prop_map(|(kind, c, k, f, stride, oh)| {
            let (cin, cout) = match kind {
                WorkKind::Depthwise => (c, c),
                _ => (c, k),
            };
            ConvWork {
                kind,
                groups: 1,
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

/// A random small network with mixed layer types.
fn network() -> impl Strategy<Value = Network> {
    (
        2usize..=4,   // input channels
        12usize..=48, // input extent
        1usize..=4,   // block count
        any::<u64>(),
    )
        .prop_map(|(c, hw, blocks, seed)| {
            let mut b = NetworkBuilder::new("prop", Shape::new(c, hw, hw));
            let mut width = 8 + (seed % 8) as usize;
            b.conv("stem", width, 3, 1, 1);
            for i in 0..blocks {
                match (seed >> (i * 8)) % 4 {
                    0 => {
                        b.pointwise_conv(&format!("pw{i}"), width * 2);
                        width *= 2;
                    }
                    1 => {
                        b.depthwise_conv(&format!("dw{i}"), 3, 1, 1);
                    }
                    2 => {
                        b.conv(&format!("sp{i}"), width, 3, 1, 1);
                    }
                    _ => {
                        b.fire(&format!("fire{i}"), width / 2, width, width);
                        width *= 2;
                    }
                }
            }
            b.global_avg_pool("gap");
            b.fully_connected("fc", 10);
            b.finish().expect("generated networks are shape-consistent")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-layer hybrid choice is exactly min(WS, OS); utilizations stay
    /// in range; cycles and energy are positive.
    #[test]
    fn hybrid_invariants(net in network(), cfg in config()) {
        let opts = SimOptions::paper_default();
        let hybrid = Simulator::new().try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts).unwrap();
        let ws = Simulator::new().try_simulate_network(&net, &cfg, DataflowPolicy::Fixed(Dataflow::WeightStationary), opts).unwrap();
        let os = Simulator::new().try_simulate_network(&net, &cfg, DataflowPolicy::Fixed(Dataflow::OutputStationary), opts).unwrap();
        for ((h, w), o) in hybrid.layers.iter().zip(&ws.layers).zip(&os.layers) {
            prop_assert_eq!(h.total_cycles, w.total_cycles.min(o.total_cycles));
            prop_assert!((0.0..=1.0).contains(&h.utilization));
            prop_assert!(h.total_cycles > 0);
        }
    }

    /// The WS dataflow executes every algorithmic MAC.
    #[test]
    fn ws_mac_conservation(net in network(), cfg in config()) {
        let opts = SimOptions::paper_default();
        let ws = Simulator::new().try_simulate_network(&net, &cfg, DataflowPolicy::Fixed(Dataflow::WeightStationary), opts).unwrap();
        prop_assert_eq!(ws.total_macs(), net.total_macs());
    }

    /// OS zero-skipping removes work monotonically in the zero fraction,
    /// up to per-pass rounding (broadcast and stall counts quantize to
    /// whole cycles, so a sparser layer may cost a few cycles more).
    #[test]
    fn os_sparsity_is_monotone(work in conv_work(), cfg in config()) {
        let mut last = u64::MAX;
        for tenths in [0u8, 2, 4, 6, 8] {
            let opts = OsModelOptions::paper_default().with_sparsity(SparsityModel {
                zero_fraction: f64::from(tenths) / 10.0,
                exploit: true,
            });
            let perf = codesign::sim::simulate_os(&work, &cfg, opts);
            let slack = 2 + last / 50; // 2% + 2 cycles of rounding head-room
            prop_assert!(
                perf.cycles() <= last.saturating_add(slack),
                "{} > {last} + {slack}",
                perf.cycles()
            );
            last = last.min(perf.cycles());
        }
    }

    /// A deeper register file never slows the OS dataflow down.
    #[test]
    fn os_rf_depth_is_monotone(work in conv_work()) {
        let mut last = u64::MAX;
        for rf in [4usize, 8, 16, 32] {
            let cfg = AcceleratorConfig::builder().rf_depth(rf).build().unwrap();
            let perf = codesign::sim::simulate_os(&work, &cfg, OsModelOptions::paper_default());
            prop_assert!(perf.cycles() <= last, "rf {} got slower", rf);
            last = perf.cycles();
        }
    }

    /// The tiling search always returns a plan that fits (or honestly
    /// reports the overflow), and its traffic is at least the
    /// move-everything-once lower bound. Note the input bound counts only
    /// the rows the convolution actually reads — with stride > kernel,
    /// whole input rows are skipped and never fetched.
    #[test]
    fn tiling_plan_is_sound(work in conv_work(), cfg in config()) {
        let Ok(plan) = codesign::sim::optimize_tiling(&work, &cfg) else {
            // An honest InfeasibleTiling rejection is a sound outcome.
            return Ok(());
        };
        let e = cfg.bytes_per_element() as u64;
        // Row *count* actually read: bounded by the span and, when the
        // stride exceeds the kernel, by out_h disjoint kernel_h-row bands.
        let needed_rows = ((work.out_h - 1) * work.stride + work.kernel_h)
            .min(work.in_h)
            .min(work.out_h * work.kernel_h);
        let input_lower = (work.in_channels * needed_rows * work.in_w) as u64;
        let lower = input_lower * e
            + work.weight_elements() * e
            + work.output_elements() * e;
        prop_assert!(plan.traffic.total() >= lower, "{} < {lower}", plan.traffic.total());
        prop_assert!(plan.working_set > 0);
    }

    /// Per-image cost never increases with batch size.
    #[test]
    fn batching_is_monotone(net in network(), batch in 1u64..=8) {
        let cfg = AcceleratorConfig::paper_default();
        let opts = SimOptions::paper_default();
        let b1 = Simulator::new().try_simulate_network_batched(&net, &cfg, DataflowPolicy::PerLayer, opts, 1).unwrap()
            .total_cycles() as f64;
        let bn = Simulator::new().try_simulate_network_batched(&net, &cfg, DataflowPolicy::PerLayer, opts, batch).unwrap()
            .total_cycles() as f64 / batch as f64;
        prop_assert!(bn <= b1 * 1.0001, "batch {batch}: {bn} > {b1}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Networks that the text format can express round-trip through it
    /// without changing structure or cost.
    #[test]
    fn textfmt_round_trips(net in network()) {
        if let Some(text) = codesign::dnn::write_network(&net) {
            let again = codesign::dnn::parse_network(&text)
                .expect("serialized networks parse back");
            prop_assert_eq!(net.total_macs(), again.total_macs());
            prop_assert_eq!(net.total_params(), again.total_params());
            prop_assert_eq!(net.layers().len(), again.layers().len());
            prop_assert_eq!(net.output(), again.output());
        }
    }

    /// The compiled command stream replays to exactly the simulator's
    /// totals on arbitrary networks.
    #[test]
    fn program_replay_matches(net in network()) {
        let cfg = AcceleratorConfig::paper_default();
        let opts = SimOptions::paper_default();
        let program = Program::try_compile(&Simulator::new(), &net, &cfg, DataflowPolicy::PerLayer, opts).unwrap();
        let simulated = Simulator::new().try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts).unwrap();
        prop_assert_eq!(program.estimate(&cfg), simulated.total_cycles());
    }

    /// Fusion plans partition the layer list for any network and buffer.
    #[test]
    fn fusion_plans_partition(net in network(), kib in 64usize..=4096) {
        let Ok(cfg) = AcceleratorConfig::builder().global_buffer_bytes(kib * 1024).build()
        else { return Ok(()); };
        let groups = codesign::core::plan_fusion(&net, &cfg);
        let covered: Vec<&str> =
            groups.iter().flat_map(|g| g.layers.iter().map(String::as_str)).collect();
        let expected: Vec<&str> = net.layers().iter().map(|l| l.name.as_str()).collect();
        prop_assert_eq!(covered, expected);
    }
}
