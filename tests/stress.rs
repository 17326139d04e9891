//! Stress and failure-injection tests: extreme configurations, degenerate
//! networks, and hostile inputs must degrade gracefully, never panic or
//! produce nonsense.

use codesign::arch::{AcceleratorConfig, Dataflow, DataflowPolicy, DramModel, EnergyModel};
use codesign::dnn::{parse_network, write_network, zoo, NetworkBuilder, Shape};
use codesign::sim::{validate_network, Program, SimOptions, Simulator, TimeSkip};

fn opts() -> SimOptions {
    SimOptions::paper_default()
}

#[test]
fn tiny_array_tiny_buffer_rejects_with_infeasible_tiling() {
    // A 64-byte buffer cannot hold even the smallest tile of a real
    // network: the simulator must refuse with a typed error naming the
    // layer — never panic, never fall back to a tiling that doesn't fit.
    let cfg = AcceleratorConfig::builder()
        .array_size(2)
        .rf_depth(1)
        .global_buffer_bytes(64)
        .build()
        .unwrap();
    let net = zoo::squeezenet_v1_1();
    for policy in [
        DataflowPolicy::PerLayer,
        DataflowPolicy::Fixed(Dataflow::WeightStationary),
        DataflowPolicy::Fixed(Dataflow::OutputStationary),
    ] {
        let err = Simulator::new()
            .try_simulate_network(&net, &cfg, policy, opts())
            .expect_err("64 B cannot fit any tile");
        assert_eq!(err.kind(), "infeasible_tiling");
        assert!(err.layer().is_some(), "error should name the layer: {err}");
    }
}

#[test]
fn tiny_array_small_buffer_still_simulates() {
    // The same tiny array with a small-but-sufficient buffer simulates
    // the whole network under every policy.
    let cfg = AcceleratorConfig::builder()
        .array_size(2)
        .rf_depth(1)
        .global_buffer_bytes(64 * 1024)
        .build()
        .unwrap();
    let net = zoo::squeezenet_v1_1();
    for policy in [
        DataflowPolicy::PerLayer,
        DataflowPolicy::Fixed(Dataflow::WeightStationary),
        DataflowPolicy::Fixed(Dataflow::OutputStationary),
    ] {
        let perf = Simulator::new().try_simulate_network(&net, &cfg, policy, opts()).unwrap();
        assert!(perf.total_cycles() > 0);
        for l in &perf.layers {
            assert!((0.0..=1.0).contains(&l.utilization), "{}", l.name);
        }
    }
}

#[test]
fn huge_array_on_tiny_network() {
    let cfg = AcceleratorConfig::builder()
        .array_size(256)
        .global_buffer_bytes(8 * 1024 * 1024)
        .build()
        .unwrap();
    let net =
        NetworkBuilder::new("tiny", Shape::new(1, 4, 4)).conv("c", 1, 1, 1, 0).finish().unwrap();
    let perf = Simulator::new()
        .try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts())
        .unwrap();
    assert!(perf.total_cycles() > 0);
    // 16 MACs on 65536 PEs: utilization is minuscule but well-formed.
    assert!(perf.layers[0].utilization < 1e-3);
}

#[test]
fn pathological_dram_models() {
    let net = zoo::tiny_darknet();
    // Glacial DRAM: everything is memory bound, nothing panics.
    let slow = AcceleratorConfig::builder()
        .dram(DramModel { latency_cycles: 100_000, bytes_per_cycle: 0.01 })
        .build()
        .unwrap();
    let p_slow = Simulator::new()
        .try_simulate_network(&net, &slow, DataflowPolicy::PerLayer, opts())
        .unwrap();
    // Instant DRAM: everything is compute bound.
    let fast = AcceleratorConfig::builder()
        .dram(DramModel { latency_cycles: 0, bytes_per_cycle: 1e12 })
        .build()
        .unwrap();
    let p_fast = Simulator::new()
        .try_simulate_network(&net, &fast, DataflowPolicy::PerLayer, opts())
        .unwrap();
    assert!(p_slow.total_cycles() > 100 * p_fast.total_cycles());
    for l in &p_fast.layers {
        assert_eq!(l.dram_cycles, if l.dram_bytes == 0 { 0 } else { 1 }.min(l.dram_cycles));
    }
}

#[test]
fn detection_scale_input_simulates_everywhere() {
    // The SqueezeDet trunk's 18 MB activations exercise every tiling path.
    let cfg = AcceleratorConfig::paper_default();
    let net = zoo::squeezedet_trunk();
    let analytic = Simulator::new()
        .try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts())
        .unwrap();
    let event = Simulator::new()
        .try_simulate_network_event(&net, &cfg, DataflowPolicy::PerLayer, opts(), TimeSkip::Enabled)
        .unwrap();
    assert!(analytic.total_cycles() > 0);
    let ratio = event.total_cycles() as f64 / analytic.total_cycles() as f64;
    assert!((0.8..1.5).contains(&ratio), "event/analytic = {ratio:.3}");
}

#[test]
fn degenerate_networks_are_handled() {
    // 1x1 input image.
    let dot = NetworkBuilder::new("dot", Shape::new(8, 1, 1))
        .pointwise_conv("pw", 4)
        .fully_connected("fc", 2)
        .finish()
        .unwrap();
    let cfg = AcceleratorConfig::paper_default();
    let perf = Simulator::new()
        .try_simulate_network(&dot, &cfg, DataflowPolicy::PerLayer, opts())
        .unwrap();
    assert_eq!(perf.layers.len(), 2);

    // Single-channel depthwise.
    let mono = NetworkBuilder::new("mono", Shape::new(1, 16, 16))
        .depthwise_conv("dw", 3, 1, 1)
        .finish()
        .unwrap();
    assert!(
        Simulator::new()
            .try_simulate_network(&mono, &cfg, DataflowPolicy::PerLayer, opts())
            .unwrap()
            .total_cycles()
            > 0
    );
}

#[test]
fn hostile_simulator_inputs_are_refused_with_their_kind() {
    use codesign::dnn::{ConvSpec, Kernel, Layer, LayerOp};
    use codesign::sim::MultiCoreConfig;

    const INVALID: &str = "invalid_workload";
    const OVERFLOW: &str = "arithmetic_overflow";
    const INFEASIBLE: &str = "infeasible_tiling";
    const HUGE: usize = 1 << 21; // HUGE^3 overflows the bounded 64-bit range
    let (s, v) = (Shape::new, Shape::vector);
    let conv = |out_channels, k, stride, groups| {
        let kernel = Kernel::square(k);
        LayerOp::Conv(ConvSpec { out_channels, kernel, stride, pad_h: 0, pad_w: 0, groups })
    };
    let fc = |out_features| LayerOp::FullyConnected { out_features };
    let paper = AcceleratorConfig::paper_default();
    // The smallest buffer the builder accepts: feasible for almost nothing.
    let tiny = AcceleratorConfig::builder()
        .array_size(2)
        .bytes_per_element(1)
        .global_buffer_bytes(8)
        .double_buffering(false)
        .build()
        .unwrap();

    // Hand-built layers that no `NetworkBuilder` would produce: each is
    // refused under both dataflows with its kind, and the error names it.
    let layers = [
        ("conv/3x3-on-2x2-input", &paper, conv(8, 3, 1, 1), s(8, 2, 2), s(8, 2, 2), INVALID),
        ("conv/zero-out-channels", &paper, conv(0, 3, 1, 1), s(4, 8, 8), s(0, 8, 8), INVALID),
        ("conv/zero-height-input", &paper, conv(4, 1, 1, 1), s(4, 0, 8), s(4, 1, 8), INVALID),
        ("conv/zero-width-input", &paper, conv(4, 1, 1, 1), s(4, 8, 0), s(4, 8, 1), INVALID),
        ("conv/zero-kernel", &paper, conv(4, 0, 1, 1), s(4, 8, 8), s(4, 8, 8), INVALID),
        ("conv/zero-stride", &paper, conv(4, 3, 0, 1), s(4, 8, 8), s(4, 8, 8), INVALID),
        ("conv/zero-groups", &paper, conv(4, 3, 1, 0), s(4, 8, 8), s(4, 8, 8), INVALID),
        ("conv/zero-output-plane", &paper, conv(4, 3, 1, 1), s(4, 8, 8), s(4, 0, 0), INVALID),
        ("fc/zero-features", &paper, fc(0), v(64), v(0), INVALID),
        ("fc/zero-input", &paper, fc(10), v(0), v(10), INVALID),
        (
            "overflow/mac-count",
            &paper,
            conv(HUGE, 1, 1, 1),
            s(HUGE, HUGE, HUGE),
            s(HUGE, HUGE, HUGE),
            OVERFLOW,
        ),
        (
            "overflow/channel-square",
            &paper,
            conv(1 << 30, 16, 1, 1),
            s(1 << 30, 16, 16),
            s(1 << 30, 1, 1),
            OVERFLOW,
        ),
        (
            "overflow/input-elements",
            &paper,
            conv(1, 1, 1, 1),
            s(1 << 30, 1 << 30, 1 << 14),
            s(1, 1, 1),
            OVERFLOW,
        ),
        (
            "overflow/fc-features",
            &paper,
            fc(usize::MAX / 2),
            v(1 << 20),
            v(usize::MAX / 2),
            OVERFLOW,
        ),
        (
            "buffer/single-conv-tiling",
            &tiny,
            conv(128, 3, 1, 1),
            s(128, 56, 56),
            s(128, 56, 56),
            INFEASIBLE,
        ),
    ];
    for (case, cfg, op, input, output, kind) in layers {
        let layer = Layer {
            name: case.to_owned(),
            op,
            input,
            output,
            is_first_conv: false,
            primary_input: None,
            extra_input: None,
        };
        for flow in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
            let err =
                Simulator::new().try_simulate_layer(&layer, cfg, opts(), flow).expect_err(case);
            assert_eq!((err.kind(), err.layer()), (kind, Some(case)), "{case} on {flow}: {err}");
        }
    }

    // Whole networks: refused at the core count, before any layer, or at
    // the first layer whose smallest tile overflows the buffer.
    let (sim, policy) = (Simulator::new(), DataflowPolicy::PerLayer);
    let no_cores = MultiCoreConfig { core: paper, cores: 0 };
    let networks = [
        (
            "overflow/zero-cores",
            sim.try_simulate_network_multicore(&zoo::tiny_darknet(), &no_cores, policy, opts()),
            INVALID,
            None,
        ),
        (
            "buffer/mobilenet-on-8-bytes",
            sim.try_simulate_network(&zoo::mobilenet_v1(), &tiny, policy, opts()),
            INFEASIBLE,
            Some("conv1"),
        ),
    ];
    for (case, result, kind, layer) in networks {
        let err = result.expect_err(case);
        assert_eq!((err.kind(), err.layer()), (kind, layer), "{case}: {err}");
    }
}

/// Seven malformed `.net` files: empty, header-only, truncated, an
/// unknown op, non-numeric dimensions, a bad stride token and a kernel
/// larger than its input.
const MALFORMED_NETFILES: [&str; 7] = [
    "",
    "network t 3x224x224\n",
    "network t 3x224x224\nconv conv1 64 3",
    "network t 3x224x224\nfrobnicate x 1 2 3\n",
    "network t 3x224x224\nconv conv1 sixty-four 3 1 1\n",
    "network t 3x224x224\nconv conv1 64 3 zz p1\n",
    "network t 3x8x8\nconv conv1 64 11 s1\n",
];

/// A fixed-seed xorshift64 generator: the mutants are the same on every
/// run.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn hostile_model_files_error_cleanly() {
    for text in [
        "",
        "network",
        "network x 3x3",                    // 2-dim shape
        "network x 0x3x3\nconv c 1 1 s1\n", // zero channel... builder output 0? conv on 0 channels
        &"conv c 8 3 s1\n".repeat(10_000),  // no network header, large input
        "network x 3x8x8\nfire f 0 0 0\n",
        "network x 3x8x8\nconv c 99999999999999999999 3 s1\n", // overflow
    ]
    .into_iter()
    .chain(MALFORMED_NETFILES)
    {
        let result = parse_network(text);
        assert!(result.is_err(), "should reject: {:.40}...", text);
    }

    // Fixed-seed mutation of every zoo network the format can express and
    // of the malformed files: every truncation, every byte flip and every
    // huge-number splice must parse or be refused with a typed error.
    let zoo_nets = zoo::table_networks().into_iter().chain(zoo::squeezenext_variants());
    let mut seeds = Vec::new();
    for net in zoo_nets.chain([zoo::squeezedet_trunk()]) {
        let Some(text) = write_network(&net) else { continue };
        let again = parse_network(&text).unwrap_or_else(|e| panic!("{}: {e}", net.name()));
        assert_eq!(write_network(&again).as_deref(), Some(text.as_str()), "{}", net.name());
        seeds.push(text);
    }
    assert!(seeds.len() >= 5, "only {} zoo networks serialize", seeds.len());
    seeds.extend(MALFORMED_NETFILES.map(String::from));
    let offer = |case: &str, bytes: &[u8]| {
        let text = String::from_utf8_lossy(bytes);
        if std::panic::catch_unwind(|| parse_network(&text)).is_err() {
            panic!("{case}: the parser panicked on {text:?}");
        }
    };
    let huge = ["4294967296", "9223372036854775808", "18446744073709551615"];
    let mut rng = XorShift(0x0e75_5eed_f11e_5eed);
    let mut cases = 0usize;
    for (i, seed) in seeds.iter().enumerate() {
        let bytes = seed.as_bytes();
        for cut in 0..bytes.len() {
            offer(&format!("seed {i} cut at {cut}"), &bytes[..cut]);
        }
        for at in 0..bytes.len() {
            let mut bad = bytes.to_vec();
            bad[at] ^= (rng.next() as u8) | 1;
            offer(&format!("seed {i} byte {at} flipped"), &bad);
        }
        // Each number alone, then all of them at once, becomes huge.
        let mut numbers = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let len = bytes[at..].iter().take_while(|b| b.is_ascii_digit()).count();
            if len > 0 {
                numbers.push(at..at + len);
            }
            at += len.max(1);
        }
        for value in huge {
            for number in &numbers {
                let mut spliced = seed.clone();
                spliced.replace_range(number.clone(), value);
                offer(
                    &format!("seed {i} number at {} = {value}", number.start),
                    spliced.as_bytes(),
                );
            }
            let mut all = seed.clone();
            for number in numbers.iter().rev() {
                all.replace_range(number.clone(), value);
            }
            offer(&format!("seed {i} every number = {value}"), all.as_bytes());
            cases += numbers.len() + 1;
        }
        cases += 2 * bytes.len();
    }
    assert!(cases > 5_000, "{cases} cases");
}

#[test]
fn energy_is_finite_under_extreme_unit_costs() {
    let net = zoo::mobilenet_v1();
    let cfg = AcceleratorConfig::paper_default();
    let perf = Simulator::new()
        .try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts())
        .unwrap();
    let extreme = EnergyModel {
        mac: 1e-9,
        register_file: 1e9,
        inter_pe: 0.0,
        global_buffer: 1e9,
        dram: 1e12,
    };
    let e = perf.total_energy(&extreme);
    assert!(e.is_finite() && e > 0.0);
}

#[test]
fn sixty_four_cores_saturate_not_crash() {
    use codesign::sim::MultiCoreConfig;
    let mc = MultiCoreConfig { core: AcceleratorConfig::paper_default(), cores: 64 };
    let net = zoo::squeezenet_v1_1();
    let perf = Simulator::new()
        .try_simulate_network_multicore(&net, &mc, DataflowPolicy::PerLayer, opts())
        .unwrap();
    let single = Simulator::new()
        .try_simulate_network(&net, &mc.core, DataflowPolicy::PerLayer, opts())
        .unwrap();
    assert!(perf.total_cycles() > 0);
    assert!(perf.total_cycles() <= single.total_cycles());
}

#[test]
fn hostile_channel_counts_simulate_in_closed_form() {
    // AlexNet with conv1 widened to 2^32 filters passes validation: every
    // MAC and element count fits the overflow headroom. Its schedules have
    // 2^27 weight-column tiles and 2^28 OS filter passes, and its event
    // lowering 7,516,192,768 DMA tiles, so the models must count them in
    // closed form, not one tile at a time.
    let net = NetworkBuilder::new("AlexNet-wide", Shape::new(3, 227, 227))
        .conv("conv1", 1 << 32, 11, 4, 0)
        .max_pool("pool1", 3, 2)
        .grouped_conv("conv2", 256, 5, 1, 2, 2)
        .max_pool("pool2", 3, 2)
        .conv("conv3", 384, 3, 1, 1)
        .grouped_conv("conv4", 384, 3, 1, 1, 2)
        .grouped_conv("conv5", 256, 3, 1, 1, 2)
        .max_pool("pool5", 3, 2)
        .fully_connected("fc6", 4096)
        .fully_connected("fc7", 4096)
        .fully_connected("fc8", 1000)
        .finish()
        .unwrap();
    let cfg = AcceleratorConfig::paper_default();
    validate_network(&net, &cfg).expect("2^32 filters stay within the modeling range");
    let perf = Simulator::new()
        .try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts())
        .unwrap();
    assert!(perf.layers[0].compute.executed_macs > 1 << 50, "conv1's ~4.7e15 MACs are counted");
    let program =
        Program::try_compile(&Simulator::new(), &net, &cfg, DataflowPolicy::PerLayer, opts())
            .unwrap();
    assert_eq!(program.estimate(&cfg), perf.total_cycles());
    let taxonomy = Simulator::new().try_compare_taxonomy(&net, &cfg, opts()).unwrap();
    assert!(taxonomy.hybrid4 <= taxonomy.hybrid2);
    let event = Simulator::new()
        .try_simulate_network_event(&net, &cfg, DataflowPolicy::PerLayer, opts(), TimeSkip::Enabled)
        .unwrap();
    assert_eq!(event.layers[0].tiles, 7_516_192_768);
    assert!(event.layers[0].cycles >= perf.layers[0].compute.cycles());
    // On a 16 KiB buffer conv1's tiles settle into a two-tile rhythm (the
    // DMA latency lands on alternate bursts); the time skip covers that
    // period too.
    let small = AcceleratorConfig::builder().global_buffer_bytes(16 * 1024).build().unwrap();
    let event = Simulator::new()
        .try_simulate_network_event(
            &net,
            &small,
            DataflowPolicy::PerLayer,
            opts(),
            TimeSkip::Enabled,
        )
        .unwrap();
    assert_eq!(event.layers[0].tiles, 180_388_626_432);
}
