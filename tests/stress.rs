//! Stress and failure-injection tests: extreme configurations, degenerate
//! networks, and hostile inputs must degrade gracefully, never panic or
//! produce nonsense.

use codesign::arch::{AcceleratorConfig, Dataflow, DataflowPolicy, DramModel, EnergyModel};
use codesign::dnn::{parse_network, zoo, NetworkBuilder, Shape};
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
fn hostile_model_files_error_cleanly() {
    for text in [
        "",
        "network",
        "network x 3x3",                    // 2-dim shape
        "network x 0x3x3\nconv c 1 1 s1\n", // zero channel... builder output 0? conv on 0 channels
        &"conv c 8 3 s1\n".repeat(10_000),  // no network header, large input
        "network x 3x8x8\nfire f 0 0 0\n",
        "network x 3x8x8\nconv c 99999999999999999999 3 s1\n", // overflow
    ] {
        let result = parse_network(text);
        assert!(result.is_err(), "should reject: {:.40}...", text);
    }
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
