//! Cross-validation of the simulator against the test-only loop-nest
//! spec (`tests/loopnest`): over a grid of small dense / pointwise /
//! depthwise / strided layers, the PE-array cycles the engine reports
//! must equal the spec's literal step walk exactly (DESIGN.md §6). Given
//! tensors, the spec's WS and OS walks must compute the reference
//! convolution bit for bit, on that grid, on seeded random layers and
//! across a whole network under every dataflow policy.

mod loopnest;

use codesign::arch::{AcceleratorConfig, Dataflow, DataflowPolicy};
use codesign::dnn::layer::infer_output;
use codesign::dnn::{ConvSpec, Kernel, Layer, LayerOp, Network, NetworkBuilder, Shape};
use codesign::sim::{simulate_rs, ConvWork, SimOptions, Simulator};
use codesign::tensor::ops::conv2d;
use codesign::tensor::{run_network_reference, Filters, Tensor, WeightStore};
use loopnest::Data;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A grid of small layers covering the shapes the paper's networks are
/// built from: stem convs, fire/expand 3x3 and 1x1, MobileNet-style
/// depthwise + pointwise pairs, and strided reductions.
fn layer_grid() -> Network {
    let mut b = NetworkBuilder::new("cross-validate-grid", Shape::new(8, 28, 28));
    b.conv("conv3x3", 16, 3, 1, 1);
    b.conv("conv3x3-s2", 24, 3, 2, 1);
    b.pointwise_conv("pw-expand", 48);
    b.depthwise_conv("dw3x3", 3, 1, 1);
    b.pointwise_conv("pw-project", 32);
    b.depthwise_conv("dw3x3-s2", 3, 2, 1);
    b.conv("conv5x5", 40, 5, 1, 2);
    b.pointwise_conv("pw-head", 64);
    b.finish().expect("grid network is well-formed")
}

fn configs() -> Vec<AcceleratorConfig> {
    vec![
        AcceleratorConfig::paper_default(),
        AcceleratorConfig::builder().array_size(8).rf_depth(8).build().unwrap(),
    ]
}

#[test]
fn simulated_cycles_equal_the_loop_nest_spec() {
    let opts = SimOptions::paper_default();
    let net = layer_grid();
    let mut decisive = 0usize;
    for cfg in configs() {
        for layer in net.layers() {
            let Some(work) = ConvWork::from_layer(layer) else { continue };
            let (ws, os, _) = Simulator::new().try_compare_dataflows(layer, &cfg, opts).unwrap();
            let ws_spec = loopnest::ws(&work, &cfg, None).perf.cycles();
            let os_spec = loopnest::os(&work, &cfg, opts.os, None).perf.cycles();
            assert_eq!(ws.compute.cycles(), ws_spec, "{} on {cfg}: WS", layer.name);
            assert_eq!(os.compute.cycles(), os_spec, "{} on {cfg}: OS", layer.name);
            let rs_spec = loopnest::rs(&work, &cfg).perf.cycles();
            assert_eq!(simulate_rs(&work, &cfg).cycles(), rs_spec, "{} on {cfg}: RS", layer.name);
            // A tie has no winner for the grid to exercise.
            decisive += usize::from(ws_spec != os_spec);
        }
    }
    assert!(decisive >= 8, "grid too easy: only {decisive} decisive layers");
}

/// A seeded random convolution: dense, two-group or depthwise, with
/// square and rectangular kernels up to 7×7, stride up to 3 and
/// asymmetric padding.
fn random_conv(rng: &mut StdRng) -> (Layer, Tensor, Filters) {
    let depthwise = rng.gen_bool(0.25);
    let (groups, cg, cout) = if depthwise {
        let c = rng.gen_range(2..=9usize);
        (c, 1, c)
    } else {
        let groups = [1, 1, 1, 2][rng.gen_range(0..4usize)];
        let cg = rng.gen_range(1..=6usize);
        (groups, cg, groups * rng.gen_range(1..=7usize))
    };
    let (kh, kw): (usize, usize) =
        [(1, 1), (3, 3), (1, 3), (3, 1), (5, 5), (7, 7)][rng.gen_range(0..6usize)];
    let stride = rng.gen_range(1..=3usize);
    let h = rng.gen_range(kh.max(kw)..kh.max(kw) + 9);
    let w = rng.gen_range(kh.max(kw)..kh.max(kw) + 9);
    let input = Tensor::random(Shape::new(groups * cg, h, w), 64, rng);
    let filters = Filters::random(cout, cg, kh, kw, 16, 0.4, rng);
    let op = LayerOp::Conv(ConvSpec {
        out_channels: cout,
        kernel: Kernel::new(kh, kw),
        stride,
        pad_h: rng.gen_range(0..=kh / 2),
        pad_w: rng.gen_range(0..=kw / 2),
        groups,
    });
    let output = infer_output(&op, input.shape()).expect("the kernel fits the plane");
    let layer = Layer {
        name: format!("{op:?}"),
        op,
        input: input.shape(),
        output,
        is_first_conv: false,
        primary_input: None,
        extra_input: None,
    };
    (layer, input, filters)
}

/// Given `layer`'s tensors, the spec's WS and OS walks on `cfg` must both
/// compute the reference convolution.
fn assert_walks_compute(layer: &Layer, input: &Tensor, filters: &Filters, cfg: &AcceleratorConfig) {
    let LayerOp::Conv(spec) = &layer.op else { panic!("{} is not a convolution", layer.name) };
    let work = ConvWork::from_layer(layer).expect("conv layers map to the PE array");
    let want = conv2d(input, filters, spec).expect("test layers are well-formed");
    let data = Some(Data { input, filters, spec });
    let os = SimOptions::paper_default().os;
    let name = &layer.name;
    assert_eq!(loopnest::ws(&work, cfg, data).output, Some(want.clone()), "{name} on {cfg}: WS");
    assert_eq!(loopnest::os(&work, cfg, os, data).output, Some(want), "{name} on {cfg}: OS");
}

#[test]
fn loop_nest_outputs_match_the_reference_conv() {
    let mut rng = StdRng::seed_from_u64(2018);
    let net = layer_grid();
    for cfg in configs() {
        for layer in net.layers() {
            let LayerOp::Conv(spec) = &layer.op else { continue };
            let input = Tensor::random(layer.input, 64, &mut rng);
            let cg = layer.input.channels / spec.groups;
            let (k, kh, kw) = (spec.out_channels, spec.kernel.height, spec.kernel.width);
            let filters = Filters::random(k, cg, kh, kw, 16, 0.4, &mut rng);
            assert_walks_compute(layer, &input, &filters, &cfg);
        }
    }
    // Random layers, mostly on a 4×4 array with 3-deep register files,
    // where nearly every walk ends in a partial tile or filter pass.
    let small = AcceleratorConfig::builder().array_size(4).rf_depth(3).build().unwrap();
    let paper = AcceleratorConfig::paper_default();
    for cfg in std::iter::repeat_n(&small, 60).chain(std::iter::repeat_n(&paper, 10)) {
        let (layer, input, filters) = random_conv(&mut rng);
        assert_walks_compute(&layer, &input, &filters, cfg);
    }
}

#[test]
fn scheduled_walks_compute_the_reference_network() {
    // Whole networks under both fixed dataflows and the hybrid schedule:
    // each convolution's walk of the dataflow the simulator chose for it,
    // fed the reference activations, reproduces the reference output.
    let net = NetworkBuilder::new("mini", Shape::new(3, 40, 40))
        .conv("conv1", 16, 5, 2, 0)
        .max_pool("pool1", 3, 2)
        .fire("fire2", 8, 16, 16)
        .depthwise_conv("dw3", 3, 1, 1)
        .fire("fire4", 12, 24, 24)
        .pointwise_conv("cls", 10)
        .global_avg_pool("gap")
        .finish()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(2018);
    let weights = WeightStore::random(&net, 8, 0.4, &mut rng);
    let image = Tensor::random(net.input(), 64, &mut rng);
    let reference = run_network_reference(&net, &image, &weights).unwrap();
    let cfg = AcceleratorConfig::paper_default();
    let opts = SimOptions::paper_default();
    let sim = Simulator::new();
    for policy in [
        DataflowPolicy::PerLayer,
        DataflowPolicy::Fixed(Dataflow::WeightStationary),
        DataflowPolicy::Fixed(Dataflow::OutputStationary),
    ] {
        let schedule = sim.try_simulate_network(&net, &cfg, policy, opts).unwrap();
        for layer in net.layers() {
            let LayerOp::Conv(spec) = &layer.op else { continue };
            let input =
                layer.primary_input.as_deref().map_or(&image, |p| reference.get(p).unwrap());
            let filters = weights.get(&layer.name).unwrap();
            let data = Some(Data { input, filters, spec });
            let work = ConvWork::from_layer(layer).unwrap();
            let walk = match schedule.layer(&layer.name).and_then(|l| l.dataflow) {
                Some(Dataflow::WeightStationary) => loopnest::ws(&work, &cfg, data),
                Some(Dataflow::OutputStationary) => loopnest::os(&work, &cfg, opts.os, data),
                None => panic!("{policy} places no dataflow on {}", layer.name),
            };
            let want = reference.get(&layer.name);
            assert_eq!(walk.output.as_ref(), want, "{} under {policy}", layer.name);
        }
    }
}

#[test]
fn depthwise_layers_prefer_os_at_both_levels() {
    // The paper's core observation: depthwise layers starve the WS array
    // (one useful diagonal) while OS keeps the array busy. Both the engine
    // and the loop-nest spec must reproduce it.
    let opts = SimOptions::paper_default();
    let cfg = AcceleratorConfig::paper_default();
    let net = layer_grid();
    for layer in net.layers().iter().filter(|l| l.name.starts_with("dw")) {
        let work = ConvWork::from_layer(layer).expect("dw layers map to the PE array");
        let (ws, os, best) = Simulator::new().try_compare_dataflows(layer, &cfg, opts).unwrap();
        assert_eq!(best, Dataflow::OutputStationary, "{}", layer.name);
        assert!(os.compute.cycles() < ws.compute.cycles(), "{}", layer.name);
        let os_spec = loopnest::os(&work, &cfg, opts.os, None).perf.cycles();
        assert!(os_spec < loopnest::ws(&work, &cfg, None).perf.cycles(), "{}", layer.name);
    }
}
