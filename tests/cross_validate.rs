//! Cross-validation of the simulator against the test-only loop-nest
//! spec (`tests/loopnest`): over a grid of small dense / pointwise /
//! depthwise / strided layers, the PE-array cycles the engine reports
//! must equal the spec's literal step walk exactly (DESIGN.md §6), and
//! the spec's WS and OS walks, given tensors, must compute the reference
//! convolution bit for bit.

mod loopnest;

use codesign::arch::{AcceleratorConfig, Dataflow};
use codesign::dnn::{LayerOp, Network, NetworkBuilder, Shape};
use codesign::sim::{compare_dataflows, simulate_rs, ConvWork, SimOptions};
use codesign::tensor::ops::conv2d;
use codesign::tensor::{Filters, Tensor};
use loopnest::Data;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
            let (ws, os, _) = compare_dataflows(layer, &cfg, opts);
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

#[test]
fn loop_nest_outputs_match_the_reference_conv() {
    let mut rng = StdRng::seed_from_u64(2018);
    let opts = SimOptions::paper_default();
    let net = layer_grid();
    for cfg in configs() {
        for layer in net.layers() {
            let LayerOp::Conv(spec) = &layer.op else { continue };
            let work = ConvWork::from_layer(layer).expect("conv layers map to the PE array");
            let input = Tensor::random(layer.input, 64, &mut rng);
            let cg = layer.input.channels / spec.groups;
            let filters = Filters::random(
                spec.out_channels,
                cg,
                spec.kernel.height,
                spec.kernel.width,
                16,
                0.4,
                &mut rng,
            );
            let want = conv2d(&input, &filters, spec).expect("grid layers are well-formed");
            let data = Some(Data { input: &input, filters: &filters, spec });
            let ws = loopnest::ws(&work, &cfg, data).output;
            let os = loopnest::os(&work, &cfg, opts.os, data).output;
            assert_eq!(ws.as_ref(), Some(&want), "{} on {cfg}: WS walk", layer.name);
            assert_eq!(os.as_ref(), Some(&want), "{} on {cfg}: OS walk", layer.name);
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
        let (ws, os, best) = compare_dataflows(layer, &cfg, opts);
        assert_eq!(best, Dataflow::OutputStationary, "{}", layer.name);
        assert!(os.compute.cycles() < ws.compute.cycles(), "{}", layer.name);
        let os_spec = loopnest::os(&work, &cfg, opts.os, None).perf.cycles();
        assert!(os_spec < loopnest::ws(&work, &cfg, None).perf.cycles(), "{}", layer.name);
    }
}
