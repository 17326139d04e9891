//! Cross-validation of the analytical performance estimator against the
//! independently implemented cycle-stepped machines: over a grid of
//! small dense / pointwise / depthwise / strided layers, the analytic
//! PE-array cycle counts must equal the stepped WS/OS machines exactly
//! (DESIGN.md §6), and both levels must agree on which dataflow wins
//! whenever the two dataflows differ.

use codesign::arch::{AcceleratorConfig, Dataflow};
use codesign::dnn::{Network, NetworkBuilder, Shape};
use codesign::sim::{compare_dataflows, cycle, ConvWork, SimOptions};

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
fn analytic_cycles_match_stepped_machines_within_tolerance() {
    let opts = SimOptions::paper_default();
    let net = layer_grid();
    for cfg in configs() {
        for layer in net.layers() {
            let Some(work) = ConvWork::from_layer(layer) else { continue };
            let (ws, os, _) = compare_dataflows(layer, &cfg, opts);
            let ws_machine = cycle::trace_ws(&work, &cfg).cycles();
            let os_machine = cycle::trace_os(&work, &cfg, opts.os).cycles();
            let ws_analytic = ws.compute.cycles();
            let os_analytic = os.compute.cycles();
            // The two implementations model the same schedule, so they
            // must agree exactly.
            assert_eq!(ws_analytic, ws_machine, "{} on {cfg}: WS analytic vs machine", layer.name);
            assert_eq!(os_analytic, os_machine, "{} on {cfg}: OS analytic vs machine", layer.name);
        }
    }
}

#[test]
fn dataflow_winner_agrees_across_modeling_levels() {
    let opts = SimOptions::paper_default();
    let net = layer_grid();
    let mut decisive = 0usize;
    for cfg in configs() {
        for layer in net.layers() {
            let Some(work) = ConvWork::from_layer(layer) else { continue };
            let (ws, os, _) = compare_dataflows(layer, &cfg, opts);
            let ws_analytic = ws.compute.cycles();
            let os_analytic = os.compute.cycles();
            // A tie has no winner to agree on.
            if ws_analytic == os_analytic {
                continue;
            }
            decisive += 1;
            let analytic_winner = if os_analytic < ws_analytic {
                Dataflow::OutputStationary
            } else {
                Dataflow::WeightStationary
            };
            let ws_machine = cycle::trace_ws(&work, &cfg).cycles();
            let os_machine = cycle::trace_os(&work, &cfg, opts.os).cycles();
            let machine_winner = if os_machine < ws_machine {
                Dataflow::OutputStationary
            } else {
                Dataflow::WeightStationary
            };
            assert_eq!(
                analytic_winner, machine_winner,
                "{} on {cfg}: analytic picks {analytic_winner:?} \
                 (ws {ws_analytic}, os {os_analytic}) but the machine picks \
                 {machine_winner:?} (ws {ws_machine}, os {os_machine})",
                layer.name
            );
        }
    }
    assert!(decisive >= 8, "grid too easy: only {decisive} decisive layers");
}

#[test]
fn depthwise_layers_prefer_os_at_both_levels() {
    // The paper's core observation: depthwise layers starve the WS array
    // (one useful diagonal) while OS keeps the array busy. Both modeling
    // levels must reproduce it.
    let opts = SimOptions::paper_default();
    let cfg = AcceleratorConfig::paper_default();
    let net = layer_grid();
    for layer in net.layers().iter().filter(|l| l.name.starts_with("dw")) {
        let work = ConvWork::from_layer(layer).expect("dw layers map to the PE array");
        let (ws, os, best) = compare_dataflows(layer, &cfg, opts);
        assert_eq!(best, Dataflow::OutputStationary, "{}", layer.name);
        assert!(os.compute.cycles() < ws.compute.cycles(), "{}", layer.name);
        assert!(
            cycle::trace_os(&work, &cfg, opts.os).cycles() < cycle::trace_ws(&work, &cfg).cycles(),
            "{}",
            layer.name
        );
    }
}
