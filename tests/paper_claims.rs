//! The paper's quantitative claims, asserted end to end. Each test names
//! the artifact it guards (DESIGN.md §5); tolerances reflect that our
//! microarchitectural constants are reconstructions (EXPERIMENTS.md
//! records exact measured values).

use codesign::arch::{AcceleratorConfig, Dataflow, EnergyModel};
use codesign::core::{
    advantage_range_with, compare_all, compare_networks_with, ArchitectureComparison,
    CodesignStudy, NetworkSchedule,
};
use codesign::dnn::{zoo, LayerClass, MacBreakdown, Network};
use codesign::sim::{SimOptions, Simulator};

fn ctx() -> (AcceleratorConfig, SimOptions, EnergyModel) {
    (AcceleratorConfig::paper_default(), SimOptions::paper_default(), EnergyModel::default())
}

/// The Table-2 row of one network: hybrid, WS and OS runs.
fn evaluate(
    net: &Network,
    cfg: &AcceleratorConfig,
    opts: SimOptions,
    em: EnergyModel,
) -> ArchitectureComparison {
    let rows = compare_all(&Simulator::new(), std::slice::from_ref(net), cfg, opts, em, 1);
    rows.expect("table networks simulate").remove(0)
}

// ---------------------------------------------------------------- T1 --

#[test]
fn t1_table1_mac_shares() {
    // Paper Table 1 (percent of total ops): rows for the networks whose
    // published definitions we can rebuild exactly.
    let cases = [
        ("SqueezeNet v1.0", zoo::squeezenet_v1_0(), [21.0, 25.0, 54.0, 0.0]),
        ("SqueezeNet v1.1", zoo::squeezenet_v1_1(), [6.0, 40.0, 54.0, 0.0]),
        ("MobileNet", zoo::mobilenet_v1(), [1.0, 95.0, 0.0, 3.0]),
        ("Tiny Darknet", zoo::tiny_darknet(), [5.0, 13.0, 82.0, 0.0]),
    ];
    for (name, net, [conv1, pw, fxf, dw]) in cases {
        let b = MacBreakdown::of(&net);
        assert!((b.percent(LayerClass::FirstConv) - conv1).abs() < 3.0, "{name} conv1");
        assert!((b.percent(LayerClass::Pointwise) - pw).abs() < 3.0, "{name} 1x1");
        assert!((b.percent(LayerClass::Spatial) - fxf).abs() < 4.0, "{name} FxF");
        assert!((b.percent(LayerClass::Depthwise) - dw).abs() < 1.5, "{name} DW");
    }
}

// ---------------------------------------------------------------- T2 --

#[test]
fn t2_speedup_orderings_match_table2() {
    let (cfg, opts, em) = ctx();
    let row = |net: &codesign::dnn::Network| evaluate(net, &cfg, opts, em);
    let alex = row(&zoo::alexnet());
    let mobile = row(&zoo::mobilenet_v1());
    let tiny = row(&zoo::tiny_darknet());
    let sq10 = row(&zoo::squeezenet_v1_0());
    let sq11 = row(&zoo::squeezenet_v1_1());

    // MobileNet gains the most against WS (paper: 6.35x, the largest).
    for other in [&alex, &tiny, &sq10, &sq11] {
        assert!(mobile.speedup_vs_ws() > other.speedup_vs_ws());
    }
    // AlexNet gains the least against OS (paper: 1.00x, the smallest).
    for other in [&mobile, &tiny, &sq10, &sq11] {
        assert!(alex.speedup_vs_os() <= other.speedup_vs_os());
    }
    // SqueezeNet v1.0 favors the WS comparison (2.06 vs 1.26 in the
    // paper); v1.1 flips (1.18 vs 1.34).
    assert!(sq10.speedup_vs_ws() > sq10.speedup_vs_os());
    assert!(sq11.speedup_vs_os() > sq11.speedup_vs_ws());
}

#[test]
fn t2_energy_reductions_have_the_right_shape() {
    let (cfg, opts, em) = ctx();
    for net in zoo::table_networks() {
        let c = evaluate(&net, &cfg, opts, em);
        // Energy vs WS is positive for every network in Table 2.
        assert!(
            c.energy_reduction_vs_ws() > 0.0,
            "{}: {:.2}",
            net.name(),
            c.energy_reduction_vs_ws()
        );
        // Energy vs OS is small (paper: -2%..8%).
        assert!(
            c.energy_reduction_vs_os().abs() < 0.15,
            "{}: {:.2}",
            net.name(),
            c.energy_reduction_vs_os()
        );
    }
}

#[test]
fn s2_squeezenet_v1_0_improvements() {
    // §4.1.3: "performance improvement of 26% and 106% compared to the
    // reference OS and WS architectures". Shape: solid gain vs both,
    // roughly 2x larger against WS.
    let (cfg, opts, em) = ctx();
    let c = evaluate(&zoo::squeezenet_v1_0(), &cfg, opts, em);
    assert!(c.speedup_vs_os() > 1.15, "vs OS = {:.2}", c.speedup_vs_os());
    assert!(c.speedup_vs_ws() > 1.8, "vs WS = {:.2}", c.speedup_vs_ws());
    assert!(c.speedup_vs_ws() > c.speedup_vs_os());
}

// ---------------------------------------------------------------- F1 --

#[test]
fn f1_squeezelerator_tracks_ws_with_a_fixed_first_layer() {
    // "The overall trend is similar to that of the WS architecture, but
    // the performance of the first layer is noticeably improved."
    let (cfg, opts, _) = ctx();
    let s = NetworkSchedule::build_with(&Simulator::new(), &zoo::squeezenet_v1_0(), &cfg, opts)
        .unwrap();
    let conv1 = s.entry("conv1").unwrap();
    assert_eq!(conv1.chosen, Some(Dataflow::OutputStationary));
    assert!(conv1.ws_cycles as f64 / conv1.os_cycles as f64 > 2.0);
    // 1x1 squeeze layers stay on WS (trend follows WS).
    for e in &s.entries {
        if e.name.contains("squeeze1x1") || e.name == "conv10" {
            assert_eq!(e.chosen, Some(Dataflow::WeightStationary), "{}", e.name);
        }
    }
}

#[test]
fn f1_early_3x3_picks_os_late_3x3_picks_ws() {
    // "For most of the 3x3 convolutions, the accelerator chooses OS ...
    // In the latter layers, the mismatch between the size of the PE
    // array and the size of the feature map is the main cause of the
    // performance degradation."
    let (cfg, opts, _) = ctx();
    let s = NetworkSchedule::build_with(&Simulator::new(), &zoo::squeezenet_v1_0(), &cfg, opts)
        .unwrap();
    assert_eq!(s.entry("fire2/expand3x3").unwrap().chosen, Some(Dataflow::OutputStationary));
    let late = s.entry("fire9/expand3x3").unwrap();
    assert!(late.os_cycles > late.ws_cycles, "13x13 map should degrade OS");
}

// ---------------------------------------------------------------- F3 --

#[test]
fn f3_variant_ladder_descends_and_first_layer_shrink_helps() {
    let (cfg, opts, em) = ctx();
    let variants = zoo::squeezenext_variants();
    let cycles: Vec<u64> = variants
        .iter()
        .map(|v| {
            NetworkSchedule::build_with(&Simulator::new(), v, &cfg, opts).unwrap().total_cycles()
        })
        .collect();
    for w in cycles.windows(2) {
        assert!(w[1] <= w[0], "ladder must descend: {cycles:?}");
    }
    // v1 -> v2 isolates the 7x7 -> 5x5 first-filter reduction.
    let s1 = NetworkSchedule::build_with(&Simulator::new(), &variants[0], &cfg, opts).unwrap();
    let s2 = NetworkSchedule::build_with(&Simulator::new(), &variants[1], &cfg, opts).unwrap();
    assert!(s2.entry("conv1").unwrap().hybrid_cycles < s1.entry("conv1").unwrap().hybrid_cycles);
    let _ = em;
}

#[test]
fn f3_early_layers_have_low_utilization() {
    // "the initial layers have very low utilization which adversely
    // affects inference time and energy consumption".
    let (cfg, opts, _) = ctx();
    let s =
        NetworkSchedule::build_with(&Simulator::new(), &zoo::squeezenext_variant(1), &cfg, opts)
            .unwrap();
    let early: Vec<f64> = s
        .entries
        .iter()
        .filter(|e| e.name.starts_with("s1b") && e.chosen.is_some())
        .map(|e| e.utilization)
        .collect();
    let late: Vec<f64> = s
        .entries
        .iter()
        .filter(|e| e.name.starts_with("s3b") && e.chosen.is_some())
        .map(|e| e.utilization)
        .collect();
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        avg(&early) < avg(&late),
        "early util {:.3} should be below late util {:.3}",
        avg(&early),
        avg(&late)
    );
}

// ---------------------------------------------------------------- F4 --

#[test]
fn f4_squeezenext_dominates_squeezenet_and_darknet() {
    // "SqueezeNext shows superior performance (in both plots higher and
    // to the left is better)". The robust part of that claim — the part
    // the co-design produced — is SqueezeNext dominating SqueezeNet
    // v1.0/v1.1 and Tiny DarkNet on both axes. (Whether SqueezeNext also
    // beats the MobileNet width family depends on energy constants the
    // paper does not publish; our reproduction has the MobileNet family
    // slightly ahead — recorded as a deviation in EXPERIMENTS.md.)
    let (cfg, opts, em) = ctx();
    let mut nets = zoo::squeezenext_family();
    nets.push(zoo::squeezenet_v1_0());
    nets.push(zoo::squeezenet_v1_1());
    nets.push(zoo::tiny_darknet());
    let points = codesign::core::spectrum_with(&Simulator::new(), &nets, &cfg, opts, &em).unwrap();
    for axis in [codesign::core::CostAxis::Time, codesign::core::CostAxis::Energy] {
        let front = codesign::core::pareto_front(&points, axis);
        assert!(!front.is_empty());
        for loser in ["SqueezeNet v1.0", "SqueezeNet v1.1", "Tiny Darknet"] {
            assert!(!front.iter().any(|p| p.name == loser), "{loser} on {axis:?} front");
        }
        assert!(front.iter().all(|p| p.name.contains("SqNxt")), "{axis:?}");
    }
}

// ---------------------------------------------------------------- S1 --

#[test]
fn s1_dataflow_advantage_ranges() {
    let (cfg, opts, _) = ctx();
    let nets = zoo::table_networks();

    // 1x1: paper 1.4x-7.0x faster on WS.
    let pw = advantage_range_with(
        &Simulator::new(),
        &nets,
        LayerClass::Pointwise,
        Dataflow::WeightStationary,
        &cfg,
        opts,
    )
    .unwrap()
    .unwrap();
    assert!(pw.max > 2.0 && pw.max < 20.0, "1x1 max = {:.2}", pw.max);

    // First conv: paper 1.6x-6.3x faster on OS.
    let c1 = advantage_range_with(
        &Simulator::new(),
        &nets,
        LayerClass::FirstConv,
        Dataflow::OutputStationary,
        &cfg,
        opts,
    )
    .unwrap()
    .unwrap();
    assert!(c1.min > 1.0, "conv1 min = {:.2}", c1.min);
    assert!(c1.max < 30.0, "conv1 max = {:.2}", c1.max);

    // Depthwise: paper 19x-96x faster on OS.
    let dw = advantage_range_with(
        &Simulator::new(),
        &nets,
        LayerClass::Depthwise,
        Dataflow::OutputStationary,
        &cfg,
        opts,
    )
    .unwrap()
    .unwrap();
    assert!(dw.max > 10.0 && dw.max < 300.0, "dw max = {:.1}", dw.max);
}

// ---------------------------------------------------------------- S3 --

#[test]
fn s3_headline_squeezenext_vs_squeezenet() {
    // "2.59x faster and 2.25x more energy efficient than SqueezeNet 1.0".
    let (cfg, opts, em) = ctx();
    let r = compare_networks_with(
        &Simulator::new(),
        &zoo::squeezenext(),
        &zoo::squeezenet_v1_0(),
        &cfg,
        opts,
        &em,
    )
    .unwrap();
    assert!((r.speedup - 2.59).abs() < 0.7, "speedup = {:.2}", r.speedup);
    assert!((r.energy_gain - 2.25).abs() < 0.8, "energy = {:.2}", r.energy_gain);
}

#[test]
fn s3_headline_squeezenext_vs_alexnet() {
    // "8.26x and 7.5x when compared to AlexNet".
    let (cfg, opts, em) = ctx();
    let r = compare_networks_with(
        &Simulator::new(),
        &zoo::squeezenext(),
        &zoo::alexnet(),
        &cfg,
        opts,
        &em,
    )
    .unwrap();
    assert!(r.speedup > 4.5 && r.speedup < 12.0, "speedup = {:.2}", r.speedup);
    assert!(r.energy_gain > 4.5 && r.energy_gain < 12.0, "energy = {:.2}", r.energy_gain);
}

#[test]
fn s3_rf_tuneup_completes_the_codesign() {
    // "only some fine-tuning of register file size was required".
    let study = CodesignStudy::run_with(
        &Simulator::new(),
        SimOptions::paper_default(),
        &EnergyModel::default(),
        0,
    )
    .unwrap();
    let v5_rf8 = study.before_tuneup.last().unwrap().cycles;
    let v5_rf16 = study.after_tuneup.last().unwrap().cycles;
    assert!(v5_rf16 < v5_rf8);
    let (speed, energy) = study.end_to_end_gain();
    assert!(speed > 1.2 && energy > 1.1, "gain = {speed:.2}x / {energy:.2}x");
}

#[test]
fn alexnet_runtime_is_fc_dominated() {
    // "AlexNet ... takes up 80% of energy and 73% of its run time in the
    // three fully-connected layers".
    let (cfg, opts, _) = ctx();
    let perf = Simulator::new()
        .try_simulate_network(&zoo::alexnet(), &cfg, codesign::arch::DataflowPolicy::PerLayer, opts)
        .unwrap();
    let fc_share = perf.cycle_fraction(|l| l.name.starts_with("fc"));
    assert!((0.55..0.90).contains(&fc_share), "fc share = {fc_share:.2}");
}

#[test]
fn mobilenet_energy_is_dram_dominated() {
    // "DRAM access consumes a larger proportion of total energy
    // consumption in this network than in other DNNs".
    let (cfg, opts, em) = ctx();
    let dram_share = |net: &codesign::dnn::Network| {
        let perf = Simulator::new()
            .try_simulate_network(net, &cfg, codesign::arch::DataflowPolicy::PerLayer, opts)
            .unwrap();
        let acc = perf.total_accesses();
        acc.dram as f64 * em.dram / perf.total_energy(&em)
    };
    // Robust subset of the claim: MobileNet tops the conventional
    // conv-mix networks. (In our model the reconstructed SqueezeNext —
    // many tiny bottleneck layers per MAC — and FC-dominated AlexNet
    // also have high DRAM shares; see EXPERIMENTS.md.)
    let mobile = dram_share(&zoo::mobilenet_v1());
    for other in [zoo::squeezenet_v1_0(), zoo::tiny_darknet()] {
        assert!(
            mobile > dram_share(&other),
            "MobileNet DRAM share {:.2} should top {}",
            mobile,
            other.name()
        );
    }
}
