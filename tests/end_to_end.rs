//! Cross-crate integration: every zoo network simulated on every
//! architecture, with the structural invariants the whole reproduction
//! rests on.

use codesign::arch::{AcceleratorConfig, Dataflow, DataflowPolicy, EnergyModel};
use codesign::dnn::zoo;
use codesign::sim::{cycle, simulate_rs, ConvWork, NetworkPerf, SimOptions, Simulator};

fn all_networks() -> Vec<codesign::dnn::Network> {
    let mut nets = zoo::table_networks();
    nets.extend(zoo::squeezenext_variants());
    nets.extend(zoo::mobilenet_family());
    nets.extend(zoo::squeezenext_family());
    nets
}

fn policies() -> [DataflowPolicy; 3] {
    [
        DataflowPolicy::PerLayer,
        DataflowPolicy::Fixed(Dataflow::WeightStationary),
        DataflowPolicy::Fixed(Dataflow::OutputStationary),
    ]
}

#[test]
fn every_network_simulates_on_every_architecture() {
    let cfg = AcceleratorConfig::paper_default();
    let opts = SimOptions::paper_default();
    let energy = EnergyModel::default();
    for net in all_networks() {
        for policy in policies() {
            let perf = Simulator::new().try_simulate_network(&net, &cfg, policy, opts).unwrap();
            assert!(perf.total_cycles() > 0, "{} on {policy}", net.name());
            assert!(perf.total_energy(&energy) > 0.0, "{} on {policy}", net.name());
            assert_eq!(perf.layers.len(), net.layers().len());
            for layer in &perf.layers {
                assert!(
                    (0.0..=1.0).contains(&layer.utilization),
                    "{}/{}: utilization {}",
                    net.name(),
                    layer.name,
                    layer.utilization
                );
                assert!(layer.total_cycles >= layer.compute.cycles().min(layer.dram_cycles));
            }
        }
    }
}

#[test]
fn hybrid_is_min_of_fixed_architectures_per_layer() {
    let cfg = AcceleratorConfig::paper_default();
    let opts = SimOptions::paper_default();
    for net in all_networks() {
        let runs: Vec<NetworkPerf> = policies()
            .iter()
            .map(|p| Simulator::new().try_simulate_network(&net, &cfg, *p, opts).unwrap())
            .collect();
        let (hybrid, ws, os) = (&runs[0], &runs[1], &runs[2]);
        for ((h, w), o) in hybrid.layers.iter().zip(&ws.layers).zip(&os.layers) {
            assert_eq!(h.total_cycles, w.total_cycles.min(o.total_cycles), "{}", h.name);
        }
    }
}

#[test]
fn ws_executes_every_algorithmic_mac() {
    // The WS datapath cannot skip zeros: executed MACs must equal the
    // model's dense MAC count exactly (depthwise layers excepted — the
    // naive dense mapping wastes cycles, not MACs).
    let cfg = AcceleratorConfig::paper_default();
    let opts = SimOptions::paper_default();
    for net in all_networks() {
        let perf = Simulator::new()
            .try_simulate_network(
                &net,
                &cfg,
                DataflowPolicy::Fixed(Dataflow::WeightStationary),
                opts,
            )
            .unwrap();
        assert_eq!(perf.total_macs(), net.total_macs(), "{}", net.name());
    }
}

#[test]
fn rs_never_issues_more_macs_than_busy_pes() {
    // Kernels taller than the array (AlexNet conv1 is 11x11) split their
    // filter rows into passes, so RS runs every algorithmic MAC, reads
    // utilization <= 1, and no trace segment issues more MACs per cycle
    // than it has busy PEs.
    for n in [8, 16, 32] {
        let cfg = AcceleratorConfig::builder().array_size(n).build().unwrap();
        for net in zoo::table_networks() {
            for layer in net.layers() {
                let Some(work) = ConvWork::from_layer(layer) else { continue };
                let perf = simulate_rs(&work, &cfg);
                let what = format!("{} {} on {n}x{n}", net.name(), layer.name);
                assert_eq!(perf.executed_macs, work.macs(), "{what}");
                assert!(perf.utilization(cfg.pe_count()) <= 1.0, "{what}");
                let trace = cycle::trace_rs(&work, &cfg);
                assert!(
                    trace.segments().iter().all(|s| s.macs_per_cycle <= s.active_pes),
                    "{what}"
                );
            }
        }
    }
}

#[test]
fn os_sparsity_skips_about_forty_percent_of_conv_macs() {
    let cfg = AcceleratorConfig::paper_default();
    let opts = SimOptions::paper_default();
    // Pick a network without FC dominance (OS FC does not skip zeros).
    let net = zoo::squeezenet_v1_0();
    let perf = Simulator::new()
        .try_simulate_network(&net, &cfg, DataflowPolicy::Fixed(Dataflow::OutputStationary), opts)
        .unwrap();
    let ratio = perf.total_macs() as f64 / net.total_macs() as f64;
    assert!((ratio - 0.6).abs() < 0.02, "executed/dense = {ratio}");
}

#[test]
fn array_size_sweep_is_monotone_for_squeezenet() {
    // Within the paper's 8..=32 range, growing the array never slows the
    // hybrid architecture down.
    let opts = SimOptions::paper_default();
    let net = zoo::squeezenet_v1_0();
    let mut last = u64::MAX;
    for n in [8, 16, 32] {
        let cfg = AcceleratorConfig::builder().array_size(n).build().unwrap();
        let cycles = Simulator::new()
            .try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts)
            .unwrap()
            .total_cycles();
        assert!(cycles <= last, "array {n} got slower: {cycles} > {last}");
        last = cycles;
    }
}

#[test]
fn disabling_double_buffering_never_helps() {
    let opts = SimOptions::paper_default();
    let with_db = AcceleratorConfig::paper_default();
    let without_db = AcceleratorConfig::builder()
        .double_buffering(false)
        .global_buffer_bytes(64 * 1024) // same working half as the default
        .build()
        .unwrap();
    for net in zoo::table_networks() {
        let a = Simulator::new()
            .try_simulate_network(&net, &with_db, DataflowPolicy::PerLayer, opts)
            .unwrap()
            .total_cycles();
        let b = Simulator::new()
            .try_simulate_network(&net, &without_db, DataflowPolicy::PerLayer, opts)
            .unwrap()
            .total_cycles();
        assert!(a <= b, "{}: {a} vs {b}", net.name());
    }
}

#[test]
fn energy_model_scaling_is_linear() {
    let cfg = AcceleratorConfig::paper_default();
    let opts = SimOptions::paper_default();
    let net = zoo::tiny_darknet();
    let perf =
        Simulator::new().try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts).unwrap();
    let base = EnergyModel::default();
    let doubled = EnergyModel {
        mac: 2.0 * base.mac,
        register_file: 2.0 * base.register_file,
        inter_pe: 2.0 * base.inter_pe,
        global_buffer: 2.0 * base.global_buffer,
        dram: 2.0 * base.dram,
    };
    let e1 = perf.total_energy(&base);
    let e2 = perf.total_energy(&doubled);
    assert!((e2 / e1 - 2.0).abs() < 1e-9);
}
