//! Beyond the paper: the three extension studies this reproduction adds
//! on top of the DAC'18 evaluation —
//!
//! 1. the **full dataflow taxonomy** (§3.2 names WS/OS/RS/NLR; the paper
//!    builds two — was that the right call?);
//! 2. the **discrete-event pipeline** bracketing the analytic
//!    `max(compute, dram)` shortcut from above;
//! 3. the **cross-layer fusion** question: how much buffer would on-chip
//!    forwarding of intermediate maps need?
//!
//! ```text
//! cargo run --release --example beyond_the_paper
//! ```

use codesign::arch::{AcceleratorConfig, DataflowPolicy, EnergyModel};
use codesign::core::fusion_savings_with;
use codesign::dnn::zoo;
use codesign::sim::{SimOptions, Simulator, TaxonomyDataflow, TimeSkip};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sim = Simulator::new();
    let cfg = AcceleratorConfig::paper_default();
    let opts = SimOptions::paper_default();
    let energy = EnergyModel::default();

    println!("== 1. would RS or NLR have helped? (four-way vs two-way hybrid) ==");
    println!(
        "{:<20} {:>10} {:>10} {:>10} {:>11} {:>8}",
        "network", "RS", "NLR", "hybrid2", "hybrid4", "gain"
    );
    for net in zoo::table_networks() {
        let t = sim.try_compare_taxonomy(&net, &cfg, opts)?;
        println!(
            "{:<20} {:>10} {:>10} {:>10} {:>11} {:>7.3}x",
            net.name(),
            t.fixed_cycles(TaxonomyDataflow::Rs),
            t.fixed_cycles(TaxonomyDataflow::Nlr),
            t.hybrid2,
            t.hybrid4,
            t.hybrid4_gain()
        );
    }
    println!("-> zero gain on SqueezeNet v1.0, the network the accelerator was built for.\n");

    println!("== 2. what does the analytic max(compute, dram) shortcut hide? ==");
    println!("{:<20} {:>12} {:>12} {:>8} {:>8}", "network", "analytic", "event", "ratio", "stalls");
    for net in zoo::table_networks() {
        let a = sim.try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts)?;
        let e = sim.try_simulate_network_event(
            &net,
            &cfg,
            DataflowPolicy::PerLayer,
            opts,
            TimeSkip::Enabled,
        )?;
        println!(
            "{:<20} {:>12} {:>12} {:>7.2}x {:>7.0}%",
            net.name(),
            a.total_cycles(),
            e.total_cycles(),
            e.total_cycles() as f64 / a.total_cycles() as f64,
            100.0 * e.total_stalls() as f64 / e.total_cycles() as f64
        );
    }
    println!("-> the gap concentrates in single-tile layers that cannot hide their own loads.\n");

    println!("== 3. how much buffer would on-chip forwarding need? ==");
    println!("{:<20} {:>9} {:>9} {:>9} {:>9}", "network", "128KiB", "512KiB", "2MiB", "8MiB");
    for net in zoo::table_networks() {
        let mut cells = Vec::new();
        for kib in [128usize, 512, 2048, 8192] {
            let buf = AcceleratorConfig::builder().global_buffer_bytes(kib * 1024).build()?;
            let s = fusion_savings_with(&sim, &net, &buf, opts, &energy)?;
            cells.push(format!("{:>8.0}%", 100.0 * s.dram_fraction_saved()));
        }
        println!("{:<20} {}", net.name(), cells.join(" "));
    }
    println!("-> SqueezeNext's small tensors forward earliest: co-design pays twice.");
    Ok(())
}
