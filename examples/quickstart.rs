//! Quickstart: simulate SqueezeNet v1.0 on the Squeezelerator and the two
//! fixed-dataflow reference architectures, and print the headline
//! comparison (one Table-2 row).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use codesign::arch::{AcceleratorConfig, EnergyModel};
use codesign::core::compare_all;
use codesign::dnn::zoo;
use codesign::sim::{SimError, SimOptions, Simulator};

fn main() -> Result<(), SimError> {
    let cfg = AcceleratorConfig::paper_default();
    let opts = SimOptions::paper_default();
    let energy = EnergyModel::default();

    let net = zoo::squeezenet_v1_0();
    println!("network: {net}");
    println!("hardware: {cfg}\n");

    let rows = compare_all(&Simulator::new(), std::slice::from_ref(&net), &cfg, opts, energy, 1)?;
    let cmp = &rows[0];
    println!("{:<16} {:>12} {:>10} {:>14}", "architecture", "cycles", "ms", "energy (MMAC)");
    for (name, perf) in
        [("WS only", &cmp.ws), ("OS only", &cmp.os), ("Squeezelerator", &cmp.hybrid)]
    {
        println!(
            "{:<16} {:>12} {:>10.2} {:>14.1}",
            name,
            perf.total_cycles(),
            cfg.cycles_to_ms(perf.total_cycles()),
            perf.total_energy(&energy) / 1e6
        );
    }

    println!(
        "\nSqueezelerator speedup: {:.2}x vs OS, {:.2}x vs WS",
        cmp.speedup_vs_os(),
        cmp.speedup_vs_ws()
    );
    println!(
        "energy reduction:       {:+.0}% vs OS, {:+.0}% vs WS",
        100.0 * cmp.energy_reduction_vs_os(),
        100.0 * cmp.energy_reduction_vs_ws()
    );
    println!("(paper Table 2:         1.26x / 2.06x speedup, 6% / 23% energy)");
    Ok(())
}
