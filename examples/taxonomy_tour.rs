//! A tour of the §3.2 accelerator taxonomy: the same networks on three
//! very different spatial-architecture design points —
//!
//! * an 8×8 OS-only array (ShiDianNao-like),
//! * a 256×256 WS-only array (TPU-like),
//! * the paper's 32×32 per-layer-hybrid Squeezelerator —
//!
//! showing why neither extreme serves embedded DNNs and how the hybrid
//! closes the gap with three orders of magnitude fewer PEs than a TPU.
//!
//! ```text
//! cargo run --release --example taxonomy_tour
//! ```

use codesign::arch::{AcceleratorConfig, Dataflow, DataflowPolicy, EnergyModel};
use codesign::dnn::zoo;
use codesign::sim::{SimOptions, Simulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sim = Simulator::new();
    let opts = SimOptions::paper_default();
    let energy = EnergyModel::default();

    // ShiDianNao-like: tiny OS array, small on-chip buffer.
    let shidiannao = AcceleratorConfig::builder()
        .array_size(8)
        .rf_depth(8)
        .global_buffer_bytes(64 * 1024)
        .build()?;
    // TPU-like: huge WS array, large unified buffer.
    let tpu = AcceleratorConfig::builder()
        .array_size(256)
        .rf_depth(4)
        .global_buffer_bytes(8 * 1024 * 1024)
        .build()?;
    // The paper's Squeezelerator.
    let squeezelerator = AcceleratorConfig::paper_default();

    let points = [
        (
            "8x8 OS (ShiDianNao-like)",
            &shidiannao,
            DataflowPolicy::Fixed(Dataflow::OutputStationary),
        ),
        ("256x256 WS (TPU-like)", &tpu, DataflowPolicy::Fixed(Dataflow::WeightStationary)),
        ("32x32 hybrid (paper)", &squeezelerator, DataflowPolicy::PerLayer),
    ];

    for net in [zoo::squeezenet_v1_0(), zoo::mobilenet_v1()] {
        println!("{net}");
        println!(
            "  {:<28} {:>8} {:>10} {:>8} {:>14}",
            "architecture", "PEs", "ms", "util", "energy (MMAC)"
        );
        for (name, cfg, policy) in &points {
            let perf = sim.try_simulate_network(&net, cfg, *policy, opts)?;
            println!(
                "  {:<28} {:>8} {:>10.2} {:>7.1}% {:>14.0}",
                name,
                cfg.pe_count(),
                cfg.cycles_to_ms(perf.total_cycles()),
                100.0 * perf.average_utilization(cfg.pe_count()),
                perf.total_energy(&energy) / 1e6
            );
        }
        println!();
    }
    println!("batch-1 embedded inference cannot feed a TPU-sized WS array:");
    println!("its utilization collapses, while the small hybrid array stays busy.");
    Ok(())
}
