//! Deployment study: what the embedded constraints of §2 cost, and what
//! relaxing them buys — batch size (cloud vs embedded), core count, and
//! measured vs assumed weight sparsity.
//!
//! ```text
//! cargo run --release --example deployment_study
//! ```

use codesign::arch::{AcceleratorConfig, Dataflow, DataflowPolicy};
use codesign::dnn::zoo;
use codesign::sim::{measure_sparsity, MultiCoreConfig, SimOptions, Simulator};
use codesign::tensor::WeightStore;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sim = Simulator::new();
    let cfg = AcceleratorConfig::paper_default();
    let opts = SimOptions::paper_default();

    println!("== batch size: what batch-1 embedded inference costs ==");
    println!("{:<20} {:>12} {:>12} {:>10}", "network", "ms @ b=1", "ms @ b=16", "gain");
    for net in [zoo::alexnet(), zoo::squeezenet_v1_0(), zoo::mobilenet_v1()] {
        let per_image = |batch| {
            sim.try_simulate_network_batched(&net, &cfg, DataflowPolicy::PerLayer, opts, batch)
                .map(|perf| perf.total_cycles() as f64 / batch as f64)
        };
        let (b1, b16) = (per_image(1)?, per_image(16)?);
        println!(
            "{:<20} {:>12.2} {:>12.2} {:>9.2}x",
            net.name(),
            cfg.cycles_to_ms(b1 as u64),
            cfg.cycles_to_ms(b16 as u64),
            b1 / b16
        );
    }

    println!("\n== core count: scaling behind one shared DRAM channel ==");
    println!("{:<20} {:>10} {:>10} {:>10}", "network", "1 core", "2 cores", "4 cores");
    for net in [zoo::alexnet(), zoo::squeezenet_v1_0(), zoo::tiny_darknet()] {
        let run = |cores| {
            let mc = MultiCoreConfig { core: cfg.clone(), cores };
            sim.try_simulate_network_multicore(&net, &mc, DataflowPolicy::PerLayer, opts)
                .map(|perf| format!("{:.2}ms", cfg.cycles_to_ms(perf.total_cycles())))
        };
        println!("{:<20} {:>10} {:>10} {:>10}", net.name(), run(1)?, run(2)?, run(4)?);
    }

    println!("\n== sparsity: the 40% assumption vs measured weights ==");
    let net = zoo::squeezenet_v1_1();
    let mut rng = StdRng::seed_from_u64(42);
    for (label, zero_fraction) in [("40% zeros", 0.4), ("60% zeros", 0.6), ("dense", 0.0)] {
        let store = WeightStore::random(&net, 8, zero_fraction, &mut rng);
        let map = measure_sparsity(&net, &store);
        let measured = sim.try_simulate_network_measured(
            &net,
            &cfg,
            DataflowPolicy::Fixed(Dataflow::OutputStationary),
            opts,
            &map,
        )?;
        println!(
            "  weights {label:<10} -> OS-only inference {:>9} cycles",
            measured.total_cycles()
        );
    }
    let assumed = sim.try_simulate_network(
        &net,
        &cfg,
        DataflowPolicy::Fixed(Dataflow::OutputStationary),
        opts,
    )?;
    println!("  uniform 40% model  -> OS-only inference {:>9} cycles", assumed.total_cycles());
    Ok(())
}
