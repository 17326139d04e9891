//! Compile a network into the Squeezelerator's command stream — the
//! static schedule §4.1.2 describes, as an assembly-like listing — and
//! verify the replayed stream reproduces the simulator's cycle count.
//!
//! ```text
//! cargo run --release --example compile_schedule -- squeezenet-v1.1
//! ```

use std::env;
use std::process::ExitCode;

use codesign::arch::{AcceleratorConfig, DataflowPolicy};
use codesign::dnn::zoo;
use codesign::sim::{Program, SimOptions, Simulator};

fn main() -> ExitCode {
    let name = env::args().nth(1).unwrap_or_else(|| "squeezenet-v1.1".to_owned());
    let Some(net) = zoo::by_name(&name) else {
        eprintln!("unknown network `{name}`");
        return ExitCode::FAILURE;
    };

    let sim = Simulator::new();
    let cfg = AcceleratorConfig::paper_default();
    let opts = SimOptions::paper_default();
    let simulated = match sim.try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts) {
        Ok(perf) => perf.total_cycles(),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Compiling replays the simulation above from the handle's cache.
    let program = match Program::try_compile(&sim, &net, &cfg, DataflowPolicy::PerLayer, opts) {
        Ok(program) => program,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    // Print the first few layers' streams; the full listing for a real
    // network runs to thousands of lines.
    let listing = program.listing();
    for line in listing.lines().take(40) {
        println!("{line}");
    }
    println!("    ... ({} commands across {} layers)", program.len(), program.layers.len());

    let replayed = program.estimate(&cfg);
    println!("\nreplayed program: {replayed} cycles");
    println!("simulator:        {simulated} cycles");
    assert_eq!(replayed, simulated, "compiled schedule must match the model");
    println!("exact match — the compiled schedule and the performance model agree.");
    ExitCode::SUCCESS
}
