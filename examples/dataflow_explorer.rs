//! Per-layer dataflow exploration: prints the static WS/OS schedule the
//! Squeezelerator derives for a zoo network (the data behind Figures 1
//! and 3).
//!
//! ```text
//! cargo run --release --example dataflow_explorer -- mobilenet
//! cargo run --release --example dataflow_explorer -- squeezenet-v1.0
//! ```

use std::env;
use std::process::ExitCode;

use codesign::arch::{AcceleratorConfig, Dataflow};
use codesign::core::NetworkSchedule;
use codesign::dnn::zoo;
use codesign::sim::{SimOptions, Simulator};

fn main() -> ExitCode {
    let name = env::args().nth(1).unwrap_or_else(|| "squeezenet-v1.0".to_owned());
    let Some(net) = zoo::by_name(&name) else {
        eprintln!("unknown network `{name}`; try alexnet, mobilenet, tiny-darknet,");
        eprintln!("squeezenet-v1.0, squeezenet-v1.1, squeezenext, sqnxt-23v1..v5");
        return ExitCode::FAILURE;
    };

    let cfg = AcceleratorConfig::paper_default();
    let opts = SimOptions::paper_default();
    let schedule = match NetworkSchedule::build_with(&Simulator::new(), &net, &cfg, opts) {
        Ok(schedule) => schedule,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    println!("{net}");
    println!("{cfg}\n");
    println!(
        "{:<26} {:>6} {:>12} {:>12} {:>8} {:>7}",
        "layer", "class", "WS cycles", "OS cycles", "chosen", "util"
    );
    for e in &schedule.entries {
        println!(
            "{:<26} {:>6} {:>12} {:>12} {:>8} {:>6.1}%",
            e.name,
            e.class.to_string(),
            e.ws_cycles,
            e.os_cycles,
            e.chosen.map_or("SIMD", |d| d.tag()),
            100.0 * e.utilization
        );
    }
    println!(
        "\ntotal: {} cycles ({:.2} ms); layer choices: {:.0}% WS, {:.0}% OS",
        schedule.total_cycles(),
        cfg.cycles_to_ms(schedule.total_cycles()),
        100.0 * schedule.dataflow_share(Dataflow::WeightStationary),
        100.0 * schedule.dataflow_share(Dataflow::OutputStationary),
    );
    ExitCode::SUCCESS
}
