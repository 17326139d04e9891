//! Constraint-driven model selection — §4.2's closing use case: the
//! SqueezeNext family "allows the user to select the right DNN from this
//! family based on the target application's constraints".
//!
//! Simulates the whole Figure-4 spectrum once, then answers a few
//! embedded-product questions against it.
//!
//! ```text
//! cargo run --release --example model_selection
//! ```

use codesign::arch::{AcceleratorConfig, EnergyModel};
use codesign::core::{select_model, spectrum_with, Constraints};
use codesign::dnn::zoo;
use codesign::sim::{SimError, SimOptions, Simulator};

fn main() -> Result<(), SimError> {
    let cfg = AcceleratorConfig::paper_default();
    let opts = SimOptions::paper_default();
    let energy = EnergyModel::default();

    let mut nets = zoo::squeezenext_family();
    nets.push(zoo::squeezenet_v1_0());
    nets.push(zoo::squeezenet_v1_1());
    nets.push(zoo::tiny_darknet());
    nets.extend(zoo::mobilenet_family());
    let points = spectrum_with(&Simulator::new(), &nets, &cfg, opts, &energy)?;

    println!("model spectrum on {cfg}:");
    for p in &points {
        println!("  {p}");
    }

    let median_energy = {
        let mut es: Vec<f64> = points.iter().map(|p| p.energy).collect();
        es.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        es[es.len() / 2]
    };

    let scenarios = [
        ("dash-cam, 30 fps", Constraints::real_time_ms(1000.0 / 30.0)),
        ("drone, 120 fps", Constraints::real_time_ms(1000.0 / 120.0)),
        (
            "battery camera, tight energy + >58% top-1",
            Constraints {
                max_energy: Some(median_energy),
                min_accuracy: Some(58.0),
                max_time_ms: None,
            },
        ),
        (
            "impossible ask (>90% top-1)",
            Constraints { min_accuracy: Some(90.0), ..Constraints::default() },
        ),
    ];

    println!("\nselection:");
    for (name, c) in scenarios {
        match select_model(&points, &c) {
            Some(p) => println!("  {name:<42} [{c}] -> {}", p.name),
            None => println!("  {name:<42} [{c}] -> no model qualifies"),
        }
    }
    Ok(())
}
