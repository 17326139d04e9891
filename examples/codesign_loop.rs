//! The full co-design loop of §4 — accelerator tailoring, model
//! transformation, and the hardware tune-up — end to end:
//!
//! 1. sweep the accelerator design space for the baseline model;
//! 2. walk the SqueezeNext v1→v5 transformation ladder (7×7→5×5 first
//!    filter, stage reallocation);
//! 3. apply the register-file 8→16 tune-up;
//! 4. report the headline comparison against SqueezeNet v1.0 and AlexNet.
//!
//! ```text
//! cargo run --release --example codesign_loop
//! ```

use codesign::arch::{AcceleratorConfig, EnergyModel};
use codesign::core::{
    best_by_energy_delay, compare_networks_with, sweep_full_with, CodesignStudy, SweepSpace,
};
use codesign::dnn::zoo;
use codesign::sim::{SimOptions, Simulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One handle for the whole loop: the ladder and the headlines replay
    // layer shapes the sweep already simulated.
    let sim = Simulator::new();
    let opts = SimOptions::paper_default();
    let energy = EnergyModel::default();

    println!("step 1: hardware design-space sweep on the baseline (1.0-SqNxt-23v1)");
    let baseline = zoo::squeezenext_variant(1);
    let space = SweepSpace::paper_default();
    let points = sweep_full_with(&sim, &baseline, &space, opts, &energy, 0)?.points;
    let best = best_by_energy_delay(&points).expect("the paper sweep produces valid points");
    println!(
        "  best energy-delay point: {} ({} cycles, util {:.1}%)\n",
        best.params,
        best.cycles,
        100.0 * best.utilization
    );

    println!("step 2+3: model transformation ladder v1..v5, RF 8 vs RF 16");
    let study = CodesignStudy::run_with(&sim, opts, &energy, 0)?;
    println!(
        "  {:<18} {:>12} {:>12} {:>8} {:>8}",
        "variant", "cycles rf8", "cycles rf16", "util", "MMACs"
    );
    for (b, a) in study.before_tuneup.iter().zip(&study.after_tuneup) {
        println!(
            "  {:<18} {:>12} {:>12} {:>7.1}% {:>8.0}",
            a.name,
            b.cycles,
            a.cycles,
            100.0 * a.utilization,
            a.macs as f64 / 1e6
        );
    }
    let (speed, egain) = study.end_to_end_gain();
    println!("  end-to-end co-design gain: {speed:.2}x speed, {egain:.2}x energy\n");

    println!("step 4: headline comparisons (tuned hardware, hybrid dataflow)");
    let cfg = AcceleratorConfig::paper_default();
    let sqnxt = zoo::squeezenext();
    for (base, paper) in
        [(zoo::squeezenet_v1_0(), "2.59x / 2.25x"), (zoo::alexnet(), "8.26x / 7.5x")]
    {
        let r = compare_networks_with(&sim, &sqnxt, &base, &cfg, opts, &energy)?;
        println!(
            "  vs {:<18} {:.2}x faster, {:.2}x less energy   (paper: {})",
            base.name(),
            r.speedup,
            r.energy_gain,
            paper
        );
    }
    Ok(())
}
