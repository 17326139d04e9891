//! Quantized deployment: calibrate float weights into the
//! Squeezelerator's 16-bit integer datapath, check the quantization SNR,
//! and run the quantized model through the accelerator's dataflow
//! schedules.
//!
//! ```text
//! cargo run --release --example quantized_deployment
//! ```

use codesign::arch::{AcceleratorConfig, DataflowPolicy};
use codesign::dnn::{LayerOp, NetworkBuilder, Shape};
use codesign::sim::{run_network_on_accelerator, SimOptions, Simulator};
use codesign::tensor::{run_network, sqnr_db, Filters, QuantScale, Tensor, WeightStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pretend-trained float weights: smooth pseudo-random values in
/// [-0.25, 0.25] with 40% pruned to zero, like a sparsified checkpoint.
fn float_weights(count: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..count)
        .map(|_| if rng.gen::<f64>() < 0.4 { 0.0 } else { (rng.gen::<f32>() - 0.5) * 0.5 })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(16);
    let net = NetworkBuilder::new("quantized-edge-net", Shape::new(3, 48, 48))
        .conv("conv1", 16, 5, 2, 0)
        .fire("fire2", 8, 16, 16)
        .max_pool("pool2", 3, 2)
        .fire("fire3", 12, 24, 24)
        .pointwise_conv("cls", 10)
        .global_avg_pool("gap")
        .finish()?;
    println!("{net}\n");

    // Calibrate one symmetric scale per layer and quantize.
    let mut store = WeightStore::new();
    println!("{:<18} {:>8} {:>10} {:>10}", "layer", "taps", "scale", "SQNR (dB)");
    for layer in net.compute_layers() {
        let LayerOp::Conv(spec) = &layer.op else { continue };
        let cg = layer.input.channels / spec.groups;
        let count = cg * spec.kernel.taps() * spec.out_channels;
        let floats = float_weights(count, &mut rng);
        let scale = QuantScale::calibrate_from(&floats, 16).expect("non-degenerate weights");
        println!(
            "{:<18} {:>8} {:>10.3e} {:>10.1}",
            layer.name,
            count,
            scale.step(),
            sqnr_db(&floats, &scale)
        );
        let mut k = 0;
        let quantized = Filters::from_fn(
            spec.out_channels,
            cg,
            spec.kernel.height,
            spec.kernel.width,
            |_, _, _, _| {
                let q = scale.quantize(floats[k]);
                k += 1;
                q
            },
        );
        store.insert(layer.name.clone(), quantized);
    }

    // Run the quantized model: reference executor vs the accelerator's
    // dataflow schedules must agree bit for bit.
    let image = Tensor::random(net.input(), 127, &mut rng);
    let reference = run_network(&net, &image, &store)?;
    let cfg = AcceleratorConfig::paper_default();
    let opts = SimOptions::paper_default();
    let schedule =
        Simulator::new().try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts)?;
    let accel = run_network_on_accelerator(&net, &image, &store, &cfg, &schedule)?;
    for (name, want) in reference.iter() {
        assert_eq!(accel.get(name), Some(want), "{name} diverged");
    }
    let logits = accel.final_output();
    let class = logits
        .as_slice()
        .iter()
        .enumerate()
        .max_by_key(|(_, &v)| v)
        .map(|(i, _)| i)
        .expect("ten logits");
    println!("\nquantized inference agrees across executors; predicted class {class}");
    Ok(())
}
