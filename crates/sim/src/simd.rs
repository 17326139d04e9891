//! The 1-D SIMD side path for non-convolutional layers.
//!
//! §3.1 of the paper: layers other than convolutions "have a very small
//! computational complexity \[and\] are usually processed in a 1D SIMD
//! manner". We model an N-lane vector unit fed from the global buffer.

use codesign_arch::{AcceleratorConfig, AccessCounts};
use codesign_dnn::{Layer, LayerOp};

use crate::error::{SimError, SimResult};
use crate::perf::{ComputePerf, PhaseCycles};

/// Simulates a non-PE layer on the N-lane SIMD path.
///
/// # Errors
///
/// [`SimError::UnsupportedLayer`] for convolution/FC layers (which
/// belong on the PE array), [`SimError::ArithmeticOverflow`] when the
/// element-operation count leaves the 64-bit modeling range, and
/// [`SimError::InvalidWorkload`] when the accelerator has no lanes.
pub fn simulate_simd(layer: &Layer, cfg: &AcceleratorConfig) -> SimResult<ComputePerf> {
    let lanes = cfg.array_size() as u64;
    if lanes == 0 {
        return Err(SimError::invalid("SIMD path needs at least one lane").for_layer(&layer.name));
    }
    let out = layer.output.elements() as u64;
    let input = layer.input.elements() as u64;
    let of = || SimError::ArithmeticOverflow {
        layer: Some(layer.name.clone()),
        context: "SIMD element operations",
    };
    // Element operations the vector unit performs.
    let ops = match &layer.op {
        LayerOp::Pool { kernel, .. } => {
            let window = kernel.checked_mul(*kernel).ok_or_else(of)? as u64;
            out.checked_mul(window).ok_or_else(of)?
        }
        LayerOp::GlobalAvgPool => input,
        LayerOp::EltwiseAdd => out.checked_mul(2).ok_or_else(of)?,
        LayerOp::Concat { .. } => 0, // pure global-buffer bookkeeping
        LayerOp::Conv(_) | LayerOp::FullyConnected { .. } => {
            return Err(SimError::UnsupportedLayer {
                layer: layer.name.clone(),
                op: format!("{} on the SIMD path", layer.class()),
            });
        }
    };
    let cycles = ops.div_ceil(lanes);
    let accesses = AccessCounts {
        macs: 0,
        register_file: 0,
        inter_pe: 0,
        global_buffer: ops.checked_add(out).ok_or_else(of)?,
        dram: 0,
    };
    Ok(ComputePerf {
        phases: PhaseCycles { load: 0, compute: cycles, drain: 0 },
        executed_macs: 0,
        accesses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::{NetworkBuilder, Shape};

    #[test]
    fn pool_cycles_scale_with_window() {
        let net =
            NetworkBuilder::new("t", Shape::new(4, 16, 16)).max_pool("p2", 2, 2).finish().unwrap();
        let cfg = AcceleratorConfig::paper_default();
        let p = simulate_simd(&net.layers()[0], &cfg).unwrap();
        // 4*8*8 outputs * 4 window ops / 32 lanes = 32 cycles.
        assert_eq!(p.cycles(), 32);
        assert_eq!(p.executed_macs, 0);
    }

    #[test]
    fn conv_is_not_simd() {
        let net =
            NetworkBuilder::new("t", Shape::new(4, 16, 16)).conv("c", 4, 3, 1, 1).finish().unwrap();
        let cfg = AcceleratorConfig::paper_default();
        assert!(matches!(
            simulate_simd(&net.layers()[0], &cfg),
            Err(SimError::UnsupportedLayer { .. })
        ));
    }

    #[test]
    fn concat_is_free_compute() {
        let net =
            NetworkBuilder::new("t", Shape::new(4, 8, 8)).fire("f", 2, 4, 4).finish().unwrap();
        let cfg = AcceleratorConfig::paper_default();
        let cat = net.layer("f/concat").unwrap();
        let p = simulate_simd(cat, &cfg).unwrap();
        assert_eq!(p.phases.compute, 0);
    }
}
