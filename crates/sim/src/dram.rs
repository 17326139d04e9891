//! DRAM traffic and timing model.
//!
//! The paper approximates DRAM with a latency and an effective bandwidth,
//! hides transfers behind compute via double buffering, and tiles the six
//! convolution loops when a layer's footprint exceeds the global buffer.
//! This module reproduces that methodology with a documented tiling
//! approximation (DESIGN.md §4): the smaller of the two streamed operands
//! is kept resident, and when neither input nor weights fit in half the
//! working buffer the input is re-fetched once per weight chunk (the
//! classic GEMM tiling bound).

use codesign_arch::AcceleratorConfig;

use crate::error::{SimError, SimResult};
use crate::workload::ConvWork;

/// DRAM traffic of one layer in bytes, split by operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DramTraffic {
    /// Input feature-map bytes fetched (including tiling re-fetches).
    pub input: u64,
    /// Weight bytes fetched.
    pub weights: u64,
    /// Output feature-map bytes written.
    pub output: u64,
}

impl DramTraffic {
    /// Total bytes moved.
    pub fn total(&self) -> u64 {
        self.input + self.weights + self.output
    }
}

/// Computes the DRAM traffic of a convolution-shaped layer.
///
/// Feature maps live in DRAM between layers (the 128 KB global buffer is
/// far smaller than most activation footprints), so each layer fetches
/// its input and writes its output once, plus any tiling re-fetches.
///
/// # Errors
///
/// [`SimError::ArithmeticOverflow`] when a byte count or their total
/// passes 64 bits: [`ConvWork::validate`], which the work must have
/// passed, bounds the element counts but not their products with the
/// element width and the re-fetch factor.
pub fn conv_traffic(work: &ConvWork, cfg: &AcceleratorConfig) -> SimResult<DramTraffic> {
    let overflow = || SimError::overflow("closed-form DRAM traffic");
    let e = cfg.bytes_per_element() as u64;
    let bytes = |elements: u64| elements.checked_mul(e).ok_or_else(overflow);
    let (input, weights, output) = (
        bytes(work.input_elements())?,
        bytes(work.weight_elements())?,
        bytes(work.output_elements())?,
    );
    let buffer = cfg.working_buffer_bytes() as u64;

    // Reserve half the working buffer for the operand kept resident and
    // half for the streamed one.
    let half = (buffer / 2).max(1);
    // No re-fetch when everything fits, or when either operand fits in
    // half the buffer (it stays resident while the other streams once).
    let total = input.checked_add(weights).and_then(|s| s.checked_add(output));
    let fits = total.is_some_and(|total| total <= buffer);
    let refetch = if fits || weights <= half || input <= half {
        1
    } else {
        // Neither fits: stream weights once, re-fetch the input once per
        // weight chunk.
        weights.div_ceil(half).max(1)
    };
    let traffic =
        DramTraffic { input: input.checked_mul(refetch).ok_or_else(overflow)?, weights, output };
    // Checked down to the total, so `DramTraffic::total` cannot wrap.
    traffic.input.checked_add(weights).and_then(|s| s.checked_add(output)).ok_or_else(overflow)?;
    Ok(traffic)
}

/// Traffic of a non-PE (SIMD-path) layer: input read once, output written
/// once, no weights.
pub fn simd_traffic(
    input_elements: u64,
    output_elements: u64,
    cfg: &AcceleratorConfig,
) -> DramTraffic {
    let e = cfg.bytes_per_element() as u64;
    DramTraffic { input: input_elements * e, weights: 0, output: output_elements * e }
}

/// Combines PE-array busy cycles with DRAM cycles into end-to-end layer
/// cycles.
///
/// With double buffering the DMA streams tile `i+1` while the array works
/// on tile `i`, so the layer takes `max(compute, dram)` plus the initial
/// fill latency; without it, transfers serialize.
pub fn combine_cycles(compute_cycles: u64, dram_cycles: u64, cfg: &AcceleratorConfig) -> u64 {
    let latency = cfg.dram().latency_cycles;
    if cfg.double_buffering() {
        compute_cycles.max(dram_cycles) + latency
    } else {
        compute_cycles + dram_cycles + latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkKind;

    fn work(c: usize, k: usize, f: usize, hw: usize) -> ConvWork {
        ConvWork {
            kind: WorkKind::Dense,
            groups: 1,
            in_channels: c,
            out_channels: k,
            kernel_h: f,
            kernel_w: f,
            stride: 1,
            in_h: hw,
            in_w: hw,
            out_h: hw,
            out_w: hw,
        }
    }

    #[test]
    fn small_layer_moves_each_operand_once() {
        let cfg = AcceleratorConfig::paper_default();
        let w = work(16, 16, 3, 14); // tiny: fits in 64 KB easily
        let t = conv_traffic(&w, &cfg).unwrap();
        assert_eq!(t.input, 16 * 14 * 14 * 2);
        assert_eq!(t.weights, 9 * 16 * 16 * 2);
        assert_eq!(t.output, 16 * 14 * 14 * 2);
    }

    #[test]
    fn huge_weights_trigger_input_refetch() {
        let cfg = AcceleratorConfig::paper_default();
        // Both operands exceed 32 KB: input 128x56x56x2 = 784 KB,
        // weights 9*128*128*2 = 288 KB.
        let w = work(128, 128, 3, 56);
        let t = conv_traffic(&w, &cfg).unwrap();
        let base_input = 128 * 56 * 56 * 2u64;
        assert!(t.input > base_input, "input should be re-fetched");
        assert_eq!(t.weights, 9 * 128 * 128 * 2);
        // Re-fetch factor is ceil(288 KB / 32 KB) = 9.
        assert_eq!(t.input, base_input * 9);
    }

    #[test]
    fn resident_input_avoids_refetch() {
        let cfg = AcceleratorConfig::paper_default();
        // FC-like: input tiny (fits), weights huge -> weights stream once.
        let w = ConvWork {
            kind: WorkKind::FullyConnected,
            groups: 1,
            in_channels: 4096,
            out_channels: 4096,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            in_h: 1,
            in_w: 1,
            out_h: 1,
            out_w: 1,
        };
        let t = conv_traffic(&w, &cfg).unwrap();
        assert_eq!(t.input, 4096 * 2);
        assert_eq!(t.weights, 4096 * 4096 * 2);
        assert_eq!(t.output, 4096 * 2);
    }

    #[test]
    fn double_buffering_overlaps() {
        let db = AcceleratorConfig::paper_default();
        let no_db = AcceleratorConfig::builder().double_buffering(false).build().unwrap();
        assert_eq!(combine_cycles(1000, 400, &db), 1000 + 100);
        assert_eq!(combine_cycles(400, 1000, &db), 1000 + 100);
        assert_eq!(combine_cycles(1000, 400, &no_db), 1400 + 100);
    }

    #[test]
    fn simd_traffic_has_no_weights() {
        let cfg = AcceleratorConfig::paper_default();
        let t = simd_traffic(100, 25, &cfg);
        assert_eq!(t.total(), 250);
        assert_eq!(t.weights, 0);
    }
}
