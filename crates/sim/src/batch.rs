//! Batched inference.
//!
//! The paper evaluates batch size 1 ("less opportunity for data reuse,
//! but reflects typical usage in embedded vision applications") — this
//! module quantifies exactly what that choice costs. Batching amortizes
//! stationary data:
//!
//! * **WS**: weight tiles stay resident while `B` images stream — the
//!   preload cost is paid once per tile instead of once per image. For
//!   FC layers at batch 1 the preload is ~97 % of the time, so this is
//!   dramatic.
//! * **OS**: partial sums are per-image, so every phase repeats per
//!   image — no amortization.
//! * **DRAM**: weights move once per batch; activations per image.

use codesign_arch::{AcceleratorConfig, Dataflow, DataflowPolicy};
use codesign_dnn::{Layer, Network};

use crate::dram::combine_cycles;
use crate::engine::{try_simulate_conv, SimOptions};
use crate::error::{SimError, SimResult};
use crate::perf::{LayerPerf, NetworkPerf, PhaseCycles};
use crate::simd::simulate_simd;
use crate::workload::ConvWork;

const SCALE_CTX: &str = "batched scaling";

fn mul(a: u64, b: u64) -> SimResult<u64> {
    a.checked_mul(b).ok_or_else(|| SimError::overflow(SCALE_CTX))
}

fn scale_counts(
    acc: codesign_arch::AccessCounts,
    batch: u64,
) -> SimResult<codesign_arch::AccessCounts> {
    Ok(codesign_arch::AccessCounts {
        macs: mul(acc.macs, batch)?,
        register_file: mul(acc.register_file, batch)?,
        inter_pe: mul(acc.inter_pe, batch)?,
        global_buffer: mul(acc.global_buffer, batch)?,
        dram: 0, // folded in separately (weights amortize)
    })
}

/// Simulates one layer over a batch of `batch` images under the given
/// dataflow, returning the **whole-batch** result (divide cycles by
/// `batch` for per-image numbers).
///
/// # Errors
///
/// [`SimError::InvalidWorkload`] when `batch == 0` or the layer itself
/// is degenerate; [`SimError::ArithmeticOverflow`] when the batch
/// multiplies any count past the 64-bit modeling range.
pub fn try_simulate_layer_batched(
    layer: &Layer,
    cfg: &AcceleratorConfig,
    opts: SimOptions,
    dataflow: Dataflow,
    batch: u64,
) -> SimResult<LayerPerf> {
    try_layer_batched_memo(layer, cfg, opts, dataflow, batch, &mut TrafficMemo::new())
}

/// Per-run cache of the (dataflow-independent) tiling-search traffic:
/// one search serves both dataflows of a layer and every repeat of its
/// shape across the network. Purely an accelerator — hits return the
/// exact bytes a fresh search would.
type TrafficMemo = std::collections::HashMap<ConvWork, crate::dram::DramTraffic>;

fn try_layer_batched_memo(
    layer: &Layer,
    cfg: &AcceleratorConfig,
    opts: SimOptions,
    dataflow: Dataflow,
    batch: u64,
    traffic_memo: &mut TrafficMemo,
) -> SimResult<LayerPerf> {
    if batch == 0 {
        return Err(SimError::invalid("batch size must be positive").for_layer(&layer.name));
    }
    let result = match ConvWork::from_layer(layer) {
        Some(work) => {
            let single = try_simulate_conv(&work, cfg, opts, dataflow)?;
            let phases = match dataflow {
                // Weights stay resident across the batch: loads once,
                // streaming scales.
                Dataflow::WeightStationary => PhaseCycles {
                    load: single.phases.load,
                    compute: mul(single.phases.compute, batch)?,
                    drain: mul(single.phases.drain, batch)?,
                },
                // Output-stationary state is per image: everything scales.
                Dataflow::OutputStationary => PhaseCycles {
                    load: mul(single.phases.load, batch)?,
                    compute: mul(single.phases.compute, batch)?,
                    drain: mul(single.phases.drain, batch)?,
                },
            };
            let mut compute = crate::perf::ComputePerf {
                phases,
                executed_macs: mul(single.executed_macs, batch)?,
                accesses: scale_counts(single.accesses, batch)?,
            };
            let traffic = match traffic_memo.get(&work) {
                Some(&t) => t,
                None => {
                    let t = opts.layer_traffic(&work, cfg)?;
                    traffic_memo.insert(work, t);
                    t
                }
            };
            // Weights once per batch; activations per image.
            let dram_bytes = traffic
                .input
                .checked_add(traffic.output)
                .and_then(|act| act.checked_mul(batch))
                .and_then(|act| act.checked_add(traffic.weights))
                .ok_or_else(|| SimError::overflow(SCALE_CTX))?;
            let dram_cycles = cfg.dram().transfer_cycles(dram_bytes);
            let total_cycles = combine_cycles(compute.cycles(), dram_cycles, cfg);
            compute.accesses.dram = dram_bytes / cfg.bytes_per_element() as u64;
            let utilization = if total_cycles == 0 {
                0.0
            } else {
                compute.executed_macs as f64 / (total_cycles as f64 * cfg.pe_count() as f64)
            };
            Ok(LayerPerf {
                name: layer.name.clone(),
                dataflow: Some(dataflow),
                compute,
                dram_bytes,
                dram_cycles,
                total_cycles,
                utilization,
            })
        }
        None => {
            let single = simulate_simd(layer, cfg)?;
            let mut compute = crate::perf::ComputePerf {
                phases: PhaseCycles {
                    load: 0,
                    compute: mul(single.phases.compute, batch)?,
                    drain: 0,
                },
                executed_macs: 0,
                accesses: scale_counts(single.accesses, batch)?,
            };
            let act = (layer.input.elements() as u64)
                .checked_add(layer.output.elements() as u64)
                .ok_or_else(|| SimError::overflow(SCALE_CTX))?;
            let dram_bytes = mul(mul(act, cfg.bytes_per_element() as u64)?, batch)?;
            let dram_cycles = cfg.dram().transfer_cycles(dram_bytes);
            let total_cycles = combine_cycles(compute.cycles(), dram_cycles, cfg);
            compute.accesses.dram = dram_bytes / cfg.bytes_per_element() as u64;
            Ok(LayerPerf {
                name: layer.name.clone(),
                dataflow: None,
                compute,
                dram_bytes,
                dram_cycles,
                total_cycles,
                utilization: 0.0,
            })
        }
    };
    result.map_err(|e: SimError| e.for_layer(&layer.name))
}

/// Simulates one layer over a batch of `batch` images. Infallible
/// wrapper over [`try_simulate_layer_batched`].
///
/// # Panics
///
/// Panics (through the crate's single panic site) if `batch == 0` or
/// the layer is degenerate.
pub fn simulate_layer_batched(
    layer: &Layer,
    cfg: &AcceleratorConfig,
    opts: SimOptions,
    dataflow: Dataflow,
    batch: u64,
) -> LayerPerf {
    try_simulate_layer_batched(layer, cfg, opts, dataflow, batch).unwrap_or_else(|e| e.raise())
}

/// Simulates a network over a batch; per-layer results are whole-batch.
///
/// # Errors
///
/// The first [`SimError`] any layer surfaces, attributed to that layer.
pub fn try_simulate_network_batched(
    network: &Network,
    cfg: &AcceleratorConfig,
    policy: DataflowPolicy,
    opts: SimOptions,
    batch: u64,
) -> SimResult<NetworkPerf> {
    let mut layers = Vec::with_capacity(network.layers().len());
    let mut memo = TrafficMemo::new();
    for layer in network.layers() {
        let perf = match policy {
            DataflowPolicy::Fixed(d) => {
                try_layer_batched_memo(layer, cfg, opts, d, batch, &mut memo)?
            }
            DataflowPolicy::PerLayer => {
                let ws = try_layer_batched_memo(
                    layer,
                    cfg,
                    opts,
                    Dataflow::WeightStationary,
                    batch,
                    &mut memo,
                )?;
                let os = try_layer_batched_memo(
                    layer,
                    cfg,
                    opts,
                    Dataflow::OutputStationary,
                    batch,
                    &mut memo,
                )?;
                if os.total_cycles < ws.total_cycles {
                    os
                } else {
                    ws
                }
            }
        };
        layers.push(perf);
    }
    Ok(NetworkPerf { name: network.name().to_owned(), layers })
}

/// Simulates a network over a batch. Infallible wrapper over
/// [`try_simulate_network_batched`].
///
/// # Panics
///
/// Panics (through the crate's single panic site) if `batch == 0` or
/// any layer is degenerate.
pub fn simulate_network_batched(
    network: &Network,
    cfg: &AcceleratorConfig,
    policy: DataflowPolicy,
    opts: SimOptions,
    batch: u64,
) -> NetworkPerf {
    try_simulate_network_batched(network, cfg, policy, opts, batch).unwrap_or_else(|e| e.raise())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate_network;
    use codesign_dnn::zoo;

    fn setup() -> (AcceleratorConfig, SimOptions) {
        (AcceleratorConfig::paper_default(), SimOptions::paper_default())
    }

    #[test]
    fn batch_one_matches_the_plain_simulator() {
        let (cfg, opts) = setup();
        let net = zoo::squeezenet_v1_1();
        let plain = simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts);
        let batched = simulate_network_batched(&net, &cfg, DataflowPolicy::PerLayer, opts, 1);
        assert_eq!(plain.total_cycles(), batched.total_cycles());
    }

    #[test]
    fn batching_amortizes_alexnet_fc() {
        // At batch 1 AlexNet is FC/weight-movement bound; per-image time
        // at batch 16 must improve by well over 2x.
        let (cfg, opts) = setup();
        let net = zoo::alexnet();
        let b1 = simulate_network_batched(&net, &cfg, DataflowPolicy::PerLayer, opts, 1)
            .total_cycles() as f64;
        let b16 = simulate_network_batched(&net, &cfg, DataflowPolicy::PerLayer, opts, 16)
            .total_cycles() as f64
            / 16.0;
        assert!(b1 / b16 > 2.0, "per-image speedup = {:.2}", b1 / b16);
    }

    #[test]
    fn batching_barely_helps_conv_only_networks() {
        let (cfg, opts) = setup();
        let net = zoo::squeezenet_v1_0();
        let b1 = simulate_network_batched(&net, &cfg, DataflowPolicy::PerLayer, opts, 1)
            .total_cycles() as f64;
        let b16 = simulate_network_batched(&net, &cfg, DataflowPolicy::PerLayer, opts, 16)
            .total_cycles() as f64
            / 16.0;
        let speedup = b1 / b16;
        assert!(speedup < 1.5, "conv-dominated net should not gain much: {speedup:.2}");
        assert!(speedup >= 1.0);
    }

    #[test]
    fn per_image_cost_is_monotone_in_batch() {
        let (cfg, opts) = setup();
        let net = zoo::mobilenet_v1();
        let mut last = f64::INFINITY;
        for b in [1u64, 2, 4, 8] {
            let per_image = simulate_network_batched(&net, &cfg, DataflowPolicy::PerLayer, opts, b)
                .total_cycles() as f64
                / b as f64;
            assert!(per_image <= last * 1.0001, "batch {b}: {per_image} > {last}");
            last = per_image;
        }
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_rejected() {
        let (cfg, opts) = setup();
        let net = zoo::tiny_darknet();
        let _ = simulate_network_batched(&net, &cfg, DataflowPolicy::PerLayer, opts, 0);
    }

    #[test]
    fn zero_batch_is_a_typed_error_on_the_fallible_path() {
        let (cfg, opts) = setup();
        let net = zoo::tiny_darknet();
        let err = try_simulate_network_batched(&net, &cfg, DataflowPolicy::PerLayer, opts, 0)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidWorkload { .. }), "{err}");
    }

    #[test]
    fn overflow_scale_batch_is_a_typed_error() {
        let (cfg, opts) = setup();
        let net = zoo::alexnet();
        let err =
            try_simulate_network_batched(&net, &cfg, DataflowPolicy::PerLayer, opts, u64::MAX / 2)
                .unwrap_err();
        assert!(matches!(err, SimError::ArithmeticOverflow { .. }), "{err}");
    }
}
