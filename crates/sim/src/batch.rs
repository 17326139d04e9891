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

use crate::cache::{Lookups, WorkKey};
use crate::engine::{choose_dataflow, finish_layer, SimOptions, Simulator};
use crate::error::{SimError, SimResult};
use crate::perf::{LayerPerf, NetworkPerf, PhaseCycles};
use crate::simd::simulate_simd;
use crate::workload::ConvWork;

const SCALE_CTX: &str = "batched scaling";

fn mul(a: u64, b: u64) -> SimResult<u64> {
    a.checked_mul(b).ok_or_else(|| SimError::overflow(SCALE_CTX))
}

impl Simulator {
    /// Simulates a network over a batch of `batch` images; per-layer
    /// results are **whole-batch** (divide cycles by `batch` for
    /// per-image numbers). Each layer's single-image compute and its
    /// traffic come from the handle's cache, so batch 1 takes
    /// [`Simulator::try_simulate_network`]'s cycles. With a span-recording
    /// tracer the run publishes one track of per-layer spans.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidWorkload`] when `batch == 0` or a layer is
    /// degenerate; [`SimError::ArithmeticOverflow`] when the batch
    /// multiplies any count past the 64-bit modeling range. The first
    /// error any layer surfaces is attributed to that layer.
    pub fn try_simulate_network_batched(
        &self,
        network: &Network,
        cfg: &AcceleratorConfig,
        policy: DataflowPolicy,
        opts: SimOptions,
        batch: u64,
    ) -> SimResult<NetworkPerf> {
        let layers = network
            .layers()
            .iter()
            .map(|layer| {
                let work = ConvWork::from_layer(layer).map(WorkKey::new);
                let simulate = |d| self.layer_batched(layer, work.as_ref(), cfg, opts, d, batch);
                choose_dataflow(policy, simulate, |p| p.total_cycles)
                    .map(|(_, perf)| perf)
                    .map_err(|e| e.for_layer(&layer.name))
            })
            .collect::<SimResult<_>>()?;
        let perf = NetworkPerf { name: network.name().to_owned(), layers };
        self.record_network(network, &perf, cfg, policy, None);
        Ok(perf)
    }

    /// One layer (its keyed work, `None` for a SIMD layer) over the
    /// batch under `dataflow`, whole-batch.
    fn layer_batched(
        &self,
        layer: &Layer,
        work: Option<&WorkKey>,
        cfg: &AcceleratorConfig,
        opts: SimOptions,
        dataflow: Dataflow,
        batch: u64,
    ) -> SimResult<LayerPerf> {
        if batch == 0 {
            return Err(SimError::invalid("batch size must be positive").for_layer(&layer.name));
        }
        let seen = &mut Lookups::default();
        let single = match work {
            Some(work) => self.compute(work, cfg, &opts, dataflow, seen)?,
            None => simulate_simd(layer, cfg)?,
        };
        let mut compute = single.repeated(batch, SCALE_CTX)?;
        compute.phases = PhaseCycles {
            // Weights stay resident across the batch under WS: loads once,
            // streaming scales. Output-stationary state is per image:
            // everything scales. (The SIMD path has no load phase.)
            load: match dataflow {
                Dataflow::WeightStationary => single.phases.load,
                Dataflow::OutputStationary => mul(single.phases.load, batch)?,
            },
            compute: mul(single.phases.compute, batch)?,
            drain: mul(single.phases.drain, batch)?,
        };
        let (dataflow, activations, weights) = match work {
            Some(work) => {
                let traffic = self.traffic(work, cfg, &opts, seen)?;
                (Some(dataflow), traffic.input.checked_add(traffic.output), traffic.weights)
            }
            None => {
                let elements = (layer.input.elements() as u64)
                    .checked_add(layer.output.elements() as u64)
                    .and_then(|n| n.checked_mul(cfg.bytes_per_element() as u64));
                (None, elements, 0)
            }
        };
        // Weights once per batch; activations per image.
        let dram_bytes = activations
            .and_then(|act| act.checked_mul(batch))
            .and_then(|act| act.checked_add(weights))
            .ok_or_else(|| SimError::overflow(SCALE_CTX))?;
        Ok(finish_layer(layer, dataflow, compute, dram_bytes, cfg, cfg.pe_count()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::zoo;

    fn setup() -> (AcceleratorConfig, SimOptions) {
        (AcceleratorConfig::paper_default(), SimOptions::paper_default())
    }

    fn try_simulate_network_batched(
        net: &Network,
        cfg: &AcceleratorConfig,
        policy: DataflowPolicy,
        opts: SimOptions,
        batch: u64,
    ) -> SimResult<NetworkPerf> {
        Simulator::new().try_simulate_network_batched(net, cfg, policy, opts, batch)
    }

    fn simulate_network_batched(
        net: &Network,
        cfg: &AcceleratorConfig,
        policy: DataflowPolicy,
        opts: SimOptions,
        batch: u64,
    ) -> NetworkPerf {
        try_simulate_network_batched(net, cfg, policy, opts, batch).unwrap()
    }

    #[test]
    fn batch_one_matches_the_plain_simulator() {
        let (cfg, opts) = setup();
        let net = zoo::squeezenet_v1_1();
        let sim = Simulator::new();
        let plain = sim.try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts).unwrap();
        let batched = sim
            .try_simulate_network_batched(&net, &cfg, DataflowPolicy::PerLayer, opts, 1)
            .unwrap();
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
    fn zero_batch_is_a_typed_error() {
        let (cfg, opts) = setup();
        let net = zoo::tiny_darknet();
        let err = try_simulate_network_batched(&net, &cfg, DataflowPolicy::PerLayer, opts, 0)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidWorkload { .. }), "{err}");
        assert!(err.to_string().contains("batch size must be positive"), "{err}");
    }

    #[test]
    fn overflow_scale_batch_is_a_typed_error() {
        let (cfg, opts) = setup();
        let net = zoo::alexnet();
        let err =
            try_simulate_network_batched(&net, &cfg, DataflowPolicy::PerLayer, opts, u64::MAX / 2)
                .unwrap_err();
        assert!(matches!(err, SimError::ArithmeticOverflow { .. }), "{err}");
        assert_eq!(err.layer(), Some("conv1"), "the error names the layer");
    }
}
