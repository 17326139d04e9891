//! Multi-core accelerator configurations (§3.2 lists "multi-core
//! configuration" among the distinguishing features of NN accelerators).
//!
//! Model: `cores` identical Squeezelerator cores behind one shared DRAM
//! channel. Each layer is data-parallel across cores — spatial layers
//! split their output rows, vector-shaped layers (FC, global pooling
//! results) split output channels. Weights are multicast (fetched from
//! DRAM once); activations are naturally partitioned. Compute scales
//! until the shared DRAM channel saturates.

use codesign_arch::{AcceleratorConfig, Dataflow, DataflowPolicy};
use codesign_dnn::{Layer, Network};

use crate::cache::{Lookups, WorkKey};
use crate::dram::simd_traffic;
use crate::engine::{choose_dataflow, Parts, SimOptions, Simulator};
use crate::error::{SimError, SimResult};
use crate::perf::{LayerPerf, NetworkPerf};
use crate::simd::simulate_simd;
use crate::workload::ConvWork;

/// A homogeneous multi-core accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCoreConfig {
    /// Per-core configuration.
    pub core: AcceleratorConfig,
    /// Number of cores sharing the DRAM channel.
    pub cores: usize,
}

impl MultiCoreConfig {
    /// A single-core "multi-core" — must behave exactly like the plain
    /// simulator.
    pub fn single(core: AcceleratorConfig) -> Self {
        Self { core, cores: 1 }
    }
}

/// Splits a layer's workload into the slice one core processes.
///
/// Spatial layers split output rows; vector layers (`out_h == 1`) split
/// output channels. With more cores than units of work, each slice is
/// one unit and the extra cores idle.
fn core_slice(work: &ConvWork, cores: usize) -> ConvWork {
    let mut slice = *work;
    if work.out_h > 1 {
        slice.out_h = work.out_h.div_ceil(cores).max(1);
        // The input rows a core needs shrink accordingly; keep in_h
        // consistent for tiling (halo included).
        slice.in_h = (slice.out_h - 1) * work.stride + work.kernel_h;
    } else {
        slice.out_channels = work.out_channels.div_ceil(cores).max(1);
    }
    slice
}

impl Simulator {
    /// Simulates a network on a multi-core accelerator. Each core's
    /// slice and the layer's traffic come from the handle's cache. With a
    /// span-recording tracer the run publishes one track of per-layer
    /// spans.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidWorkload`] for a zero core count; otherwise the
    /// first error any layer surfaces, attributed to that layer.
    pub fn try_simulate_network_multicore(
        &self,
        network: &Network,
        mc: &MultiCoreConfig,
        policy: DataflowPolicy,
        opts: SimOptions,
    ) -> SimResult<NetworkPerf> {
        if mc.cores == 0 {
            return Err(SimError::invalid("core count must be positive"));
        }
        let layers = network
            .layers()
            .iter()
            .map(|layer| {
                // The layer's keyed work and one core's slice of it.
                let works = ConvWork::from_layer(layer)
                    .map(|w| (WorkKey::new(w), WorkKey::new(core_slice(&w, mc.cores))));
                let simulate = |d| self.layer_multicore(layer, works.as_ref(), mc, opts, d);
                choose_dataflow(policy, simulate, |p| p.total_cycles)
                    .map(|(_, perf)| perf)
                    .map_err(|e| e.for_layer(&layer.name))
            })
            .collect::<SimResult<_>>()?;
        let perf = NetworkPerf { name: network.name().to_owned(), layers };
        self.record_network(network, &perf, &mc.core, policy, None);
        Ok(perf)
    }

    fn layer_multicore(
        &self,
        layer: &Layer,
        works: Option<&(WorkKey, WorkKey)>,
        mc: &MultiCoreConfig,
        opts: SimOptions,
        dataflow: Dataflow,
    ) -> SimResult<LayerPerf> {
        const CTX: &str = "multi-core scaling";
        let cfg = &mc.core;
        let cores = mc.cores as u64;
        let seen = &mut Lookups::default();
        let (dataflow, compute, traffic) = match works {
            Some((work, slice)) => {
                // The slowest (largest) slice gates the layer. Every core
                // does its share, so the slice's counts scale by the core
                // count (upper bound — the last core's slice may be
                // smaller).
                let compute =
                    self.compute(slice, cfg, &opts, dataflow, seen)?.repeated(cores, CTX)?;
                // Shared DRAM: weights once (multicast), activations split.
                (Some(dataflow), compute, self.traffic(work, cfg, &opts, seen)?)
            }
            None => {
                // SIMD path: split evenly too.
                let mut compute = simulate_simd(layer, cfg)?;
                compute.phases.compute = compute.phases.compute.div_ceil(cores);
                let (input, output) =
                    (layer.input.elements() as u64, layer.output.elements() as u64);
                (None, compute, simd_traffic(input, output, cfg))
            }
        };
        let pes = cfg.pe_count().checked_mul(mc.cores).ok_or_else(|| SimError::overflow(CTX))?;
        Ok(Parts::new(compute, traffic.total(), cfg).finish(layer, dataflow, pes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::zoo;

    fn opts() -> SimOptions {
        SimOptions::paper_default()
    }

    fn simulate_network(net: &Network, cfg: &AcceleratorConfig) -> NetworkPerf {
        Simulator::new().try_simulate_network(net, cfg, DataflowPolicy::PerLayer, opts()).unwrap()
    }

    fn try_simulate_network_multicore(
        net: &Network,
        mc: &MultiCoreConfig,
    ) -> SimResult<NetworkPerf> {
        Simulator::new().try_simulate_network_multicore(net, mc, DataflowPolicy::PerLayer, opts())
    }

    fn multicore_cycles(net: &Network, mc: &MultiCoreConfig) -> u64 {
        try_simulate_network_multicore(net, mc).unwrap().total_cycles()
    }

    #[test]
    fn single_core_matches_the_plain_simulator() {
        let cfg = AcceleratorConfig::paper_default();
        let mc = MultiCoreConfig::single(cfg.clone());
        let net = zoo::squeezenet_v1_1();
        assert_eq!(simulate_network(&net, &cfg).total_cycles(), multicore_cycles(&net, &mc));
    }

    #[test]
    fn overflow_scale_core_count_is_a_typed_error_naming_the_layer() {
        let cfg = AcceleratorConfig::paper_default();
        let mc = MultiCoreConfig { core: cfg, cores: usize::MAX / 2 };
        let net = zoo::tiny_darknet();
        let err = try_simulate_network_multicore(&net, &mc).unwrap_err();
        assert!(matches!(err, SimError::ArithmeticOverflow { .. }), "{err}");
        assert_eq!(err.layer(), Some(net.layers()[0].name.as_str()));
    }

    #[test]
    fn more_cores_never_slow_inference_down() {
        let cfg = AcceleratorConfig::paper_default();
        let net = zoo::squeezenet_v1_0();
        let mut last = u64::MAX;
        for cores in [1, 2, 4] {
            let mc = MultiCoreConfig { core: cfg.clone(), cores };
            let cycles = multicore_cycles(&net, &mc);
            assert!(cycles <= last, "{cores} cores: {cycles} > {last}");
            last = cycles;
        }
    }

    #[test]
    fn scaling_saturates_at_the_dram_wall() {
        // AlexNet's FC layers are weight-movement bound: 4 cores barely
        // help the whole network compared to a compute-bound one.
        let cfg = AcceleratorConfig::paper_default();
        let mc4 = MultiCoreConfig { core: cfg.clone(), cores: 4 };
        let speedup = |net: &codesign_dnn::Network| {
            let one = simulate_network(net, &cfg).total_cycles();
            let four = multicore_cycles(net, &mc4);
            one as f64 / four as f64
        };
        let alex = speedup(&zoo::alexnet());
        let tiny = speedup(&zoo::tiny_darknet());
        assert!(tiny > alex, "compute-bound {tiny:.2} vs dram-bound {alex:.2}");
        assert!(alex < 2.0, "AlexNet cannot scale past the DRAM wall: {alex:.2}");
    }

    #[test]
    fn vector_layers_split_channels() {
        let work = ConvWork {
            kind: crate::workload::WorkKind::FullyConnected,
            groups: 1,
            in_channels: 1024,
            out_channels: 1000,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            in_h: 1,
            in_w: 1,
            out_h: 1,
            out_w: 1,
        };
        let slice = core_slice(&work, 4);
        assert_eq!(slice.out_channels, 250);
        assert_eq!(slice.out_h, 1);
    }

    #[test]
    fn spatial_layers_split_rows_with_halo() {
        let work = ConvWork {
            kind: crate::workload::WorkKind::Dense,
            groups: 1,
            in_channels: 16,
            out_channels: 16,
            kernel_h: 3,
            kernel_w: 3,
            stride: 2,
            in_h: 57,
            in_w: 57,
            out_h: 28,
            out_w: 28,
        };
        let slice = core_slice(&work, 4);
        assert_eq!(slice.out_h, 7);
        assert_eq!(slice.in_h, 6 * 2 + 3);
    }
}
