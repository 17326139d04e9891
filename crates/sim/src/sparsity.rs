//! Measured per-layer weight sparsity.
//!
//! The paper "conservatively model\[s\] the sparsity ... of each DNN layer
//! at 40%". With a concrete weight store we can do better: measure each
//! layer's actual zero fraction and feed it to the OS dataflow's
//! zero-skipping broadcast, layer by layer.

use std::collections::HashMap;

use codesign_arch::{AcceleratorConfig, DataflowPolicy};
use codesign_dnn::Network;
use codesign_tensor::WeightStore;

use crate::engine::{choose_dataflow, SimOptions, Simulator};
use crate::error::SimResult;
use crate::os::SparsityModel;
use crate::perf::NetworkPerf;

/// Per-layer zero-weight fractions, keyed by layer name.
pub type SparsityMap = HashMap<String, f64>;

/// Measures each compute layer's zero-weight fraction from a weight
/// store. Layers without weights are omitted (the simulator falls back
/// to the uniform model for them).
pub fn measure_sparsity(network: &Network, weights: &WeightStore) -> SparsityMap {
    network
        .compute_layers()
        .filter_map(|l| Some((l.name.clone(), weights.get(&l.name)?.zero_fraction())))
        .collect()
}

fn layer_options(base: SimOptions, zero_fraction: Option<f64>) -> SimOptions {
    match zero_fraction {
        Some(z) => SimOptions {
            os: base.os.with_sparsity(SparsityModel {
                zero_fraction: z,
                exploit: base.os.sparsity.exploit,
            }),
            ..base
        },
        None => base,
    }
}

impl Simulator {
    /// Simulates a network with per-layer measured sparsity instead of
    /// the uniform 40 % assumption: each layer in `sparsity` runs with
    /// its own zero fraction, the rest with `opts`' uniform model.
    ///
    /// # Errors
    ///
    /// The first [`SimError`](crate::SimError) any layer surfaces,
    /// attributed to that layer.
    pub fn try_simulate_network_measured(
        &self,
        network: &Network,
        cfg: &AcceleratorConfig,
        policy: DataflowPolicy,
        opts: SimOptions,
        sparsity: &SparsityMap,
    ) -> SimResult<NetworkPerf> {
        let layers = network
            .layers()
            .iter()
            .map(|layer| {
                let opts = layer_options(opts, sparsity.get(&layer.name).copied());
                let simulate = |d| self.try_simulate_layer(layer, cfg, opts, d);
                choose_dataflow(policy, simulate, |p| p.total_cycles).map(|(_, perf)| perf)
            })
            .collect::<SimResult<_>>()?;
        Ok(NetworkPerf { name: network.name().to_owned(), layers })
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use codesign_arch::Dataflow;
    use codesign_dnn::{NetworkBuilder, Shape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn simulate_network(
        net: &Network,
        cfg: &AcceleratorConfig,
        policy: DataflowPolicy,
        opts: SimOptions,
    ) -> NetworkPerf {
        Simulator::new().try_simulate_network(net, cfg, policy, opts).unwrap()
    }

    fn simulate_network_measured(
        net: &Network,
        cfg: &AcceleratorConfig,
        policy: DataflowPolicy,
        opts: SimOptions,
        sparsity: &SparsityMap,
    ) -> NetworkPerf {
        Simulator::new().try_simulate_network_measured(net, cfg, policy, opts, sparsity).unwrap()
    }

    fn small_net() -> Network {
        NetworkBuilder::new("t", Shape::new(16, 28, 28))
            .conv("c1", 32, 3, 1, 1)
            .conv("c2", 32, 3, 1, 1)
            .max_pool("p", 2, 2)
            .finish()
            .unwrap()
    }

    #[test]
    fn measured_map_covers_compute_layers() {
        let net = small_net();
        let mut rng = StdRng::seed_from_u64(4);
        let ws = WeightStore::random(&net, 8, 0.4, &mut rng);
        let map = measure_sparsity(&net, &ws);
        assert_eq!(map.len(), 2);
        for z in map.values() {
            assert!((z - 0.4).abs() < 0.05, "measured {z}");
        }
    }

    #[test]
    fn forty_percent_weights_match_the_uniform_model_closely() {
        let net = small_net();
        let mut rng = StdRng::seed_from_u64(5);
        let store = WeightStore::random(&net, 8, 0.4, &mut rng);
        let map = measure_sparsity(&net, &store);
        let cfg = AcceleratorConfig::paper_default();
        let opts = SimOptions::paper_default();
        let uniform =
            simulate_network(&net, &cfg, DataflowPolicy::Fixed(Dataflow::OutputStationary), opts);
        let measured = simulate_network_measured(
            &net,
            &cfg,
            DataflowPolicy::Fixed(Dataflow::OutputStationary),
            opts,
            &map,
        );
        let ratio = measured.total_cycles() as f64 / uniform.total_cycles() as f64;
        assert!((ratio - 1.0).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn dense_weights_slow_the_os_dataflow_down() {
        let net = small_net();
        let mut rng = StdRng::seed_from_u64(6);
        let store = WeightStore::random(&net, 8, 0.0, &mut rng);
        let map = measure_sparsity(&net, &store);
        let cfg = AcceleratorConfig::paper_default();
        let opts = SimOptions::paper_default();
        let assumed_sparse =
            simulate_network(&net, &cfg, DataflowPolicy::Fixed(Dataflow::OutputStationary), opts);
        let measured = simulate_network_measured(
            &net,
            &cfg,
            DataflowPolicy::Fixed(Dataflow::OutputStationary),
            opts,
            &map,
        );
        assert!(measured.total_cycles() > assumed_sparse.total_cycles());
    }

    #[test]
    fn layers_without_weights_fall_back_to_uniform() {
        let net = small_net();
        let cfg = AcceleratorConfig::paper_default();
        let opts = SimOptions::paper_default();
        let empty = SparsityMap::new();
        let fallback =
            simulate_network_measured(&net, &cfg, DataflowPolicy::PerLayer, opts, &empty);
        let uniform = simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts);
        assert_eq!(fallback.total_cycles(), uniform.total_cycles());
    }
}
