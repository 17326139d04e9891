//! Cross-layer fusion: on-chip forwarding of intermediate feature maps.
//!
//! The paper's estimator (and our analytic model) round-trips every
//! intermediate feature map through DRAM. When consecutive layers'
//! working sets fit the global buffer together, the producer's output can
//! stay on chip and feed the consumer directly — the discrete-event
//! model (`codesign_sim::event`) showed exactly this serialization gap.
//! This module plans such fusions and quantifies the DRAM traffic and
//! energy they save. It is a beyond-paper extension (DESIGN.md §5, L4);
//! the paper's own numbers are produced *without* fusion.
//!
//! At the paper's 128 KB buffer almost nothing fuses — ImageNet-scale
//! intermediate maps are hundreds of KB — so the interesting question is
//! how much buffer on-chip forwarding would need, which the report's L4
//! table sweeps.

use codesign_arch::{AcceleratorConfig, DataflowPolicy, EnergyModel};
use codesign_dnn::Network;
use codesign_sim::{NetworkPerf, SimOptions, SimResult, Simulator};

/// A run of consecutive layers whose intermediates stay on chip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionGroup {
    /// Names of the fused layers, in execution order.
    pub layers: Vec<String>,
}

impl FusionGroup {
    /// Number of DRAM round-trips elided (intermediate tensors kept on
    /// chip).
    pub fn elided_tensors(&self) -> usize {
        self.layers.len().saturating_sub(1)
    }
}

/// Plans fusion groups greedily: extend the current group while the live
/// input and output fit in half the working buffer. Only straight-line
/// segments fuse — a layer whose output has more than one consumer
/// (branch points, merge operands) ends its group, since the tensor must
/// stay live beyond the next layer.
pub fn plan_fusion(network: &Network, cfg: &AcceleratorConfig) -> Vec<FusionGroup> {
    let bytes = cfg.bytes_per_element();
    let budget = cfg.working_buffer_bytes() / 2;
    // A tensor must die at its consumer for its producer to fuse: any
    // layer whose output is read more than once (branch points, merge
    // operands) ends its group.
    let mut consumers: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for l in network.layers() {
        if let Some(p) = l.primary_input.as_deref() {
            *consumers.entry(p).or_insert(0) += 1;
        }
        if let Some(p) = l.extra_input.as_deref() {
            *consumers.entry(p).or_insert(0) += 1;
        }
    }
    let multi_consumer = |name: &str| consumers.get(name).copied().unwrap_or(0) > 1;

    let mut groups: Vec<FusionGroup> = Vec::new();
    let mut current: Vec<String> = Vec::new();
    let layers = network.layers();
    for (i, layer) in layers.iter().enumerate() {
        if current.is_empty() {
            current.push(layer.name.clone());
        } else {
            // The next layer must consume exactly the previous layer's
            // output (straight line).
            let prev = &current[current.len() - 1];
            let consumes_prev = layer.primary_input.as_deref() == Some(prev.as_str());
            let fits = layer.input.bytes(bytes) + layer.output.bytes(bytes) <= budget;
            if consumes_prev && fits {
                current.push(layer.name.clone());
            } else {
                groups.push(FusionGroup { layers: std::mem::take(&mut current) });
                current.push(layer.name.clone());
            }
        }
        // A multiply-consumed output must remain live: close the group.
        let last = i + 1 == layers.len();
        if multi_consumer(&layer.name) || last {
            groups.push(FusionGroup { layers: std::mem::take(&mut current) });
        }
    }
    groups.retain(|g| !g.layers.is_empty());
    groups
}

/// The effect of a fusion plan on a simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionSavings {
    /// Baseline (unfused) run.
    pub baseline: NetworkPerf,
    /// DRAM bytes elided by keeping intermediates on chip.
    pub elided_dram_bytes: u64,
    /// Number of intermediate tensors kept on chip.
    pub elided_tensors: usize,
    /// Energy saved, in MAC-normalized units.
    pub energy_saved: f64,
}

impl FusionSavings {
    /// Fraction of the baseline's total DRAM traffic elided.
    pub fn dram_fraction_saved(&self) -> f64 {
        let total: u64 = self.baseline.layers.iter().map(|l| l.dram_bytes).sum();
        if total == 0 {
            0.0
        } else {
            self.elided_dram_bytes as f64 / total as f64
        }
    }

    /// Fraction of the baseline's energy saved.
    pub fn energy_fraction_saved(&self, energy_model: &EnergyModel) -> f64 {
        let total = self.baseline.total_energy(energy_model);
        if total == 0.0 {
            0.0
        } else {
            self.energy_saved / total
        }
    }
}

/// Quantifies what a fusion plan saves, simulating the unfused baseline
/// through `sim`: every fused intermediate tensor skips one DRAM write
/// (producer) and one DRAM read (consumer). The compute walks do not
/// depend on the buffer size, so a buffer sweep sharing one simulator
/// re-runs only the per-buffer tiling searches.
///
/// # Errors
///
/// The first [`SimError`](codesign_sim::SimError) the baseline run
/// surfaces.
pub fn fusion_savings_with(
    sim: &Simulator,
    network: &Network,
    cfg: &AcceleratorConfig,
    opts: SimOptions,
    energy_model: &EnergyModel,
) -> SimResult<FusionSavings> {
    let baseline = sim.try_simulate_network(network, cfg, DataflowPolicy::PerLayer, opts)?;
    let groups = plan_fusion(network, cfg);
    let bytes = cfg.bytes_per_element() as u64;
    let mut elided_dram_bytes = 0u64;
    let mut elided_tensors = 0usize;
    for g in &groups {
        for name in &g.layers[..g.layers.len().saturating_sub(1)] {
            // The plan is built from this network, so the lookup only
            // misses if a caller mixes plans across networks — such
            // entries contribute no savings rather than aborting.
            let Some(layer) = network.layer(name) else { continue };
            // One write + one read of the intermediate map.
            elided_dram_bytes += 2 * layer.output.elements() as u64 * bytes;
            elided_tensors += 1;
        }
    }
    let energy_saved = (elided_dram_bytes / bytes) as f64 * energy_model.dram;
    Ok(FusionSavings { baseline, elided_dram_bytes, elided_tensors, energy_saved })
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::zoo;

    fn setup() -> (AcceleratorConfig, SimOptions, EnergyModel) {
        (AcceleratorConfig::paper_default(), SimOptions::paper_default(), EnergyModel::default())
    }

    #[test]
    fn groups_cover_every_layer_exactly_once() {
        let (cfg, _, _) = setup();
        for net in zoo::table_networks() {
            let groups = plan_fusion(&net, &cfg);
            let covered: Vec<&str> =
                groups.iter().flat_map(|g| g.layers.iter().map(String::as_str)).collect();
            let expected: Vec<&str> = net.layers().iter().map(|l| l.name.as_str()).collect();
            assert_eq!(covered, expected, "{}", net.name());
        }
    }

    #[test]
    fn early_large_maps_do_not_fuse() {
        // SqueezeNet conv1 output is 2.3 MB: cannot stay on chip.
        let (cfg, _, _) = setup();
        let net = zoo::squeezenet_v1_0();
        let groups = plan_fusion(&net, &cfg);
        let first = &groups[0];
        assert_eq!(first.layers, vec!["conv1".to_owned()]);
    }

    fn big_buffer(kib: usize) -> AcceleratorConfig {
        AcceleratorConfig::builder().global_buffer_bytes(kib * 1024).build().unwrap()
    }

    #[test]
    fn the_paper_buffer_barely_fuses() {
        // At 128 KB the intermediate maps are too large to forward —
        // the headline finding of this study.
        let (cfg, opts, em) = setup();
        let s = fusion_savings_with(&Simulator::new(), &zoo::squeezenet_v1_0(), &cfg, opts, &em)
            .unwrap();
        assert!(s.dram_fraction_saved() < 0.05, "saved {:.3}", s.dram_fraction_saved());
    }

    #[test]
    fn a_megabyte_buffer_fuses_plenty() {
        let cfg = big_buffer(2 * 1024);
        let (_, opts, em) = setup();
        for net in [zoo::squeezenet_v1_0(), zoo::mobilenet_v1()] {
            let s = fusion_savings_with(&Simulator::new(), &net, &cfg, opts, &em).unwrap();
            assert!(s.elided_tensors > 5, "{}: {} tensors", net.name(), s.elided_tensors);
            let dram = s.dram_fraction_saved();
            assert!((0.05..0.9).contains(&dram), "{}: {dram:.3}", net.name());
            let energy = s.energy_fraction_saved(&em);
            assert!((0.0..0.6).contains(&energy), "{}: {energy:.3}", net.name());
        }
    }

    #[test]
    fn branch_points_stay_live() {
        // fire squeeze outputs feed both expands; expand1x1 feeds the
        // concat — neither may fuse into its first consumer.
        let cfg = big_buffer(8 * 1024);
        let groups = plan_fusion(&zoo::squeezenet_v1_0(), &cfg);
        for g in &groups {
            for name in &g.layers[..g.layers.len() - 1] {
                assert!(
                    !name.ends_with("squeeze1x1") && !name.ends_with("expand1x1"),
                    "multi-consumer {name} fused past its group end"
                );
            }
        }
    }

    #[test]
    fn savings_grow_with_buffer_size() {
        let (_, opts, em) = setup();
        let net = zoo::mobilenet_v1();
        let mut last = -1.0f64;
        for kib in [128, 512, 2048, 8192] {
            let s =
                fusion_savings_with(&Simulator::new(), &net, &big_buffer(kib), opts, &em).unwrap();
            let frac = s.dram_fraction_saved();
            assert!(frac >= last, "{kib} KiB: {frac:.3} < {last:.3}");
            last = frac;
        }
        assert!(last > 0.1, "8 MiB should forward most of MobileNet: {last:.3}");
    }
}
