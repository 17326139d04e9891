//! Per-layer dataflow schedules: the data behind Figures 1 and 3.
//!
//! "As the DNN inference computation is statically schedulable,
//! simulation results can be used to determine the dataflow approach (WS
//! or OS) that best executes [each layer]."

use std::fmt;

use codesign_arch::{AcceleratorConfig, Dataflow};
use codesign_dnn::{LayerClass, Network};
use codesign_sim::{SimOptions, SimResult, Simulator};

/// One row of a per-layer schedule: both dataflows' costs plus the static
/// choice.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerScheduleEntry {
    /// Layer name.
    pub name: String,
    /// Table-1 class of the layer.
    pub class: LayerClass,
    /// Cycles under the fixed-WS reference.
    pub ws_cycles: u64,
    /// Cycles under the fixed-OS reference.
    pub os_cycles: u64,
    /// The dataflow the Squeezelerator selects (`None` for SIMD-path
    /// layers, whose cost is dataflow independent).
    pub chosen: Option<Dataflow>,
    /// Cycles on the Squeezelerator (min of the two).
    pub hybrid_cycles: u64,
    /// PE utilization of the chosen execution.
    pub utilization: f64,
}

impl fmt::Display for LayerScheduleEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<24} {:>6} ws={:<9} os={:<9} -> {} ({:.0}% util)",
            self.name,
            self.class.to_string(),
            self.ws_cycles,
            self.os_cycles,
            self.chosen.map_or("SIMD", |d| d.tag()),
            100.0 * self.utilization
        )
    }
}

/// The full static schedule of a network on the Squeezelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSchedule {
    /// Network name.
    pub network: String,
    /// Per-layer entries in execution order.
    pub entries: Vec<LayerScheduleEntry>,
}

impl NetworkSchedule {
    /// Builds the schedule by simulating every layer under both dataflows
    /// through `sim`, so repeated layer shapes (fire modules, depthwise
    /// ladders) simulate once and sweeps over many option sets (e.g. the
    /// sparsity-robustness probes) share one result cache.
    ///
    /// # Errors
    ///
    /// The first [`SimError`](codesign_sim::SimError) any layer
    /// surfaces.
    pub fn build_with(
        sim: &Simulator,
        network: &Network,
        cfg: &AcceleratorConfig,
        opts: SimOptions,
    ) -> SimResult<Self> {
        let entries = network
            .layers()
            .iter()
            .map(|layer| {
                let (ws, os, best) = sim.try_compare_dataflows(layer, cfg, opts)?;
                let chosen = if layer.is_compute() { Some(best) } else { None };
                let (hybrid_cycles, utilization) = match best {
                    Dataflow::WeightStationary => (ws.total_cycles, ws.utilization),
                    Dataflow::OutputStationary => (os.total_cycles, os.utilization),
                };
                Ok(LayerScheduleEntry {
                    name: layer.name.clone(),
                    class: layer.class(),
                    ws_cycles: ws.total_cycles,
                    os_cycles: os.total_cycles,
                    chosen,
                    hybrid_cycles,
                    utilization,
                })
            })
            .collect::<SimResult<_>>()?;
        Ok(Self { network: network.name().to_owned(), entries })
    }

    /// Entries for layers of a given class.
    pub fn entries_of_class(&self, class: LayerClass) -> impl Iterator<Item = &LayerScheduleEntry> {
        self.entries.iter().filter(move |e| e.class == class)
    }

    /// Total hybrid cycles.
    pub fn total_cycles(&self) -> u64 {
        self.entries.iter().map(|e| e.hybrid_cycles).sum()
    }

    /// Fraction of compute layers that chose the given dataflow.
    pub fn dataflow_share(&self, dataflow: Dataflow) -> f64 {
        let compute: Vec<_> = self.entries.iter().filter(|e| e.chosen.is_some()).collect();
        if compute.is_empty() {
            return 0.0;
        }
        compute.iter().filter(|e| e.chosen == Some(dataflow)).count() as f64 / compute.len() as f64
    }

    /// Looks up an entry by layer name.
    pub fn entry(&self, name: &str) -> Option<&LayerScheduleEntry> {
        self.entries.iter().find(|e| e.name == name)
    }
}

/// How robust the static schedule is to the sparsity assumption: the
/// paper picks each layer's dataflow assuming 40 % zero weights — if the
/// deployed model's real sparsity differs, do any choices flip?
///
/// Returns, for each probe sparsity, the number of compute layers whose
/// best dataflow differs from the schedule chosen at `baseline` sparsity.
/// The baseline and every probe simulate through `sim`: the WS walk and
/// the tiling plans are sparsity independent, so all probes hit their
/// cache entries and only the OS walks re-run.
///
/// # Errors
///
/// The first [`SimError`](codesign_sim::SimError) any schedule surfaces.
pub fn schedule_sparsity_robustness_with(
    sim: &Simulator,
    network: &Network,
    cfg: &AcceleratorConfig,
    baseline: codesign_sim::SparsityModel,
    probes: &[f64],
) -> SimResult<Vec<(f64, usize)>> {
    let base_opts = SimOptions {
        os: codesign_sim::OsModelOptions::paper_default().with_sparsity(baseline),
        ..SimOptions::paper_default()
    };
    let base = NetworkSchedule::build_with(sim, network, cfg, base_opts)?;
    probes
        .iter()
        .map(|&z| {
            let opts = SimOptions {
                os: codesign_sim::OsModelOptions::paper_default()
                    .with_sparsity(codesign_sim::SparsityModel { zero_fraction: z, exploit: true }),
                ..SimOptions::paper_default()
            };
            let probe = NetworkSchedule::build_with(sim, network, cfg, opts)?;
            let flips = base
                .entries
                .iter()
                .zip(&probe.entries)
                .filter(|(a, b)| a.chosen.is_some() && a.chosen != b.chosen)
                .count();
            Ok((z, flips))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::zoo;

    fn schedule(net: &Network) -> NetworkSchedule {
        NetworkSchedule::build_with(
            &Simulator::new(),
            net,
            &AcceleratorConfig::paper_default(),
            SimOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn squeezenet_schedule_matches_figure_1_narrative() {
        let net = zoo::squeezenet_v1_0();
        let s = schedule(&net);
        // "the performance of the first layer is noticeably improved":
        // conv1 picks OS.
        assert_eq!(s.entry("conv1").unwrap().chosen, Some(Dataflow::OutputStationary));
        // Squeeze/expand 1x1 layers pick WS.
        assert_eq!(s.entry("fire2/squeeze1x1").unwrap().chosen, Some(Dataflow::WeightStationary));
        // Late 3x3 expands see OS degraded by the feature-map mismatch:
        // fire9 runs 13x13 on a 32x32 array.
        let fire9 = s.entry("fire9/expand3x3").unwrap();
        assert!(fire9.os_cycles > fire9.ws_cycles);
        // Hybrid = min per layer.
        for e in &s.entries {
            assert_eq!(e.hybrid_cycles, e.ws_cycles.min(e.os_cycles), "{}", e.name);
        }
    }

    #[test]
    fn early_layers_beat_late_layers_in_utilization_for_squeezenext() {
        // Figure 3's narrative: initial layers have very low utilization.
        let net = zoo::squeezenext_variant(1);
        let s = schedule(&net);
        let early = s.entry("s1b1/reduce1").unwrap().utilization;
        let late = s.entry("s3b1/expand").unwrap().utilization;
        assert!(early < late, "early {early:.3} should be below late {late:.3}");
    }

    #[test]
    fn mobilenet_splits_by_class() {
        let net = zoo::mobilenet_v1();
        let s = schedule(&net);
        for e in s.entries_of_class(codesign_dnn::LayerClass::Depthwise) {
            assert_eq!(e.chosen, Some(Dataflow::OutputStationary), "{}", e.name);
        }
        for e in s.entries_of_class(codesign_dnn::LayerClass::Pointwise) {
            assert_eq!(e.chosen, Some(Dataflow::WeightStationary), "{}", e.name);
        }
        let ws_share = s.dataflow_share(Dataflow::WeightStationary);
        assert!(ws_share > 0.4 && ws_share < 0.9);
    }

    #[test]
    fn simd_layers_have_no_choice() {
        let net = zoo::squeezenet_v1_0();
        let s = schedule(&net);
        assert_eq!(s.entry("pool1").unwrap().chosen, None);
        assert_eq!(s.entry("fire2/concat").unwrap().chosen, None);
    }

    #[test]
    fn schedule_is_robust_near_the_assumed_sparsity() {
        // Choices made at 40% zeros barely move for nearby sparsities,
        // and flip more as the assumption degrades to fully dense.
        let net = zoo::squeezenet_v1_0();
        let cfg = AcceleratorConfig::paper_default();
        let rows = schedule_sparsity_robustness_with(
            &Simulator::new(),
            &net,
            &cfg,
            codesign_sim::SparsityModel::paper_default(),
            &[0.4, 0.3, 0.0],
        )
        .unwrap();
        assert_eq!(rows[0], (0.4, 0));
        let compute_layers = net.compute_layers().count();
        assert!(rows[1].1 <= compute_layers / 4, "0.3 flips {} layers", rows[1].1);
        assert!(rows[2].1 >= rows[1].1, "dense should flip at least as many");
    }

    #[test]
    fn totals_are_sum_of_entries() {
        let net = zoo::squeezenet_v1_1();
        let s = schedule(&net);
        let total: u64 = s.entries.iter().map(|e| e.hybrid_cycles).sum();
        assert_eq!(s.total_cycles(), total);
        assert!(total > 0);
    }
}
