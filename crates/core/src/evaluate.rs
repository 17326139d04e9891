//! Whole-network architecture evaluation: the machinery behind Table 2.

use std::fmt;

use codesign_arch::{AcceleratorConfig, Dataflow, DataflowPolicy, EnergyModel};
use codesign_dnn::Network;
use codesign_sim::{par_map, CancelToken, NetworkPerf, SimOptions, Simulator};

/// Simulation of one network on the hybrid (Squeezelerator) architecture
/// and on the two fixed-dataflow references.
#[derive(Debug, Clone)]
pub struct ArchitectureComparison {
    /// Network name.
    pub network: String,
    /// Per-layer-best (Squeezelerator) run.
    pub hybrid: NetworkPerf,
    /// Fixed weight-stationary reference run.
    pub ws: NetworkPerf,
    /// Fixed output-stationary reference run.
    pub os: NetworkPerf,
    energy_model: EnergyModel,
}

impl ArchitectureComparison {
    /// Simulates `network` on all three architectures with a fresh
    /// memoizing [`Simulator`]. See [`Self::evaluate_with`].
    pub fn evaluate(
        network: &Network,
        cfg: &AcceleratorConfig,
        opts: SimOptions,
        energy_model: EnergyModel,
    ) -> Self {
        Self::evaluate_with(&Simulator::new(), network, cfg, opts, energy_model)
    }

    /// Simulates `network` on all three architectures through `sim`.
    ///
    /// The three runs share the handle's cache: the fixed WS and OS
    /// reference runs replay exactly the per-layer simulations the hybrid
    /// run already performed, so with a caching `sim` they are answered
    /// almost entirely from memo entries.
    pub fn evaluate_with(
        sim: &Simulator,
        network: &Network,
        cfg: &AcceleratorConfig,
        opts: SimOptions,
        energy_model: EnergyModel,
    ) -> Self {
        Self::evaluate_cancellable_with(
            sim,
            network,
            cfg,
            opts,
            energy_model,
            &CancelToken::never(),
        )
        .unwrap_or_else(|| unreachable!("a never-cancelled token cannot cancel"))
    }

    /// [`Self::evaluate_with`] with cooperative cancellation: `cancel`
    /// is polled before each of the three whole-network simulations, so
    /// a simulation that starts also finishes. Returns `None` when the
    /// token fired before all three ran — a cancelled comparison has no
    /// partial value (every Table-2 column needs all three runs).
    pub fn evaluate_cancellable_with(
        sim: &Simulator,
        network: &Network,
        cfg: &AcceleratorConfig,
        opts: SimOptions,
        energy_model: EnergyModel,
        cancel: &CancelToken,
    ) -> Option<Self> {
        let run = |policy| {
            if cancel.is_cancelled() {
                return None;
            }
            Some(sim.simulate_network(network, cfg, policy, opts))
        };
        let hybrid = run(DataflowPolicy::PerLayer)?;
        let ws = run(DataflowPolicy::Fixed(Dataflow::WeightStationary))?;
        let os = run(DataflowPolicy::Fixed(Dataflow::OutputStationary))?;
        let cmp = Self { network: network.name().to_owned(), hybrid, ws, os, energy_model };
        if sim.tracer().records_spans() {
            let mut track = sim.tracer().track(format!("cmp:{}", network.name()));
            track.leaf(
                network.name(),
                codesign_trace::Category::Compare,
                cmp.hybrid.total_cycles(),
                &[
                    ("hybrid.cycles", cmp.hybrid.total_cycles()),
                    ("ws.cycles", cmp.ws.total_cycles()),
                    ("os.cycles", cmp.os.total_cycles()),
                ],
            );
        }
        Some(cmp)
    }

    /// Hybrid speedup over the fixed-OS reference (Table 2, "Speedup vs
    /// OS").
    pub fn speedup_vs_os(&self) -> f64 {
        self.os.total_cycles() as f64 / self.hybrid.total_cycles() as f64
    }

    /// Hybrid speedup over the fixed-WS reference (Table 2, "Speedup vs
    /// WS").
    pub fn speedup_vs_ws(&self) -> f64 {
        self.ws.total_cycles() as f64 / self.hybrid.total_cycles() as f64
    }

    /// Hybrid energy reduction vs the fixed-OS reference, as a fraction
    /// (Table 2 prints percentages; negative means the hybrid spends
    /// more).
    pub fn energy_reduction_vs_os(&self) -> f64 {
        1.0 - self.hybrid.total_energy(&self.energy_model)
            / self.os.total_energy(&self.energy_model)
    }

    /// Hybrid energy reduction vs the fixed-WS reference, as a fraction.
    pub fn energy_reduction_vs_ws(&self) -> f64 {
        1.0 - self.hybrid.total_energy(&self.energy_model)
            / self.ws.total_energy(&self.energy_model)
    }

    /// The energy model used.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy_model
    }
}

impl fmt::Display for ArchitectureComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.2}x vs OS, {:.2}x vs WS, energy {:+.0}% / {:+.0}%",
            self.network,
            self.speedup_vs_os(),
            self.speedup_vs_ws(),
            100.0 * self.energy_reduction_vs_os(),
            100.0 * self.energy_reduction_vs_ws()
        )
    }
}

/// Relative speed and energy between two (network, architecture) runs —
/// the §4.2 headline comparisons (SqueezeNext vs SqueezeNet, vs AlexNet).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelativeResult {
    /// `baseline cycles / subject cycles` (> 1 means the subject is
    /// faster).
    pub speedup: f64,
    /// `baseline energy / subject energy` (> 1 means the subject is more
    /// efficient).
    pub energy_gain: f64,
}

/// Compares a subject network against a baseline, both on the hybrid
/// architecture, with a fresh memoizing [`Simulator`].
pub fn compare_networks(
    subject: &Network,
    baseline: &Network,
    cfg: &AcceleratorConfig,
    opts: SimOptions,
    energy_model: &EnergyModel,
) -> RelativeResult {
    compare_networks_with(&Simulator::new(), subject, baseline, cfg, opts, energy_model)
}

/// Compares a subject network against a baseline, both on the hybrid
/// architecture, through `sim`.
pub fn compare_networks_with(
    sim: &Simulator,
    subject: &Network,
    baseline: &Network,
    cfg: &AcceleratorConfig,
    opts: SimOptions,
    energy_model: &EnergyModel,
) -> RelativeResult {
    let s = sim.simulate_network(subject, cfg, DataflowPolicy::PerLayer, opts);
    let b = sim.simulate_network(baseline, cfg, DataflowPolicy::PerLayer, opts);
    RelativeResult {
        speedup: b.total_cycles() as f64 / s.total_cycles() as f64,
        energy_gain: b.total_energy(energy_model) / s.total_energy(energy_model),
    }
}

/// Evaluates every network in `networks` on all three architectures,
/// fanning the networks out across `jobs` worker threads (`0` = one per
/// core) through the shared `sim` handle. Results come back in input
/// order — this is the Table 2 generator.
pub fn compare_all(
    sim: &Simulator,
    networks: &[Network],
    cfg: &AcceleratorConfig,
    opts: SimOptions,
    energy_model: EnergyModel,
    jobs: usize,
) -> Vec<ArchitectureComparison> {
    par_map(jobs, networks, |_, net| {
        ArchitectureComparison::evaluate_with(sim, net, cfg, opts, energy_model)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::zoo;

    fn setup() -> (AcceleratorConfig, SimOptions, EnergyModel) {
        (AcceleratorConfig::paper_default(), SimOptions::paper_default(), EnergyModel::default())
    }

    #[test]
    fn hybrid_dominates_both_references() {
        let (cfg, opts, em) = setup();
        for net in [zoo::squeezenet_v1_1(), zoo::tiny_darknet()] {
            let c = ArchitectureComparison::evaluate(&net, &cfg, opts, em);
            assert!(c.speedup_vs_os() >= 1.0, "{}", net.name());
            assert!(c.speedup_vs_ws() >= 1.0, "{}", net.name());
        }
    }

    #[test]
    fn mobilenet_gains_most_vs_ws() {
        // Table 2's strongest row: MobileNet vs WS is 6.35x in the paper.
        let (cfg, opts, em) = setup();
        let c = ArchitectureComparison::evaluate(&zoo::mobilenet_v1(), &cfg, opts, em);
        assert!(c.speedup_vs_ws() > 4.0, "got {:.2}", c.speedup_vs_ws());
        assert!(c.speedup_vs_os() > 1.5, "got {:.2}", c.speedup_vs_os());
    }

    #[test]
    fn alexnet_gains_least() {
        // FC-dominated AlexNet benefits least from dataflow flexibility.
        let (cfg, opts, em) = setup();
        let alex = ArchitectureComparison::evaluate(&zoo::alexnet(), &cfg, opts, em);
        let mobile = ArchitectureComparison::evaluate(&zoo::mobilenet_v1(), &cfg, opts, em);
        assert!(alex.speedup_vs_ws() < mobile.speedup_vs_ws());
        assert!(alex.speedup_vs_os() < mobile.speedup_vs_os());
        assert!(alex.speedup_vs_os() < 1.5);
    }

    #[test]
    fn squeezenext_beats_squeezenet_headline() {
        // §4.2: "2.59x faster and 2.25x more energy efficient than
        // SqueezeNet 1.0" — our reproduction lands in the same region.
        let (cfg, opts, em) = setup();
        let r = compare_networks(&zoo::squeezenext(), &zoo::squeezenet_v1_0(), &cfg, opts, &em);
        assert!((2.0..3.5).contains(&r.speedup), "speedup = {:.2}", r.speedup);
        assert!((1.8..3.5).contains(&r.energy_gain), "energy = {:.2}", r.energy_gain);
    }

    #[test]
    fn squeezenext_crushes_alexnet_headline() {
        // §4.2: 8.26x faster, 7.5x more efficient than AlexNet.
        let (cfg, opts, em) = setup();
        let r = compare_networks(&zoo::squeezenext(), &zoo::alexnet(), &cfg, opts, &em);
        assert!(r.speedup > 4.5, "speedup = {:.2}", r.speedup);
        assert!(r.energy_gain > 4.5, "energy = {:.2}", r.energy_gain);
    }

    #[test]
    fn compare_all_matches_individual_evaluations_in_order() {
        let (cfg, opts, em) = setup();
        let nets = vec![zoo::squeezenet_v1_1(), zoo::tiny_darknet()];
        let sim = Simulator::new();
        let rows = compare_all(&sim, &nets, &cfg, opts, em, 2);
        assert_eq!(rows.len(), nets.len());
        for (row, net) in rows.iter().zip(&nets) {
            assert_eq!(row.network, net.name());
            let solo = ArchitectureComparison::evaluate(net, &cfg, opts, em);
            assert_eq!(row.hybrid, solo.hybrid);
            assert_eq!(row.ws, solo.ws);
            assert_eq!(row.os, solo.os);
        }
        // All three runs per network share the cache, so the fixed-dataflow
        // replays hit heavily.
        assert!(sim.stats().hit_rate() > 0.5, "{}", sim.stats());
    }

    #[test]
    fn traced_comparison_records_compare_and_sim_tracks() {
        let (cfg, opts, em) = setup();
        let tracer = codesign_trace::Tracer::enabled();
        let sim = Simulator::new().with_tracer(tracer.clone());
        let c = ArchitectureComparison::evaluate_with(&sim, &zoo::tiny_darknet(), &cfg, opts, em);
        let data = tracer.snapshot();
        let cmp = data.tracks.iter().find(|t| t.name.starts_with("cmp:")).expect("compare track");
        assert_eq!(cmp.spans[0].counter("hybrid.cycles"), Some(c.hybrid.total_cycles()));
        assert_eq!(cmp.spans[0].counter("ws.cycles"), Some(c.ws.total_cycles()));
        assert_eq!(cmp.spans[0].counter("os.cycles"), Some(c.os.total_cycles()));
        // The three underlying network runs each published a sim track.
        assert_eq!(data.tracks.iter().filter(|t| t.name.starts_with("sim:")).count(), 3);
    }

    #[test]
    fn cancelled_comparison_returns_none_without_changing_results() {
        let (cfg, opts, em) = setup();
        let net = zoo::tiny_darknet();
        let cancelled = CancelToken::never();
        cancelled.cancel();
        assert!(ArchitectureComparison::evaluate_cancellable_with(
            &Simulator::new(),
            &net,
            &cfg,
            opts,
            em,
            &cancelled
        )
        .is_none());
        let live = ArchitectureComparison::evaluate_cancellable_with(
            &Simulator::new(),
            &net,
            &cfg,
            opts,
            em,
            &CancelToken::never(),
        )
        .expect("never-cancelled token completes");
        let plain = ArchitectureComparison::evaluate(&net, &cfg, opts, em);
        assert_eq!(live.hybrid, plain.hybrid);
        assert_eq!(live.ws, plain.ws);
        assert_eq!(live.os, plain.os);
    }

    #[test]
    fn display_row_mentions_both_ratios() {
        let (cfg, opts, em) = setup();
        let c = ArchitectureComparison::evaluate(&zoo::squeezenet_v1_1(), &cfg, opts, em);
        let s = c.to_string();
        assert!(s.contains("vs OS") && s.contains("vs WS"));
    }
}
