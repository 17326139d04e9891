//! Accuracy / energy / latency spectra — the data behind Figure 4.

use std::fmt;

use codesign_arch::{AcceleratorConfig, DataflowPolicy, EnergyModel};
use codesign_dnn::Network;
use codesign_sim::{SimOptions, SimResult, Simulator};

/// One model's position in the accuracy-vs-cost space.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPoint {
    /// Model name.
    pub name: String,
    /// ImageNet top-1 accuracy (published metadata).
    pub accuracy: f64,
    /// Inference time in milliseconds on the hybrid architecture.
    pub time_ms: f64,
    /// Energy in MAC-normalized units.
    pub energy: f64,
}

impl fmt::Display for ModelPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.1}% top-1, {:.2} ms, {:.1} MMAC-eq energy",
            self.name,
            self.accuracy,
            self.time_ms,
            self.energy / 1e6
        )
    }
}

/// Simulates each network through `sim` and returns its spectrum point,
/// so repeated layer shapes across the model families (and across
/// experiments sharing `sim`) are memoized once. Networks with no
/// accuracy metadata are skipped (they cannot be placed in Figure 4).
///
/// # Errors
///
/// The first [`SimError`](codesign_sim::SimError) any run surfaces.
pub fn spectrum_with(
    sim: &Simulator,
    networks: &[Network],
    cfg: &AcceleratorConfig,
    opts: SimOptions,
    energy_model: &EnergyModel,
) -> SimResult<Vec<ModelPoint>> {
    networks
        .iter()
        .filter_map(|net| {
            let accuracy = net.top1_accuracy()?;
            let perf = sim.try_simulate_network(net, cfg, DataflowPolicy::PerLayer, opts);
            Some(perf.map(|perf| ModelPoint {
                name: net.name().to_owned(),
                accuracy,
                time_ms: cfg.cycles_to_ms(perf.total_cycles()),
                energy: perf.total_energy(energy_model),
            }))
        })
        .collect()
}

/// The cost axis of a Pareto query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostAxis {
    /// Inference time.
    Time,
    /// Energy.
    Energy,
}

/// Returns the Pareto-optimal subset: points for which no other point has
/// both higher accuracy and lower cost. The result is sorted by ascending
/// cost.
///
/// Runs in O(n log n): one cost-ascending scan tracking the best
/// accuracy among strictly cheaper points replaces the former all-pairs
/// test, but the survivor set, their relative order, and hence the
/// output bytes are identical to it.
pub fn pareto_front(points: &[ModelPoint], axis: CostAxis) -> Vec<ModelPoint> {
    let cost = |p: &ModelPoint| match axis {
        CostAxis::Time => p.time_ms,
        CostAxis::Energy => p.energy,
    };
    let dominated = dominated_model_mask(points, axis);
    let mut front: Vec<ModelPoint> =
        points.iter().zip(&dominated).filter(|(_, d)| !**d).map(|(p, _)| p.clone()).collect();
    front.sort_by(|a, b| cost(a).total_cmp(&cost(b)));
    front.dedup_by(|a, b| a.name == b.name);
    front
}

/// `dominated[i]` ⇔ some point is no worse than `points[i]` on both
/// axes and strictly better on one — exactly the all-pairs test, in
/// O(n log n).
///
/// Scan points in ascending cost. Groups are *numerically* equal costs
/// (adjacent after a [`f64::total_cmp`] sort; numeric `==` merges the
/// −0.0/0.0 pair that `total_cmp` splits). A point is dominated iff a
/// strictly cheaper point has accuracy ≥ its own, or an equal-cost point
/// has accuracy strictly above it. NaN coordinates compare false in
/// every direction of the all-pairs test, so NaN-cost points form their
/// own inert groups and NaN accuracies neither dominate nor get
/// dominated — `Option` maxima keep them out.
fn dominated_model_mask(points: &[ModelPoint], axis: CostAxis) -> Vec<bool> {
    let cost = |p: &ModelPoint| match axis {
        CostAxis::Time => p.time_ms,
        CostAxis::Energy => p.energy,
    };
    let n = points.len();
    let mut dominated = vec![false; n];
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| cost(&points[a]).total_cmp(&cost(&points[b])));
    // Best accuracy among points with numerically strictly smaller cost.
    let mut best_cheaper: Option<f64> = None;
    let mut g = 0;
    while g < n {
        let group_cost = cost(&points[order[g]]);
        if group_cost.is_nan() {
            // Incomparable: never dominated, dominates nothing.
            g += 1;
            continue;
        }
        let mut end = g;
        while end < n && cost(&points[order[end]]) == group_cost {
            end += 1;
        }
        let mut group_best: Option<f64> = None;
        for &i in &order[g..end] {
            let acc = points[i].accuracy;
            if !acc.is_nan() && group_best.is_none_or(|b| acc > b) {
                group_best = Some(acc);
            }
        }
        for &i in &order[g..end] {
            let acc = points[i].accuracy;
            dominated[i] =
                best_cheaper.is_some_and(|b| b >= acc) || group_best.is_some_and(|b| b > acc);
        }
        if let Some(b) = group_best {
            if best_cheaper.is_none_or(|c| b > c) {
                best_cheaper = Some(b);
            }
        }
        g = end;
    }
    dominated
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::zoo;

    fn point(name: &str, acc: f64, time: f64, energy: f64) -> ModelPoint {
        ModelPoint { name: name.into(), accuracy: acc, time_ms: time, energy }
    }

    #[test]
    fn front_drops_dominated_points() {
        let pts = vec![
            point("good", 60.0, 1.0, 100.0),
            point("dominated", 55.0, 2.0, 200.0),
            point("accurate-slow", 70.0, 5.0, 500.0),
        ];
        let front = pareto_front(&pts, CostAxis::Time);
        let names: Vec<&str> = front.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["good", "accurate-slow"]);
    }

    #[test]
    fn ties_prefer_cheaper_and_more_accurate() {
        let pts = vec![
            point("a", 60.0, 1.0, 1.0),
            point("same-acc-slower", 60.0, 2.0, 1.0),
            point("same-time-worse-acc", 59.0, 1.0, 1.0),
        ];
        let front = pareto_front(&pts, CostAxis::Time);
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].name, "a");
    }

    #[test]
    fn figure_4_narrative_squeezenext_dominates_squeezenet() {
        // "SqueezeNext shows superior performance (higher and to the
        // left)": SqueezeNet v1.0 must not be on the Pareto front once
        // the SqueezeNext family is present.
        let cfg = AcceleratorConfig::paper_default();
        let mut nets = zoo::squeezenext_family();
        nets.push(zoo::squeezenet_v1_0());
        nets.push(zoo::squeezenet_v1_1());
        let pts = spectrum_with(
            &Simulator::new(),
            &nets,
            &cfg,
            SimOptions::default(),
            &EnergyModel::default(),
        )
        .unwrap();
        for axis in [CostAxis::Time, CostAxis::Energy] {
            let front = pareto_front(&pts, axis);
            assert!(
                !front.iter().any(|p| p.name == "SqueezeNet v1.0"),
                "SqueezeNet v1.0 should be dominated on {axis:?}"
            );
            assert!(
                front.iter().any(|p| p.name.contains("SqNxt")),
                "a SqueezeNext model should sit on the {axis:?} front"
            );
        }
    }

    #[test]
    fn spectrum_skips_models_without_accuracy() {
        let cfg = AcceleratorConfig::paper_default();
        let unnamed =
            codesign_dnn::NetworkBuilder::new("anon", codesign_dnn::Shape::new(3, 32, 32))
                .conv("c", 8, 3, 1, 1)
                .finish()
                .unwrap();
        let pts = spectrum_with(
            &Simulator::new(),
            &[unnamed],
            &cfg,
            SimOptions::default(),
            &EnergyModel::default(),
        )
        .unwrap();
        assert!(pts.is_empty());
    }

    #[test]
    fn display_mentions_accuracy() {
        let p = point("x", 59.2, 1.5, 2e6);
        assert!(p.to_string().contains("59.2"));
    }

    /// The former all-pairs implementation, kept as the oracle for the
    /// O(n log n) scan.
    fn pareto_front_quadratic(points: &[ModelPoint], axis: CostAxis) -> Vec<ModelPoint> {
        let cost = |p: &ModelPoint| match axis {
            CostAxis::Time => p.time_ms,
            CostAxis::Energy => p.energy,
        };
        let mut front: Vec<ModelPoint> = points
            .iter()
            .filter(|p| {
                !points.iter().any(|q| {
                    q.accuracy >= p.accuracy
                        && cost(q) <= cost(p)
                        && (q.accuracy > p.accuracy || cost(q) < cost(p))
                })
            })
            .cloned()
            .collect();
        front.sort_by(|a, b| cost(a).total_cmp(&cost(b)));
        front.dedup_by(|a, b| a.name == b.name);
        front
    }

    #[test]
    fn scan_matches_the_all_pairs_oracle_bit_for_bit() {
        // Deterministic LCG over a coarse value lattice: plenty of exact
        // ties on both axes, plus hand-placed NaN and signed-zero edge
        // cases the staircase must reproduce exactly.
        let mut state: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64
        };
        for round in 0..40 {
            let n = (round % 13) + 2;
            let mut pts: Vec<ModelPoint> = (0..n)
                .map(|i| {
                    point(
                        &format!("m{i}"),
                        (next() as u64 % 5) as f64 * 10.0,
                        (next() as u64 % 4) as f64,
                        (next() as u64 % 4) as f64 * 100.0,
                    )
                })
                .collect();
            if round % 3 == 0 {
                pts.push(point("nan-cost", 50.0, f64::NAN, f64::NAN));
                pts.push(point("nan-acc", f64::NAN, 1.0, 100.0));
                pts.push(point("neg-zero", 30.0, -0.0, -0.0));
                pts.push(point("pos-zero", 20.0, 0.0, 0.0));
            }
            for axis in [CostAxis::Time, CostAxis::Energy] {
                // Bitwise comparison: `PartialEq` would call any result
                // containing NaN unequal to itself.
                let bits = |front: Vec<ModelPoint>| -> Vec<(String, u64, u64, u64)> {
                    front
                        .into_iter()
                        .map(|p| {
                            (p.name, p.accuracy.to_bits(), p.time_ms.to_bits(), p.energy.to_bits())
                        })
                        .collect()
                };
                assert_eq!(
                    bits(pareto_front(&pts, axis)),
                    bits(pareto_front_quadratic(&pts, axis)),
                    "round {round}, {axis:?}: {pts:?}"
                );
            }
        }
    }
}
