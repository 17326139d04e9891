//! Design-space exploration: tailoring the accelerator to a DNN
//! (§4.1, "a careful tuning of the accelerator architecture to a DNN
//! model can lead to a 1.9–6.3× improvement in speed").

use std::fmt;
use std::ops::Range;

use codesign_arch::{area, AcceleratorConfig, AreaModel, DataflowPolicy, EnergyModel};
use codesign_dnn::Network;
use codesign_sim::{par_map_catch_range, SimError, SimOptions, Simulator};

/// The swept hardware parameters of one design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignParams {
    /// PE array edge length.
    pub array_size: usize,
    /// Register-file depth.
    pub rf_depth: usize,
    /// Global buffer bytes.
    pub global_buffer_bytes: usize,
}

impl fmt::Display for DesignParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}/rf{}/{}KB",
            self.array_size,
            self.array_size,
            self.rf_depth,
            self.global_buffer_bytes / 1024
        )
    }
}

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The hardware parameters.
    pub params: DesignParams,
    /// Inference cycles on the hybrid architecture.
    pub cycles: u64,
    /// Energy in MAC-normalized units.
    pub energy: f64,
    /// Average PE utilization.
    pub utilization: f64,
    /// Silicon area in MAC-normalized units (dual-dataflow array).
    pub area: f64,
}

impl DesignPoint {
    /// Builds a design point, rejecting degenerate evaluations: zero
    /// cycles, non-finite energy/utilization/area, or non-positive
    /// utilization. Such points would otherwise poison every downstream
    /// comparison (`best_by_energy_delay`, the Pareto front).
    pub fn checked(
        params: DesignParams,
        cycles: u64,
        energy: f64,
        utilization: f64,
        area: f64,
    ) -> Option<Self> {
        let finite = energy.is_finite() && utilization.is_finite() && area.is_finite();
        if !finite || cycles == 0 || utilization <= 0.0 {
            return None;
        }
        Some(Self { params, cycles, energy, utilization, area })
    }

    /// Energy-delay product — the single-number figure of merit used to
    /// rank design points.
    pub fn energy_delay(&self) -> f64 {
        self.energy * self.cycles as f64
    }
}

/// The swept parameter grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpace {
    /// Array sizes to try (paper: 8..=32).
    pub array_sizes: Vec<usize>,
    /// RF depths to try (paper tune-up: 8 -> 16).
    pub rf_depths: Vec<usize>,
    /// Buffer capacities to try.
    pub buffer_bytes: Vec<usize>,
}

impl SweepSpace {
    /// The space the paper discusses: N ∈ {8, 16, 32}, RF ∈ {8, 16, 32},
    /// buffer ∈ {64 KB, 128 KB, 256 KB}.
    pub fn paper_default() -> Self {
        Self {
            array_sizes: vec![8, 16, 32],
            rf_depths: vec![8, 16, 32],
            buffer_bytes: vec![64 * 1024, 128 * 1024, 256 * 1024],
        }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.array_sizes.len() * self.rf_depths.len() * self.buffer_bytes.len()
    }

    /// Whether the space has no grid points, i.e. *any* axis is empty
    /// (checked per axis rather than via [`Self::len`], whose product
    /// could in principle wrap for absurdly large axes).
    pub fn is_empty(&self) -> bool {
        self.array_sizes.is_empty() || self.rf_depths.is_empty() || self.buffer_bytes.is_empty()
    }

    /// The grid point at flat index `i` in deterministic row-major order
    /// (array size → RF depth → buffer bytes), or `None` past the end.
    ///
    /// The mixed-radix decode lets the sweep fan out over `0..len()`
    /// without ever materializing the grid.
    pub fn point(&self, i: usize) -> Option<DesignParams> {
        let (nrf, nbuf) = (self.rf_depths.len(), self.buffer_bytes.len());
        if nrf == 0 || nbuf == 0 {
            return None;
        }
        Some(DesignParams {
            array_size: *self.array_sizes.get(i / (nrf * nbuf))?,
            rf_depth: *self.rf_depths.get(i / nbuf % nrf)?,
            global_buffer_bytes: *self.buffer_bytes.get(i % nbuf)?,
        })
    }

    /// The grid in deterministic row-major order
    /// (array size → RF depth → buffer bytes), lazily — nothing is
    /// materialized ahead of iteration.
    pub fn grid(&self) -> impl Iterator<Item = DesignParams> + '_ {
        (0..self.len()).filter_map(|i| self.point(i))
    }
}

impl Default for SweepSpace {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Why a sweep could not run at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The sweep space has an empty axis, so there are no grid points to
    /// evaluate. The payload names the empty axis.
    EmptySpace(&'static str),
    /// The sweep's [`CancelToken`](codesign_sim::CancelToken) fired
    /// (deadline passed or explicit cancel) before every chunk completed.
    /// Events already delivered to the observer remain valid — they are a
    /// prefix of the uncancelled run — but no
    /// [`FrontierOutcome`](crate::stream::FrontierOutcome) is produced.
    Cancelled,
    /// A checkpointing streaming sweep could not write (or clear) its
    /// checkpoint files. Losing checkpoints silently would defeat the
    /// point of asking for them, so the sweep stops instead.
    Checkpoint(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptySpace(axis) => {
                write!(f, "sweep space is empty: the {axis} axis has no values")
            }
            Self::Cancelled => write!(f, "sweep cancelled before completion"),
            Self::Checkpoint(detail) => write!(f, "sweep checkpoint failed: {detail}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl SweepSpace {
    /// `Err` naming the first empty axis, `Ok` otherwise.
    pub(crate) fn check_non_empty(&self) -> Result<(), SweepError> {
        if self.array_sizes.is_empty() {
            Err(SweepError::EmptySpace("array-size"))
        } else if self.rf_depths.is_empty() {
            Err(SweepError::EmptySpace("rf-depth"))
        } else if self.buffer_bytes.is_empty() {
            Err(SweepError::EmptySpace("buffer-bytes"))
        } else {
            Ok(())
        }
    }
}

/// Evaluates one grid point. `Ok(None)` when the configuration is
/// invalid (e.g. a buffer too small for the array) or the evaluation
/// degenerates — skipped, exactly as before; `Err` when the simulator
/// rejects the point with a typed error — reported as a
/// [`PointFailure`] diagnostic.
pub(crate) fn evaluate_point(
    sim: &Simulator,
    network: &Network,
    params: DesignParams,
    opts: SimOptions,
    energy_model: &EnergyModel,
) -> Result<Option<DesignPoint>, SimError> {
    let Ok(cfg) = AcceleratorConfig::builder()
        .array_size(params.array_size)
        .rf_depth(params.rf_depth)
        .global_buffer_bytes(params.global_buffer_bytes)
        .build()
    else {
        return Ok(None);
    };
    let perf = sim.try_simulate_network(network, &cfg, DataflowPolicy::PerLayer, opts)?;
    if sim.tracer().records_spans() {
        let mut track = sim.tracer().track(format!("sweep:{}:{}", network.name(), params));
        track.leaf(
            &params.to_string(),
            codesign_trace::Category::Sweep,
            perf.total_cycles(),
            &[("cycles", perf.total_cycles()), ("macs", perf.total_macs())],
        );
    }
    Ok(DesignPoint::checked(
        params,
        perf.total_cycles(),
        perf.total_energy(energy_model),
        perf.average_utilization(cfg.pe_count()),
        area(&cfg, &AreaModel::default(), true).total(),
    ))
}

/// Diagnostic for one grid point that could not be evaluated: the
/// simulator rejected it with a typed error, or (defensively) a worker
/// panicked. Skipped-invalid configurations are *not* failures — they
/// are silently dropped exactly as before.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointFailure {
    /// The grid point that failed.
    pub params: DesignParams,
    /// Human-readable reason, straight from the surfaced error.
    pub reason: String,
}

impl fmt::Display for PointFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.params, self.reason)
    }
}

/// Result of a degradation-tolerant sweep: every point that evaluated,
/// plus a diagnostic per point that failed. One bad grid point no
/// longer aborts the other n−1.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Successfully evaluated points, in deterministic grid order.
    pub points: Vec<DesignPoint>,
    /// Per-point diagnostics, in deterministic grid order.
    pub failures: Vec<PointFailure>,
}

impl SweepOutcome {
    /// One-line failure summary (empty string when everything passed).
    pub fn failure_summary(&self) -> String {
        if self.failures.is_empty() {
            return String::new();
        }
        let listed: Vec<String> = self.failures.iter().map(PointFailure::to_string).collect();
        format!(
            "{} of {} points failed: {}",
            self.failures.len(),
            self.points.len() + self.failures.len(),
            listed.join("; ")
        )
    }
}

/// What became of one grid point: the three dispositions every sweep
/// folds.
pub(crate) enum PointEval {
    /// The point evaluated to a design point.
    Evaluated(DesignPoint),
    /// The configuration was invalid or degenerate, and was skipped.
    Skipped,
    /// The simulator rejected the point, or its worker panicked.
    Failed(PointFailure),
}

/// Evaluates the flat grid indices `range` of `space` across `jobs`
/// worker threads (`0` = one per core) — the one evaluation loop under
/// both [`sweep_full_with`] and the streaming engine of
/// [`crate::stream`]. Yields `(index, disposition)` in grid order,
/// bit-identical whatever `jobs` is. Typed simulator errors *and* worker
/// panics are caught per point, so one bad point never aborts the rest.
pub(crate) fn evaluate_range<'a>(
    sim: &Simulator,
    network: &Network,
    space: &'a SweepSpace,
    opts: SimOptions,
    energy_model: &EnergyModel,
    jobs: usize,
    range: Range<usize>,
) -> impl Iterator<Item = (usize, PointEval)> + 'a {
    let start = range.start;
    // Range-based fan-out: workers decode grid points from their flat
    // index, so the grid is never materialized ahead of the sweep.
    let evals = par_map_catch_range(jobs, range.len(), |j| {
        let i = start + j;
        // Test-only fault injection: a magic network name poisons the
        // worker evaluating grid point 0, proving a panicking worker
        // degrades to a `PointFailure` instead of hanging the pool.
        #[cfg(test)]
        #[allow(clippy::panic)]
        if network.name() == "__poison_point_0__" && i == 0 {
            panic!("injected worker poison");
        }
        // Unreachable once `check_non_empty` passed: every i < len()
        // decodes. Treated as a skipped point rather than a panic.
        let Some(params) = space.point(i) else { return PointEval::Skipped };
        match evaluate_point(sim, network, params, opts, energy_model) {
            Ok(Some(point)) => PointEval::Evaluated(point),
            Ok(None) => PointEval::Skipped,
            Err(e) => PointEval::Failed(PointFailure { params, reason: e.to_string() }),
        }
    });
    range.zip(evals).map(move |(i, eval)| {
        let eval = eval.unwrap_or_else(|panic_msg| match space.point(i) {
            Some(params) => PointEval::Failed(PointFailure {
                params,
                reason: format!("worker panicked: {panic_msg}"),
            }),
            None => PointEval::Skipped,
        });
        (i, eval)
    })
}

/// Evaluates every design point in `space` for `network` on the hybrid
/// architecture, fanning out across `jobs` worker threads (`0` = one per
/// core) through the shared `sim` handle, and keeps every result. Each
/// point is isolated: typed simulation errors *and* worker panics become
/// one [`PointFailure`] each, so the sweep completes with partial
/// results instead of aborting; invalid or degenerate configurations are
/// skipped. Points and diagnostics are in deterministic grid order — bit
/// identical across `jobs` settings.
///
/// This materializes the whole grid; [`crate::stream::sweep_frontier_with`]
/// sweeps in bounded memory when only the Pareto frontier is needed.
///
/// # Errors
///
/// [`SweepError::EmptySpace`] when any sweep axis is empty — an empty
/// space is a caller bug (a misconfigured sweep silently producing zero
/// points is indistinguishable from "every config was invalid").
pub fn sweep_full_with(
    sim: &Simulator,
    network: &Network,
    space: &SweepSpace,
    opts: SimOptions,
    energy_model: &EnergyModel,
    jobs: usize,
) -> Result<SweepOutcome, SweepError> {
    space.check_non_empty()?;
    let mut outcome = SweepOutcome { points: Vec::new(), failures: Vec::new() };
    for (_, eval) in evaluate_range(sim, network, space, opts, energy_model, jobs, 0..space.len()) {
        match eval {
            PointEval::Evaluated(point) => outcome.points.push(point),
            PointEval::Skipped => {}
            PointEval::Failed(failure) => outcome.failures.push(failure),
        }
    }
    Ok(outcome)
}

/// The design point with the lowest energy-delay product.
///
/// Uses [`f64::total_cmp`], so the result is well-defined for every
/// input (NaN cannot panic the comparison; [`DesignPoint::checked`]
/// keeps such points out of sweep results in the first place).
pub fn best_by_energy_delay(points: &[DesignPoint]) -> Option<&DesignPoint> {
    points.iter().min_by(|a, b| a.energy_delay().total_cmp(&b.energy_delay()))
}

/// The Pareto-optimal hardware designs over (cycles, energy, area): a
/// point survives unless some other point is no worse on all three axes
/// and strictly better on at least one. Survivors keep their input
/// order under a stable sort by ascending cycles.
///
/// Folds every point through an [`OnlineFrontier`], so the batch filter
/// and the streaming sweep share one dominance kernel. NaN coordinates
/// compare false on every axis: such points neither dominate nor are
/// dominated.
pub fn pareto_designs(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let mut frontier = OnlineFrontier::new();
    for p in points {
        frontier.insert(p);
    }
    frontier.into_sorted()
}

/// An online Pareto frontier over (cycles, energy, area) — the one
/// design-point dominance kernel. [`pareto_designs`] inserts every point
/// and calls [`OnlineFrontier::into_sorted`]; the streaming sweep inserts
/// points as they are evaluated and so retains only the live frontier in
/// memory. This is the bounded-memory heart of the streaming sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineFrontier {
    /// Live members in insertion order (the sweep's grid order).
    members: Vec<DesignPoint>,
    /// High-water mark of `members.len()` — the quantity the bench's
    /// bounded-memory assertion watches.
    peak: usize,
}

/// Whether `q` strictly dominates `(cycles, energy, area)`: no worse on
/// every axis and strictly better on at least one. NaN compares false,
/// so a NaN coordinate on either side rules dominance out.
fn strictly_dominates(q: &DesignPoint, cycles: u64, energy: f64, area: f64) -> bool {
    q.cycles <= cycles
        && q.energy <= energy
        && q.area <= area
        && (q.cycles < cycles || q.energy < energy || q.area < area)
}

impl OnlineFrontier {
    /// An empty frontier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a frontier from checkpointed members (insertion order)
    /// and the recorded peak.
    pub(crate) fn from_members(members: Vec<DesignPoint>, peak: usize) -> Self {
        let peak = peak.max(members.len());
        Self { members, peak }
    }

    /// Live members, in insertion order.
    pub fn members(&self) -> &[DesignPoint] {
        &self.members
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the frontier is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// High-water mark of the member count over the frontier's lifetime.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Offers a point. Returns `true` when the point enters the frontier
    /// (a *frontier delta* — evicted members leave silently), `false`
    /// when an existing member strictly dominates it. Duplicates of a
    /// member enter, matching [`pareto_designs`] (which keeps exact
    /// duplicates: neither strictly dominates the other).
    pub fn insert(&mut self, p: &DesignPoint) -> bool {
        if self.strictly_dominates_bound(p.cycles, p.energy, p.area) {
            return false;
        }
        self.members.retain(|q| !strictly_dominates(p, q.cycles, q.energy, q.area));
        self.members.push(p.clone());
        self.peak = self.peak.max(self.members.len());
        true
    }

    /// Whether some member strictly dominates the componentwise lower
    /// bound `(cycles, energy, area)` — the branch-and-bound prune test.
    /// Requiring *strict* dominance of the bound means a subtree whose
    /// best corner merely ties a member (an exact duplicate) is never
    /// pruned, preserving `pareto_designs`' keep-duplicates semantics.
    pub fn strictly_dominates_bound(&self, cycles: u64, energy: f64, area: f64) -> bool {
        self.members.iter().any(|q| strictly_dominates(q, cycles, energy, area))
    }

    /// Finishes the frontier: members sorted by ascending cycles. Because
    /// members are kept in insertion order and the sort is stable, the
    /// result equals [`pareto_designs`] over every point ever offered.
    pub fn into_sorted(mut self) -> Vec<DesignPoint> {
        self.members.sort_by_key(|p| p.cycles);
        self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::zoo;

    /// Every evaluated point of `space` on a fresh simulator, one worker
    /// per core.
    fn sweep_points(network: &Network, space: &SweepSpace) -> Vec<DesignPoint> {
        let em = EnergyModel::default();
        sweep_full_with(&Simulator::new(), network, space, SimOptions::default(), &em, 0)
            .expect("test space has no empty axis")
            .points
    }

    #[test]
    fn sweep_covers_the_grid() {
        let space = SweepSpace {
            array_sizes: vec![8, 16],
            rf_depths: vec![8],
            buffer_bytes: vec![64 * 1024],
        };
        let pts = sweep_points(&zoo::squeezenet_v1_1(), &space);
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|p| p.cycles > 0 && p.energy > 0.0));
    }

    #[test]
    fn bigger_arrays_are_faster_for_big_nets() {
        let space = SweepSpace {
            array_sizes: vec![8, 32],
            rf_depths: vec![16],
            buffer_bytes: vec![128 * 1024],
        };
        let pts = sweep_points(&zoo::squeezenet_v1_0(), &space);
        let n8 = pts.iter().find(|p| p.params.array_size == 8).unwrap();
        let n32 = pts.iter().find(|p| p.params.array_size == 32).unwrap();
        assert!(n32.cycles < n8.cycles);
        // But small arrays utilize better.
        assert!(n8.utilization > n32.utilization);
    }

    #[test]
    fn best_point_exists_and_minimizes_edp() {
        let space = SweepSpace {
            array_sizes: vec![8, 16],
            rf_depths: vec![8, 16],
            buffer_bytes: vec![128 * 1024],
        };
        let pts = sweep_points(&zoo::tiny_darknet(), &space);
        let best = best_by_energy_delay(&pts).unwrap();
        for p in &pts {
            assert!(best.energy_delay() <= p.energy_delay());
        }
    }

    #[test]
    fn pareto_designs_drop_dominated_points() {
        let space = SweepSpace {
            array_sizes: vec![8, 16, 32],
            rf_depths: vec![8, 16],
            buffer_bytes: vec![128 * 1024],
        };
        let pts = sweep_points(&zoo::squeezenet_v1_1(), &space);
        let front = pareto_designs(&pts);
        assert!(!front.is_empty() && front.len() <= pts.len());
        // No front point dominates another front point.
        for a in &front {
            for b in &front {
                if a.params != b.params {
                    let dominates = a.cycles <= b.cycles
                        && a.energy <= b.energy
                        && a.area <= b.area
                        && (a.cycles < b.cycles || a.energy < b.energy || a.area < b.area);
                    assert!(!dominates, "{} dominates {}", a.params, b.params);
                }
            }
        }
        // Sorted by cycles.
        assert!(front.windows(2).all(|w| w[0].cycles <= w[1].cycles));
    }

    /// The all-pairs definition `pareto_designs` promises: a point
    /// survives unless another strictly dominates it, and survivors keep
    /// their input order under a stable sort by cycles.
    fn pareto_designs_quadratic(points: &[DesignPoint]) -> Vec<DesignPoint> {
        let dominates = |q: &DesignPoint, p: &DesignPoint| {
            q.cycles <= p.cycles
                && q.energy <= p.energy
                && q.area <= p.area
                && (q.cycles < p.cycles || q.energy < p.energy || q.area < p.area)
        };
        let mut front: Vec<DesignPoint> =
            points.iter().filter(|p| !points.iter().any(|q| dominates(q, p))).cloned().collect();
        front.sort_by_key(|p| p.cycles);
        front
    }

    #[test]
    fn pareto_designs_match_the_all_pairs_oracle_bit_for_bit() {
        // Bitwise comparison: `PartialEq` would call any result
        // containing NaN unequal to itself.
        let bits = |front: Vec<DesignPoint>| -> Vec<(DesignParams, u64, u64, u64, u64)> {
            front
                .into_iter()
                .map(|p| {
                    (
                        p.params,
                        p.cycles,
                        p.energy.to_bits(),
                        p.utilization.to_bits(),
                        p.area.to_bits(),
                    )
                })
                .collect()
        };
        let pt = |i: usize, cycles: u64, energy: f64, area: f64| DesignPoint {
            params: DesignParams { array_size: i, rf_depth: 8, global_buffer_bytes: 64 * 1024 },
            cycles,
            energy,
            utilization: 0.5,
            area,
        };
        // A sign-negative NaN area must not shield the dominated (1, 1, 2)
        // from (1, 1, 1).
        let nan_area = vec![pt(0, 1, 1.0, 1.0), pt(1, 1, 1.0, 2.0), pt(2, 1, 1.0, -f64::NAN)];
        assert_eq!(bits(pareto_designs(&nan_area)), bits(pareto_designs_quadratic(&nan_area)));

        // Deterministic LCG over a coarse lattice: exact ties on every
        // axis, duplicated points, and ±0.0 / ±NaN energies and areas.
        let mut state: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut value = |specials: bool| match next() % if specials { 12 } else { 8 } {
            8 => 0.0,
            9 => -0.0,
            10 => f64::NAN,
            11 => -f64::NAN,
            v => (v % 4 + 1) as f64,
        };
        for round in 0..2000 {
            let specials = round % 2 == 0;
            let n = round % 13 + 2;
            let mut pts: Vec<DesignPoint> = Vec::with_capacity(n + 1);
            for i in 0..n {
                let cycles = (value(false) as u64) * 10;
                pts.push(pt(i, cycles, value(specials), value(specials)));
            }
            if round % 3 == 0 {
                let dup = pts[round % pts.len()].clone();
                pts.push(dup);
            }
            assert_eq!(
                bits(pareto_designs(&pts)),
                bits(pareto_designs_quadratic(&pts)),
                "round {round}: {pts:?}"
            );
        }
    }

    #[test]
    fn invalid_points_are_skipped() {
        let space = SweepSpace {
            array_sizes: vec![64],
            rf_depths: vec![8],
            buffer_bytes: vec![1024], // too small for a 64x64 array
        };
        let pts = sweep_points(&zoo::tiny_darknet(), &space);
        assert!(pts.is_empty());
        assert!(best_by_energy_delay(&pts).is_none());
    }

    #[test]
    fn empty_axis_is_an_error_not_an_empty_vec() {
        for (i, axis) in ["array-size", "rf-depth", "buffer-bytes"].iter().enumerate() {
            let mut space = SweepSpace::paper_default();
            match i {
                0 => space.array_sizes.clear(),
                1 => space.rf_depths.clear(),
                _ => space.buffer_bytes.clear(),
            }
            assert!(space.is_empty());
            let em = EnergyModel::default();
            let err = sweep_full_with(
                &Simulator::new(),
                &zoo::tiny_darknet(),
                &space,
                SimOptions::default(),
                &em,
                0,
            )
            .unwrap_err();
            assert_eq!(err, SweepError::EmptySpace(axis));
            assert!(err.to_string().contains(axis));
        }
    }

    #[test]
    fn checked_rejects_degenerate_points() {
        let params = DesignParams { array_size: 16, rf_depth: 16, global_buffer_bytes: 128 * 1024 };
        assert!(DesignPoint::checked(params, 100, 1.0, 0.5, 2.0).is_some());
        assert!(DesignPoint::checked(params, 0, 1.0, 0.5, 2.0).is_none(), "zero cycles");
        assert!(DesignPoint::checked(params, 100, f64::NAN, 0.5, 2.0).is_none(), "NaN energy");
        assert!(DesignPoint::checked(params, 100, 1.0, 0.0, 2.0).is_none(), "zero utilization");
        assert!(
            DesignPoint::checked(params, 100, 1.0, 0.5, f64::INFINITY).is_none(),
            "infinite area"
        );
    }

    #[test]
    fn best_by_energy_delay_tolerates_nan() {
        let params = DesignParams { array_size: 16, rf_depth: 16, global_buffer_bytes: 128 * 1024 };
        // A hand-built NaN point (impossible via `checked`) must not panic
        // the comparison; total_cmp orders NaN after every real number.
        let good = DesignPoint { params, cycles: 10, energy: 1.0, utilization: 0.5, area: 1.0 };
        let nan = DesignPoint { params, cycles: 10, energy: f64::NAN, utilization: 0.5, area: 1.0 };
        let pts = vec![nan, good.clone()];
        assert_eq!(best_by_energy_delay(&pts), Some(&good));
    }

    #[test]
    fn space_len() {
        assert_eq!(SweepSpace::paper_default().len(), 27);
        assert!(!SweepSpace::paper_default().is_empty());
        assert_eq!(SweepSpace::paper_default().grid().count(), 27);
    }

    #[test]
    fn grid_decode_is_row_major_and_total() {
        let space = SweepSpace::paper_default();
        // point(i) enumerates exactly the nested-loop order.
        let mut expect = Vec::new();
        for &n in &space.array_sizes {
            for &rf in &space.rf_depths {
                for &buf in &space.buffer_bytes {
                    expect.push(DesignParams {
                        array_size: n,
                        rf_depth: rf,
                        global_buffer_bytes: buf,
                    });
                }
            }
        }
        let got: Vec<DesignParams> = space.grid().collect();
        assert_eq!(got, expect);
        assert_eq!(space.point(space.len()), None, "decode is bounded");
        // Ragged axis lengths exercise the mixed-radix arithmetic.
        let ragged = SweepSpace {
            array_sizes: vec![8, 16],
            rf_depths: vec![8, 16, 32, 64],
            buffer_bytes: vec![64 * 1024, 256 * 1024, 512 * 1024],
        };
        assert_eq!(ragged.grid().count(), ragged.len());
        let via_point: Vec<_> = (0..ragged.len()).filter_map(|i| ragged.point(i)).collect();
        assert_eq!(via_point, ragged.grid().collect::<Vec<_>>());
    }

    #[test]
    fn traced_sweep_metrics_are_schedule_independent() {
        use codesign_trace::{Category, MetricsSnapshot, Tracer};
        let space = SweepSpace {
            array_sizes: vec![8, 16],
            rf_depths: vec![8, 16],
            buffer_bytes: vec![64 * 1024],
        };
        let net = zoo::tiny_darknet();
        let opts = SimOptions::default();
        let em = EnergyModel::default();
        let run = |jobs: usize| {
            let tracer = Tracer::enabled();
            let sim = Simulator::new().with_tracer(tracer.clone());
            sweep_full_with(&sim, &net, &space, opts, &em, jobs).unwrap();
            MetricsSnapshot::of(&tracer.snapshot())
        };
        let serial = run(1);
        let parallel = run(4);
        // Span-derived aggregates are bit-identical however the grid was
        // scheduled. (Global cache counters are deliberately excluded:
        // racing misses make them schedule-dependent.)
        assert_eq!(serial.categories, parallel.categories);
        assert_eq!(serial.tracks, parallel.tracks);
        assert_eq!(serial.category(Category::Sweep).expect("sweep spans").spans, 4);
    }

    #[test]
    fn one_infeasible_point_degrades_instead_of_aborting() {
        // A 256-byte buffer builds (it holds two 8x8 tiles) but leaves
        // the tiling search no feasible plan for real layers — the sweep
        // must complete with n-1 points plus one named diagnostic.
        let space = SweepSpace {
            array_sizes: vec![8],
            rf_depths: vec![16],
            buffer_bytes: vec![256, 64 * 1024, 128 * 1024],
        };
        let net = zoo::tiny_darknet();
        let outcome = sweep_full_with(
            &Simulator::new(),
            &net,
            &space,
            SimOptions::default(),
            &EnergyModel::default(),
            0,
        )
        .unwrap();
        assert_eq!(outcome.points.len(), 2, "{:?}", outcome.failures);
        assert_eq!(outcome.failures.len(), 1);
        let failure = &outcome.failures[0];
        assert_eq!(failure.params.global_buffer_bytes, 256);
        assert!(failure.reason.contains("infeasible tiling"), "{}", failure.reason);
        assert!(outcome.failure_summary().contains("1 of 3 points failed"));
        // The streaming engine folds the same evaluations: same
        // diagnostic, and the frontier of the same survivors.
        let streamed = crate::stream::sweep_frontier_with(
            &Simulator::new(),
            &net,
            &space,
            SimOptions::default(),
            &EnergyModel::default(),
            &crate::stream::FrontierConfig::default(),
            &codesign_sim::CancelToken::never(),
            |_| {},
        )
        .unwrap();
        assert_eq!(streamed.failures, outcome.failures);
        assert_eq!(streamed.frontier, pareto_designs(&outcome.points));
    }

    #[test]
    fn degraded_sweep_is_schedule_independent() {
        let space = SweepSpace {
            array_sizes: vec![8, 16],
            rf_depths: vec![8, 16],
            buffer_bytes: vec![256, 64 * 1024],
        };
        let net = zoo::tiny_darknet();
        let run = |jobs: usize| {
            sweep_full_with(
                &Simulator::uncached(),
                &net,
                &space,
                SimOptions::default(),
                &EnergyModel::default(),
                jobs,
            )
            .unwrap()
        };
        let serial = run(1);
        let parallel = run(8);
        assert_eq!(serial, parallel);
        assert!(!serial.failures.is_empty());
    }

    #[test]
    fn poisoned_worker_degrades_to_point_failure() {
        // A worker panic mid-sweep must neither hang the persistent pool
        // nor abort the sweep: the poisoned point surfaces as a
        // diagnostic and every other point still evaluates.
        use codesign_dnn::{NetworkBuilder, Shape};
        let net = NetworkBuilder::new("__poison_point_0__", Shape::new(16, 16, 16))
            .conv("c1", 16, 3, 1, 1)
            .finish()
            .unwrap();
        let space = SweepSpace {
            array_sizes: vec![8, 16],
            rf_depths: vec![16],
            buffer_bytes: vec![64 * 1024, 128 * 1024],
        };
        for jobs in [1, 2, 8] {
            let outcome = sweep_full_with(
                &Simulator::new(),
                &net,
                &space,
                SimOptions::default(),
                &EnergyModel::default(),
                jobs,
            )
            .unwrap();
            assert_eq!(outcome.points.len(), 3, "jobs={jobs}");
            assert_eq!(outcome.failures.len(), 1, "jobs={jobs}");
            let failure = &outcome.failures[0];
            assert_eq!(Some(failure.params), space.point(0));
            assert!(
                failure.reason.contains("worker panicked: injected worker poison"),
                "{}",
                failure.reason
            );
        }
    }

    #[test]
    fn sweep_is_jobs_invariant() {
        // The pool contract across the user-facing --jobs range: 1, 2,
        // and 8 workers produce bit-identical outcomes.
        let space = SweepSpace {
            array_sizes: vec![8, 16],
            rf_depths: vec![8, 16],
            buffer_bytes: vec![64 * 1024, 128 * 1024],
        };
        let net = zoo::tiny_darknet();
        let opts = SimOptions::default();
        let em = EnergyModel::default();
        let runs: Vec<SweepOutcome> = [1usize, 2, 8]
            .iter()
            .map(|&jobs| sweep_full_with(&Simulator::new(), &net, &space, opts, &em, jobs).unwrap())
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
        assert!(runs[0].failures.is_empty());
    }

    #[test]
    fn parallel_cached_sweep_matches_serial_uncached() {
        // The tentpole contract: `jobs` and the cache change wall-time,
        // never results or order.
        let space = SweepSpace {
            array_sizes: vec![8, 16],
            rf_depths: vec![8, 16],
            buffer_bytes: vec![64 * 1024, 128 * 1024],
        };
        let net = zoo::squeezenet_v1_1();
        let opts = SimOptions::default();
        let em = EnergyModel::default();
        let serial = sweep_full_with(&Simulator::uncached(), &net, &space, opts, &em, 1).unwrap();
        let parallel = sweep_full_with(&Simulator::new(), &net, &space, opts, &em, 4).unwrap();
        assert_eq!(serial, parallel);
    }
}
