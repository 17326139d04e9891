//! Bounded-memory streaming sweeps: online Pareto pruning, dominance
//! branch-and-bound, and crash-safe checkpoint/resume.
//!
//! [`sweep_full_with`](crate::dse::sweep_full_with) keeps every
//! evaluated point, so a 10M-point sweep holds 10M [`DesignPoint`]s
//! before the Pareto filter ever runs. The [`sweep_frontier_with`]
//! engine in this module never does: grid points are decoded from their
//! flat index chunk by chunk, each evaluated point is offered to an
//! [`OnlineFrontier`] that retains only the live Pareto set, and
//! everything else is dropped on the spot. Peak memory is
//! `O(frontier + chunk + retained failures)` regardless of the space's
//! size. Both sweeps evaluate through the same chunk evaluator, and
//! this engine is the only one that streams events, honours a
//! [`CancelToken`], or checkpoints.
//!
//! Three cooperating mechanisms:
//!
//! * **Online dominance filter** — every evaluated point is offered to
//!   the frontier immediately; survivors stream out as
//!   [`FrontierEvent::Entered`] deltas. The final sorted frontier is
//!   bit-identical to batch [`pareto_designs`] over the same points.
//! * **Dominance branch-and-bound** — before evaluating a buffer-axis
//!   segment, the engine evaluates one *witness corner* at the segment's
//!   largest buffer. DRAM traffic (hence cycles and energy) is
//!   non-increasing in the buffer budget (`codesign-sim`'s tiling
//!   tests pin this), and area is
//!   increasing in every axis, so `(witness cycles, witness energy,
//!   area at the smallest buildable buffer)` lower-bounds every point in
//!   the segment componentwise. If a frontier member *strictly*
//!   dominates that bound, the whole segment is pruned — it could never
//!   contribute a frontier member. Strictness means a segment whose best
//!   corner merely ties a member is still evaluated, preserving
//!   `pareto_designs`' keep-duplicates semantics, so the final frontier
//!   is bit-identical with pruning on or off.
//! * **Checkpoint/resume** — at configurable progress intervals the
//!   engine persists its complete state (position, counters, frontier,
//!   diagnostics) through `codesign-sim`'s generation store. A killed
//!   sweep resumes from the newest intact generation and produces a
//!   bit-identical final frontier; torn, corrupt or foreign checkpoint
//!   files are refused, each reported with a typed [`CheckpointError`].
//!
//! [`pareto_designs`]: crate::dse::pareto_designs

use std::path::PathBuf;

use codesign_arch::{area, AcceleratorConfig, AreaModel, EnergyModel};
use codesign_dnn::Network;
use codesign_sim::{
    fnv1a, recover, CancelToken, Candidate, GenerationStore, SimOptions, Simulator,
};

use crate::checkpoint::{self, CheckpointError, CheckpointState};
use crate::dse::{
    best_by_energy_delay, evaluate_point, evaluate_range, DesignParams, DesignPoint,
    OnlineFrontier, PointEval, PointFailure, SweepError, SweepSpace,
};

/// Failure diagnostics a sweep retains; the `failed` counter still
/// counts every failure past the cap.
const MAX_FAILURES: usize = 1024;

/// Where and how often a streaming sweep checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Base path for the generation files (`<base>.gen-K`).
    pub base: PathBuf,
    /// Minimum number of newly completed grid points between
    /// checkpoints (clamped to at least 1). The newest
    /// [`GENERATIONS_KEPT`](codesign_sim::GENERATIONS_KEPT) generations
    /// stay on disk.
    pub every_points: u64,
}

/// Tuning knobs for [`sweep_frontier_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierConfig {
    /// Worker count for point evaluation (0 = one per core). The result
    /// is jobs-invariant.
    pub jobs: usize,
    /// Evaluation chunk size: segments at most this large are evaluated
    /// directly; larger ones are prune-tested and bisected. Also bounds
    /// the in-flight evaluation memory. Clamped to at least 1.
    pub chunk: usize,
    /// Enable dominance branch-and-bound over buffer-axis segments. The
    /// final frontier is bit-identical either way; pruning only skips
    /// evaluations (and their skip/failure diagnostics) that provably
    /// cannot contribute frontier members.
    pub prune: bool,
    /// Checkpoint persistence; `None` disables checkpointing.
    pub checkpoint: Option<CheckpointConfig>,
    /// Resume from the newest intact, fingerprint-matching checkpoint
    /// generation under `checkpoint.base`. Without a usable generation
    /// the sweep starts from the beginning. When `false` and
    /// checkpointing is configured, stale generations are cleared first
    /// so a later `resume` cannot pick up a different run's state.
    pub resume: bool,
}

impl Default for FrontierConfig {
    fn default() -> Self {
        Self { jobs: 0, chunk: 64, prune: false, checkpoint: None, resume: false }
    }
}

/// Aggregate accounting for one streaming sweep. The four disposition
/// counters partition the grid: `evaluated + skipped + failed + pruned
/// == total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepCounters {
    /// Grid points in the swept space.
    pub total: u64,
    /// Points that evaluated to a [`DesignPoint`].
    pub evaluated: u64,
    /// Points skipped as invalid/degenerate configurations.
    pub skipped: u64,
    /// Points that failed with a diagnostic.
    pub failed: u64,
    /// Points skipped by dominance branch-and-bound.
    pub pruned: u64,
    /// High-water mark of the live frontier size — the bounded-memory
    /// guarantee, measured.
    pub peak_frontier: u64,
    /// Checkpoint generations written by this run.
    pub checkpoints_written: u64,
    /// When resuming: the grid position the run restarted from.
    pub resumed_at: Option<u64>,
    /// When resuming: the checkpoint generation the run restarted from.
    pub resumed_generation: Option<u64>,
}

/// Streamed observation from [`sweep_frontier_with`], delivered in
/// strictly ascending grid order and invariant to `jobs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrontierEvent<'a> {
    /// An evaluated point entered the live frontier (a *frontier
    /// delta*). Members it evicted leave silently; the final frontier is
    /// the subset of entered points never later evicted.
    Entered {
        /// Flat grid index of the point.
        index: usize,
        /// The entering point.
        point: &'a DesignPoint,
    },
    /// A point failed with a diagnostic (fired even past the retention
    /// cap of [`FrontierOutcome::failures`]).
    Failure {
        /// Flat grid index of the point.
        index: usize,
        /// The diagnostic.
        failure: &'a PointFailure,
    },
    /// Branch-and-bound proved the half-open grid-index segment
    /// `[from, until)` cannot contribute frontier members and skipped
    /// it wholesale.
    Pruned {
        /// First pruned flat grid index.
        from: usize,
        /// One past the last pruned flat grid index.
        until: usize,
    },
}

/// Final product of a streaming sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierOutcome {
    /// The Pareto frontier over (cycles, energy, area), sorted by
    /// ascending cycles — bit-identical to
    /// [`pareto_designs`](crate::dse::pareto_designs) over every
    /// evaluated point.
    pub frontier: Vec<DesignPoint>,
    /// The frontier member with the lowest energy-delay product (the
    /// minimum over *all* evaluated points is always attained on the
    /// frontier). `None` only when the frontier is empty.
    pub best: Option<DesignPoint>,
    /// Retained failure diagnostics, in grid order: the first 1,024.
    pub failures: Vec<PointFailure>,
    /// Aggregate accounting.
    pub counters: SweepCounters,
    /// Checkpoint files refused on resume, newest first.
    pub refused_checkpoints: Vec<Candidate<CheckpointError>>,
}

/// Identity of a sweep for checkpoint compatibility: a resume is only
/// accepted against a checkpoint written by a sweep with the same
/// network shape, space, simulation options, energy model, and prune
/// setting.
fn sweep_fingerprint(
    network: &Network,
    space: &SweepSpace,
    opts: SimOptions,
    energy_model: &EnergyModel,
    prune: bool,
) -> u64 {
    let canonical = format!(
        "net={};layers={};arrays={:?};rfs={:?};buffers={:?};opts={:?};energy={:?};prune={}",
        network.name(),
        network.layers().len(),
        space.array_sizes,
        space.rf_depths,
        space.buffer_bytes,
        opts,
        energy_model,
        prune,
    );
    fnv1a(canonical.as_bytes())
}

struct CkptRuntime {
    store: GenerationStore,
    every_points: u64,
    fingerprint: u64,
    /// Grid position of the last checkpoint written (or resumed from).
    last_pos: u64,
}

struct Engine<'a> {
    sim: &'a Simulator,
    network: &'a Network,
    space: &'a SweepSpace,
    opts: SimOptions,
    energy_model: &'a EnergyModel,
    jobs: usize,
    chunk: usize,
    prune: bool,
    cancel: &'a CancelToken,
    frontier: OnlineFrontier,
    failures: Vec<PointFailure>,
    counters: SweepCounters,
    ckpt: Option<CkptRuntime>,
    refused_checkpoints: Vec<Candidate<CheckpointError>>,
}

type EventSink<'s> = dyn FnMut(FrontierEvent<'_>) + 's;

impl Engine<'_> {
    /// Processes `[pos, len)` one buffer run at a time. Each run is a
    /// contiguous block of grid indices sharing (array size, RF depth),
    /// within which only the buffer axis varies — the shape the
    /// branch-and-bound's monotone bounds are stated over.
    fn run(
        &mut self,
        mut pos: usize,
        len: usize,
        on_event: &mut EventSink<'_>,
    ) -> Result<(), SweepError> {
        let nbuf = self.space.buffer_bytes.len();
        while pos < len {
            let run_end = len.min(pos - pos % nbuf + nbuf);
            self.segment(pos, run_end, on_event)?;
            pos = run_end;
        }
        Ok(())
    }

    /// Recursively processes the grid-index segment `[lo, hi)` (within
    /// one buffer run): prune-test oversized segments, bisect on
    /// failure, evaluate chunk-sized leaves. Left halves complete before
    /// right halves, so progress is always a contiguous prefix and
    /// events fire in strictly ascending grid order.
    fn segment(
        &mut self,
        lo: usize,
        hi: usize,
        on_event: &mut EventSink<'_>,
    ) -> Result<(), SweepError> {
        if self.cancel.is_cancelled() {
            return Err(SweepError::Cancelled);
        }
        let n = hi - lo;
        if n > self.chunk {
            if self.prune && !self.frontier.is_empty() && self.segment_is_dominated(lo, hi) {
                self.counters.pruned += n as u64;
                on_event(FrontierEvent::Pruned { from: lo, until: hi });
                return self.maybe_checkpoint(hi, false);
            }
            let mid = lo + n / 2;
            self.segment(lo, mid, on_event)?;
            return self.segment(mid, hi, on_event);
        }
        self.leaf(lo, hi, on_event);
        self.maybe_checkpoint(hi, false)
    }

    /// The branch-and-bound test: does some frontier member strictly
    /// dominate a componentwise lower bound on every evaluable point in
    /// `[lo, hi)`?
    ///
    /// The bound: DRAM traffic — hence cycles and energy — is
    /// non-increasing in the buffer budget (everything else in the
    /// segment is fixed), so the *witness* evaluation at the segment's
    /// largest buffer value lower-bounds both; area is increasing in the
    /// buffer, so the area at the segment's smallest *buildable* buffer
    /// value lower-bounds it. Any failure to establish the bound
    /// (unbuildable witness, simulator error) falls back to evaluating
    /// the segment — pruning is an optimization, never a semantics
    /// change.
    fn segment_is_dominated(&self, lo: usize, hi: usize) -> bool {
        let nbuf = self.space.buffer_bytes.len();
        let start = lo % nbuf;
        let Some(slice) = self.space.buffer_bytes.get(start..start + (hi - lo)) else {
            return false;
        };
        let Some(&buf_hi) = slice.iter().max() else { return false };
        let Some(base) = self.space.point(lo) else { return false };
        let witness = DesignParams { global_buffer_bytes: buf_hi, ..base };
        let Ok(Some(w)) =
            evaluate_point(self.sim, self.network, witness, self.opts, self.energy_model)
        else {
            return false;
        };
        // The witness was buildable, so its config's element width is
        // the run's; the smallest buildable buffer in the segment gives
        // the area floor.
        let Ok(cfg_hi) = AcceleratorConfig::builder()
            .array_size(base.array_size)
            .rf_depth(base.rf_depth)
            .global_buffer_bytes(buf_hi)
            .build()
        else {
            return false;
        };
        let min_buildable =
            AcceleratorConfig::min_global_buffer_bytes(base.array_size, cfg_hi.bytes_per_element());
        let Some(&buf_lo) = slice.iter().filter(|&&b| b >= min_buildable).min() else {
            return false;
        };
        let Ok(cfg_lo) = AcceleratorConfig::builder()
            .array_size(base.array_size)
            .rf_depth(base.rf_depth)
            .global_buffer_bytes(buf_lo)
            .build()
        else {
            return false;
        };
        let area_floor = area(&cfg_lo, &AreaModel::default(), true).total();
        self.frontier.strictly_dominates_bound(w.cycles, w.energy, area_floor)
    }

    /// Evaluates the chunk-sized segment `[lo, hi)` in parallel and
    /// folds the results — in grid order — into the frontier, counters,
    /// and diagnostics.
    fn leaf(&mut self, lo: usize, hi: usize, on_event: &mut EventSink<'_>) {
        let (sim, net, space, em) = (self.sim, self.network, self.space, self.energy_model);
        for (index, eval) in evaluate_range(sim, net, space, self.opts, em, self.jobs, lo..hi) {
            match eval {
                PointEval::Evaluated(point) => {
                    self.counters.evaluated += 1;
                    if self.frontier.insert(&point) {
                        on_event(FrontierEvent::Entered { index, point: &point });
                    }
                }
                PointEval::Skipped => self.counters.skipped += 1,
                PointEval::Failed(failure) => {
                    self.counters.failed += 1;
                    on_event(FrontierEvent::Failure { index, failure: &failure });
                    if self.failures.len() < MAX_FAILURES {
                        self.failures.push(failure);
                    }
                }
            }
        }
    }

    /// Persists a checkpoint once enough new progress has accumulated
    /// (`force` writes regardless, for the final checkpoint). `done` is
    /// the end of the completed prefix `[0, done)`.
    fn maybe_checkpoint(&mut self, done: usize, force: bool) -> Result<(), SweepError> {
        let done = done as u64;
        let Some(ck) = &self.ckpt else { return Ok(()) };
        let due = done.saturating_sub(ck.last_pos) >= ck.every_points.max(1);
        if done == ck.last_pos || (!force && !due) {
            return Ok(());
        }
        let state = CheckpointState {
            pos: done,
            evaluated: self.counters.evaluated,
            skipped: self.counters.skipped,
            failed: self.counters.failed,
            pruned: self.counters.pruned,
            peak_frontier: self.frontier.peak() as u64,
            frontier: self.frontier.members().to_vec(),
            failures: self.failures.clone(),
        };
        let Some(ck) = self.ckpt.as_mut() else { return Ok(()) };
        ck.store
            .write(&checkpoint::encode(ck.fingerprint, &state))
            .map_err(|e| SweepError::Checkpoint(format!("writing a checkpoint generation: {e}")))?;
        ck.last_pos = done;
        self.counters.checkpoints_written += 1;
        Ok(())
    }

    fn into_outcome(mut self) -> FrontierOutcome {
        self.counters.peak_frontier = self.frontier.peak() as u64;
        let frontier = std::mem::take(&mut self.frontier).into_sorted();
        // Computed from the final frontier rather than tracked online:
        // the minimum energy-delay product over all evaluated points is
        // always attained on the frontier (anything off it is dominated
        // by a member with no-worse cycles *and* energy), and deriving
        // it from the deterministic frontier keeps the identity of the
        // winner stable across chunking, pruning, and resume — online
        // tracking would make plateau EDP ties order-dependent.
        let best = best_by_energy_delay(&frontier).cloned();
        FrontierOutcome {
            frontier,
            best,
            failures: self.failures,
            counters: self.counters,
            refused_checkpoints: self.refused_checkpoints,
        }
    }
}

/// Runs the bounded-memory streaming sweep over `space` for `network`:
/// online Pareto filtering (frontier deltas streamed through
/// `on_event`), optional dominance branch-and-bound, optional
/// crash-safe checkpoint/resume. See the [module docs](self) for the
/// memory model and the pruning soundness argument.
///
/// Determinism contract, for a fixed (network, space, options, energy
/// model, prune):
///
/// * events fire in strictly ascending grid order and are invariant to
///   `jobs`;
/// * the final `frontier` (and `best`) are bit-identical to batch
///   [`pareto_designs`](crate::dse::pareto_designs) +
///   [`best_by_energy_delay`] over the full sweep, whatever `chunk`,
///   `prune`, or resume history;
/// * with pruning off, `counters` and `failures` are also bit-identical
///   across runs; with pruning on, diagnostics inside pruned segments
///   are omitted and the evaluated/pruned split may vary with `chunk`.
///
/// # Errors
///
/// [`SweepError::EmptySpace`] when any sweep axis is empty;
/// [`SweepError::Cancelled`] when `cancel` fires (events already
/// delivered remain a valid prefix); [`SweepError::Checkpoint`] when a
/// configured checkpoint cannot be written or cleared.
#[allow(clippy::too_many_arguments)]
pub fn sweep_frontier_with(
    sim: &Simulator,
    network: &Network,
    space: &SweepSpace,
    opts: SimOptions,
    energy_model: &EnergyModel,
    config: &FrontierConfig,
    cancel: &CancelToken,
    mut on_event: impl FnMut(FrontierEvent<'_>),
) -> Result<FrontierOutcome, SweepError> {
    space.check_non_empty()?;
    let len = space.len();
    let mut engine = Engine {
        sim,
        network,
        space,
        opts,
        energy_model,
        jobs: config.jobs,
        chunk: config.chunk.max(1),
        prune: config.prune,
        cancel,
        frontier: OnlineFrontier::new(),
        failures: Vec::new(),
        counters: SweepCounters { total: len as u64, ..SweepCounters::default() },
        ckpt: None,
        refused_checkpoints: Vec::new(),
    };
    let mut start_pos = 0usize;
    if let Some(ckcfg) = &config.checkpoint {
        let fingerprint = sweep_fingerprint(network, space, opts, energy_model, config.prune);
        let mut store = GenerationStore::open(&ckcfg.base);
        let mut last_pos = 0;
        if config.resume {
            // Nothing on disk (`Err`) is a fresh start, like a refusal.
            let (loaded, refusals) =
                recover(&ckcfg.base, |b| checkpoint::decode(b, fingerprint)).unwrap_or_default();
            engine.refused_checkpoints = refusals;
            if let Some(loaded) = loaded {
                let state = loaded.value;
                start_pos = (state.pos as usize).min(len);
                engine.counters.evaluated = state.evaluated;
                engine.counters.skipped = state.skipped;
                engine.counters.failed = state.failed;
                engine.counters.pruned = state.pruned;
                engine.counters.resumed_at = Some(state.pos.min(len as u64));
                engine.counters.resumed_generation = loaded.generation;
                engine.frontier =
                    OnlineFrontier::from_members(state.frontier, state.peak_frontier as usize);
                engine.failures = state.failures;
                last_pos = state.pos;
            }
        } else {
            store
                .clear()
                .map_err(|e| SweepError::Checkpoint(format!("clearing stale generations: {e}")))?;
        }
        engine.ckpt =
            Some(CkptRuntime { store, every_points: ckcfg.every_points, fingerprint, last_pos });
    }
    engine.run(start_pos, len, &mut on_event)?;
    engine.maybe_checkpoint(len, true)?;
    Ok(engine.into_outcome())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::{pareto_designs, sweep_full_with, SweepSpace};
    use codesign_sim::{FramingError, GENERATIONS_KEPT};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tiny_network() -> Network {
        codesign_dnn::NetworkBuilder::new("stream-test-net", codesign_dnn::Shape::new(8, 16, 16))
            .conv("c1", 16, 3, 1, 1)
            .finish()
            .expect("tiny test network builds")
    }

    fn small_space() -> SweepSpace {
        SweepSpace {
            array_sizes: vec![8, 16],
            rf_depths: vec![8],
            // 256 B is below every array's minimum buffer: exercises the
            // skipped path.
            buffer_bytes: vec![256, 48 * 1024, 64 * 1024, 96 * 1024, 128 * 1024],
        }
    }

    /// A buffer axis long enough to have a saturated plateau the
    /// branch-and-bound can prune.
    fn plateau_space() -> SweepSpace {
        SweepSpace {
            array_sizes: vec![8],
            rf_depths: vec![8],
            buffer_bytes: (0..64).map(|i| 32 * 1024 + 4096 * i).collect(),
        }
    }

    fn temp_base(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "codesign-stream-test-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join("sweep.ck")
    }

    fn run_plain(config: &FrontierConfig) -> FrontierOutcome {
        sweep_frontier_with(
            &Simulator::new(),
            &tiny_network(),
            &small_space(),
            SimOptions::default(),
            &EnergyModel::default(),
            config,
            &CancelToken::never(),
            |_| {},
        )
        .expect("sweep runs")
    }

    #[test]
    fn frontier_matches_batch_pareto_bit_for_bit() {
        let net = tiny_network();
        let space = small_space();
        let batch = sweep_full_with(
            &Simulator::new(),
            &net,
            &space,
            SimOptions::default(),
            &EnergyModel::default(),
            0,
        )
        .expect("batch sweep runs")
        .points;
        let expected = pareto_designs(&batch);
        for chunk in [1, 2, 3, 64] {
            for prune in [false, true] {
                let out = run_plain(&FrontierConfig { chunk, prune, ..FrontierConfig::default() });
                assert_eq!(out.frontier, expected, "chunk={chunk} prune={prune}");
                assert_eq!(
                    out.best.as_ref(),
                    best_by_energy_delay(&expected),
                    "chunk={chunk} prune={prune}"
                );
                let c = out.counters;
                assert_eq!(c.evaluated + c.skipped + c.failed + c.pruned, c.total);
                assert!(c.peak_frontier as usize >= expected.len());
            }
        }
    }

    #[test]
    fn events_arrive_in_ascending_grid_order_and_are_jobs_invariant() {
        let net = tiny_network();
        let space = small_space();
        let capture = |jobs: usize| {
            let mut seen: Vec<String> = Vec::new();
            let config = FrontierConfig { jobs, chunk: 2, ..FrontierConfig::default() };
            sweep_frontier_with(
                &Simulator::new(),
                &net,
                &space,
                SimOptions::default(),
                &EnergyModel::default(),
                &config,
                &CancelToken::never(),
                |ev| seen.push(format!("{ev:?}")),
            )
            .expect("sweep runs");
            seen
        };
        let serial = capture(1);
        assert!(!serial.is_empty(), "expected frontier deltas");
        assert_eq!(capture(4), serial, "event stream must be jobs-invariant");
    }

    #[test]
    fn pruning_skips_plateau_segments_without_changing_the_frontier() {
        let net = tiny_network();
        let space = plateau_space();
        let run = |prune: bool| {
            sweep_frontier_with(
                &Simulator::new(),
                &net,
                &space,
                SimOptions::default(),
                &EnergyModel::default(),
                &FrontierConfig { chunk: 4, prune, ..FrontierConfig::default() },
                &CancelToken::never(),
                |_| {},
            )
            .expect("sweep runs")
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(off.counters.pruned, 0);
        assert!(
            on.counters.pruned > 0,
            "saturated buffer plateau should prune (counters: {:?})",
            on.counters
        );
        assert_eq!(on.frontier, off.frontier, "pruning must not change the frontier");
        assert_eq!(on.best, off.best);
        assert_eq!(
            on.counters.evaluated + on.counters.pruned + on.counters.skipped + on.counters.failed,
            on.counters.total
        );
    }

    #[test]
    fn cancelled_mid_run_then_resumed_matches_the_uninterrupted_run() {
        let net = tiny_network();
        let space = small_space();
        let uninterrupted = run_plain(&FrontierConfig::default());

        let base = temp_base("resume");
        let ckpt = CheckpointConfig { base: base.clone(), every_points: 2 };
        let config = FrontierConfig {
            chunk: 2,
            checkpoint: Some(ckpt.clone()),
            ..FrontierConfig::default()
        };
        // First run: cancel after the first couple of events — past at
        // least one checkpoint boundary.
        let cancel = CancelToken::never();
        let mut deltas = 0u32;
        let err = sweep_frontier_with(
            &Simulator::new(),
            &net,
            &space,
            SimOptions::default(),
            &EnergyModel::default(),
            &config,
            &cancel,
            |_| {
                deltas += 1;
                if deltas >= 2 {
                    cancel.cancel();
                }
            },
        )
        .expect_err("cancel token fired");
        assert_eq!(err, SweepError::Cancelled);

        // Second run: resume from the surviving checkpoint.
        let resumed = sweep_frontier_with(
            &Simulator::new(),
            &net,
            &space,
            SimOptions::default(),
            &EnergyModel::default(),
            &FrontierConfig { resume: true, ..config },
            &CancelToken::never(),
            |_| {},
        )
        .expect("resumed sweep runs");
        assert!(resumed.counters.resumed_at.is_some(), "expected an actual resume");
        assert!(resumed.counters.resumed_at.unwrap() > 0);
        assert_eq!(resumed.frontier, uninterrupted.frontier);
        assert_eq!(resumed.best, uninterrupted.best);
        assert_eq!(resumed.counters.evaluated, uninterrupted.counters.evaluated);
        assert_eq!(resumed.counters.skipped, uninterrupted.counters.skipped);
        assert_eq!(resumed.failures, uninterrupted.failures);
        if let Some(dir) = base.parent() {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn foreign_checkpoints_are_ignored_and_the_sweep_starts_fresh() {
        let net = tiny_network();
        let base = temp_base("foreign");
        let ckpt = CheckpointConfig { base: base.clone(), every_points: 1 };
        // Complete a checkpointed sweep over one space...
        let config = FrontierConfig {
            chunk: 2,
            checkpoint: Some(ckpt.clone()),
            ..FrontierConfig::default()
        };
        let first = sweep_frontier_with(
            &Simulator::new(),
            &net,
            &plateau_space(),
            SimOptions::default(),
            &EnergyModel::default(),
            &config,
            &CancelToken::never(),
            |_| {},
        )
        .expect("first sweep runs");
        assert!(first.counters.checkpoints_written > 0);
        // ...then "resume" over a *different* space: the fingerprint
        // mismatch must be detected and the sweep must start from zero.
        let second = sweep_frontier_with(
            &Simulator::new(),
            &net,
            &small_space(),
            SimOptions::default(),
            &EnergyModel::default(),
            &FrontierConfig { resume: true, ..config },
            &CancelToken::never(),
            |_| {},
        )
        .expect("second sweep runs");
        assert_eq!(second.counters.resumed_at, None);
        assert_eq!(second.frontier, run_plain(&FrontierConfig::default()).frontier);
        assert_eq!(second.refused_checkpoints.len(), GENERATIONS_KEPT);
        for refused in &second.refused_checkpoints {
            assert!(
                matches!(refused.value, CheckpointError::ForeignSweep { .. }),
                "{:?}",
                refused.value
            );
        }
        if let Some(dir) = base.parent() {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn fresh_checkpointing_run_clears_stale_generations() {
        let net = tiny_network();
        let base = temp_base("clear");
        let ckpt = CheckpointConfig { base: base.clone(), every_points: 1 };
        let config =
            FrontierConfig { chunk: 2, checkpoint: Some(ckpt), ..FrontierConfig::default() };
        let run = || {
            sweep_frontier_with(
                &Simulator::new(),
                &net,
                &small_space(),
                SimOptions::default(),
                &EnergyModel::default(),
                &config,
                &CancelToken::never(),
                |_| {},
            )
            .expect("sweep runs")
        };
        let first = run();
        // A stale generation numbered past anything a run writes: left
        // in place, the rotation would keep it over a fresh one.
        std::fs::write(codesign_sim::generation_path(&base, 99), b"stale")
            .expect("plant a stale generation");
        let second = run();
        // The second run cleared every old generation before writing
        // its own, so generation numbering restarted and exactly its
        // newest `GENERATIONS_KEPT` remain.
        assert_eq!(first.counters.checkpoints_written, second.counters.checkpoints_written);
        let written = second.counters.checkpoints_written;
        assert!(written > GENERATIONS_KEPT as u64, "the rotation must prune: {written}");
        let gens: Vec<u64> =
            codesign_sim::scan_generations(&base).into_iter().map(|(g, _)| g).collect();
        assert_eq!(gens, (written + 1 - GENERATIONS_KEPT as u64..=written).collect::<Vec<_>>());
        if let Some(dir) = base.parent() {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn a_resumed_sweep_keeps_its_checkpoints_past_another_runs_generations() {
        let net = tiny_network();
        let base = temp_base("numbering");
        let ckpt = CheckpointConfig { base: base.clone(), every_points: 1 };
        let config =
            FrontierConfig { chunk: 2, checkpoint: Some(ckpt), ..FrontierConfig::default() };
        let run = |space: &SweepSpace, resume: bool| {
            sweep_frontier_with(
                &Simulator::new(),
                &net,
                space,
                SimOptions::default(),
                &EnergyModel::default(),
                &FrontierConfig { resume, ..config.clone() },
                &CancelToken::never(),
                |_| {},
            )
            .expect("sweep runs")
        };
        // Sweep A writes more generations than sweep B will.
        let a = run(&plateau_space(), false);
        let b = run(&small_space(), true);
        assert!(a.counters.checkpoints_written > b.counters.checkpoints_written);
        assert_eq!(b.counters.resumed_at, None, "A's checkpoints are foreign to B");
        // B numbered its generations after A's, so the rotation kept
        // B's newest and pruned A's...
        let gens: Vec<u64> =
            codesign_sim::scan_generations(&base).into_iter().map(|(g, _)| g).collect();
        let newest = a.counters.checkpoints_written + b.counters.checkpoints_written;
        assert_eq!(gens, (newest + 1 - GENERATIONS_KEPT as u64..=newest).collect::<Vec<_>>());
        // ...and a second resume of B picks up where B finished.
        let again = run(&small_space(), true);
        assert_eq!(again.counters.resumed_at, Some(again.counters.total));
        assert!(again.refused_checkpoints.is_empty(), "{:?}", again.refused_checkpoints);
        assert_eq!(again.frontier, b.frontier);
        if let Some(dir) = base.parent() {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn a_version_1_checkpoint_is_refused_and_the_sweep_starts_fresh() {
        let net = tiny_network();
        let base = temp_base("v1");
        let ckpt = CheckpointConfig { base: base.clone(), every_points: 1 };
        let config =
            FrontierConfig { chunk: 2, checkpoint: Some(ckpt), ..FrontierConfig::default() };
        let run = |resume: bool| {
            sweep_frontier_with(
                &Simulator::new(),
                &net,
                &small_space(),
                SimOptions::default(),
                &EnergyModel::default(),
                &FrontierConfig { resume, ..config.clone() },
                &CancelToken::never(),
                |_| {},
            )
            .expect("sweep runs")
        };
        let first = run(false);
        // Rewrite the newest generation in the version-1 layout: the
        // same payload, with no length word after the version.
        let (_, newest) = codesign_sim::scan_generations(&base).pop().expect("a generation");
        let bytes = std::fs::read(&newest).expect("generation reads");
        let mut v1 = bytes[..8].to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&bytes[20..bytes.len() - 8]);
        v1.extend_from_slice(&fnv1a(&v1).to_le_bytes());
        for (_, path) in codesign_sim::scan_generations(&base) {
            std::fs::remove_file(path).expect("generation removes");
        }
        std::fs::write(&newest, &v1).expect("v1 generation writes");
        let resumed = run(true);
        assert_eq!(resumed.counters.resumed_at, None);
        assert_eq!(resumed.frontier, first.frontier);
        assert!(
            matches!(
                resumed.refused_checkpoints[..],
                [Candidate {
                    value: CheckpointError::Framing(FramingError::WrongVersion {
                        found: 1,
                        expected: 2
                    }),
                    ..
                }]
            ),
            "{:?}",
            resumed.refused_checkpoints
        );
        if let Some(dir) = base.parent() {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn empty_spaces_are_rejected_before_any_event() {
        let mut space = SweepSpace::paper_default();
        space.rf_depths.clear();
        let cancelled = CancelToken::never();
        cancelled.cancel();
        // The space is validated before the token is polled, so an empty
        // space is reported as such even when already cancelled.
        for cancel in [CancelToken::never(), cancelled] {
            let mut fired = 0usize;
            let err = sweep_frontier_with(
                &Simulator::new(),
                &codesign_dnn::zoo::tiny_darknet(),
                &space,
                SimOptions::default(),
                &EnergyModel::default(),
                &FrontierConfig { jobs: 1, chunk: 1, ..FrontierConfig::default() },
                &cancel,
                |_| fired += 1,
            )
            .unwrap_err();
            assert_eq!(err, SweepError::EmptySpace("rf-depth"));
            assert_eq!(fired, 0, "no events before validation");
        }
    }
}
