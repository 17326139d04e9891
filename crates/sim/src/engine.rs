//! The layer- and network-level simulation driver: runs each layer under
//! a dataflow policy, folds in DRAM timing, and assembles whole-network
//! results.

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use codesign_arch::{AcceleratorConfig, Dataflow, DataflowPolicy};
use codesign_dnn::{Layer, Network};
use codesign_trace::{Category, Tracer};

use crate::cache::{CacheStats, ComputeKey, Lookups, PlanKey, SimCache, WorkKey, WorkMap};
use crate::compression::WeightCompression;
use crate::dram::{combine_cycles, conv_traffic, simd_traffic, DramTraffic};
use crate::error::{SimError, SimResult};
use crate::os::{simulate_os, OsModelOptions};
use crate::perf::{ComputePerf, LayerPerf, NetworkPerf};
use crate::simd::simulate_simd;
use crate::snapshot::{SnapshotError, SnapshotStats};
use crate::tiling::{optimize_tiling, TilingPlan};
use crate::workload::ConvWork;
use crate::ws::simulate_ws;

/// How per-layer DRAM traffic is derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrafficModel {
    /// The documented closed-form approximation in [`crate::dram`].
    ClosedForm,
    /// The paper's tiling search ("the size of the tile and the order of
    /// loops that give the shortest execution time are selected").
    #[default]
    TilingSearch,
}

/// Simulation options shared by every experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// OS datapath model switches (sparsity, preload overlap, channel
    /// packing).
    pub os: OsModelOptions,
    /// DRAM traffic derivation.
    pub traffic: TrafficModel,
    /// Optional sparse weight encoding on the DMA path (`None` matches
    /// the paper, which streams dense weights).
    pub weight_compression: Option<WeightCompression>,
}

impl SimOptions {
    /// The paper's configuration: 40 % weight zeros skipped by OS,
    /// preload overlap and channel packing enabled, tiling search on,
    /// no weight compression.
    pub fn paper_default() -> Self {
        Self {
            os: OsModelOptions::paper_default(),
            traffic: TrafficModel::TilingSearch,
            weight_compression: None,
        }
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// One layer's result under one dataflow before it becomes a
/// [`LayerPerf`]: the array's work with the layer's DRAM accesses added,
/// its DRAM bytes, and its DRAM and total cycles. Every network model
/// (engine, batch, multi-core) builds its per-layer results through it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Parts {
    compute: ComputePerf,
    dram_bytes: u64,
    dram_cycles: u64,
    total_cycles: u64,
}

impl Parts {
    /// The array's work and the layer's DRAM bytes: DMA cycles, the
    /// double-buffering combine and DRAM access counts.
    pub(crate) fn new(mut compute: ComputePerf, dram_bytes: u64, cfg: &AcceleratorConfig) -> Self {
        let dram_cycles = cfg.dram().transfer_cycles(dram_bytes);
        let total_cycles = combine_cycles(compute.cycles(), dram_cycles, cfg);
        compute.accesses.dram += dram_bytes / cfg.bytes_per_element() as u64;
        Self { compute, dram_bytes, dram_cycles, total_cycles }
    }

    /// Names the result after its layer, with utilization over `pes`
    /// processing elements.
    pub(crate) fn finish(self, layer: &Layer, dataflow: Option<Dataflow>, pes: usize) -> LayerPerf {
        let Self { compute, dram_bytes, dram_cycles, total_cycles } = self;
        let utilization = if total_cycles == 0 {
            0.0
        } else {
            compute.executed_macs as f64 / (total_cycles as f64 * pes as f64)
        };
        LayerPerf {
            name: layer.name.clone(),
            dataflow,
            compute,
            dram_bytes,
            dram_cycles,
            total_cycles,
            utilization,
        }
    }
}

/// The per-layer dataflow rule every network model shares: a
/// [`DataflowPolicy::Fixed`] dataflow as is; under
/// [`DataflowPolicy::PerLayer`], OS only when it takes strictly fewer
/// cycles than WS (WS wins ties). `simulate` runs the layer under one
/// dataflow and `cycles` reads the total the choice compares. Returns
/// the chosen dataflow with its result.
pub(crate) fn choose_dataflow<T>(
    policy: DataflowPolicy,
    mut simulate: impl FnMut(Dataflow) -> SimResult<T>,
    cycles: impl Fn(&T) -> u64,
) -> SimResult<(Dataflow, T)> {
    match policy {
        DataflowPolicy::Fixed(d) => Ok((d, simulate(d)?)),
        DataflowPolicy::PerLayer => {
            let ws = simulate(Dataflow::WeightStationary)?;
            let os = simulate(Dataflow::OutputStationary)?;
            Ok(if cycles(&os) < cycles(&ws) {
                (Dataflow::OutputStationary, os)
            } else {
                (Dataflow::WeightStationary, ws)
            })
        }
    }
}

/// What one layer adds to a call's `sim.*` counters and odometer,
/// summed over every dataflow its policy tried: layer simulations, DRAM
/// bytes, executed MACs and total cycles.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    layer_sims: u64,
    dram_bytes: u64,
    macs: u64,
    cycles: u64,
}

impl Counts {
    fn add(&mut self, other: &Counts) {
        self.layer_sims += other.layer_sims;
        self.dram_bytes += other.dram_bytes;
        self.macs += other.macs;
        self.cycles += other.cycles;
    }

    fn of(parts: &Parts) -> Self {
        Self {
            layer_sims: 1,
            dram_bytes: parts.dram_bytes,
            macs: parts.compute.executed_macs,
            cycles: parts.total_cycles,
        }
    }
}

/// One layer resolved under a call's dataflow policy: the chosen
/// dataflow (`None` on the SIMD path) with its parts, and the counts of
/// every dataflow tried.
#[derive(Debug, Clone, Copy)]
struct Resolved {
    dataflow: Option<Dataflow>,
    parts: Parts,
    counts: Counts,
}

/// Per-network deduplication memo: structurally identical layers (the
/// repeated fire/bottleneck blocks of SqueezeNet, SqueezeNext, and
/// MobileNet) share a `WorkKey`, so each unique layer shape is resolved
/// once per network simulation — duplicates are answered locally
/// without even consulting the shared cache. A network call has one
/// policy, so the shape alone is the key.
type LayerMemo = WorkMap<Resolved>;

/// What one simulation call accumulates across its layers: the global
/// `sim.*` counters and the odometer's cycles, flushed once so that a
/// whole network costs one batch of counter updates rather than several
/// per layer, and a network call's dedup memo.
#[derive(Default)]
struct LayerTally {
    counts: Counts,
    cache: Lookups,
    /// Consulted before the shared cache (`None` outside a network).
    memo: Option<LayerMemo>,
}

impl LayerTally {
    /// Adds the tally's cycles to `odometer` and, when tracing, its
    /// counts to the tracer's global counters. The cache.* triple is
    /// schedule-dependent under parallel misses and lock timing (see the
    /// [`SimCache`] docs) and is only created when non-zero; everything
    /// else is a pure function of the work simulated.
    fn flush(&self, tracer: &Tracer, odometer: &AtomicU64) {
        let counts = &self.counts;
        if counts.cycles > 0 {
            odometer.fetch_add(counts.cycles, Ordering::Relaxed);
        }
        if !tracer.is_enabled() || counts.layer_sims == 0 {
            return;
        }
        tracer.add_counter("sim.layer_sims", counts.layer_sims);
        tracer.add_counter("sim.dram.bytes", counts.dram_bytes);
        tracer.add_counter("sim.macs", counts.macs);
        for (name, value) in [
            ("sim.cache.hits", self.cache.hits),
            ("sim.cache.misses", self.cache.misses),
            ("sim.cache.contended", self.cache.contended),
        ] {
            if value > 0 {
                tracer.add_counter(name, value);
            }
        }
    }
}

/// A simulation engine handle: the one entry point every higher layer
/// (`codesign-core`'s DSE/co-design loops, the bench report, the CLI)
/// asks simulation questions through. Each question — a layer, a
/// network, a dataflow comparison, a batched, multi-core or event-driven
/// network, an event-driven layer, the dataflow taxonomy, measured
/// sparsity — is one fallible `try_*` method; [`crate::Program`] compiles
/// through the handle too.
///
/// A `Simulator` optionally carries a shared, thread-safe, sharded
/// [`SimCache`] memoizing the cycle model and the tiling search
/// separately, each keyed by exactly the inputs that influence it (see
/// [`crate::cache`] for the keying). Every model reads its compute, its
/// traffic and its tile counts through these two lookups, so one tiling
/// search serves both dataflows, every configuration sharing a buffer
/// size and every model. On top of that, every network simulation
/// deduplicates structurally identical layers up front, so repeated
/// fire/bottleneck blocks resolve once per run. Cloning is cheap and
/// shares the cache, so one handle can fan out across the parallel sweep
/// workers in `codesign-core::dse`. Cached and uncached runs are
/// bit-identical — the cache only skips recomputation of deterministic
/// functions.
///
/// # Examples
///
/// ```
/// use codesign_arch::{AcceleratorConfig, DataflowPolicy};
/// use codesign_dnn::zoo;
/// use codesign_sim::{SimOptions, Simulator};
///
/// let sim = Simulator::new();
/// let cfg = AcceleratorConfig::paper_default();
/// let opts = SimOptions::paper_default();
/// let net = zoo::squeezenet_v1_1();
/// let perf = sim.try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts)?;
/// assert!(perf.total_cycles() > 0);
/// // Tiling plans are dataflow-independent, so each unique layer's OS
/// // pass hit the plan its WS pass searched.
/// assert!(sim.stats().hits > 0);
/// # Ok::<(), codesign_sim::SimError>(())
/// ```
///
/// A `Simulator` also carries a [`Tracer`] (disabled by default, so
/// tracing costs nothing unless requested). With an enabled tracer every
/// network simulation publishes one track of per-layer spans — duration
/// in simulated cycles, with MACs, DRAM bytes/cycles, phase breakdown,
/// buffer occupancy, and cache-hit counters attached — and
/// [`Simulator::try_simulate_network`] adds global `sim.*` counters once
/// per call. A [`Tracer::counters_only`] tracer keeps the counters and
/// skips the spans. Tracing never changes simulation results: the
/// instrumented paths only *observe* values that are computed anyway.
#[derive(Debug, Clone)]
pub struct Simulator {
    cache: Option<Arc<SimCache>>,
    tracer: Tracer,
    cycles: Arc<AtomicU64>,
}

impl Default for Simulator {
    /// A simulator with memoization enabled, like [`Simulator::new`].
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// A simulator with memoization enabled (an empty cache).
    pub fn new() -> Self {
        Self {
            cache: Some(Arc::new(SimCache::new())),
            tracer: Tracer::disabled(),
            cycles: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A simulator that always recomputes — the baseline the determinism
    /// tests compare cached runs against.
    pub fn uncached() -> Self {
        Self { cache: None, tracer: Tracer::disabled(), cycles: Arc::new(AtomicU64::new(0)) }
    }

    /// A handle sharing this simulator's cache and tracer but carrying a
    /// fresh simulated-cycles odometer — the bench report forks one per
    /// experiment so per-experiment throughput can be attributed while
    /// memo entries stay shared.
    pub fn fork_counter(&self) -> Self {
        Self {
            cache: self.cache.clone(),
            tracer: self.tracer.clone(),
            cycles: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Total simulated cycles delivered through this handle (and its
    /// plain clones): the sum of `total_cycles` over every layer
    /// simulation, each dataflow a per-layer policy tried included,
    /// whether computed or answered from a memo.
    pub fn cycles_simulated(&self) -> u64 {
        self.cycles.load(Ordering::Relaxed)
    }

    /// Attaches a tracer; simulation spans and counters are recorded
    /// through it. Clones of this simulator share the tracer (and the
    /// cache), so parallel workers all feed one trace.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The attached tracer (disabled unless [`Simulator::with_tracer`]
    /// installed an enabled one).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Cache counters (all zero for an uncached simulator).
    pub fn stats(&self) -> CacheStats {
        self.cache.as_deref().map(SimCache::stats).unwrap_or_default()
    }

    /// Serializes the shared cache into a snapshot (see
    /// [`crate::snapshot`] for the format).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Uncached`] when this handle does not memoize.
    pub fn cache_snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        self.cache.as_deref().map(SimCache::to_snapshot).ok_or(SnapshotError::Uncached)
    }

    /// Warm-starts the shared cache from snapshot bytes. Preloaded
    /// entries do not touch the hit/miss counters, so subsequent runs
    /// report pure hits — exactly as if an earlier run in this process
    /// had populated the cache.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Uncached`] when this handle does not memoize;
    /// otherwise any validation error from [`SimCache::load_snapshot`]
    /// (the cache is untouched on error).
    pub fn load_cache_snapshot(&self, bytes: &[u8]) -> Result<SnapshotStats, SnapshotError> {
        let cache = self.cache.as_deref().ok_or(SnapshotError::Uncached)?;
        cache.load_snapshot(bytes)
    }

    /// Bumps the `sim.error.<kind>` counter for a surfaced error, so
    /// traced sweeps expose *what kinds* of failures their space
    /// produced. Returns the error for `map_err` chaining.
    fn note_error(&self, e: SimError) -> SimError {
        if self.tracer.is_enabled() {
            self.tracer.add_counter(&format!("sim.error.{}", e.kind()), 1);
        }
        e
    }

    /// The PE-array cycle model for one conv-shaped work under
    /// `dataflow`, validated first ([`ConvWork::validate`] is the gate
    /// that makes the unchecked arithmetic inside the WS/OS cycle models
    /// safe) and memoized by the compute key.
    pub(crate) fn compute(
        &self,
        key: &WorkKey,
        cfg: &AcceleratorConfig,
        opts: &SimOptions,
        dataflow: Dataflow,
        seen: &mut Lookups,
    ) -> SimResult<ComputePerf> {
        let work = key.work();
        let model = || {
            work.validate()?;
            Ok(match dataflow {
                Dataflow::WeightStationary => simulate_ws(work, cfg),
                Dataflow::OutputStationary => simulate_os(work, cfg, opts.os),
            })
        };
        match self.cache.as_deref() {
            Some(cache) => cache
                .compute_or(ComputeKey::new(key, cfg, opts, dataflow), model)
                .map(|l| seen.note(l)),
            None => model(),
        }
    }

    /// The DRAM-minimal tiling plan (§4.1.3) of one conv-shaped work on
    /// `cfg`'s working buffer, memoized by the plan key: the one place the
    /// simulator runs the tiling search.
    pub(crate) fn plan(
        &self,
        key: &WorkKey,
        cfg: &AcceleratorConfig,
        seen: &mut Lookups,
    ) -> SimResult<TilingPlan> {
        let search = || optimize_tiling(key.work(), cfg);
        match self.cache.as_deref() {
            Some(cache) => cache.plan_or(PlanKey::new(key, cfg), search).map(|l| seen.note(l)),
            None => search(),
        }
    }

    /// One conv-shaped work's DRAM traffic under `opts`: the searched
    /// plan's (or the closed form), then the optional weight compression.
    ///
    /// Fallible: the workload is validated first and the tiling search
    /// reports infeasible buffers as [`SimError::InfeasibleTiling`]
    /// rather than guessing.
    pub(crate) fn traffic(
        &self,
        key: &WorkKey,
        cfg: &AcceleratorConfig,
        opts: &SimOptions,
        seen: &mut Lookups,
    ) -> SimResult<DramTraffic> {
        let work = key.work();
        let raw = match opts.traffic {
            TrafficModel::ClosedForm => {
                work.validate()?;
                conv_traffic(work, cfg)?
            }
            TrafficModel::TilingSearch => self.plan(key, cfg, seen)?.traffic,
        };
        Ok(match opts.weight_compression {
            Some(c) => c.apply(
                raw,
                work.weight_elements(),
                opts.os.sparsity.zero_fraction,
                cfg.bytes_per_element() as u64,
            ),
            None => raw,
        })
    }

    /// Simulates one layer under a forced dataflow (non-PE layers always
    /// take the SIMD path, regardless of `dataflow`).
    ///
    /// # Errors
    ///
    /// Any [`SimError`], attributed to the layer by name. With an
    /// enabled tracer, a surfaced error also bumps the matching
    /// `sim.error.<kind>` counter.
    pub fn try_simulate_layer(
        &self,
        layer: &Layer,
        cfg: &AcceleratorConfig,
        opts: SimOptions,
        dataflow: Dataflow,
    ) -> SimResult<LayerPerf> {
        let mut tally = LayerTally::default();
        let work = ConvWork::from_layer(layer).map(WorkKey::new);
        let policy = DataflowPolicy::Fixed(dataflow);
        let result =
            self.simulate_layer_tallied(layer, work.as_ref(), cfg, opts, policy, &mut tally);
        tally.flush(&self.tracer, &self.cycles);
        Ok(result?.0)
    }

    /// One layer (its keyed work, `None` for a SIMD layer) under
    /// `policy`, plus a flag telling whether the result was answered
    /// from the tally's per-network dedup memo, which is consulted
    /// *before* the shared cache so duplicate layer shapes within one
    /// network resolve locally. The flag deliberately ignores
    /// shared-cache hits: whether another sweep point already populated
    /// a shared entry is a race, while the dedup outcome is a pure
    /// function of the layer sequence — so the per-layer trace stays
    /// schedule-independent. Only the chosen dataflow becomes a
    /// [`LayerPerf`]; a successful layer adds every dataflow tried to
    /// `tally`, which the caller flushes, and every cache lookup is
    /// added either way.
    fn simulate_layer_tallied(
        &self,
        layer: &Layer,
        work: Option<&WorkKey>,
        cfg: &AcceleratorConfig,
        opts: SimOptions,
        policy: DataflowPolicy,
        tally: &mut LayerTally,
    ) -> SimResult<(LayerPerf, bool)> {
        let (resolved, memoized) = match work {
            Some(work) => match tally.memo.as_mut().map(|m| m.entry(*work)) {
                Some(Entry::Occupied(e)) => (Ok(*e.get()), true),
                Some(Entry::Vacant(e)) => {
                    let resolved = self.resolve(work, cfg, &opts, policy, &mut tally.cache);
                    (resolved.map(|r| *e.insert(r)), false)
                }
                None => (self.resolve(work, cfg, &opts, policy, &mut tally.cache), false),
            },
            None => (resolve_simd(layer, cfg, policy), false),
        };
        let resolved = resolved.map_err(|e| self.note_error(e.for_layer(&layer.name)))?;
        tally.counts.add(&resolved.counts);
        Ok((resolved.parts.finish(layer, resolved.dataflow, cfg.pe_count()), memoized))
    }

    /// One conv-shaped layer under `policy`: each dataflow tried reads
    /// its compute and traffic through the cache, and the choice
    /// compares their total cycles.
    fn resolve(
        &self,
        work: &WorkKey,
        cfg: &AcceleratorConfig,
        opts: &SimOptions,
        policy: DataflowPolicy,
        seen: &mut Lookups,
    ) -> SimResult<Resolved> {
        let mut counts = Counts::default();
        let simulate = |dataflow| {
            let compute = self.compute(work, cfg, opts, dataflow, seen)?;
            let traffic = self.traffic(work, cfg, opts, seen)?;
            let parts = Parts::new(compute, traffic.total(), cfg);
            counts.add(&Counts::of(&parts));
            Ok(parts)
        };
        let (dataflow, parts) = choose_dataflow(policy, simulate, |p| p.total_cycles)?;
        Ok(Resolved { dataflow: Some(dataflow), parts, counts })
    }

    /// Simulates one layer under both dataflows and returns
    /// `(ws, os, best)` where `best` is the faster of the two — the
    /// choice the Squeezelerator's static scheduler makes ("each layer
    /// configuration must be simulated to determine which architecture is
    /// best").
    ///
    /// # Errors
    ///
    /// Any [`SimError`], attributed to the layer by name.
    pub fn try_compare_dataflows(
        &self,
        layer: &Layer,
        cfg: &AcceleratorConfig,
        opts: SimOptions,
    ) -> SimResult<(LayerPerf, LayerPerf, Dataflow)> {
        let ws = self.try_simulate_layer(layer, cfg, opts, Dataflow::WeightStationary)?;
        let os = self.try_simulate_layer(layer, cfg, opts, Dataflow::OutputStationary)?;
        let by_dataflow = |d| match d {
            Dataflow::WeightStationary => Ok(&ws),
            Dataflow::OutputStationary => Ok(&os),
        };
        let (best, _) = choose_dataflow(DataflowPolicy::PerLayer, by_dataflow, |p| p.total_cycles)?;
        Ok((ws, os, best))
    }

    /// Simulates a whole network under the given dataflow policy.
    ///
    /// With [`DataflowPolicy::PerLayer`] each layer takes whichever
    /// dataflow simulates faster (no switching overhead, per the paper);
    /// with [`DataflowPolicy::Fixed`] every layer is forced onto one
    /// dataflow — the paper's reference WS and OS architectures.
    ///
    /// # Errors
    ///
    /// The first [`SimError`] any layer surfaces, attributed to that
    /// layer by name (simulation stops at the failing layer: partial
    /// network results would not be meaningful totals).
    pub fn try_simulate_network(
        &self,
        network: &Network,
        cfg: &AcceleratorConfig,
        policy: DataflowPolicy,
        opts: SimOptions,
    ) -> SimResult<NetworkPerf> {
        // Flushed on both paths: a network that fails at layer k still
        // counts the layers simulated before it.
        let mut tally = LayerTally::default();
        let result = self.simulate_network_tallied(network, cfg, policy, opts, &mut tally);
        tally.flush(&self.tracer, &self.cycles);
        result
    }

    /// [`Simulator::try_simulate_network`], adding every simulated
    /// layer to `tally` instead of the tracer.
    fn simulate_network_tallied(
        &self,
        network: &Network,
        cfg: &AcceleratorConfig,
        policy: DataflowPolicy,
        opts: SimOptions,
        tally: &mut LayerTally,
    ) -> SimResult<NetworkPerf> {
        let n = network.layers().len();
        let mut dedup_hits = Vec::with_capacity(n);
        let mut layers = Vec::with_capacity(n);
        // Per-network dedup memo: repeated layer shapes (fire modules,
        // depthwise blocks) resolve locally without touching the shared
        // cache again. It holds at most one entry per compute layer.
        tally.memo = Some(LayerMemo::with_capacity_and_hasher(
            network.compute_layers().count(),
            Default::default(),
        ));
        for layer in network.layers() {
            // One key per layer serves both dataflows.
            let work = ConvWork::from_layer(layer).map(WorkKey::new);
            let (perf, hit) =
                self.simulate_layer_tallied(layer, work.as_ref(), cfg, opts, policy, tally)?;
            dedup_hits.push(hit);
            layers.push(perf);
        }
        let perf = NetworkPerf { name: network.name().to_owned(), layers };
        self.record_network(network, &perf, cfg, policy, Some(&dedup_hits));
        Ok(perf)
    }

    /// Publishes one track of per-layer spans for a network result —
    /// the engine's inline recording, and the post-hoc recording of the
    /// batched and multi-core models (which pass no dedup flags). No-op
    /// unless the tracer records spans.
    pub(crate) fn record_network(
        &self,
        network: &Network,
        perf: &NetworkPerf,
        cfg: &AcceleratorConfig,
        policy: DataflowPolicy,
        dedup_hits: Option<&[bool]>,
    ) {
        let tracer = &self.tracer;
        if !tracer.records_spans() {
            return;
        }
        let mut track = tracer.track(format!("sim:{}:{}", network.name(), policy_tag(policy)));
        track.open(network.name(), Category::Network);
        for (i, (layer, l)) in network.layers().iter().zip(&perf.layers).enumerate() {
            let mut counters = vec![
                ("macs", l.compute.executed_macs),
                ("cycles.load", l.compute.phases.load),
                ("cycles.compute", l.compute.phases.compute),
                ("cycles.drain", l.compute.phases.drain),
                ("dram.bytes", l.dram_bytes),
                ("dram.cycles", l.dram_cycles),
                ("buffer.bytes", layer_buffer_occupancy(layer, cfg)),
            ];
            if let Some(&hit) = dedup_hits.and_then(|h| h.get(i)) {
                counters.push(("dedup.hit", hit as u64));
            }
            track.leaf(&l.name, Category::Layer, l.total_cycles, &counters);
        }
        track.close_with(&[("total_cycles", perf.total_cycles())]);
    }
}

/// A SIMD layer under `policy`: it has no dataflow, so it runs once,
/// and counts once per dataflow the policy tries.
fn resolve_simd(
    layer: &Layer,
    cfg: &AcceleratorConfig,
    policy: DataflowPolicy,
) -> SimResult<Resolved> {
    let compute = simulate_simd(layer, cfg)?;
    let traffic = simd_traffic(layer.input.elements() as u64, layer.output.elements() as u64, cfg);
    let parts = Parts::new(compute, traffic.total(), cfg);
    let tries = match policy {
        DataflowPolicy::PerLayer => 2,
        DataflowPolicy::Fixed(_) => 1,
    };
    let mut counts = Counts::default();
    for _ in 0..tries {
        counts.add(&Counts::of(&parts));
    }
    Ok(Resolved { dataflow: None, parts, counts })
}

fn policy_tag(policy: DataflowPolicy) -> &'static str {
    match policy {
        DataflowPolicy::PerLayer => "hybrid",
        DataflowPolicy::Fixed(Dataflow::WeightStationary) => "ws",
        DataflowPolicy::Fixed(Dataflow::OutputStationary) => "os",
    }
}

/// Global-buffer bytes a layer occupies: its full operand footprint,
/// capped at the buffer capacity (larger layers stream through tiles).
fn layer_buffer_occupancy(layer: &Layer, cfg: &AcceleratorConfig) -> u64 {
    let weights = ConvWork::from_layer(layer).map(|w| w.weight_elements()).unwrap_or(0);
    let elements = layer.input.elements() as u64 + layer.output.elements() as u64 + weights;
    (elements * cfg.bytes_per_element() as u64).min(cfg.global_buffer_bytes() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::{zoo, NetworkBuilder, Shape};

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::paper_default()
    }

    fn simulate_network(
        net: &Network,
        cfg: &AcceleratorConfig,
        policy: DataflowPolicy,
        opts: SimOptions,
    ) -> NetworkPerf {
        Simulator::new().try_simulate_network(net, cfg, policy, opts).unwrap()
    }

    fn compare_dataflows(
        layer: &Layer,
        cfg: &AcceleratorConfig,
        opts: SimOptions,
    ) -> (LayerPerf, LayerPerf, Dataflow) {
        Simulator::new().try_compare_dataflows(layer, cfg, opts).unwrap()
    }

    #[test]
    fn default_is_the_cached_handle() {
        // A second run answers every lookup from a memoizing handle's
        // cache; an uncached handle never consults one.
        let net = zoo::squeezenet_v1_1();
        let opts = SimOptions::paper_default();
        for sim in [Simulator::default(), Simulator::new()] {
            sim.try_simulate_network(&net, &cfg(), DataflowPolicy::PerLayer, opts).unwrap();
            let cold = sim.stats();
            sim.try_simulate_network(&net, &cfg(), DataflowPolicy::PerLayer, opts).unwrap();
            let warm = sim.stats();
            assert!(cold.misses > 0, "{cold}");
            assert_eq!(warm.misses, cold.misses, "{warm}");
            assert!(warm.hits > cold.hits, "{warm}");
        }
        let uncached = Simulator::uncached();
        uncached.try_simulate_network(&net, &cfg(), DataflowPolicy::PerLayer, opts).unwrap();
        assert_eq!(uncached.stats(), CacheStats::default());
        assert_eq!(uncached.stats().hit_rate(), 0.0, "no lookups, no hit rate");
    }

    #[test]
    fn hybrid_never_slower_than_fixed_per_layer() {
        let net = zoo::squeezenet_v1_1();
        let opts = SimOptions::paper_default();
        let hybrid = simulate_network(&net, &cfg(), DataflowPolicy::PerLayer, opts);
        let ws =
            simulate_network(&net, &cfg(), DataflowPolicy::Fixed(Dataflow::WeightStationary), opts);
        let os =
            simulate_network(&net, &cfg(), DataflowPolicy::Fixed(Dataflow::OutputStationary), opts);
        for ((h, w), o) in hybrid.layers.iter().zip(&ws.layers).zip(&os.layers) {
            assert!(h.total_cycles <= w.total_cycles, "{}", h.name);
            assert!(h.total_cycles <= o.total_cycles, "{}", h.name);
        }
        assert!(hybrid.total_cycles() <= ws.total_cycles().min(os.total_cycles()));
    }

    #[test]
    fn pointwise_prefers_ws_and_first_conv_prefers_os() {
        let net = NetworkBuilder::new("t", Shape::new(3, 227, 227))
            .conv("conv1", 96, 7, 2, 0)
            .max_pool("pool1", 3, 2)
            .pointwise_conv("pw", 64)
            .finish()
            .unwrap();
        let opts = SimOptions::paper_default();
        let (_, _, best1) = compare_dataflows(net.layer("conv1").unwrap(), &cfg(), opts);
        assert_eq!(best1, Dataflow::OutputStationary);
        let (_, _, best2) = compare_dataflows(net.layer("pw").unwrap(), &cfg(), opts);
        assert_eq!(best2, Dataflow::WeightStationary);
    }

    #[test]
    fn depthwise_strongly_prefers_os() {
        let net = NetworkBuilder::new("t", Shape::new(256, 28, 28))
            .conv("warmup", 256, 1, 1, 0) // make dw not the first conv
            .depthwise_conv("dw", 3, 1, 1)
            .finish()
            .unwrap();
        let (ws, os, best) =
            compare_dataflows(net.layer("dw").unwrap(), &cfg(), SimOptions::paper_default());
        assert_eq!(best, Dataflow::OutputStationary);
        let speedup = ws.total_cycles as f64 / os.total_cycles as f64;
        assert!(speedup > 5.0, "OS should crush WS on depthwise, got {speedup:.1}x");
    }

    #[test]
    fn non_pe_layers_have_no_dataflow() {
        let net = NetworkBuilder::new("t", Shape::new(4, 16, 16))
            .conv("c", 4, 3, 1, 1)
            .max_pool("p", 2, 2)
            .finish()
            .unwrap();
        let perf = simulate_network(&net, &cfg(), DataflowPolicy::PerLayer, SimOptions::default());
        assert!(perf.layer("c").unwrap().dataflow.is_some());
        assert!(perf.layer("p").unwrap().dataflow.is_none());
    }

    #[test]
    fn dram_accounted_in_totals() {
        let net =
            NetworkBuilder::new("t", Shape::new(4, 16, 16)).conv("c", 4, 3, 1, 1).finish().unwrap();
        let perf = simulate_network(&net, &cfg(), DataflowPolicy::PerLayer, SimOptions::default());
        let l = &perf.layers[0];
        assert!(l.dram_bytes > 0);
        assert!(l.total_cycles >= l.compute.cycles());
        assert!(l.compute.accesses.dram > 0);
    }

    #[test]
    fn tracing_records_layers_without_changing_results() {
        let net = zoo::squeezenet_v1_1();
        let opts = SimOptions::paper_default();
        let tracer = Tracer::enabled();
        let traced = Simulator::new().with_tracer(tracer.clone());
        let a = traced.try_simulate_network(&net, &cfg(), DataflowPolicy::PerLayer, opts).unwrap();
        let b = simulate_network(&net, &cfg(), DataflowPolicy::PerLayer, opts);
        assert_eq!(a, b, "tracing must not perturb simulation results");

        let data = tracer.snapshot();
        assert_eq!(data.tracks.len(), 1);
        let track = &data.tracks[0];
        assert!(track.name.starts_with("sim:") && track.name.ends_with(":hybrid"));
        track.check_nesting().expect("network/layer spans nest");
        // One network span plus one leaf per layer, tiling the timeline.
        assert_eq!(track.spans.len(), net.layers().len() + 1);
        assert_eq!(track.spans[0].counter("total_cycles"), Some(a.total_cycles()));
        assert_eq!(track.extent(), a.total_cycles());
        let span_macs: u64 = track.spans[1..].iter().filter_map(|s| s.counter("macs")).sum();
        assert_eq!(span_macs, a.total_macs());
        // Global counters: PerLayer simulates every layer twice (WS + OS),
        // and the cache pair accounts for every actual lookup.
        assert_eq!(data.counter("sim.layer_sims"), Some(2 * net.layers().len() as u64));
        let lookups = data.counter("sim.cache.hits").unwrap_or(0)
            + data.counter("sim.cache.misses").unwrap_or(0);
        assert_eq!(lookups, traced.stats().lookups());
        // Every layer span carries a dedup-hit flag, and the repeated
        // fire-module shapes make at least one of them a hit.
        assert!(track.spans[1..].iter().all(|s| s.counter("dedup.hit").is_some()));
        assert!(track.spans[1..].iter().any(|s| s.counter("dedup.hit") == Some(1)));
    }

    #[test]
    fn a_failing_layer_still_counts_the_layers_before_it() {
        // The counter batch is flushed on the error path too: a network
        // that fails at layer k reports exactly what its first k layers
        // report on their own.
        let cfg = cfg();
        // One input row of this width fits the working buffer next to its
        // output row; the three rows a 3x3 kernel needs do not.
        let width = cfg.working_buffer_bytes() / cfg.bytes_per_element() / 3;
        let net = |with_wide_layer: bool| {
            let mut b = NetworkBuilder::new("t", Shape::new(1, 4, width));
            b.conv("fits", 1, 1, 1, 0);
            if with_wide_layer {
                b.conv("too_wide", 1, 3, 1, 1);
            }
            b.finish().unwrap()
        };
        let opts = SimOptions::paper_default();
        let run = |net: &Network| {
            let tracer = Tracer::counters_only();
            let sim = Simulator::new().with_tracer(tracer.clone());
            let result = sim.try_simulate_network(net, &cfg, DataflowPolicy::PerLayer, opts);
            let data = tracer.snapshot();
            assert!(data.tracks.is_empty(), "a counters-only tracer records no spans");
            (result, ["sim.layer_sims", "sim.macs", "sim.dram.bytes"].map(|n| data.counter(n)))
        };
        let (prefix, want) = run(&net(false));
        prefix.expect("the prefix simulates");
        assert_eq!(want[0], Some(2), "one layer under both dataflows");
        assert!(want.iter().all(|c| c.is_some_and(|v| v > 0)), "{want:?}");
        let (full, got) = run(&net(true));
        assert_eq!(full.unwrap_err().layer(), Some("too_wide"));
        assert_eq!(got, want);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let net = zoo::squeezenet_v1_1();
        let sim = Simulator::new();
        assert!(!sim.tracer().is_enabled());
        sim.try_simulate_network(
            &net,
            &cfg(),
            DataflowPolicy::PerLayer,
            SimOptions::paper_default(),
        )
        .unwrap();
        assert!(sim.tracer().snapshot().tracks.is_empty());
    }

    #[test]
    fn fc_layer_is_weight_movement_bound() {
        // Batch-1 FC reuses nothing: the 16.8 M weights must all move
        // through DRAM and the preload port, so the layer is
        // weight-movement bound and PE utilization is negligible —
        // "the fully-connected layers ... cannot take advantage of
        // hardware acceleration by either dataflow architecture".
        let net = NetworkBuilder::new("t", Shape::new(4096, 1, 1))
            .fully_connected("fc", 4096)
            .finish()
            .unwrap();
        let l = Simulator::new()
            .try_simulate_layer(
                net.layer("fc").unwrap(),
                &cfg(),
                SimOptions::default(),
                Dataflow::WeightStationary,
            )
            .unwrap();
        // Preload (weight loading) dominates streaming by far.
        assert!(l.compute.phases.load > 10 * l.compute.phases.compute);
        // DRAM traffic is the full weight matrix.
        assert!(l.dram_bytes >= 4096 * 4096 * 2);
        assert!(l.utilization < 0.05, "util = {}", l.utilization);
        assert_eq!(l.total_cycles, l.compute.cycles().max(l.dram_cycles) + 100);
    }

    #[test]
    fn fc_only_network_simulates_on_the_pe_path() {
        // Regression for the old `expect("non-conv layers take the SIMD
        // path")` routing: a network of nothing but FC layers must
        // simulate fine under every policy (FC work goes to the PE array,
        // not the SIMD unit).
        let net = NetworkBuilder::new("fc-only", Shape::new(256, 1, 1))
            .fully_connected("fc1", 128)
            .fully_connected("fc2", 10)
            .finish()
            .unwrap();
        let opts = SimOptions::paper_default();
        for policy in [
            DataflowPolicy::PerLayer,
            DataflowPolicy::Fixed(Dataflow::WeightStationary),
            DataflowPolicy::Fixed(Dataflow::OutputStationary),
        ] {
            let perf = Simulator::new().try_simulate_network(&net, &cfg(), policy, opts).unwrap();
            assert_eq!(perf.layers.len(), 2);
            assert!(perf.total_cycles() > 0);
            assert!(perf.layers.iter().all(|l| l.dataflow.is_some()));
        }
    }

    #[test]
    fn forks_read_one_shared_cache() {
        // Serve answers every request on a fork of one simulator and
        // reports the root handle's `stats()`. Forks share one cache, and
        // each fork's `stats()` reads that whole shared cache, so any one
        // handle gives the server-wide picture; summing them would
        // multiply every counter by the fork count.
        let net = zoo::squeezenet_v1_1();
        let opts = SimOptions::paper_default();
        let base = Simulator::new();
        let fork_a = base.fork_counter();
        let fork_b = base.fork_counter();
        fork_a.try_simulate_network(&net, &cfg(), DataflowPolicy::PerLayer, opts).unwrap();
        fork_b
            .try_simulate_network(
                &net,
                &cfg(),
                DataflowPolicy::Fixed(Dataflow::WeightStationary),
                opts,
            )
            .unwrap();

        let shared = base.stats();
        assert!(shared.hits > 0 && shared.misses > 0, "{shared}");
        assert_eq!(fork_a.stats(), shared, "every fork reads the same shared cache");
        assert_eq!(fork_b.stats(), shared);

        let other = Simulator::new();
        other.try_simulate_network(&net, &cfg(), DataflowPolicy::PerLayer, opts).unwrap();
        assert!(other.stats().misses > 0, "an independent simulator starts cold");

        // Forks share entries and an independent simulator does not:
        // other's run left the shared counters alone, and base answers
        // what fork_a simulated without a miss.
        assert_eq!(base.stats(), shared, "{}", base.stats());
        base.try_simulate_network(&net, &cfg(), DataflowPolicy::PerLayer, opts).unwrap();
        let rerun = base.stats();
        assert_eq!((rerun.misses, rerun.entries), (shared.misses, shared.entries), "{rerun}");
        assert!(rerun.hits > shared.hits, "{rerun}");
        // Uncached handles are inert.
        assert_eq!(Simulator::uncached().stats(), CacheStats::default());
    }

    #[test]
    fn degenerate_layer_surfaces_named_error_and_counter() {
        // A 1x1 input under a 7x7 kernel is infeasible; the error names
        // the layer and the traced run bumps `sim.error.invalid_workload`.
        use codesign_dnn::{ConvSpec, Kernel, Layer, LayerOp};
        let layer = Layer {
            name: "bad7x7".into(),
            op: LayerOp::Conv(ConvSpec {
                out_channels: 4,
                kernel: Kernel::square(7),
                stride: 1,
                pad_h: 0,
                pad_w: 0,
                groups: 1,
            }),
            input: Shape::new(4, 1, 1),
            output: Shape::new(4, 1, 1),
            is_first_conv: false,
            primary_input: None,
            extra_input: None,
        };
        let tracer = Tracer::enabled();
        let sim = Simulator::new().with_tracer(tracer.clone());
        let err = sim
            .try_simulate_layer(
                &layer,
                &cfg(),
                SimOptions::paper_default(),
                Dataflow::WeightStationary,
            )
            .unwrap_err();
        assert_eq!(err.layer(), Some("bad7x7"));
        assert!(matches!(err, crate::error::SimError::InvalidWorkload { .. }), "{err}");
        assert_eq!(tracer.snapshot().counter("sim.error.invalid_workload"), Some(1));
    }
}
