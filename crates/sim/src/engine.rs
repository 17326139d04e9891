//! The layer- and network-level simulation driver: runs each layer under
//! a dataflow policy, folds in DRAM timing, and assembles whole-network
//! results.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use codesign_arch::{AcceleratorConfig, Dataflow, DataflowPolicy};
use codesign_dnn::{Layer, Network};
use codesign_trace::{Category, Tracer};

use crate::cache::{CacheStats, ComputeKey, SimCache, TrafficKey};
use crate::compression::WeightCompression;
use crate::dram::{combine_cycles, conv_traffic, simd_traffic};
use crate::error::{SimError, SimResult};
use crate::os::{simulate_os, OsModelOptions};
use crate::perf::{ComputePerf, LayerPerf, NetworkPerf};
use crate::simd::simulate_simd;
use crate::snapshot::{SnapshotError, SnapshotStats};
use crate::tiling::optimize_tiling;
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

    /// The layer's DRAM traffic under these options.
    ///
    /// Fallible: the workload is validated first ([`ConvWork::validate`])
    /// and the tiling search reports infeasible buffers as
    /// [`SimError::InfeasibleTiling`] rather than guessing.
    pub(crate) fn layer_traffic(
        &self,
        work: &ConvWork,
        cfg: &AcceleratorConfig,
    ) -> SimResult<crate::dram::DramTraffic> {
        let raw = match self.traffic {
            TrafficModel::ClosedForm => {
                work.validate()?;
                conv_traffic(work, cfg)
            }
            TrafficModel::TilingSearch => optimize_tiling(work, cfg)?.traffic,
        };
        Ok(self.finish_traffic(raw, work, cfg))
    }

    /// Applies the optional weight compression to already-derived raw
    /// traffic. Lets consumers that have run the tiling search themselves
    /// (e.g. the event model's tile lowering) reuse its traffic without a
    /// second search.
    pub(crate) fn finish_traffic(
        &self,
        raw: crate::dram::DramTraffic,
        work: &ConvWork,
        cfg: &AcceleratorConfig,
    ) -> crate::dram::DramTraffic {
        match self.weight_compression {
            Some(c) => c.apply(
                raw,
                work.weight_elements(),
                self.os.sparsity.zero_fraction,
                cfg.bytes_per_element() as u64,
            ),
            None => raw,
        }
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Runs one convolution-shaped workload under a specific dataflow,
/// validating it first.
///
/// # Errors
///
/// [`SimError::InvalidWorkload`] / [`SimError::ArithmeticOverflow`] when
/// the workload fails [`ConvWork::validate`] — the gate that makes the
/// unchecked arithmetic inside the WS/OS cycle models safe.
pub fn try_simulate_conv(
    work: &ConvWork,
    cfg: &AcceleratorConfig,
    opts: SimOptions,
    dataflow: Dataflow,
) -> SimResult<ComputePerf> {
    work.validate()?;
    Ok(match dataflow {
        Dataflow::WeightStationary => simulate_ws(work, cfg),
        Dataflow::OutputStationary => simulate_os(work, cfg, opts.os),
    })
}

/// Runs one convolution-shaped workload under a specific dataflow.
/// Infallible wrapper over [`try_simulate_conv`]; panics (through the
/// crate's single panic site) on a degenerate workload.
pub fn simulate_conv(
    work: &ConvWork,
    cfg: &AcceleratorConfig,
    opts: SimOptions,
    dataflow: Dataflow,
) -> ComputePerf {
    try_simulate_conv(work, cfg, opts, dataflow).unwrap_or_else(|e| e.raise())
}

/// Assembles a [`LayerPerf`] from the array's work and the layer's DRAM
/// bytes: DMA cycles, the double-buffering combine, DRAM access counts
/// and utilization over `pes` processing elements. Every network model
/// (engine, batch, multi-core) builds its per-layer results here.
pub(crate) fn finish_layer(
    layer: &Layer,
    dataflow: Option<Dataflow>,
    mut compute: ComputePerf,
    dram_bytes: u64,
    cfg: &AcceleratorConfig,
    pes: usize,
) -> LayerPerf {
    let dram_cycles = cfg.dram().transfer_cycles(dram_bytes);
    let total_cycles = combine_cycles(compute.cycles(), dram_cycles, cfg);
    compute.accesses.dram += dram_bytes / cfg.bytes_per_element() as u64;
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

/// Per-network deduplication memo: structurally identical layers (the
/// repeated fire/bottleneck blocks of SqueezeNet, SqueezeNext, and
/// MobileNet) map to the same `(ConvWork, Dataflow)` key, so each unique
/// layer shape is resolved once per network simulation — duplicates are
/// answered locally without even consulting the shared cache.
type LayerMemo = HashMap<(ConvWork, Dataflow), (ComputePerf, u64)>;

/// The global `sim.*` counters one simulation call accumulates locally
/// and flushes to the tracer once, so a whole network costs one batch
/// of counter updates rather than several per layer.
#[derive(Default)]
struct LayerTally {
    layer_sims: u64,
    dram_bytes: u64,
    macs: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_contended: u64,
}

impl LayerTally {
    /// Adds the tally to the tracer's global counters. The cache.*
    /// triple is schedule-dependent under parallel misses and lock
    /// timing (see the [`SimCache`] docs) and is only created when
    /// non-zero; everything else is a pure function of the work
    /// simulated.
    fn flush(&self, tracer: &Tracer) {
        if !tracer.is_enabled() || self.layer_sims == 0 {
            return;
        }
        tracer.add_counter("sim.layer_sims", self.layer_sims);
        tracer.add_counter("sim.dram.bytes", self.dram_bytes);
        tracer.add_counter("sim.macs", self.macs);
        for (name, value) in [
            ("sim.cache.hits", self.cache_hits),
            ("sim.cache.misses", self.cache_misses),
            ("sim.cache.contended", self.cache_contended),
        ] {
            if value > 0 {
                tracer.add_counter(name, value);
            }
        }
    }
}

/// The memoizable part of one conv-shaped layer simulation: PE-array
/// work plus the DRAM traffic byte count (the layer name is re-attached
/// by the caller).
fn conv_layer_parts(
    work: &ConvWork,
    cfg: &AcceleratorConfig,
    opts: SimOptions,
    dataflow: Dataflow,
) -> SimResult<(ComputePerf, u64)> {
    let compute = try_simulate_conv(work, cfg, opts, dataflow)?;
    let traffic = opts.layer_traffic(work, cfg)?;
    Ok((compute, traffic.total()))
}

/// A simulation engine handle: the entry point every higher layer
/// (`codesign-core`'s DSE/co-design loops, the bench report, the CLI)
/// routes per-layer simulation through.
///
/// A `Simulator` optionally carries a shared, thread-safe, sharded
/// [`SimCache`] memoizing the cycle model and the DRAM traffic
/// derivation separately, each keyed by exactly the inputs that
/// influence it (see [`crate::cache`] for the keying) — one tiling
/// search serves both dataflows and every configuration sharing a
/// buffer size. On top of that, every network simulation deduplicates
/// structurally identical layers up front, so repeated fire/bottleneck
/// blocks resolve once per run. Cloning is cheap and shares the cache,
/// so one handle can fan out across the parallel sweep workers in
/// `codesign-core::dse`. Cached and uncached runs are bit-identical —
/// the cache only skips recomputation of deterministic functions.
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
/// let perf = sim.simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts);
/// assert!(perf.total_cycles() > 0);
/// // Traffic entries are dataflow-independent, so each unique layer's
/// // OS pass hit the entry its WS pass created.
/// assert!(sim.stats().hits > 0);
/// ```
///
/// A `Simulator` also carries a [`Tracer`] (disabled by default, so
/// tracing costs nothing unless requested). With an enabled tracer every
/// [`Simulator::simulate_network`] call publishes one track of per-layer
/// spans — duration in simulated cycles, with MACs, DRAM bytes/cycles,
/// phase breakdown, buffer occupancy, and cache-hit counters attached —
/// plus global `sim.*` counters, added once per call. A
/// [`Tracer::counters_only`] tracer keeps the counters and skips the
/// spans. Tracing never changes simulation results: the instrumented
/// paths only *observe* values that are computed anyway.
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    cache: Option<Arc<SimCache>>,
    tracer: Tracer,
    cycles: Arc<AtomicU64>,
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
    /// plain clones): the sum of `total_cycles` over every per-layer
    /// result returned, whether computed or answered from a memo.
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

    /// Whether this handle memoizes.
    pub fn is_cached(&self) -> bool {
        self.cache.is_some()
    }

    /// Cache counters (all zero for an uncached simulator).
    pub fn stats(&self) -> CacheStats {
        self.cache.as_deref().map(SimCache::stats).unwrap_or_default()
    }

    /// Drops all cached entries and resets the counters.
    pub fn clear_cache(&self) {
        if let Some(cache) = self.cache.as_deref() {
            cache.clear();
        }
    }

    /// Whether this handle and `other` memoize through the same shared
    /// [`SimCache`] — true for clones and [`Simulator::fork_counter`]
    /// forks of one another, false for independently-built simulators
    /// (and for any uncached handle).
    pub fn shares_cache_with(&self, other: &Simulator) -> bool {
        match (&self.cache, &other.cache) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
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
        let result = self.try_simulate_layer_flagged(layer, cfg, opts, dataflow, None, &mut tally);
        tally.flush(&self.tracer);
        Ok(result?.0)
    }

    /// Simulates one layer under a forced dataflow (non-PE layers always
    /// take the SIMD path, regardless of `dataflow`). Infallible wrapper
    /// over [`Simulator::try_simulate_layer`].
    pub fn simulate_layer(
        &self,
        layer: &Layer,
        cfg: &AcceleratorConfig,
        opts: SimOptions,
        dataflow: Dataflow,
    ) -> LayerPerf {
        self.try_simulate_layer(layer, cfg, opts, dataflow).unwrap_or_else(|e| e.raise())
    }

    /// [`Simulator::try_simulate_layer`] plus a flag telling whether the
    /// result was answered from the per-network dedup memo, and an
    /// optional [`LayerMemo`] consulted *before* the shared cache so
    /// duplicate layer shapes within one network resolve locally. The
    /// flag deliberately ignores shared-cache hits: whether another sweep
    /// point already populated a shared entry is a race, while the dedup
    /// outcome is a pure function of the layer sequence — so the
    /// per-layer trace stays schedule-independent. A successful layer
    /// adds itself to `tally`, which the caller flushes.
    fn try_simulate_layer_flagged(
        &self,
        layer: &Layer,
        cfg: &AcceleratorConfig,
        opts: SimOptions,
        dataflow: Dataflow,
        memo: Option<&mut LayerMemo>,
        tally: &mut LayerTally,
    ) -> SimResult<(LayerPerf, bool)> {
        // Shared-cache consultation outcomes: memo answers and uncached
        // recomputes consult nothing and report (0, 0, 0).
        let mut sub_hits = 0u64;
        let mut sub_misses = 0u64;
        let mut sub_contended = 0u64;
        let result = match ConvWork::from_layer(layer) {
            Some(work) => {
                let memoized = memo.as_ref().and_then(|m| m.get(&(work, dataflow)).copied());
                let parts: SimResult<(ComputePerf, u64)> = match memoized {
                    Some(parts) => Ok(parts),
                    None => match self.cache.as_deref() {
                        Some(cache) => cache
                            .compute_or(ComputeKey::new(&work, cfg, &opts, dataflow), || {
                                try_simulate_conv(&work, cfg, opts, dataflow)
                            })
                            .and_then(|compute| {
                                sub_hits += compute.hit as u64;
                                sub_misses += !compute.hit as u64;
                                sub_contended += compute.contended;
                                let traffic = cache
                                    .traffic_or(TrafficKey::new(&work, cfg, &opts), || {
                                        opts.layer_traffic(&work, cfg).map(|t| t.total())
                                    })?;
                                sub_hits += traffic.hit as u64;
                                sub_misses += !traffic.hit as u64;
                                sub_contended += traffic.contended;
                                Ok((compute.value, traffic.value))
                            }),
                        None => conv_layer_parts(&work, cfg, opts, dataflow),
                    },
                };
                parts.map(|(compute, dram_bytes)| {
                    if let Some(m) = memo {
                        m.insert((work, dataflow), (compute, dram_bytes));
                    }
                    let pes = cfg.pe_count();
                    let perf = finish_layer(layer, Some(dataflow), compute, dram_bytes, cfg, pes);
                    (perf, memoized.is_some())
                })
            }
            None => simulate_simd(layer, cfg).map(|compute| {
                let traffic = simd_traffic(
                    layer.input.elements() as u64,
                    layer.output.elements() as u64,
                    cfg,
                );
                (finish_layer(layer, None, compute, traffic.total(), cfg, cfg.pe_count()), false)
            }),
        };
        let (perf, answered) = result.map_err(|e| self.note_error(e.for_layer(&layer.name)))?;
        self.cycles.fetch_add(perf.total_cycles, Ordering::Relaxed);
        tally.layer_sims += 1;
        tally.dram_bytes += perf.dram_bytes;
        tally.macs += perf.compute.executed_macs;
        tally.cache_hits += sub_hits;
        tally.cache_misses += sub_misses;
        tally.cache_contended += sub_contended;
        Ok((perf, answered))
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

    /// Simulates one layer under both dataflows and returns
    /// `(ws, os, best)`. Infallible wrapper over
    /// [`Simulator::try_compare_dataflows`].
    pub fn compare_dataflows(
        &self,
        layer: &Layer,
        cfg: &AcceleratorConfig,
        opts: SimOptions,
    ) -> (LayerPerf, LayerPerf, Dataflow) {
        self.try_compare_dataflows(layer, cfg, opts).unwrap_or_else(|e| e.raise())
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
        tally.flush(&self.tracer);
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
        let mut dedup_hits = Vec::new();
        let mut layers = Vec::with_capacity(network.layers().len());
        // Per-network dedup memo: repeated layer shapes (fire modules,
        // depthwise blocks) resolve locally without touching the shared
        // cache again.
        let mut memo = LayerMemo::new();
        for layer in network.layers() {
            let (_, (perf, hit)) = choose_dataflow(
                policy,
                |d| self.try_simulate_layer_flagged(layer, cfg, opts, d, Some(&mut memo), tally),
                |(perf, _)| perf.total_cycles,
            )?;
            dedup_hits.push(hit);
            layers.push(perf);
        }
        let perf = NetworkPerf { name: network.name().to_owned(), layers };
        if self.tracer.records_spans() {
            record_network_impl(&self.tracer, network, &perf, cfg, policy, Some(&dedup_hits));
        }
        Ok(perf)
    }

    /// Simulates a whole network under the given dataflow policy.
    /// Infallible wrapper over [`Simulator::try_simulate_network`].
    pub fn simulate_network(
        &self,
        network: &Network,
        cfg: &AcceleratorConfig,
        policy: DataflowPolicy,
        opts: SimOptions,
    ) -> NetworkPerf {
        self.try_simulate_network(network, cfg, policy, opts).unwrap_or_else(|e| e.raise())
    }
}

/// Aggregates cache counters across simulator handles *without double
/// counting*: handles that share one [`SimCache`] (clones and
/// [`Simulator::fork_counter`] forks) contribute that cache's counters
/// exactly once, because the counters live on the shared cache — each
/// fork's `stats()` already reports the whole cache, not a per-fork
/// share. Summing `stats()` over forks would multiply hits, misses, and
/// contention by the fork count; this dedups by cache identity instead.
///
/// Uncached handles contribute nothing. The result is what a serve-mode
/// metrics endpoint should report for a set of per-request forks.
pub fn aggregate_cache_stats<'a>(sims: impl IntoIterator<Item = &'a Simulator>) -> CacheStats {
    let mut seen: Vec<*const SimCache> = Vec::new();
    let mut total = CacheStats::default();
    for sim in sims {
        if let Some(cache) = sim.cache.as_deref() {
            let ptr: *const SimCache = cache;
            if seen.contains(&ptr) {
                continue;
            }
            seen.push(ptr);
            let s = cache.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.entries += s.entries;
            total.contended += s.contended;
        }
    }
    total
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

fn record_network_impl(
    tracer: &Tracer,
    network: &Network,
    perf: &NetworkPerf,
    cfg: &AcceleratorConfig,
    policy: DataflowPolicy,
    dedup_hits: Option<&[bool]>,
) {
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

/// Publishes one track of per-layer spans for an already-computed
/// network result — the post-hoc twin of the recording
/// [`Simulator::simulate_network`] does inline, for callers that obtained
/// a [`NetworkPerf`] through another path (batched or multi-core runs).
/// No-op on a disabled tracer.
pub fn record_network(
    tracer: &Tracer,
    network: &Network,
    perf: &NetworkPerf,
    cfg: &AcceleratorConfig,
    policy: DataflowPolicy,
) {
    record_network_impl(tracer, network, perf, cfg, policy, None);
}

/// Simulates one layer under a forced dataflow (non-PE layers always take
/// the SIMD path, regardless of `dataflow`). Uncached convenience wrapper
/// over [`Simulator::simulate_layer`].
pub fn simulate_layer(
    layer: &Layer,
    cfg: &AcceleratorConfig,
    opts: SimOptions,
    dataflow: Dataflow,
) -> LayerPerf {
    Simulator::uncached().simulate_layer(layer, cfg, opts, dataflow)
}

/// Fallible twin of [`simulate_layer`].
///
/// # Errors
///
/// Any [`SimError`], attributed to the layer by name.
pub fn try_simulate_layer(
    layer: &Layer,
    cfg: &AcceleratorConfig,
    opts: SimOptions,
    dataflow: Dataflow,
) -> SimResult<LayerPerf> {
    Simulator::uncached().try_simulate_layer(layer, cfg, opts, dataflow)
}

/// Simulates one layer under both dataflows and returns `(ws, os, best)`.
/// Uncached convenience wrapper over [`Simulator::compare_dataflows`].
pub fn compare_dataflows(
    layer: &Layer,
    cfg: &AcceleratorConfig,
    opts: SimOptions,
) -> (LayerPerf, LayerPerf, Dataflow) {
    Simulator::uncached().compare_dataflows(layer, cfg, opts)
}

/// Fallible twin of [`compare_dataflows`].
///
/// # Errors
///
/// Any [`SimError`], attributed to the layer by name.
pub fn try_compare_dataflows(
    layer: &Layer,
    cfg: &AcceleratorConfig,
    opts: SimOptions,
) -> SimResult<(LayerPerf, LayerPerf, Dataflow)> {
    Simulator::uncached().try_compare_dataflows(layer, cfg, opts)
}

/// Simulates a whole network under the given dataflow policy, routing
/// through a transient memoizing [`Simulator`] so repeated layer shapes
/// (e.g. SqueezeNet's fire modules) simulate once per dataflow.
pub fn simulate_network(
    network: &Network,
    cfg: &AcceleratorConfig,
    policy: DataflowPolicy,
    opts: SimOptions,
) -> NetworkPerf {
    Simulator::new().simulate_network(network, cfg, policy, opts)
}

/// Fallible twin of [`simulate_network`].
///
/// # Errors
///
/// The first [`SimError`] any layer surfaces, attributed to that layer.
pub fn try_simulate_network(
    network: &Network,
    cfg: &AcceleratorConfig,
    policy: DataflowPolicy,
    opts: SimOptions,
) -> SimResult<NetworkPerf> {
    Simulator::new().try_simulate_network(network, cfg, policy, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::{zoo, NetworkBuilder, Shape};

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::paper_default()
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
        let a = traced.simulate_network(&net, &cfg(), DataflowPolicy::PerLayer, opts);
        let b = Simulator::new().simulate_network(&net, &cfg(), DataflowPolicy::PerLayer, opts);
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
        sim.simulate_network(&net, &cfg(), DataflowPolicy::PerLayer, SimOptions::paper_default());
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
        let l = simulate_layer(
            net.layer("fc").unwrap(),
            &cfg(),
            SimOptions::default(),
            Dataflow::WeightStationary,
        );
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
    fn fork_stats_aggregate_without_double_counting() {
        // Serve-mode metrics fold per-request fork odometers together.
        // Forks share one cache, and each fork's `stats()` reads that
        // whole shared cache — summing them would multiply every counter
        // by the fork count. Identity-aware aggregation must not.
        let net = zoo::squeezenet_v1_1();
        let opts = SimOptions::paper_default();
        let base = Simulator::new();
        let fork_a = base.fork_counter();
        let fork_b = base.fork_counter();
        fork_a.simulate_network(&net, &cfg(), DataflowPolicy::PerLayer, opts);
        fork_b.simulate_network(
            &net,
            &cfg(),
            DataflowPolicy::Fixed(Dataflow::WeightStationary),
            opts,
        );

        let shared = base.stats();
        assert!(shared.hits > 0 && shared.misses > 0, "{shared}");
        assert_eq!(fork_a.stats(), shared, "every fork reads the same shared cache");
        assert_eq!(fork_b.stats(), shared);

        // Pin hits/lookups/contended across the two forks: the aggregate
        // equals the shared picture exactly once, not twice.
        let agg = aggregate_cache_stats([&base, &fork_a, &fork_b]);
        assert_eq!(agg, shared);
        assert_eq!(agg.hits, shared.hits);
        assert_eq!(agg.lookups(), shared.lookups());
        assert_eq!(agg.contended, shared.contended);

        // Distinct caches do sum.
        let other = Simulator::new();
        other.simulate_network(&net, &cfg(), DataflowPolicy::PerLayer, opts);
        let two = aggregate_cache_stats([&fork_a, &other]);
        assert_eq!(two.lookups(), shared.lookups() + other.stats().lookups());
        assert_eq!(two.entries, shared.entries + other.stats().entries);

        // Cache identity is observable, and uncached handles are inert.
        assert!(base.shares_cache_with(&fork_a));
        assert!(fork_a.shares_cache_with(&fork_b));
        assert!(!base.shares_cache_with(&other));
        let uncached = Simulator::uncached();
        assert!(!uncached.shares_cache_with(&uncached.clone()));
        assert_eq!(aggregate_cache_stats([&uncached]), CacheStats::default());
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
