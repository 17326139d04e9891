//! Memoization of per-layer simulation results.
//!
//! The co-design loop re-simulates the same layer shapes over and over:
//! SqueezeNet/SqueezeNext fire modules repeat identical [`ConvWork`]
//! shapes dozens of times within one network, the hybrid scheduler
//! simulates every layer under both dataflows, and the design-space
//! sweep replays the whole model zoo across 27 configurations.
//! [`SimCache`] memoizes the two expensive, input-independent parts of a
//! layer simulation *separately*, each keyed by exactly the inputs that
//! influence it:
//!
//! * **compute** — the [`ComputePerf`] from the WS/OS cycle model, keyed
//!   by `(ConvWork, Dataflow, array size, RF depth, OS options)`. The WS
//!   model ignores both the RF depth and the OS datapath options, so WS
//!   keys canonicalize them away and one WS entry serves every RF depth.
//! * **plan** — the raw [`TilingPlan`] from the §4.1.3 tiling search,
//!   keyed by `(ConvWork, element width, working-buffer bytes)`. The
//!   search reads nothing else: not the dataflow, the array size, the RF
//!   depth, the traffic model or the weight compression. The closed-form
//!   traffic and the compression are applied after the lookup, so one
//!   search serves both dataflows, every configuration sharing a buffer
//!   size and every model (engine, batch, multi-core, event, taxonomy,
//!   command stream) — in the paper-default sweep that collapses 54
//!   `(config, dataflow)` pairs per layer shape into 3 tiling searches.
//!
//! Both keys hold the layer shape as a `WorkKey`: the [`ConvWork`]
//! plus its fingerprint, one keyed hash of the shape taken where the
//! simulator extracts it. A key hashes that one word and its few small
//! fields, once per lookup: the hash picks the shard and the shard's
//! table reuses it. Equality still compares the whole shape.
//!
//! Each sub-cache is way-partitioned into `SHARD_COUNT` shards by key
//! hash with a lock per shard, so parallel sweep workers rarely touch
//! the same lock; cross-thread hit/miss/contention counters are cheap
//! atomics. The cache is purely an accelerator: cached and uncached
//! runs produce bit-identical results, because the memoized functions
//! are deterministic in their keys.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

use codesign_arch::{AcceleratorConfig, Dataflow};

use crate::engine::SimOptions;
use crate::perf::ComputePerf;
use crate::tiling::TilingPlan;
use crate::workload::ConvWork;

/// Number of lock-partitioned shards per sub-cache (a power of two so
/// shard selection is a mask). 16 shards keep the worst-case lock
/// collision probability low for the core counts the sweep fans out to,
/// at a memory cost of one empty `HashMap` per shard.
const SHARD_COUNT: usize = 16;

/// Where a key hash's shard bits start: just below the top seven bits,
/// which the shard's `HashMap` keeps as a per-bucket tag while indexing
/// buckets by the low bits. Keys that share a shard therefore still
/// spread over all of its buckets.
const SHARD_SHIFT: u32 = u64::BITS - 7 - SHARD_COUNT.trailing_zeros();

/// The one process-wide hasher behind every fingerprint and every key
/// hash. It stays keyed (SipHash under a per-process random key):
/// `serve` clients choose the array sizes, RF depths and buffer sizes
/// that land in the keys, and a fixed-key hash would let them craft
/// keys that all collide.
fn keyed() -> &'static RandomState {
    static KEYED: OnceLock<RandomState> = OnceLock::new();
    KEYED.get_or_init(RandomState::new)
}

/// A layer shape and its fingerprint, the shape's keyed hash, taken
/// once where a model extracts the shape so that every cache and dedup
/// key built from it hashes one word instead of the shape's eleven.
///
/// Equality compares the fingerprint and then the whole shape, so two
/// shapes that share a fingerprint stay two keys. Fingerprints are per
/// process: no snapshot, trace or output ever holds one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WorkKey {
    fingerprint: u64,
    work: ConvWork,
}

impl WorkKey {
    pub(crate) fn new(work: ConvWork) -> Self {
        Self { fingerprint: keyed().hash_one(work), work }
    }

    /// The shape.
    pub(crate) fn work(&self) -> &ConvWork {
        &self.work
    }
}

impl Hash for WorkKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

/// An `f64` treated as its bit pattern so it can participate in a hash
/// key (the simulator never produces NaN configuration fields, and bitwise
/// equality is exactly the determinism contract the cache needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) struct Bits(pub(crate) u64);

impl From<f64> for Bits {
    fn from(v: f64) -> Self {
        Self(v.to_bits())
    }
}

/// The OS-datapath option fields that influence the OS cycle model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) struct OsOptsKey {
    pub(crate) zero_fraction: Bits,
    pub(crate) exploit_sparsity: bool,
    pub(crate) preload_overlap: bool,
    pub(crate) channel_packing: bool,
}

impl OsOptsKey {
    fn of(opts: &SimOptions) -> Self {
        Self {
            zero_fraction: opts.os.sparsity.zero_fraction.into(),
            exploit_sparsity: opts.os.sparsity.exploit,
            preload_overlap: opts.os.preload_overlap,
            channel_packing: opts.os.channel_packing,
        }
    }
}

/// Cache key for the PE-array cycle model: exactly the inputs
/// [`crate::ws::simulate_ws`] / [`crate::os::simulate_os`] read. The
/// cache holds it over a [`WorkKey`]; a snapshot record holds the bare
/// [`ConvWork`], fingerprinted when it is loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ComputeKey<W = WorkKey> {
    pub(crate) work: W,
    pub(crate) dataflow: Dataflow,
    pub(crate) array_size: usize,
    pub(crate) rf_depth: usize,
    pub(crate) os: OsOptsKey,
}

impl<W: Copy> ComputeKey<W> {
    pub(crate) fn new(
        work: &W,
        cfg: &AcceleratorConfig,
        opts: &SimOptions,
        dataflow: Dataflow,
    ) -> Self {
        // The WS model reads only the array size: canonicalizing the RF
        // depth and OS options away lets one WS entry serve every RF
        // depth in a sweep and every OS-option variation in the bench.
        let (rf_depth, os) = match dataflow {
            Dataflow::WeightStationary => (0, OsOptsKey::default()),
            Dataflow::OutputStationary => (cfg.rf_depth(), OsOptsKey::of(opts)),
        };
        Self { work: *work, dataflow, array_size: cfg.array_size(), rf_depth, os }
    }
}

/// Cache key for the tiling search: exactly the inputs
/// [`crate::tiling::optimize_tiling`] reads. Deliberately *not* keyed by
/// dataflow, array size, RF depth, traffic model or weight compression —
/// the search reads none of them. Held over a [`WorkKey`] or a bare
/// [`ConvWork`] like [`ComputeKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey<W = WorkKey> {
    pub(crate) work: W,
    pub(crate) bytes_per_element: usize,
    pub(crate) working_buffer_bytes: usize,
}

impl<W: Copy> PlanKey<W> {
    pub(crate) fn new(work: &W, cfg: &AcceleratorConfig) -> Self {
        Self {
            work: *work,
            bytes_per_element: cfg.bytes_per_element(),
            working_buffer_bytes: cfg.working_buffer_bytes(),
        }
    }
}

/// One cache consultation: the value, whether it was answered from the
/// cache, and how many shard-lock acquisitions had to block behind
/// another thread.
pub(crate) struct Lookup<V> {
    pub(crate) value: V,
    pub(crate) hit: bool,
    pub(crate) contended: u64,
}

/// The hit, miss and contention counts of the lookups behind one
/// simulation call, which the engine reports to its tracer.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Lookups {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) contended: u64,
}

impl Lookups {
    /// Counts one consultation and returns its value.
    pub(crate) fn note<V>(&mut self, lookup: Lookup<V>) -> V {
        self.hits += lookup.hit as u64;
        self.misses += !lookup.hit as u64;
        self.contended += lookup.contended;
        lookup.value
    }
}

/// Cache observability counters, aggregated across both sub-caches and
/// all shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to simulate.
    pub misses: u64,
    /// Resident entries (compute + plan).
    pub entries: usize,
    /// Shard-lock acquisitions that found the lock held by another
    /// thread and had to block.
    pub contended: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} lookups ({:.1}% hit rate, {} entries, {} contended)",
            self.hits,
            self.lookups(),
            100.0 * self.hit_rate(),
            self.entries,
            self.contended
        )
    }
}

/// Locks a shard, recovered from poisoning (the maps only ever hold
/// fully-written `Copy` values, so a panic in another thread between map
/// operations cannot leave them torn), reporting whether the lock was
/// contended: a failed `try_lock` bumps the contention count before
/// falling back to a blocking acquisition.
fn lock_counting<T>(mutex: &Mutex<T>) -> (MutexGuard<'_, T>, u64) {
    match mutex.try_lock() {
        Ok(guard) => (guard, 0),
        Err(TryLockError::Poisoned(poisoned)) => (poisoned.into_inner(), 0),
        Err(TryLockError::WouldBlock) => (mutex.lock().unwrap_or_else(PoisonError::into_inner), 1),
    }
}

/// A key stored with its keyed hash, so that the shard's table reads
/// the hash back instead of hashing the key a second time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hashed<K> {
    hash: u64,
    key: K,
}

impl<K: Hash> Hashed<K> {
    fn new(key: K) -> Self {
        Self { hash: keyed().hash_one(&key), key }
    }
}

impl<K> Hash for Hashed<K> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The shard tables' hasher: it hands back the one word a [`Hashed`]
/// key writes, a hash already keyed.
#[derive(Default)]
struct StoredHash(u64);

impl Hasher for StoredHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("shard keys hash as their stored u64")
    }
}

type Shard<K, V> = Mutex<HashMap<Hashed<K>, V, BuildHasherDefault<StoredHash>>>;

/// A way-partitioned concurrent memo map: `SHARD_COUNT` independent
/// `Mutex<HashMap>` shards selected by key hash.
#[derive(Debug)]
struct ShardedMap<K, V> {
    shards: Vec<Shard<K, V>>,
}

impl<K: Eq + Hash + Copy, V: Copy> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self { shards: (0..SHARD_COUNT).map(|_| Mutex::default()).collect() }
    }
}

impl<K: Eq + Hash + Copy, V: Copy> ShardedMap<K, V> {
    fn shard(&self, key: &Hashed<K>) -> &Shard<K, V> {
        // SHARD_COUNT is a power of two and the vec holds exactly that
        // many shards, so the mask stays in bounds.
        &self.shards[(key.hash >> SHARD_SHIFT) as usize & (SHARD_COUNT - 1)]
    }

    /// Returns the cached value for `key` (hit) or computes, inserts, and
    /// returns it (miss). Errors are returned to the caller and never
    /// cached. The shard lock is *not* held while computing, so parallel
    /// workers never serialize on a miss; two threads racing on the same
    /// key both compute it (deterministically identical values) and one
    /// insert wins. The key is hashed once, for both the shard and its
    /// table.
    fn get_or_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Lookup<V>, E> {
        let key = Hashed::new(key);
        let shard = self.shard(&key);
        let mut contended = 0;
        let cached = {
            let (map, c) = lock_counting(shard);
            contended += c;
            map.get(&key).copied()
        };
        if let Some(value) = cached {
            return Ok(Lookup { value, hit: true, contended });
        }
        let value = compute()?;
        let (mut map, c) = lock_counting(shard);
        contended += c;
        map.insert(key, value);
        Ok(Lookup { value, hit: false, contended })
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_counting(s).0.len()).sum()
    }

    /// Copies out every resident entry, in unspecified order (one shard
    /// at a time, so concurrent writers are never blocked for long).
    fn entries(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(lock_counting(shard).0.iter().map(|(k, v)| (k.key, *v)));
        }
        out
    }

    /// Inserts an entry directly — the snapshot preload path, which must
    /// not perturb the hit/miss accounting a lookup would.
    fn insert(&self, key: K, value: V) {
        let key = Hashed::new(key);
        lock_counting(self.shard(&key)).0.insert(key, value);
    }

    fn clear(&self) {
        for shard in &self.shards {
            lock_counting(shard).0.clear();
        }
    }
}

/// Thread-safe, sharded memo table for per-layer simulation results.
///
/// Holds two independent sub-caches — the PE-array cycle model keyed by
/// `ComputeKey` and the tiling search keyed by `PlanKey` — so each
/// result is shared across every configuration that cannot change it
/// (see the module docs for the exact keying).
#[derive(Debug, Default)]
pub struct SimCache {
    compute: ShardedMap<ComputeKey, ComputePerf>,
    plans: ShardedMap<PlanKey, TilingPlan>,
    hits: AtomicU64,
    misses: AtomicU64,
    contended: AtomicU64,
}

impl SimCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn account<V>(&self, lookup: &Lookup<V>) {
        let counter = if lookup.hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        if lookup.contended > 0 {
            self.contended.fetch_add(lookup.contended, Ordering::Relaxed);
        }
    }

    /// Memoized PE-array cycle model: returns the cached
    /// [`ComputePerf`] for `key` or computes and inserts it.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns; errors are never cached (failure
    /// diagnostics are cheap to recompute and carry per-call layer
    /// attribution).
    pub(crate) fn compute_or<E>(
        &self,
        key: ComputeKey,
        compute: impl FnOnce() -> Result<ComputePerf, E>,
    ) -> Result<Lookup<ComputePerf>, E> {
        let lookup = self.compute.get_or_compute(key, compute)?;
        self.account(&lookup);
        Ok(lookup)
    }

    /// Memoized tiling search: returns the cached [`TilingPlan`] for
    /// `key` or searches and inserts it.
    ///
    /// # Errors
    ///
    /// Whatever `search` returns; errors are never cached.
    pub(crate) fn plan_or<E>(
        &self,
        key: PlanKey,
        search: impl FnOnce() -> Result<TilingPlan, E>,
    ) -> Result<Lookup<TilingPlan>, E> {
        let lookup = self.plans.get_or_compute(key, search)?;
        self.account(&lookup);
        Ok(lookup)
    }

    /// Counters and occupancy.
    ///
    /// The hit/miss counters are the one piece of cache state that is
    /// *not* schedule-independent: a key one run answers from cache may
    /// race and recompute in another (see
    /// `ShardedMap::get_or_compute`'s miss policy), and the contention
    /// counter depends entirely on thread timing.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.compute.len() + self.plans.len(),
            contended: self.contended.load(Ordering::Relaxed),
        }
    }

    /// Copies out every resident compute entry (snapshot export).
    pub(crate) fn export_compute(&self) -> Vec<(ComputeKey, ComputePerf)> {
        self.compute.entries()
    }

    /// Copies out every resident plan entry (snapshot export).
    pub(crate) fn export_plans(&self) -> Vec<(PlanKey, TilingPlan)> {
        self.plans.entries()
    }

    /// Fingerprints a snapshot's compute entry and inserts it without
    /// touching the hit/miss counters (snapshot preload).
    pub(crate) fn preload_compute(&self, key: ComputeKey<ConvWork>, value: ComputePerf) {
        let ComputeKey { work, dataflow, array_size, rf_depth, os } = key;
        let key = ComputeKey { work: WorkKey::new(work), dataflow, array_size, rf_depth, os };
        self.compute.insert(key, value);
    }

    /// Fingerprints a snapshot's plan entry and inserts it without
    /// touching the hit/miss counters (snapshot preload).
    pub(crate) fn preload_plan(&self, key: PlanKey<ConvWork>, value: TilingPlan) {
        let PlanKey { work, bytes_per_element, working_buffer_bytes } = key;
        let key = PlanKey { work: WorkKey::new(work), bytes_per_element, working_buffer_bytes };
        self.plans.insert(key, value);
    }

    /// Drops all entries and resets the counters.
    pub fn clear(&self) {
        self.compute.clear();
        self.plans.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.contended.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_arch::DataflowPolicy;
    use codesign_dnn::{zoo, NetworkBuilder, Shape};

    use crate::engine::Simulator;

    fn work() -> ConvWork {
        ConvWork {
            kind: crate::workload::WorkKind::Dense,
            groups: 1,
            in_channels: 8,
            out_channels: 16,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            in_h: 18,
            in_w: 18,
            out_h: 16,
            out_w: 16,
        }
    }

    fn compute_key(rf: usize) -> ComputeKey {
        let cfg = AcceleratorConfig::builder().rf_depth(rf).build().unwrap();
        let work = WorkKey::new(work());
        ComputeKey::new(&work, &cfg, &SimOptions::paper_default(), Dataflow::OutputStationary)
    }

    fn plan_key(buffer: usize) -> PlanKey {
        let cfg = AcceleratorConfig::builder().global_buffer_bytes(buffer).build().unwrap();
        PlanKey::new(&WorkKey::new(work()), &cfg)
    }

    /// A plan whose traffic totals `bytes`, standing in for a search.
    fn plan(bytes: u64) -> TilingPlan {
        TilingPlan {
            tiling: crate::tiling::Tiling {
                out_rows: 1,
                out_channels: 1,
                in_channels: 1,
                order: crate::tiling::LoopOrder::WeightsOuter,
            },
            traffic: crate::dram::DramTraffic { input: bytes, weights: 0, output: 0 },
            working_set: 0,
        }
    }

    type Infallible<T> = Result<T, std::convert::Infallible>;

    #[test]
    fn hit_after_miss() {
        let cache = SimCache::new();
        let fresh = ComputePerf::default();
        let first = cache.compute_or(compute_key(8), || Infallible::Ok(fresh)).unwrap();
        assert!(!first.hit);
        let second = cache
            .compute_or(compute_key(8), || -> Infallible<ComputePerf> {
                panic!("must not recompute")
            })
            .unwrap();
        assert!(second.hit);
        assert_eq!(first.value, second.value);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_configs_do_not_collide() {
        let cache = SimCache::new();
        cache.compute_or(compute_key(8), || Infallible::Ok(ComputePerf::default())).unwrap();
        let other =
            cache.compute_or(compute_key(16), || Infallible::Ok(ComputePerf::default())).unwrap();
        assert!(!other.hit, "a different RF depth is a different OS compute key");
        cache.plan_or(plan_key(64 * 1024), || Infallible::Ok(plan(1))).unwrap();
        let t = cache.plan_or(plan_key(128 * 1024), || Infallible::Ok(plan(2))).unwrap();
        assert_eq!(t.value, plan(2));
        assert!(!t.hit, "a different buffer size is a different plan key");
        assert_eq!(cache.stats().entries, 4);
    }

    #[test]
    fn ws_compute_key_ignores_rf_depth() {
        // The WS cycle model reads only the array size, so one WS entry
        // must serve every RF depth in a sweep.
        let opts = SimOptions::paper_default();
        let rf8 = AcceleratorConfig::builder().rf_depth(8).build().unwrap();
        let rf16 = AcceleratorConfig::builder().rf_depth(16).build().unwrap();
        let ws8 = ComputeKey::new(&work(), &rf8, &opts, Dataflow::WeightStationary);
        let ws16 = ComputeKey::new(&work(), &rf16, &opts, Dataflow::WeightStationary);
        assert_eq!(ws8, ws16);
        let os8 = ComputeKey::new(&work(), &rf8, &opts, Dataflow::OutputStationary);
        let os16 = ComputeKey::new(&work(), &rf16, &opts, Dataflow::OutputStationary);
        assert_ne!(os8, os16, "the OS model does read the RF depth");
    }

    #[test]
    fn plan_key_reads_only_the_work_and_the_buffer() {
        let small = AcceleratorConfig::builder().array_size(8).rf_depth(8).build().unwrap();
        let large = AcceleratorConfig::builder().array_size(32).rf_depth(32).build().unwrap();
        assert_eq!(
            PlanKey::new(&work(), &small),
            PlanKey::new(&work(), &large),
            "same buffer ⇒ same tiling search, whatever the array/RF"
        );
        let narrow = AcceleratorConfig::builder().bytes_per_element(1).build().unwrap();
        assert_ne!(PlanKey::new(&work(), &narrow), PlanKey::new(&work(), &small));
    }

    #[test]
    fn equal_works_fingerprint_equally_on_every_thread() {
        // One process-wide keyed hasher: a shape extracted on any worker
        // gets the same fingerprint, so workers share entries.
        let here = WorkKey::new(work());
        let there = std::thread::spawn(|| WorkKey::new(work())).join().unwrap();
        assert_eq!(here, there);
        assert_eq!(here.fingerprint, there.fingerprint);
        let wider = WorkKey::new(ConvWork { in_w: 19, ..work() });
        assert_ne!(here, wider);
    }

    #[test]
    fn a_shared_fingerprint_never_merges_two_works() {
        // Two shapes forced onto one fingerprint land in one bucket of
        // one shard; equality on the whole shape keeps them two entries,
        // each with its own value.
        let cfg = AcceleratorConfig::paper_default();
        let wide = ConvWork { in_w: 20, out_w: 18, ..work() };
        let [a, b] =
            [work(), wide].map(|work| PlanKey::new(&WorkKey { fingerprint: 7, work }, &cfg));
        let cache = SimCache::new();
        assert!(!cache.plan_or(a, || Infallible::Ok(plan(1))).unwrap().hit);
        let second = cache.plan_or(b, || Infallible::Ok(plan(2))).unwrap();
        assert!(!second.hit, "a fingerprint match alone is no hit");
        assert_eq!(second.value, plan(2));
        for (key, bytes) in [(a, 1), (b, 2)] {
            let l =
                cache.plan_or(key, || -> Infallible<TilingPlan> { panic!("must hit") }).unwrap();
            assert_eq!((l.hit, l.value), (true, plan(bytes)));
        }
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = SimCache::new();
        let err = cache.compute_or(compute_key(8), || Err("boom")).map(|l| l.value);
        assert_eq!(err, Err("boom"));
        assert_eq!(cache.stats().entries, 0, "failed computations leave no entry");
        // The key still computes (and caches) fine afterwards.
        let l = cache.compute_or(compute_key(8), || Ok::<_, &str>(ComputePerf::default())).unwrap();
        assert!(!l.hit);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = SimCache::new();
        cache.compute_or(compute_key(8), || Infallible::Ok(ComputePerf::default())).unwrap();
        cache.plan_or(plan_key(64 * 1024), || Infallible::Ok(plan(1))).unwrap();
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.contended), (0, 0, 0, 0));
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn shards_hold_disjoint_key_sets() {
        // Many distinct keys must all remain retrievable — shard routing
        // is stable per key and no shard swallows another's entries.
        let cache = SimCache::new();
        for buffer_kb in 64..128u64 {
            cache
                .plan_or(plan_key(buffer_kb as usize * 1024), || Infallible::Ok(plan(buffer_kb)))
                .unwrap();
        }
        for buffer_kb in 64..128u64 {
            let l = cache
                .plan_or(plan_key(buffer_kb as usize * 1024), || -> Infallible<TilingPlan> {
                    panic!("must hit")
                })
                .unwrap();
            assert!(l.hit);
            assert_eq!(l.value, plan(buffer_kb));
        }
        let s = cache.stats();
        assert_eq!(s.entries, 64);
        assert_eq!((s.hits, s.misses), (64, 64));
    }

    #[test]
    fn repeated_layer_shapes_share_cache_entries() {
        // Two identically-shaped conv layers: network-level dedup answers
        // layer b without consulting the shared cache at all, and layer
        // a's OS plan lookup hits the entry its WS lookup created (the
        // tiling search is dataflow-independent).
        let net = NetworkBuilder::new("twins", Shape::new(16, 16, 16))
            .conv("a", 16, 3, 1, 1)
            .conv("b", 16, 3, 1, 1)
            .finish()
            .unwrap();
        let sim = Simulator::new();
        let cfg = AcceleratorConfig::paper_default();
        sim.try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, SimOptions::paper_default())
            .unwrap();
        let s = sim.stats();
        assert_eq!(s.hits, 1, "the OS plan lookup hits the WS-created entry: {s}");
        assert_eq!(s.misses, 3, "WS compute, OS compute, one tiling search: {s}");
        assert_eq!(s.entries, 3, "{s}");
    }

    #[test]
    fn every_model_searches_each_plan_key_once() {
        // One handle answers every simulation question over SqueezeNet
        // v1.1; the tiling search must run exactly once per distinct
        // (shape, element width, buffer) key, whichever model asks.
        use crate::{MultiCoreConfig, Program, SparsityMap, TimeSkip};
        let net = zoo::squeezenet_v1_1();
        let opts = SimOptions::paper_default();
        let cfgs = [
            AcceleratorConfig::paper_default(),
            AcceleratorConfig::builder().global_buffer_bytes(64 * 1024).build().unwrap(),
        ];
        let mut keys = std::collections::HashSet::new();
        for cfg in &cfgs {
            keys.extend(
                net.layers().iter().filter_map(ConvWork::from_layer).map(|w| PlanKey::new(&w, cfg)),
            );
        }
        let sparsity: SparsityMap = net.compute_layers().map(|l| (l.name.clone(), 0.25)).collect();
        let searches = || crate::tiling::SEARCHES.with(std::cell::Cell::get);
        let before = searches();
        let sim = Simulator::new();
        for cfg in &cfgs {
            for policy in
                [DataflowPolicy::PerLayer, DataflowPolicy::Fixed(Dataflow::OutputStationary)]
            {
                sim.try_simulate_network(&net, cfg, policy, opts).unwrap();
                sim.try_simulate_network_batched(&net, cfg, policy, opts, 4).unwrap();
                let mc = MultiCoreConfig { core: cfg.clone(), cores: 4 };
                sim.try_simulate_network_multicore(&net, &mc, policy, opts).unwrap();
                sim.try_simulate_network_event(&net, cfg, policy, opts, TimeSkip::Enabled).unwrap();
                sim.try_simulate_network_measured(&net, cfg, policy, opts, &sparsity).unwrap();
                Program::try_compile(&sim, &net, cfg, policy, opts).unwrap();
            }
            sim.try_compare_taxonomy(&net, cfg, opts).unwrap();
            let compressed = SimOptions {
                weight_compression: Some(crate::WeightCompression::eie_default()),
                ..opts
            };
            sim.try_simulate_network(&net, cfg, DataflowPolicy::PerLayer, compressed).unwrap();
            let conv = net.layers().iter().find(|l| l.is_compute()).unwrap();
            sim.try_simulate_layer_event(conv, cfg, opts, Dataflow::WeightStationary).unwrap();
        }
        assert_eq!(searches() - before, keys.len() as u64, "one search per plan key");
    }

    #[test]
    fn fire_modules_give_high_hit_rates() {
        // The paper's own workloads: the fixed WS and OS reference runs
        // replay layer shapes the hybrid run already simulated, so they
        // answer everything from the cache.
        let sim = Simulator::new();
        let cfg = AcceleratorConfig::paper_default();
        let opts = SimOptions::paper_default();
        let net = zoo::squeezenet_v1_1();
        sim.try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts).unwrap();
        sim.try_simulate_network(
            &net,
            &cfg,
            DataflowPolicy::Fixed(Dataflow::WeightStationary),
            opts,
        )
        .unwrap();
        sim.try_simulate_network(
            &net,
            &cfg,
            DataflowPolicy::Fixed(Dataflow::OutputStationary),
            opts,
        )
        .unwrap();
        let s = sim.stats();
        assert!(s.hit_rate() > 0.5, "expected > 50% hit rate, got {s}");
    }

    #[test]
    fn simulator_clear_cache_resets_accounting_and_recomputes() {
        let sim = Simulator::new();
        let cfg = AcceleratorConfig::paper_default();
        let opts = SimOptions::paper_default();
        let net = zoo::squeezenet_v1_1();
        let cold = sim.try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts).unwrap();
        let cold_stats = sim.stats();
        assert!(cold_stats.misses > 0 && cold_stats.entries > 0);

        sim.clear_cache();
        assert_eq!(sim.stats(), CacheStats::default(), "clear resets counters and entries");

        // A post-clear run must rebuild exactly the cold-run picture:
        // same misses, same entries, bit-identical results.
        let rebuilt = sim.try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts).unwrap();
        assert_eq!(rebuilt, cold);
        let s = sim.stats();
        assert_eq!(s.misses, cold_stats.misses, "{s}");
        assert_eq!(s.entries, cold_stats.entries, "{s}");
        assert_eq!(s.hits, cold_stats.hits, "{s}");
    }

    #[test]
    fn cross_thread_accounting_is_conserved() {
        let cfg = AcceleratorConfig::paper_default();
        let opts = SimOptions::paper_default();
        let net = zoo::squeezenet_v1_1();

        // Reference: one serial run tells us lookups-per-run and the final
        // entry count for this workload.
        let serial = Simulator::new();
        let baseline =
            serial.try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts).unwrap();
        let per_run = serial.stats().lookups();
        let entries = serial.stats().entries;

        // Four threads share one cache through cloned handles. Which
        // thread hits vs misses is a race, but the conservation laws are
        // not: every lookup is counted exactly once, every entry was
        // missed at least once, and results stay bit-identical.
        let sim = Simulator::new();
        let threads = 4u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let worker = sim.clone();
                let (net, cfg, baseline) = (&net, &cfg, &baseline);
                scope.spawn(move || {
                    let perf = worker
                        .try_simulate_network(net, cfg, DataflowPolicy::PerLayer, opts)
                        .unwrap();
                    assert_eq!(&perf, baseline);
                });
            }
        });
        let s = sim.stats();
        assert_eq!(s.lookups(), threads * per_run, "no lookup lost or double-counted: {s}");
        assert_eq!(s.entries, entries, "same key set regardless of schedule: {s}");
        assert!(s.misses >= entries as u64, "every entry was missed at least once: {s}");
        assert!(s.hits >= per_run, "later runs mostly hit: {s}");
        assert!(s.hit_rate() > 0.0 && s.hit_rate() < 1.0, "{s}");
    }

    #[test]
    fn cached_equals_uncached() {
        let cfg = AcceleratorConfig::paper_default();
        let opts = SimOptions::paper_default();
        let net = zoo::squeezenet_v1_1();
        let cached = Simulator::new();
        let uncached = Simulator::uncached();
        let a = cached.try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts).unwrap();
        let b = uncached.try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts).unwrap();
        // Run the cached simulator twice so the second pass is all hits.
        let c = cached.try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(uncached.stats(), CacheStats::default());
    }
}
