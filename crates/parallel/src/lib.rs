//! Deterministic fan-out over a persistent work-stealing worker pool.
//!
//! The design-space sweep, the Table-2 evaluation, the bench report, and
//! the GEMM-backed functional executor all map an independent, pure
//! function over a work list. Rayon is unavailable in the offline build
//! environment, so this crate provides the primitives those call sites
//! need: [`par_map`] / [`par_map_range`], pool-backed maps whose output
//! order is always the input order — parallel runs are bit-identical to
//! serial runs, just faster.
//!
//! This lives in its own dependency-free crate (rather than inside
//! `codesign-sim`, where it started) so the functional tensor layer can
//! split each convolution's output pixels over the *same* process-wide
//! pool the sweep engine uses — one thread budget, one high-water mark,
//! no second pool fighting the first for cores.
//!
//! # Pool lifecycle
//!
//! Worker threads are spawned on demand and live for the rest of the
//! process — repeated sweep iterations reuse them instead of paying
//! thread spawn/join per call. The pool's size tracks the *high-water
//! mark* of `jobs - 1` across every call so far (capped at 256
//! workers): a call requesting more parallelism than any before it
//! grows the pool first, so a long-lived server that starts
//! with `--jobs 2` requests is never stuck under-parallelized when a
//! `--jobs 8` request arrives later. [`pool_size`] reports the current
//! count. Each call submits a *job* to a shared injector; idle workers
//! attach to the first job that still has unclaimed items and has fewer
//! helpers than its `--jobs` cap. The calling thread always participates
//! in its own job, which bounds concurrency at `jobs` threads per call
//! and makes nested calls (and a zero-worker pool) deadlock-free: the
//! caller alone can always drain the job.
//!
//! # Work stealing
//!
//! A job block-partitions its item indices across per-participant
//! deques. Each participant pops from the front of its own deque and,
//! when empty, steals from the back of a sibling's — uneven item costs
//! rebalance without a central counter becoming the only queue. Results
//! carry their input index and are reassembled in input order, so the
//! stealing schedule can never leak into the output.
//!
//! # Panics
//!
//! A panicking item cancels the job's remaining unclaimed items and the
//! payload is re-raised on the calling thread as
//! `"parallel worker panicked: …"` once every participant has stopped —
//! a worker panic can never hang or kill the pool.
//! [`par_map_catch_range`] additionally isolates each item with
//! [`catch_unwind`] so one bad item degrades into a per-item `Err`
//! instead of cancelling its siblings.

#![warn(missing_docs)]
// `deny` rather than `forbid`: the pool carries the workspace's single,
// documented `unsafe` block (a lifetime erasure so persistent pool
// threads can run borrowed closures). Any new site needs an explicit,
// reviewable `#[allow]`.
#![deny(unsafe_code)]

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of worker threads the host supports (`1` when undetectable).
fn max_jobs() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Resolves a user-facing `--jobs` value: `0` means "one per core".
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        max_jobs()
    } else {
        jobs
    }
}

/// Locks a mutex, recovering from poisoning: every structure guarded
/// here (deques, result buckets, the injector) is only ever mutated
/// through complete push/pop/retain operations, so a panic on another
/// thread cannot leave it torn.
fn lock_recovered<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;
type ErasedItemFn = Arc<dyn Fn(usize) + Send + Sync + 'static>;

/// Erases the borrow lifetime of a job's per-item closure so the pool's
/// `'static` worker threads can hold and call it.
///
/// SAFETY: `Arc<dyn Fn(usize) + Send + Sync + 'a>` and its `'static`
/// counterpart have identical layout (a fat pointer to the same
/// allocation); only the borrow checker distinguishes them. The closure
/// is never *called* after `'a` ends: [`par_map_range`] returns only
/// after the job's deques are empty and `in_flight == 0`, every claim is
/// made by a participant counted in `in_flight` at claim time, and a
/// straggler worker attaching later finds the deques empty and calls
/// nothing. After that point the erased `Arc` is at most *dropped*,
/// which is a no-op for the captured references.
#[allow(unsafe_code)]
fn erase_lifetime<'a>(run: Arc<dyn Fn(usize) + Send + Sync + 'a>) -> ErasedItemFn {
    unsafe { std::mem::transmute(run) }
}

/// One `par_map` invocation in flight: the claimable item indices, the
/// type-erased per-item closure, and the completion/panic bookkeeping.
struct Job {
    /// Per-participant index deques (slot 0 is the calling thread).
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Unclaimed items across all deques — the injector's cheap
    /// eligibility check.
    pending: AtomicUsize,
    /// Participants (caller + attached workers) still running.
    in_flight: AtomicUsize,
    /// Workers ever attached; capped at `max_helpers`.
    helpers: AtomicUsize,
    /// `jobs - 1`: the caller brings total concurrency to `jobs`.
    max_helpers: usize,
    /// The lifetime-erased "run item `i`" closure.
    run: ErasedItemFn,
    /// First panic payload observed, re-raised by the caller.
    panic: Mutex<Option<PanicPayload>>,
    done: Mutex<()>,
    done_cv: Condvar,
}

impl Job {
    fn new(len: usize, participants: usize, run: ErasedItemFn) -> Self {
        // Block-partition the indices: slot p owns [p·len/n, (p+1)·len/n),
        // so claims start contiguous and stealing only kicks in when a
        // participant's own block runs dry.
        let deques = (0..participants)
            .map(|p| {
                let block = (p * len / participants)..((p + 1) * len / participants);
                Mutex::new(block.collect::<VecDeque<usize>>())
            })
            .collect();
        Self {
            deques,
            pending: AtomicUsize::new(len),
            in_flight: AtomicUsize::new(1), // the caller
            helpers: AtomicUsize::new(0),
            max_helpers: participants - 1,
            run,
            panic: Mutex::new(None),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }

    /// Claims the next item for participant `slot`: own deque first
    /// (front), then steal from a sibling (back). `None` means the job
    /// has no unclaimed work left.
    fn claim(&self, slot: usize) -> Option<usize> {
        if let Some(deque) = self.deques.get(slot) {
            if let Some(i) = lock_recovered(deque).pop_front() {
                self.pending.fetch_sub(1, Ordering::Relaxed);
                return Some(i);
            }
        }
        for deque in &self.deques {
            if let Some(i) = lock_recovered(deque).pop_back() {
                self.pending.fetch_sub(1, Ordering::Relaxed);
                return Some(i);
            }
        }
        None
    }

    /// Records the first panic payload and cancels all unclaimed items,
    /// so the job winds down instead of running work whose output the
    /// caller will discard by re-panicking.
    fn cancel_with(&self, payload: PanicPayload) {
        let mut slot = lock_recovered(&self.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
        drop(slot);
        for deque in &self.deques {
            lock_recovered(deque).clear();
        }
        self.pending.store(0, Ordering::Relaxed);
    }

    /// Runs items until the job is drained, then signs off. The caller
    /// of `participate` must already be counted in `in_flight`.
    fn participate(&self, slot: usize) {
        while let Some(i) = self.claim(slot) {
            let run = &self.run;
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(i))) {
                self.cancel_with(payload);
            }
        }
        if self.in_flight.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last participant out: wake the caller. Taking the lock
            // orders the notify after the caller's `while` check, so the
            // wakeup cannot be lost.
            let _guard = lock_recovered(&self.done);
            self.done_cv.notify_all();
        }
    }

    /// Blocks until every participant (including stragglers that
    /// attached mid-drain) has signed off.
    fn wait_done(&self) {
        let mut guard = lock_recovered(&self.done);
        while self.in_flight.load(Ordering::Acquire) > 0 {
            guard = self.done_cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Hard ceiling on pool threads, far above any sane `--jobs`: a runaway
/// request cannot exhaust the process's thread quota, it just caps out
/// and the callers share the workers that exist.
const MAX_POOL_WORKERS: usize = 256;

/// The process-wide worker pool: an injector of live jobs plus parked
/// worker threads.
#[derive(Default)]
struct Pool {
    injector: Mutex<Vec<Arc<Job>>>,
    work_cv: Condvar,
    /// Worker threads spawned so far. Guarded by a mutex (not an atomic)
    /// so concurrent growers serialize and never overshoot the target.
    workers: Mutex<usize>,
}

impl Pool {
    fn submit(&self, job: &Arc<Job>) {
        lock_recovered(&self.injector).push(Arc::clone(job));
        self.work_cv.notify_all();
    }

    fn retire(&self, job: &Arc<Job>) {
        lock_recovered(&self.injector).retain(|j| !Arc::ptr_eq(j, job));
    }

    /// A worker's whole life: park until a job wants help, attach as
    /// helper `h` (participant slot `h + 1`), drain it, repeat.
    fn worker_loop(&self) {
        loop {
            let (job, slot) = {
                let mut guard = lock_recovered(&self.injector);
                loop {
                    // Admission happens under the injector lock, so the
                    // helpers counter never races past its cap.
                    let eligible = guard.iter().find(|j| {
                        j.pending.load(Ordering::Relaxed) > 0
                            && j.helpers.load(Ordering::Relaxed) < j.max_helpers
                    });
                    if let Some(job) = eligible {
                        let h = job.helpers.fetch_add(1, Ordering::Relaxed);
                        job.in_flight.fetch_add(1, Ordering::AcqRel);
                        break (Arc::clone(job), h + 1);
                    }
                    guard = self.work_cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
                }
            };
            job.participate(slot);
        }
    }
}

/// The lazily-started process-wide pool. Worker threads are detached:
/// they idle on the injector condvar between jobs and die with the
/// process.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(Pool::default)
}

/// Grows the pool to at least `target` workers (capped at
/// [`MAX_POOL_WORKERS`]). The pool used to be sized once by its first
/// caller, which silently under-parallelized any later call with a
/// larger `--jobs` — fatal for a long-lived server; growing to the
/// high-water mark instead makes pool capacity independent of request
/// arrival order. Spawn failure is tolerable: the caller participates
/// in every job, so fewer (or zero) workers only costs parallelism,
/// never correctness.
fn ensure_workers(target: usize) {
    let target = target.min(MAX_POOL_WORKERS);
    let shared = pool();
    let mut count = lock_recovered(&shared.workers);
    while *count < target {
        let builder = std::thread::Builder::new().name(format!("codesign-worker-{count}"));
        if builder.spawn(|| pool().worker_loop()).is_err() {
            break;
        }
        *count += 1;
    }
}

/// Current worker-thread count of the process-wide pool: the high-water
/// mark of `jobs - 1` across every parallel call so far (zero before the
/// first parallel call). Total concurrency for a call is `jobs` — the
/// caller's thread participates alongside at most `jobs - 1` workers.
pub fn pool_size() -> usize {
    *lock_recovered(&pool().workers)
}

/// Re-raises a worker panic on the calling thread with the payload
/// message attached.
// Deliberate panic propagation through the crate's documented parallel
// contract; `par_map_catch_range` is the non-panicking alternative.
#[allow(clippy::panic)]
fn repanic(payload: PanicPayload) -> ! {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    };
    panic!("parallel worker panicked: {msg}");
}

/// Maps `f` over `0..len` on up to `jobs` threads (`0` = one per core)
/// from the persistent pool, returning results in index order.
///
/// This is the allocation-light primitive behind [`par_map`] for
/// callers whose work list is an indexable space rather than a
/// materialized slice (e.g. a sweep grid). Panics in `f` propagate
/// after all participants stop.
pub fn par_map_range<R, F>(jobs: usize, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let jobs = resolve_jobs(jobs).min(len);
    if jobs <= 1 {
        return (0..len).map(f).collect();
    }
    // Grow the pool before submitting, so this call can actually reach
    // its requested concurrency even if earlier calls asked for less.
    ensure_workers(jobs - 1);

    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(len));
    let run = |i: usize| {
        let r = f(i);
        lock_recovered(&results).push((i, r));
    };
    let job = Arc::new(Job::new(len, jobs, erase_lifetime(Arc::new(run))));
    let pool = pool();
    pool.submit(&job);
    job.participate(0);
    job.wait_done();
    pool.retire(&job);
    if let Some(payload) = lock_recovered(&job.panic).take() {
        repanic(payload);
    }

    // Reassemble in input order regardless of which participant ran
    // what. Every index was claimed exactly once, so after sorting the
    // result is a permutation-free 0..len list.
    let mut tagged = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Maps `f` over `items` on up to `jobs` threads (`0` = one per core),
/// returning results in input order.
///
/// Work is block-partitioned across participants and rebalanced by
/// stealing, so uneven item costs spread across workers. `f` receives
/// the item index alongside the item. Panics in `f` propagate after all
/// participants stop.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_range(jobs, items.len(), |i| {
        // Claimed indices come from deques seeded with 0..len, so the
        // lookup cannot fail; `get` keeps the no-panic lint honest.
        items.get(i).map(|item| f(i, item))
    })
    .into_iter()
    .flatten()
    .collect()
}

/// [`par_map_range`] with per-item panic isolation: each application
/// of `f` runs under [`catch_unwind`], so one panicking item cannot
/// poison its siblings or the caller — it degrades into an `Err`
/// carrying the panic message while every other item completes
/// normally.
///
/// This is the worker primitive behind degradation-tolerant sweeps: the
/// `try_*` simulation APIs make panics unreachable for well-formed
/// inputs, and this catches anything that slips through (including
/// future bugs), converting it into a per-item diagnostic.
///
/// Output order is index order; serial (`jobs == 1`) and parallel runs
/// are bit-identical.
pub fn par_map_catch_range<R, F>(jobs: usize, len: usize, f: F) -> Vec<Result<R, String>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_range(jobs, len, |i| {
        catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| {
            if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_owned()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "worker panicked with a non-string payload".to_owned()
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(4, &items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..100).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(13);
        assert_eq!(par_map(1, &items, f), par_map(8, &items, f));
    }

    #[test]
    fn empty_and_single_items() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(8, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn zero_jobs_means_auto() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
        let items: Vec<u32> = (0..16).collect();
        assert_eq!(par_map(0, &items, |_, &x| x), items);
    }

    #[test]
    fn range_map_matches_slice_map() {
        let items: Vec<u64> = (0..97).collect();
        assert_eq!(
            par_map_range(4, items.len(), |i| i as u64 * 3),
            par_map(4, &items, |_, &x| x * 3),
        );
        assert!(par_map_range(4, 0, |i| i).is_empty());
    }

    #[test]
    fn pool_grows_to_the_jobs_high_water_mark() {
        // Regression: the pool used to be sized by its *first* caller,
        // so a `--jobs 2` run followed by a `--jobs 8` run left the
        // second under-parallelized for the rest of the process. The
        // pool must now grow to each call's requested concurrency.
        let items: Vec<u64> = (0..96).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(7);
        let small = par_map(2, &items, f);
        assert!(pool_size() >= 1, "a jobs=2 call needs at least one worker");
        let big = par_map(8, &items, f);
        assert!(
            pool_size() >= 7,
            "a later jobs=8 call must grow the pool to 7 workers, got {}",
            pool_size()
        );
        assert_eq!(small, big, "pool growth must not change results");
    }

    #[test]
    fn pool_is_reused_across_calls() {
        // Many small jobs back to back: each must complete and the pool
        // must stay serviceable (no leaked helpers or stuck workers).
        for round in 0..50u64 {
            let items: Vec<u64> = (0..17).collect();
            let out = par_map(3, &items, |_, &x| x + round);
            assert_eq!(out, items.iter().map(|x| x + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn concurrent_calls_share_the_pool() {
        // par_map from several threads at once: jobs coexist in the
        // injector without crosstalk.
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                scope.spawn(move || {
                    let items: Vec<u64> = (0..64).collect();
                    let out = par_map(4, &items, |_, &x| x * (t + 1));
                    assert_eq!(out, items.iter().map(|x| x * (t + 1)).collect::<Vec<_>>());
                });
            }
        });
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        // The caller participates in its own job, so inner calls make
        // progress even when every pool worker is busy with outer jobs.
        let outer: Vec<u64> = (0..8).collect();
        let out = par_map(4, &outer, |_, &x| {
            let inner: Vec<u64> = (0..8).collect();
            par_map(4, &inner, |_, &y| x * 10 + y).into_iter().sum::<u64>()
        });
        let expect: Vec<u64> =
            outer.iter().map(|x| (0..8).map(|y| x * 10 + y).sum::<u64>()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    #[should_panic(expected = "parallel worker panicked")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..16).collect();
        let _ = par_map(2, &items, |_, &x| {
            assert!(x < 8, "boom");
            x
        });
    }

    #[test]
    fn panicking_job_leaves_pool_serviceable() {
        let items: Vec<u32> = (0..16).collect();
        let poisoned = std::panic::catch_unwind(|| {
            par_map(4, &items, |_, &x| {
                assert!(x != 3, "poisoned worker");
                x
            })
        });
        assert!(poisoned.is_err());
        // The next job runs normally on the same pool.
        let out = par_map(4, &items, |_, &x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn catch_isolates_panicking_items() {
        let out = par_map_catch_range(4, 16, |x| {
            assert!(x != 7, "item 7 exploded");
            x as u32 * 2
        });
        assert_eq!(out.len(), 16);
        for (i, r) in out.iter().enumerate() {
            if i == 7 {
                let msg = r.as_ref().unwrap_err();
                assert!(msg.contains("item 7 exploded"), "{msg}");
            } else {
                assert_eq!(r.as_ref().unwrap(), &(i as u32 * 2));
            }
        }
    }

    #[test]
    fn catch_is_schedule_independent() {
        let f = |x: usize| {
            assert!(!x.is_multiple_of(13), "multiple of 13");
            x
        };
        assert_eq!(par_map_catch_range(1, 64, f), par_map_catch_range(8, 64, f));
    }
}
