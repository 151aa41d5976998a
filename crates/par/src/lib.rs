//! A zero-dependency scoped thread pool for RiskRoute's embarrassingly
//! parallel sweeps (all-pairs routing, candidate scoring, replay ticks).
//!
//! # Determinism contract
//!
//! This crate is the one place that picks a schedule from the worker
//! count: with one worker each primitive runs the caller's per-item closure
//! inline, in input order; with N workers it runs the same closure on a
//! pool. The pool exists to make parallel runs **bit-identical** to
//! one-worker ones, so both primitives are *ordered*:
//! [`try_par_map_collect`] returns `f(0, &items[0]), f(1, &items[1]), …` in
//! input order no matter which worker computed which element or in what
//! order they finished, and [`try_par_fold`] merges per-item parts in
//! input order. Callers that fold floating-point sums therefore replay the
//! exact one-worker addition order, and downstream sorts and greedy argmax
//! tie-breaks see the same element order either way.
//!
//! # Scheduling
//!
//! Work is distributed by chunked self-stealing: the item range is split
//! into contiguous chunks and idle workers steal the next unclaimed chunk
//! from a shared cursor. Chunk *assignment* is timing-dependent; chunk
//! *placement* in the output is not — each result lands in its input slot.
//!
//! # Budget check-in
//!
//! Budget-aware callers (the replay and scenario sweeps) drive the pool in
//! waves of at most [`Parallelism::workers`] items and consult their
//! `WorkBudget` between waves; inside a wave the pool never outruns the
//! items it was handed. A deterministic (max-work) cut therefore lands on
//! the same stage boundary regardless of thread count — the caller computes
//! the wave quota from the budget *before* dispatch rather than racing
//! workers against the counter.
//!
//! # Panic poisoning
//!
//! A panicking task poisons the pool: the panic is caught on the worker
//! (on the calling thread with one worker), remaining chunks are
//! abandoned, every worker drains, and the call returns a typed
//! [`PoolError`] instead of aborting the process (callers in `riskroute`
//! convert it to their own error taxonomy).
//!
//! # Observability
//!
//! Each worker accumulates plain local counters (tasks executed, chunk
//! steals, idle parks) and the pool merges them into the global
//! `riskroute-obs` registry once at drain, so the hot loop never touches
//! the shared registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Upper bound on spawned workers, far above any sane `--threads` value;
/// protects against absurd requests turning into fork bombs.
pub const MAX_WORKERS: usize = 256;

/// How many chunks each worker's fair share is split into: small enough to
/// amortize the cursor contention, large enough that uneven tasks (early
/// sources have longer inner loops) still balance by stealing.
const CHUNKS_PER_WORKER: usize = 4;

/// The parallelism knob threaded from the CLI's global `--threads` flag
/// down to every hot path.
///
/// `Sequential` means one worker: the same per-item unit every schedule
/// runs, inline on the calling thread, in input order. It is the
/// reference the equivalence suite compares parallel runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker: each unit runs inline, in input order (the default).
    #[default]
    Sequential,
    /// Spawn exactly this many workers (clamped to `1..=`[`MAX_WORKERS`]).
    Threads(usize),
    /// Spawn one worker per available hardware thread.
    Auto,
}

impl Parallelism {
    /// The number of workers this knob resolves to.
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.clamp(1, MAX_WORKERS),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(MAX_WORKERS),
        }
    }

    /// Whether this is the one-worker reference knob.
    pub fn is_sequential(self) -> bool {
        matches!(self, Parallelism::Sequential)
    }

    /// Map a `--threads N` count to a knob: `0` and `1` mean the one-worker
    /// reference knob, anything larger a pool of `n` workers.
    pub fn from_worker_count(n: usize) -> Self {
        if n <= 1 {
            Parallelism::Sequential
        } else {
            Parallelism::Threads(n)
        }
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parallelism::Sequential => write!(f, "sequential"),
            Parallelism::Threads(n) => write!(f, "{n} threads"),
            Parallelism::Auto => write!(f, "auto"),
        }
    }
}

/// A poisoned pool: the typed replacement for a parallel abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// One or more tasks panicked. The panics were caught on their
    /// workers, the remaining work was abandoned, and the pool drained.
    WorkerPanicked {
        /// Number of tasks whose panic was caught.
        panicked: usize,
    },
    /// A worker died without completing its claimed chunk and without a
    /// caught panic — defensive; unreachable through safe task code.
    WorkerLost,
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::WorkerPanicked { panicked } => {
                write!(f, "parallel pool poisoned: {panicked} task(s) panicked")
            }
            PoolError::WorkerLost => {
                write!(f, "parallel pool poisoned: a worker died mid-chunk")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Map `f` over `items` with the given parallelism, returning results in
/// **input order** (see the module docs' determinism contract).
///
/// Task panics are caught in every mode — including `Sequential`, so the
/// contract is uniform — and surface as [`PoolError::WorkerPanicked`].
///
/// # Errors
/// [`PoolError`] when any task panicked (the pool is drained first).
pub fn try_par_map_collect<T, R, F>(
    par: Parallelism,
    items: &[T],
    f: F,
) -> Result<Vec<R>, PoolError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = par.workers().min(n);
    if workers <= 1 {
        let mut out = Vec::with_capacity(n);
        for (i, item) in items.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                Ok(r) => out.push(r),
                Err(_) => return Err(PoolError::WorkerPanicked { panicked: 1 }),
            }
        }
        return Ok(out);
    }
    run_pool(workers, items, &f)
}

/// How many items one pooled [`try_par_fold`] dispatch covers before its
/// parts are merged. Purely a memory bound on the in-flight parts: the
/// merge runs in input order whatever the wave size or worker count, so
/// this constant never affects results.
pub const FOLD_WAVE: usize = 256;

/// Fold `items` into `acc` in input order with the given parallelism.
///
/// With one worker (or at most one item) `unit(item, acc)` writes straight
/// into `acc`, item by item, with no per-item part. With N workers each
/// item runs `unit(item, &mut part)` on its own `fresh()` part, in waves
/// of [`FOLD_WAVE`] items, and `merge(acc, part)` folds the parts on the
/// calling thread in input order. `fresh()` must be an identity of
/// `merge` — an empty collection, or `-0.0` for a float sum (`-0.0 + x`
/// is `x` bit for bit, `+0.0 + -0.0` is not) — so both schedules leave
/// `acc` bit-identical.
///
/// # Errors
/// [`PoolError`] when any unit panicked, at every worker count; `acc` then
/// holds an unspecified prefix and should be discarded.
pub fn try_par_fold<T, A, F, U, M>(
    par: Parallelism,
    items: &[T],
    acc: &mut A,
    fresh: F,
    unit: U,
    mut merge: M,
) -> Result<(), PoolError>
where
    T: Sync,
    A: Send,
    F: Fn() -> A + Sync,
    U: Fn(&T, &mut A) + Sync,
    M: FnMut(&mut A, A),
{
    if par.workers().min(items.len()) <= 1 {
        return catch_unwind(AssertUnwindSafe(|| {
            for item in items {
                unit(item, acc);
            }
        }))
        .map_err(|_| PoolError::WorkerPanicked { panicked: 1 });
    }
    for wave in items.chunks(FOLD_WAVE) {
        let parts = try_par_map_collect(par, wave, |_, item| {
            let mut part = fresh();
            unit(item, &mut part);
            part
        })?;
        for part in parts {
            merge(acc, part);
        }
    }
    Ok(())
}

/// [`try_par_fold`] for infallible pipelines: a poisoned fold re-raises as
/// a panic on the caller's thread (what the unit's own panic would have
/// done had it not been caught).
///
/// # Panics
/// Panics when any unit panicked.
pub fn par_fold<T, A, F, U, M>(
    par: Parallelism,
    items: &[T],
    acc: &mut A,
    fresh: F,
    unit: U,
    merge: M,
) where
    T: Sync,
    A: Send,
    F: Fn() -> A + Sync,
    U: Fn(&T, &mut A) + Sync,
    M: FnMut(&mut A, A),
{
    if let Err(e) = try_par_fold(par, items, acc, fresh, unit, merge) {
        panic!("{e}");
    }
}

/// What one worker brings home at drain.
struct WorkerOutcome<R> {
    /// `(input index, result)` pairs, later placed into ordered slots.
    results: Vec<(usize, R)>,
    tasks: u64,
    steals: u64,
    panicked: usize,
}

fn run_pool<T, R, F>(workers: usize, items: &[T], f: &F) -> Result<Vec<R>, PoolError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let chunk = n.div_ceil(workers * CHUNKS_PER_WORKER).max(1);
    let cursor = AtomicUsize::new(0);
    let poisoned = AtomicUsize::new(0);
    let mut outcomes: Vec<WorkerOutcome<R>> = Vec::with_capacity(workers);
    let mut lost = 0usize;
    // Capture the dispatching thread's attribution scope so every worker
    // reports counters and spans to the same trace (one load + branch
    // when collection is disabled: the scope is NONE and enter() no-ops).
    let obs_scope = riskroute_obs::ObsScope::current();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let _obs = obs_scope.enter();
                let mut results: Vec<(usize, R)> = Vec::new();
                let mut tasks = 0u64;
                let mut steals = 0u64;
                let mut panicked = 0usize;
                loop {
                    if poisoned.load(Ordering::Relaxed) > 0 {
                        break;
                    }
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    steals += 1;
                    let end = (start + chunk).min(n);
                    for (i, item) in items.iter().enumerate().take(end).skip(start) {
                        match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                            Ok(r) => {
                                results.push((i, r));
                                tasks += 1;
                            }
                            Err(_) => {
                                panicked += 1;
                                poisoned.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                }
                WorkerOutcome {
                    results,
                    tasks,
                    steals,
                    panicked,
                }
            }));
        }
        for h in handles {
            match h.join() {
                Ok(o) => outcomes.push(o),
                // A panic escaping the per-task catch is unreachable through
                // safe code; drain defensively rather than re-raising.
                Err(_) => lost += 1,
            }
        }
    });

    // Merge per-worker counters into the global registry once, at drain.
    if riskroute_obs::is_enabled() {
        let tasks: u64 = outcomes.iter().map(|o| o.tasks).sum();
        let steals: u64 = outcomes.iter().map(|o| o.steals).sum();
        let parks = outcomes.iter().filter(|o| o.steals == 0).count() as u64;
        riskroute_obs::counter_add("par_pool_drains", 1);
        riskroute_obs::counter_add("par_tasks_executed", tasks);
        riskroute_obs::counter_add("par_chunk_steals", steals);
        riskroute_obs::counter_add("par_idle_parks", parks);
        riskroute_obs::gauge_max("par_pool_workers", workers as f64);
    }

    let panicked: usize = outcomes.iter().map(|o| o.panicked).sum();
    if panicked > 0 {
        return Err(PoolError::WorkerPanicked { panicked });
    }
    if lost > 0 {
        return Err(PoolError::WorkerLost);
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for o in outcomes {
        for (i, r) in o.results {
            slots[i] = Some(r);
        }
    }
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        match slot {
            Some(r) => out.push(r),
            None => return Err(PoolError::WorkerLost),
        }
    }
    Ok(out)
}

/// Most reusable scratch objects a pool will hold onto; checked-in items
/// beyond this are dropped instead of stacked (a worker count far above
/// this is already clamped by [`MAX_WORKERS`], so the cap only matters if
/// callers leak guards across wildly bursty scopes).
const SCRATCH_POOL_CAP: usize = 64;

/// A lock-guarded stack of reusable worker scratch state.
///
/// `riskroute-par` spawns scoped workers per drain, so `thread_local!`
/// scratch dies with each scope. This pool outlives the scopes: a worker
/// checks an item out with [`ScratchPool::with`], mutates it, and the item
/// returns to the stack for the next drain — steady-state runs reuse the
/// same buffers instead of reallocating per task. Intended for `static`
/// use (`new` is `const`).
///
/// Checkout/check-in each hold the lock only to pop/push, so contention is
/// bounded by two short critical sections per task. If the closure panics
/// the item is dropped, never returned dirty.
pub struct ScratchPool<T> {
    name: &'static str,
    stack: Mutex<Vec<T>>,
}

impl<T> ScratchPool<T> {
    /// A new empty pool; `name` prefixes the obs counters
    /// (`{name}_reuses` / `{name}_allocs`).
    pub const fn named(name: &'static str) -> Self {
        ScratchPool {
            name,
            stack: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<T>> {
        // A panic can never happen inside the push/pop critical sections,
        // but recover from poisoning defensively anyway.
        self.stack
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Run `f` with a pooled scratch item, creating one via `make` when the
    /// pool is empty. The item is returned to the pool afterwards (dropped
    /// if `f` panics or the pool is at capacity).
    pub fn with<R>(&self, make: impl FnOnce() -> T, f: impl FnOnce(&mut T) -> R) -> R {
        let pooled = self.lock().pop();
        let reused = pooled.is_some();
        if riskroute_obs::is_enabled() {
            let counter = if reused {
                format!("{}_reuses", self.name)
            } else {
                format!("{}_allocs", self.name)
            };
            riskroute_obs::counter_add(&counter, 1);
        }
        let mut item = pooled.unwrap_or_else(make);
        let out = f(&mut item);
        let mut stack = self.lock();
        if stack.len() < SCRATCH_POOL_CAP {
            stack.push(item);
        }
        out
    }
}

impl<T> fmt::Debug for ScratchPool<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScratchPool")
            .field("name", &self.name)
            .field("pooled", &self.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn par_map_collect<T: Sync, R: Send>(
        par: Parallelism,
        items: &[T],
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        try_par_map_collect(par, items, f).unwrap()
    }

    #[test]
    fn sequential_knob_resolves_to_one_worker() {
        assert_eq!(Parallelism::Sequential.workers(), 1);
        assert!(Parallelism::Sequential.is_sequential());
        assert!(!Parallelism::Threads(4).is_sequential());
        assert!(Parallelism::Auto.workers() >= 1);
    }

    #[test]
    fn worker_counts_clamp() {
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        assert_eq!(Parallelism::Threads(7).workers(), 7);
        assert_eq!(Parallelism::Threads(1 << 20).workers(), MAX_WORKERS);
    }

    #[test]
    fn from_worker_count_maps_one_to_sequential() {
        assert_eq!(Parallelism::from_worker_count(0), Parallelism::Sequential);
        assert_eq!(Parallelism::from_worker_count(1), Parallelism::Sequential);
        assert_eq!(Parallelism::from_worker_count(4), Parallelism::Threads(4));
    }

    #[test]
    fn knob_displays() {
        assert_eq!(Parallelism::Sequential.to_string(), "sequential");
        assert_eq!(Parallelism::Threads(4).to_string(), "4 threads");
        assert_eq!(Parallelism::Auto.to_string(), "auto");
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: [u32; 0] = [];
        let out = par_map_collect(Parallelism::Threads(4), &items, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs() {
        let out = par_map_collect(Parallelism::Threads(8), &[41], |i, &x| x + i + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn results_preserve_input_order_under_many_workers() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map_collect(Parallelism::Threads(8), &items, |i, &x| {
            assert_eq!(i, x, "index matches the item's position");
            x * 3
        });
        let expect: Vec<usize> = (0..1000).map(|x| x * 3).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn uneven_task_durations_still_come_back_ordered() {
        let items: Vec<u64> = (0..64).collect();
        let out = par_map_collect(Parallelism::Threads(4), &items, |_, &x| {
            // Early items spin longest so late chunks finish first.
            let spins = (64 - x) * 1000;
            let mut acc = 0u64;
            for s in 0..spins {
                acc = acc.wrapping_add(s);
            }
            std::hint::black_box(acc);
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn panicking_task_poisons_the_pool() {
        let items: Vec<usize> = (0..128).collect();
        let err = try_par_map_collect(Parallelism::Threads(4), &items, |_, &x| {
            assert!(x != 77, "seeded failure");
            x
        })
        .unwrap_err();
        let PoolError::WorkerPanicked { panicked } = err else {
            panic!("expected WorkerPanicked, got {err:?}");
        };
        assert!(panicked >= 1);
        assert!(err.to_string().contains("poisoned"));
    }

    #[test]
    fn sequential_mode_reports_panics_too() {
        let err = try_par_map_collect(Parallelism::Sequential, &[1, 2, 3], |_, &x| {
            assert!(x != 2);
            x
        })
        .unwrap_err();
        assert_eq!(err, PoolError::WorkerPanicked { panicked: 1 });
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn infallible_wrapper_reraises_poison() {
        let mut sum = 0;
        par_fold(
            Parallelism::Threads(2),
            &[0, 1],
            &mut sum,
            || 0,
            |&x: &i32, acc| {
                assert!(x != 1);
                *acc += x;
            },
            |acc, part| *acc += part,
        );
    }

    #[test]
    fn scratch_pool_reuses_checked_in_items() {
        let pool: ScratchPool<Vec<u64>> = ScratchPool::named("test_scratch");
        let mut allocs = 0;
        pool.with(
            || {
                allocs += 1;
                vec![1]
            },
            |v| v.push(2),
        );
        pool.with(
            || {
                allocs += 1;
                Vec::new()
            },
            |v| assert_eq!(v, &[1, 2], "the mutated item came back"),
        );
        assert_eq!(allocs, 1, "second checkout reused the pooled item");
    }

    #[test]
    fn scratch_pool_drops_items_on_panic() {
        let pool: ScratchPool<u32> = ScratchPool::named("test_scratch_panic");
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            pool.with(|| 7, |_| panic!("seeded"));
        }));
        assert!(poisoned.is_err());
        // The panicking checkout was dropped, not returned dirty.
        let mut allocs = 0;
        pool.with(
            || {
                allocs += 1;
                9
            },
            |v| assert_eq!(*v, 9),
        );
        assert_eq!(allocs, 1);
    }

    #[test]
    fn obs_counters_merge_at_drain() {
        riskroute_obs::enable();
        let before = riskroute_obs::counter_value("par_tasks_executed");
        let items: Vec<u32> = (0..100).collect();
        let _ = par_map_collect(Parallelism::Threads(2), &items, |_, &x| x);
        let after = riskroute_obs::counter_value("par_tasks_executed");
        assert!(after >= before + 100, "before {before}, after {after}");
    }

    #[test]
    fn workers_inherit_the_dispatching_scope() {
        riskroute_obs::enable();
        let scope = riskroute_obs::ObsScope::begin("pool-test");
        let _g = scope.enter();
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map_collect(Parallelism::Threads(4), &items, |_, &x| {
            riskroute_obs::counter_add("pool_scope_probe", 1);
            x
        });
        drop(_g);
        let attributed = riskroute_obs::trace_counters(scope.trace_id());
        assert_eq!(attributed.get("pool_scope_probe"), Some(&64));
        // The drain-time pool counters land on the same trace: the pool
        // drains on the dispatching thread while the scope is installed.
        assert!(attributed.get("par_tasks_executed").copied().unwrap_or(0) >= 64);
    }
}
