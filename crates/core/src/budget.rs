//! Cooperative cancellation and work budgets for long-running computations.
//!
//! The expensive RiskRoute computations — greedy k-link provisioning
//! ([`crate::provisioning::greedy_links_budgeted`]), storm replay
//! ([`crate::replay::replay_raw_advisories_budgeted`]) and resilience
//! sweeps ([`crate::scenario::run_sweep_budgeted`]) — accept a
//! [`WorkBudget`] and check it at **clean stage boundaries** (a greedy
//! iteration, a replay tick, a scenario). When the budget runs out the
//! computation does not abort: it returns [`Budgeted::Partial`] carrying
//! everything finished so far, so a caller can checkpoint the prefix (see
//! [`crate::checkpoint`]) and continue later by passing it back as the
//! prior: the prefix's length is where the run resumes.
//!
//! A budget combines three independent limits, any of which stops the run:
//!
//! - a **wall-clock deadline** (bounded-latency mode for interactive or
//!   deadline-scheduled callers),
//! - a **work counter** capping the number of candidate evaluations /
//!   replay ticks (deterministic, reproducible stopping — the chaos
//!   harness's kill switch), and
//! - an **external cancel flag** (preemption: an operator, supervisor, or
//!   signal handler flips an [`AtomicBool`] shared via
//!   [`WorkBudget::cancel_handle`]).
//!
//! Checks are *cooperative*: work already inside a stage completes before
//! the stop is observed, so a `Partial` result is always a consistent
//! prefix of the uninterrupted run. The stop checks are ordered
//! deterministically (cancel, then work, then deadline) so that runs
//! limited only by the work counter report identical [`StopReason`]s on
//! every machine.

use crate::error::Result;
use crate::replay::CHECKPOINT_BATCH;
use riskroute_par::Parallelism;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budgeted computation stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The external cancel flag was raised.
    Cancelled,
    /// The work counter reached its cap.
    WorkExhausted,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Cancelled => write!(f, "cancelled by external flag"),
            StopReason::WorkExhausted => write!(f, "work budget exhausted"),
            StopReason::DeadlineExceeded => write!(f, "wall-clock deadline exceeded"),
        }
    }
}

/// Result of a budget-aware computation: either the full result, or a
/// consistent prefix and why it stopped. The prefix's length (links chosen,
/// ticks replayed, scenarios evaluated) is where a resumed run continues:
/// every budgeted driver takes the prefix back as its prior.
#[derive(Debug, Clone, PartialEq)]
pub enum Budgeted<T> {
    /// The computation ran to completion within its budget.
    Complete(T),
    /// The budget ran out at a stage boundary.
    Partial {
        /// Everything finished before the stop — a consistent prefix of the
        /// uninterrupted run, never a torn intermediate.
        completed: T,
        /// Which limit stopped the run.
        stopped: StopReason,
    },
}

impl<T> Budgeted<T> {
    /// `Complete` when nothing stopped the run, else `Partial`.
    pub fn new(completed: T, stopped: Option<StopReason>) -> Self {
        match stopped {
            None => Budgeted::Complete(completed),
            Some(stopped) => Budgeted::Partial { completed, stopped },
        }
    }

    /// Consume, returning the completed work and the stop reason (if any).
    pub fn into_parts(self) -> (T, Option<StopReason>) {
        match self {
            Budgeted::Complete(t) => (t, None),
            Budgeted::Partial { completed, stopped } => (completed, Some(stopped)),
        }
    }
}

/// A cooperative budget token threaded through long computations.
///
/// Cheap to check (`charge` is one atomic add; `exhausted` is a couple of
/// atomic loads plus, when a deadline is set, one clock read), shareable
/// across threads by reference, and cancellable from outside via
/// [`cancel_handle`](WorkBudget::cancel_handle).
#[derive(Debug)]
pub struct WorkBudget {
    deadline: Option<Instant>,
    max_work: Option<u64>,
    work_done: AtomicU64,
    cancel: Arc<AtomicBool>,
    scope: riskroute_obs::ObsScope,
}

impl Default for WorkBudget {
    fn default() -> Self {
        WorkBudget::unlimited()
    }
}

impl WorkBudget {
    /// A budget that never stops anything (the default for non-budgeted
    /// entry points).
    pub fn unlimited() -> Self {
        WorkBudget {
            deadline: None,
            max_work: None,
            work_done: AtomicU64::new(0),
            cancel: Arc::new(AtomicBool::new(false)),
            // Budgets are built on the requesting thread (the serve worker
            // or the CLI main thread), so the scope installed there is the
            // trace this budget's work belongs to.
            scope: riskroute_obs::ObsScope::current(),
        }
    }

    /// Cap wall-clock time at `duration` from now.
    #[must_use]
    pub fn with_deadline(mut self, duration: Duration) -> Self {
        self.deadline = Some(Instant::now() + duration);
        self
    }

    /// Cap wall-clock time at `ms` milliseconds from now. A value of 0
    /// exhausts the budget at the first stage boundary.
    #[must_use]
    pub fn with_deadline_ms(self, ms: u64) -> Self {
        self.with_deadline(Duration::from_millis(ms))
    }

    /// Cap total charged work at `units`. A value of 0 exhausts the budget
    /// at the first stage boundary.
    #[must_use]
    pub fn with_max_work(mut self, units: u64) -> Self {
        self.max_work = Some(units);
        self
    }

    /// The shared cancel flag. Store `true` (any ordering) to request a
    /// cooperative stop at the next stage boundary.
    pub fn cancel_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// Adopt an externally owned cancel flag instead of the private one.
    ///
    /// This lets one flag fan out over many budgets — the serve daemon
    /// wires its drain-shed flag into every in-flight request budget so a
    /// single store sheds them all at their next stage boundary.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Record `units` of completed work (candidate evaluations, replay
    /// ticks). Charging past the cap does not interrupt anything by itself;
    /// the overshoot is observed at the next [`exhausted`](Self::exhausted)
    /// check.
    pub fn charge(&self, units: u64) {
        self.work_done.fetch_add(units, Ordering::Relaxed);
    }

    /// Total work charged so far.
    pub fn work_done(&self) -> u64 {
        self.work_done.load(Ordering::Relaxed)
    }

    /// Work units left before the cap trips, or `None` when uncapped.
    ///
    /// The budgeted wave driver sizes its waves by this *before* handing
    /// work to the pool, so a deterministic (max-work) cut lands on the
    /// same stage boundary regardless of thread count — exactly where a
    /// one-worker run, which checks [`exhausted`](Self::exhausted) before
    /// every unit, stops.
    pub fn work_remaining(&self) -> Option<u64> {
        self.max_work
            .map(|max| max.saturating_sub(self.work_done()))
    }

    /// The attribution scope captured when this budget was built. Budgeted
    /// drivers re-enter it at their top so work charged against the budget
    /// reports to the owning request's trace even when the driver runs on
    /// a different thread than the one that created the budget.
    pub fn scope(&self) -> riskroute_obs::ObsScope {
        self.scope
    }

    /// Whether any limit has been hit, and which. Checks are ordered
    /// cancel → work → deadline so deterministic limits mask the
    /// clock-dependent one.
    pub fn exhausted(&self) -> Option<StopReason> {
        if self.cancel.load(Ordering::Relaxed) {
            return Some(StopReason::Cancelled);
        }
        if let Some(max) = self.max_work {
            if self.work_done() >= max {
                return Some(StopReason::WorkExhausted);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(StopReason::DeadlineExceeded);
            }
        }
        None
    }
}

/// The one budgeted wave driver behind the replay and scenario sweeps.
///
/// Runs `unit(index, item)` over `items[records(done).len()..]`, appending
/// each result to `records(done)` in item order. Each wave checks `budget`,
/// maps `min(checkpoint-batch remainder, work remaining, par.workers())`
/// items with [`riskroute_par::try_par_map_collect`], charges one unit per
/// item, and fires `on_batch(done)` when a [`CHECKPOINT_BATCH`] of new
/// records closes. So with one worker the budget is checked before
/// every unit; at any worker count a `--max-work` cut and every `on_batch`
/// lands on the same item; and the items running at once have distinct
/// `index % par.workers()`.
///
/// Returns `None` when every item ran, or why the budget stopped the rest
/// (the first item not run is the one after `records(done)`'s last).
///
/// # Errors
/// [`crate::Error::WorkerPanic`] when a unit panicked, at any worker count.
pub(crate) fn budgeted_waves<T, R, A>(
    par: Parallelism,
    items: &[T],
    done: &mut A,
    records: impl Fn(&mut A) -> &mut Vec<R>,
    budget: &WorkBudget,
    unit: impl Fn(usize, &T) -> R + Sync,
    mut on_batch: impl FnMut(&A),
) -> Result<Option<StopReason>>
where
    T: Sync,
    R: Send,
{
    let mut i = records(done).len();
    let mut since_batch = 0usize;
    while i < items.len() {
        if let Some(stopped) = budget.exhausted() {
            return Ok(Some(stopped));
        }
        // ≥ 1: since_batch < CHECKPOINT_BATCH, i < len, and an unexhausted
        // work cap has at least one unit left.
        let mut take = (CHECKPOINT_BATCH - since_batch)
            .min(items.len() - i)
            .min(par.workers());
        if let Some(left) = budget.work_remaining() {
            take = take.min(usize::try_from(left).unwrap_or(usize::MAX));
        }
        let wave = &items[i..i + take];
        let results = riskroute_par::try_par_map_collect(par, wave, |k, item| unit(i + k, item))?;
        records(done).extend(results);
        budget.charge(take as u64);
        i += take;
        since_batch += take;
        if since_batch == CHECKPOINT_BATCH {
            since_batch = 0;
            on_batch(done);
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = WorkBudget::unlimited();
        b.charge(u64::MAX / 2);
        assert_eq!(b.exhausted(), None);
    }

    #[test]
    fn work_cap_trips_at_the_boundary() {
        let b = WorkBudget::unlimited().with_max_work(10);
        b.charge(9);
        assert_eq!(b.exhausted(), None);
        b.charge(1);
        assert_eq!(b.exhausted(), Some(StopReason::WorkExhausted));
    }

    #[test]
    fn zero_budgets_exhaust_immediately() {
        assert_eq!(
            WorkBudget::unlimited().with_max_work(0).exhausted(),
            Some(StopReason::WorkExhausted)
        );
        assert_eq!(
            WorkBudget::unlimited().with_deadline_ms(0).exhausted(),
            Some(StopReason::DeadlineExceeded)
        );
    }

    #[test]
    fn cancel_flag_wins_over_everything() {
        let b = WorkBudget::unlimited().with_max_work(0).with_deadline_ms(0);
        b.cancel_handle().store(true, Ordering::Relaxed);
        assert_eq!(b.exhausted(), Some(StopReason::Cancelled));
    }

    #[test]
    fn deadline_passes_eventually() {
        let b = WorkBudget::unlimited().with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(b.exhausted(), Some(StopReason::DeadlineExceeded));
    }

    #[test]
    fn budgeted_accessors() {
        let c = Budgeted::new(7, None);
        assert_eq!(c, Budgeted::Complete(7));
        assert_eq!(c.into_parts(), (7, None));
        let p = Budgeted::new(3, Some(StopReason::WorkExhausted));
        assert!(matches!(p, Budgeted::Partial { .. }));
        assert_eq!(p.into_parts(), (3, Some(StopReason::WorkExhausted)));
    }

    #[test]
    fn stop_reasons_render() {
        assert!(StopReason::Cancelled.to_string().contains("cancel"));
        assert!(StopReason::WorkExhausted.to_string().contains("work"));
        assert!(StopReason::DeadlineExceeded
            .to_string()
            .contains("deadline"));
    }

    const WORKERS: [Parallelism; 3] = [
        Parallelism::Sequential,
        Parallelism::Threads(2),
        Parallelism::Threads(8),
    ];

    #[test]
    fn budgeted_waves_type_a_panicking_unit_at_any_worker_count() {
        let items: Vec<usize> = (0..20).collect();
        for par in WORKERS {
            let mut done: Vec<usize> = Vec::new();
            let err = budgeted_waves(
                par,
                &items,
                &mut done,
                |d| d,
                &WorkBudget::unlimited(),
                |_, &x| {
                    assert_ne!(x, 11, "deliberate test panic");
                    x
                },
                |_| {},
            )
            .unwrap_err();
            assert!(
                matches!(err, crate::Error::WorkerPanic { panicked } if panicked >= 1),
                "{par}: {err:?}"
            );
        }
    }
}
