//! Request-scoped attribution: trace IDs and a thread-inheritable scope
//! context that routes counter deltas and span trees to the active
//! request.
//!
//! # Model
//!
//! An [`ObsScope`] is a tiny `Copy` token naming one *trace* — one unit of
//! externally-attributable work, e.g. one `riskroute serve` request or one
//! one-shot CLI command. [`ObsScope::begin`] allocates a fresh trace ID
//! and registers it in a bounded per-trace counter table;
//! [`ObsScope::enter`] installs the scope on the current thread (RAII
//! guard restores the previous scope), and [`ObsScope::current`] captures
//! whatever is installed so worker pools can re-install it on their
//! threads. While a scope is installed, every [`crate::counter_add`]
//! lands twice: once in the process-global counter map (unchanged
//! behaviour) and once in the per-trace table, and every span records the
//! trace ID plus its parent span, forming a cross-thread span tree.
//!
//! # Overhead contract
//!
//! When collection is disabled, [`ObsScope::begin`] / [`current`] /
//! [`enter`] all reduce to the same one relaxed atomic load and branch as
//! every other collector entry point: `begin` returns [`ObsScope::NONE`]
//! and `enter` on it installs nothing. Trace IDs never influence computed
//! outputs — they exist only inside the collector — so results stay
//! byte-identical with tracing on or off.
//!
//! [`current`]: ObsScope::current
//! [`enter`]: ObsScope::enter

use crate::{is_enabled, lock};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cap on retained traces; when full, the oldest (smallest-ID) trace is
/// evicted so a long-running daemon's attribution table stays bounded.
pub const MAX_TRACES: usize = 4096;

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ORD: AtomicU64 = AtomicU64::new(1);
static TRACES: Mutex<BTreeMap<u64, TraceStats>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// (active trace ID, innermost open span ID) for this thread.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Small stable per-thread ordinal for trace-event `tid` columns.
    static THREAD_ORD: Cell<u64> = const { Cell::new(0) };
}

/// Per-trace attribution: the label given to [`ObsScope::begin`] and every
/// counter delta recorded while the trace's scope was installed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Human-readable label (e.g. the request op or CLI command).
    pub label: String,
    /// Counter deltas attributed to this trace.
    pub counters: BTreeMap<String, u64>,
}

/// A request-scoped attribution token: trace ID plus the span context to
/// inherit. `Copy`, thread-safe to pass around, and inert when collection
/// is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsScope {
    trace: u64,
    parent: u64,
}

impl ObsScope {
    /// The inert scope: no trace, attributes nothing.
    pub const NONE: ObsScope = ObsScope {
        trace: 0,
        parent: 0,
    };

    /// Allocate a fresh trace and register it under `label`. Returns
    /// [`ObsScope::NONE`] when collection is disabled (one load + branch).
    /// The scope is not installed — call [`ObsScope::enter`].
    pub fn begin(label: &str) -> ObsScope {
        if !is_enabled() {
            return ObsScope::NONE;
        }
        let trace = NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed);
        let mut traces = lock(&TRACES);
        while traces.len() >= MAX_TRACES {
            traces.pop_first();
        }
        traces.insert(
            trace,
            TraceStats {
                label: label.to_string(),
                counters: BTreeMap::new(),
            },
        );
        ObsScope { trace, parent: 0 }
    }

    /// Capture the scope installed on the current thread (trace plus the
    /// innermost open span), for re-installation on worker threads.
    /// Returns [`ObsScope::NONE`] when collection is disabled.
    pub fn current() -> ObsScope {
        if !is_enabled() {
            return ObsScope::NONE;
        }
        let (trace, parent) = CURRENT.with(Cell::get);
        ObsScope { trace, parent }
    }

    /// The trace ID (0 for [`ObsScope::NONE`]).
    pub fn trace_id(self) -> u64 {
        self.trace
    }

    /// Whether this is the inert scope.
    pub fn is_none(self) -> bool {
        self.trace == 0
    }

    /// Install this scope on the current thread until the returned guard
    /// drops (which restores whatever was installed before). A no-op
    /// (one load + branch) when collection is disabled.
    pub fn enter(self) -> ScopeGuard {
        if !is_enabled() {
            return ScopeGuard {
                prev: None,
                _single_thread: PhantomData,
            };
        }
        let prev = CURRENT.with(|c| c.replace((self.trace, self.parent)));
        ScopeGuard {
            prev: Some(prev),
            _single_thread: PhantomData,
        }
    }
}

/// RAII guard from [`ObsScope::enter`]; restores the previously installed
/// scope on drop. Not `Send`: it must drop on the thread that entered.
#[must_use = "the scope is uninstalled when the guard drops"]
pub struct ScopeGuard {
    prev: Option<(u64, u64)>,
    _single_thread: PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| c.set(prev));
        }
    }
}

/// Counter deltas attributed to `trace` so far (empty when the trace is
/// unknown or evicted).
pub fn trace_counters(trace: u64) -> BTreeMap<String, u64> {
    lock(&TRACES)
        .get(&trace)
        .map(|t| t.counters.clone())
        .unwrap_or_default()
}

/// Allocate a process-unique span ID.
pub(crate) fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Record `span_id` as the innermost open span on this thread; returns
/// `(trace, previous parent)` for the span to restore on drop.
pub(crate) fn push_span(span_id: u64) -> (u64, u64) {
    CURRENT.with(|c| {
        let (trace, parent) = c.get();
        c.set((trace, span_id));
        (trace, parent)
    })
}

/// Restore the span context captured by [`push_span`].
pub(crate) fn pop_span(trace: u64, parent: u64) {
    CURRENT.with(|c| c.set((trace, parent)));
}

/// Small stable ordinal for this thread (assigned on first use; 1-based).
pub(crate) fn thread_ordinal() -> u64 {
    THREAD_ORD.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_THREAD_ORD.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

/// Add `n` to `name` in the table of the trace installed on this thread
/// (no-op without an installed trace; the caller already checked
/// [`is_enabled`]).
pub(crate) fn attribute_counter(name: &str, n: u64) {
    let trace = CURRENT.with(|c| c.get().0);
    if trace == 0 {
        return;
    }
    let mut traces = lock(&TRACES);
    if let Some(t) = traces.get_mut(&trace) {
        if let Some(v) = t.counters.get_mut(name) {
            *v += n;
        } else {
            t.counters.insert(name.to_string(), n);
        }
    }
}

/// Copy of the whole per-trace table for snapshots.
pub(crate) fn traces_snapshot() -> BTreeMap<u64, TraceStats> {
    lock(&TRACES).clone()
}

/// Clear the per-trace table and restart trace/span ID allocation (called
/// from [`crate::reset`]). Installed thread contexts are left alone —
/// attribution to a cleared trace simply lands nowhere.
pub(crate) fn reset_traces() {
    lock(&TRACES).clear();
    NEXT_TRACE_ID.store(1, Ordering::Relaxed);
    NEXT_SPAN_ID.store(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::tests::with_collector;
    use crate::{counter_add, counter_value, snapshot};

    #[test]
    fn disabled_scope_is_inert() {
        let _g = crate::tests::TEST_GUARD
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        crate::disable();
        crate::reset();
        let scope = ObsScope::begin("quiet");
        assert!(scope.is_none());
        assert_eq!(scope, ObsScope::NONE);
        let _guard = scope.enter();
        assert!(ObsScope::current().is_none());
        counter_add("quiet_work", 3);
        assert!(snapshot().traces.is_empty());
    }

    #[test]
    fn counters_attribute_to_the_installed_trace() {
        with_collector(|| {
            let a = ObsScope::begin("req-a");
            let b = ObsScope::begin("req-b");
            {
                let _g = a.enter();
                counter_add("work", 3);
                {
                    let _g = b.enter();
                    counter_add("work", 10);
                }
                // Guard restored scope `a`.
                counter_add("work", 4);
            }
            counter_add("work", 100); // unscoped: global only
            assert_eq!(counter_value("work"), 117);
            assert_eq!(trace_counters(a.trace_id())["work"], 7);
            assert_eq!(trace_counters(b.trace_id())["work"], 10);
            let snap = snapshot();
            assert_eq!(snap.traces[&a.trace_id()].label, "req-a");
            assert_eq!(snap.traces[&b.trace_id()].counters["work"], 10);
        });
    }

    #[test]
    fn scope_crosses_threads_via_current() {
        with_collector(|| {
            let scope = ObsScope::begin("cross");
            let _g = scope.enter();
            let captured = ObsScope::current();
            assert_eq!(captured.trace_id(), scope.trace_id());
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _g = captured.enter();
                    counter_add("thread_work", 5);
                });
            });
            assert_eq!(trace_counters(scope.trace_id())["thread_work"], 5);
        });
    }

    #[test]
    fn spans_record_trace_parent_and_ids() {
        with_collector(|| {
            let scope = ObsScope::begin("spans");
            let _g = scope.enter();
            {
                let _outer = crate::span!("outer");
                let _inner = crate::span!("inner");
            }
            let _orphan = crate::span!("orphan_check");
            drop(_orphan);
            let snap = snapshot();
            let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
            let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
            assert_eq!(inner.trace, scope.trace_id());
            assert_eq!(outer.trace, scope.trace_id());
            assert_eq!(inner.parent, outer.id);
            assert_eq!(outer.parent, 0);
            assert_ne!(inner.id, outer.id);
            assert_ne!(inner.thread, 0);
            // After both guards dropped, new spans are roots again.
            let orphan = snap
                .spans
                .iter()
                .find(|s| s.name == "orphan_check")
                .unwrap();
            assert_eq!(orphan.parent, 0);
        });
    }

    #[test]
    fn trace_table_is_bounded_with_oldest_evicted() {
        with_collector(|| {
            let first = ObsScope::begin("first");
            for i in 0..MAX_TRACES {
                let _ = ObsScope::begin(&format!("filler-{i}"));
            }
            let snap = snapshot();
            assert_eq!(snap.traces.len(), MAX_TRACES);
            assert!(!snap.traces.contains_key(&first.trace_id()));
            // Attribution to the evicted trace lands nowhere, silently.
            let _g = first.enter();
            counter_add("late", 1);
            assert!(trace_counters(first.trace_id()).is_empty());
        });
    }

    #[test]
    fn reset_clears_traces_and_restarts_ids() {
        with_collector(|| {
            let a = ObsScope::begin("a");
            assert!(a.trace_id() >= 1);
            crate::reset();
            assert!(snapshot().traces.is_empty());
            let b = ObsScope::begin("b");
            assert_eq!(b.trace_id(), 1);
        });
    }
}
