//! Process-global observability for the RiskRoute pipeline: structured
//! span events, a metrics registry, and text exporters — with **zero
//! external dependencies**, consistent with `riskroute-rng` /
//! `riskroute-json`.
//!
//! # Model
//!
//! A single process-global collector registry holds everything:
//!
//! - **Spans** ([`Span`], [`span!`]): scoped timers with a monotonic-clock
//!   duration, key/value fields, and a per-thread nesting depth. Dropping
//!   the guard records the event.
//! - **Counters / gauges / histograms** ([`counter_add`], [`gauge_set`],
//!   [`gauge_max`], [`histogram_observe`]): named metrics cheap enough for
//!   hot loops. Histograms use fixed log-spaced buckets
//!   ([`Histogram::log_spaced`]).
//!
//! # Overhead contract
//!
//! When collection is disabled (the default), every entry point reduces to
//! **one relaxed atomic load and a branch** — no locks, no allocation, no
//! clock reads. Hot loops that record per-iteration counts should
//! accumulate plain locals and publish once at the end behind
//! [`is_enabled`], which is stronger than the contract requires.
//!
//! # Exporters
//!
//! [`export::to_jsonl`] writes the full snapshot as JSON Lines (via
//! `riskroute-json`) and [`export::to_prometheus`] renders the Prometheus
//! text-exposition format; both are written atomically by
//! [`export::write_atomic`] (temp + rename), the one atomic writer.
//!
//! ```
//! riskroute_obs::enable();
//! {
//!     let mut s = riskroute_obs::span!("demo_work", items = 3u64);
//!     s.field("phase", "warm");
//!     riskroute_obs::counter_add("demo_items", 3);
//! }
//! let snap = riskroute_obs::snapshot();
//! assert_eq!(snap.counters["demo_items"], 3);
//! assert_eq!(snap.span_stats["demo_work"].count, 1);
//! riskroute_obs::disable();
//! riskroute_obs::reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod export;
mod histogram;
pub mod progress;
pub mod scope;
pub mod summary;

pub use histogram::Histogram;
pub use progress::Heartbeat;
pub use scope::{trace_counters, ObsScope, ScopeGuard, TraceStats};
pub use summary::SpanSummary;

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Cap on buffered span events; beyond it events are counted as dropped
/// (see [`MetricsSnapshot::dropped_events`]) rather than grown without
/// bound.
pub const MAX_EVENTS: usize = 65_536;

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

static EVENTS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static COUNTERS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());
static GAUGES: Mutex<BTreeMap<String, f64>> = Mutex::new(BTreeMap::new());
static HISTOGRAMS: Mutex<BTreeMap<String, Histogram>> = Mutex::new(BTreeMap::new());
static SPAN_STATS: Mutex<BTreeMap<String, SpanStat>> = Mutex::new(BTreeMap::new());

thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// A recorded metric or span field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer (counts, ids). Values above 2^53 lose precision
    /// through the JSONL round-trip.
    U64(u64),
    /// A float (costs, ratios).
    F64(f64),
    /// A label.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One completed span event.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name.
    pub name: String,
    /// Process-unique span ID (for parent/child links; 0 never assigned).
    pub id: u64,
    /// ID of the enclosing span when this span opened (0 = root). Parents
    /// link across threads: a worker inherits the dispatching span via
    /// [`ObsScope`].
    pub parent: u64,
    /// Trace this span is attributed to (0 = no active trace).
    pub trace: u64,
    /// Stable small ordinal of the recording thread (1-based).
    pub thread: u64,
    /// Nesting depth on the recording thread (0 = top level).
    pub depth: u32,
    /// Start time in microseconds since the collector epoch.
    pub start_us: u64,
    /// Monotonic-clock duration in microseconds.
    pub duration_us: u64,
    /// Key/value fields attached via [`Span::field`] / [`span!`].
    pub fields: Vec<(String, FieldValue)>,
}

/// Aggregate per-span-name latency totals (maintained even when the event
/// buffer overflows, so exports stay accurate on long runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Completed spans under this name.
    pub count: u64,
    /// Summed duration in microseconds.
    pub total_us: u64,
}

/// A point-in-time copy of everything the collector holds.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Named monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Named gauges (last or max value, per the call site).
    pub gauges: BTreeMap<String, f64>,
    /// Named fixed-bucket histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// Per-span-name aggregate latency totals.
    pub span_stats: BTreeMap<String, SpanStat>,
    /// Buffered span events (capped at [`MAX_EVENTS`]).
    pub spans: Vec<SpanRecord>,
    /// Per-trace attribution tables keyed by trace ID (capped at
    /// [`scope::MAX_TRACES`], oldest evicted).
    pub traces: BTreeMap<u64, TraceStats>,
    /// Span events discarded because the buffer was full.
    pub dropped_events: u64,
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Metric state stays usable even if a panicking thread poisoned it:
    // everything here is a plain value update with no invariants to break.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Turn collection on. Idempotent; fixes the epoch for [`now_us`] on first
/// call.
pub fn enable() {
    let _ = EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn collection off. Already-buffered data is kept until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether collection is on — the one branch hot paths pay when disabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Discard all buffered events and metrics (collection state is
/// unchanged).
pub fn reset() {
    lock(&EVENTS).clear();
    lock(&COUNTERS).clear();
    lock(&GAUGES).clear();
    lock(&HISTOGRAMS).clear();
    lock(&SPAN_STATS).clear();
    scope::reset_traces();
    DROPPED.store(0, Ordering::Relaxed);
}

/// Microseconds since the collector epoch (first [`enable`] call).
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Add `n` to the named counter. While an [`ObsScope`] is installed on
/// this thread, the delta is also attributed to its trace.
pub fn counter_add(name: &str, n: u64) {
    if !is_enabled() {
        return;
    }
    {
        let mut map = lock(&COUNTERS);
        if let Some(v) = map.get_mut(name) {
            *v += n;
        } else {
            map.insert(name.to_string(), n);
        }
    }
    scope::attribute_counter(name, n);
}

/// Current value of the named counter (0 when never touched).
pub fn counter_value(name: &str) -> u64 {
    lock(&COUNTERS).get(name).copied().unwrap_or(0)
}

/// Set the named gauge.
pub fn gauge_set(name: &str, v: f64) {
    if !is_enabled() {
        return;
    }
    lock(&GAUGES).insert(name.to_string(), v);
}

/// Raise the named gauge to `v` if `v` exceeds its current value
/// (high-water marks like heap peaks).
pub fn gauge_max(name: &str, v: f64) {
    if !is_enabled() {
        return;
    }
    let mut map = lock(&GAUGES);
    match map.get_mut(name) {
        Some(cur) if *cur >= v => {}
        Some(cur) => *cur = v,
        None => {
            map.insert(name.to_string(), v);
        }
    }
}

/// Record `v` into the named histogram, creating it with
/// [`Histogram::latency_default`] buckets on first use. NaN observations
/// are ignored.
pub fn histogram_observe(name: &str, v: f64) {
    if !is_enabled() {
        return;
    }
    let mut map = lock(&HISTOGRAMS);
    if let Some(h) = map.get_mut(name) {
        h.observe(v);
    } else {
        let mut h = Histogram::latency_default();
        h.observe(v);
        map.insert(name.to_string(), h);
    }
}

/// Pre-register the named histogram with custom buckets (e.g. byte sizes
/// instead of latencies). Overwrites any existing histogram of that name.
pub fn histogram_register(name: &str, histogram: Histogram) {
    if !is_enabled() {
        return;
    }
    lock(&HISTOGRAMS).insert(name.to_string(), histogram);
}

/// Copy out everything the collector currently holds.
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: lock(&COUNTERS).clone(),
        gauges: lock(&GAUGES).clone(),
        histograms: lock(&HISTOGRAMS).clone(),
        span_stats: lock(&SPAN_STATS).clone(),
        spans: lock(&EVENTS).clone(),
        traces: scope::traces_snapshot(),
        dropped_events: DROPPED.load(Ordering::Relaxed),
    }
}

struct ActiveSpan {
    name: Cow<'static, str>,
    id: u64,
    parent: u64,
    trace: u64,
    start: Instant,
    start_us: u64,
    depth: u32,
    fields: Vec<(String, FieldValue)>,
}

/// A scoped timer; records a [`SpanRecord`] when dropped. Inert (a single
/// branch) when collection is disabled at entry.
pub struct Span {
    inner: Option<ActiveSpan>,
}

impl Span {
    /// Start a span. Prefer the [`span!`] macro for literal names.
    pub fn enter(name: impl Into<Cow<'static, str>>) -> Span {
        if !is_enabled() {
            return Span { inner: None };
        }
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        let id = scope::next_span_id();
        let (trace, parent) = scope::push_span(id);
        Span {
            inner: Some(ActiveSpan {
                name: name.into(),
                id,
                parent,
                trace,
                start: Instant::now(),
                start_us: now_us(),
                depth,
                fields: Vec::new(),
            }),
        }
    }

    /// Attach a key/value field (no-op on an inert span).
    pub fn field(&mut self, key: &str, value: impl Into<FieldValue>) {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key.to_string(), value.into()));
        }
    }

    /// Whether this span is recording.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let duration_us = inner.start.elapsed().as_micros() as u64;
        DEPTH.with(|d| d.set(inner.depth));
        scope::pop_span(inner.trace, inner.parent);
        {
            let mut stats = lock(&SPAN_STATS);
            if let Some(s) = stats.get_mut(inner.name.as_ref()) {
                s.count += 1;
                s.total_us += duration_us;
            } else {
                stats.insert(
                    inner.name.to_string(),
                    SpanStat {
                        count: 1,
                        total_us: duration_us,
                    },
                );
            }
        }
        let thread = scope::thread_ordinal();
        let mut events = lock(&EVENTS);
        if events.len() < MAX_EVENTS {
            events.push(SpanRecord {
                name: inner.name.into_owned(),
                id: inner.id,
                parent: inner.parent,
                trace: inner.trace,
                thread,
                depth: inner.depth,
                start_us: inner.start_us,
                duration_us,
                fields: inner.fields,
            });
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Open a scoped timer: `span!("name")` or
/// `span!("name", items = n, label = "x")`. Field expressions are
/// evaluated eagerly — keep them cheap, or guard the whole call with
/// [`is_enabled`] in hot paths.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::Span::enter($name)
    };
    ($name:literal, $($k:ident = $v:expr),+ $(,)?) => {{
        let mut __span = $crate::Span::enter($name);
        $( __span.field(stringify!($k), $v); )+
        __span
    }};
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    /// The global collector is shared across the whole test binary, so
    /// every test that touches it runs under this lock.
    pub(crate) static TEST_GUARD: Mutex<()> = Mutex::new(());

    pub(crate) fn with_collector<R>(f: impl FnOnce() -> R) -> R {
        let _g = TEST_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        enable();
        let out = f();
        disable();
        reset();
        out
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let _g = TEST_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        disable();
        reset();
        counter_add("c", 5);
        gauge_set("g", 1.0);
        histogram_observe("h", 0.5);
        let s = span!("quiet", k = 1u64);
        assert!(!s.is_active());
        drop(s);
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
        assert_eq!(snap.dropped_events, 0);
    }

    #[test]
    fn counters_gauges_and_histograms_accumulate() {
        with_collector(|| {
            counter_add("pops", 3);
            counter_add("pops", 2);
            assert_eq!(counter_value("pops"), 5);
            gauge_set("last", 1.5);
            gauge_set("last", 2.5);
            gauge_max("peak", 10.0);
            gauge_max("peak", 4.0);
            gauge_max("peak", 12.0);
            histogram_observe("lat", 1e-4);
            histogram_observe("lat", f64::NAN);
            let snap = snapshot();
            assert_eq!(snap.gauges["last"], 2.5);
            assert_eq!(snap.gauges["peak"], 12.0);
            assert_eq!(snap.histograms["lat"].count(), 1);
        });
    }

    #[test]
    fn spans_record_depth_fields_and_stats() {
        with_collector(|| {
            {
                let mut outer = span!("outer", stage = "one");
                outer.field("n", 7usize);
                let inner = span!("inner");
                assert!(inner.is_active());
                drop(inner);
            }
            let snap = snapshot();
            assert_eq!(snap.spans.len(), 2);
            // Inner drops first.
            assert_eq!(snap.spans[0].name, "inner");
            assert_eq!(snap.spans[0].depth, 1);
            assert_eq!(snap.spans[1].name, "outer");
            assert_eq!(snap.spans[1].depth, 0);
            assert_eq!(
                snap.spans[1].fields,
                vec![
                    ("stage".to_string(), FieldValue::Str("one".into())),
                    ("n".to_string(), FieldValue::U64(7)),
                ]
            );
            assert_eq!(snap.span_stats["outer"].count, 1);
            assert_eq!(snap.span_stats["inner"].count, 1);
        });
    }

    #[test]
    fn depth_restores_after_drop() {
        with_collector(|| {
            drop(span!("a"));
            drop(span!("b"));
            let snap = snapshot();
            assert!(snap.spans.iter().all(|s| s.depth == 0));
        });
    }

    #[test]
    fn event_buffer_caps_and_counts_drops() {
        with_collector(|| {
            lock(&EVENTS).extend((0..MAX_EVENTS).map(|_| SpanRecord {
                name: "filler".into(),
                id: 0,
                parent: 0,
                trace: 0,
                thread: 0,
                depth: 0,
                start_us: 0,
                duration_us: 0,
                fields: Vec::new(),
            }));
            drop(span!("overflow"));
            let snap = snapshot();
            assert_eq!(snap.spans.len(), MAX_EVENTS);
            assert_eq!(snap.dropped_events, 1);
            // Aggregate stats still saw the dropped span.
            assert_eq!(snap.span_stats["overflow"].count, 1);
        });
    }
}
