//! Per-span latency summaries and per-trace attribution tables over
//! recorded trace events.

use crate::export::ObsLine;
use std::collections::BTreeMap;

/// Aggregated latency statistics for one span name, with exact
/// nearest-rank percentiles computed from the raw event durations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// Span name.
    pub name: String,
    /// Number of recorded events.
    pub count: u64,
    /// Summed duration in microseconds.
    pub total_us: u64,
    /// Median duration (nearest-rank) in microseconds.
    pub p50_us: u64,
    /// 99th-percentile duration (nearest-rank) in microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile duration (nearest-rank) in microseconds.
    pub p999_us: u64,
}

/// Work attributed to one trace: its label, the span events recorded
/// under it, and the counter deltas from its attribution table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Trace ID.
    pub id: u64,
    /// Label given to [`crate::ObsScope::begin`].
    pub label: String,
    /// Span events attributed to this trace.
    pub spans: u64,
    /// Summed span duration in microseconds (nested spans double-count,
    /// as in [`SpanSummary`]).
    pub span_us: u64,
    /// Counter deltas attributed to this trace.
    pub counters: BTreeMap<String, u64>,
}

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `ceil(q·n)` (1-based), clamped into the sample.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summarize `(name, duration_us)` samples into per-name statistics,
/// sorted by total time descending (name ascending on ties).
pub fn summarize(samples: impl IntoIterator<Item = (String, u64)>) -> Vec<SpanSummary> {
    let mut by_name: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for (name, dur) in samples {
        by_name.entry(name).or_default().push(dur);
    }
    let mut out: Vec<SpanSummary> = by_name
        .into_iter()
        .map(|(name, mut durs)| {
            durs.sort_unstable();
            SpanSummary {
                name,
                count: durs.len() as u64,
                total_us: durs.iter().sum(),
                p50_us: nearest_rank(&durs, 0.50),
                p99_us: nearest_rank(&durs, 0.99),
                p999_us: nearest_rank(&durs, 0.999),
            }
        })
        .collect();
    out.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
    out
}

/// Summarize the span events of a parsed JSONL trace.
pub fn summarize_lines(lines: &[ObsLine]) -> Vec<SpanSummary> {
    summarize(lines.iter().filter_map(|l| match l {
        ObsLine::Span(s) => Some((s.name.clone(), s.duration_us)),
        _ => None,
    }))
}

/// Build per-trace attribution summaries from a parsed JSONL export:
/// one row per `trace` line (label + counters), with span counts/time
/// folded in from the span events carrying that trace ID. Sorted by ID.
pub fn summarize_traces(lines: &[ObsLine]) -> Vec<TraceSummary> {
    let mut by_id: BTreeMap<u64, TraceSummary> = BTreeMap::new();
    for line in lines {
        if let ObsLine::Trace { id, label, counters } = line {
            by_id.insert(
                *id,
                TraceSummary {
                    id: *id,
                    label: label.clone(),
                    spans: 0,
                    span_us: 0,
                    counters: counters.clone(),
                },
            );
        }
    }
    for line in lines {
        let ObsLine::Span(s) = line else { continue };
        if s.trace == 0 {
            continue;
        }
        let entry = by_id.entry(s.trace).or_insert_with(|| TraceSummary {
            id: s.trace,
            label: "?".to_string(),
            spans: 0,
            span_us: 0,
            counters: BTreeMap::new(),
        });
        entry.spans += 1;
        entry.span_us += s.duration_us;
    }
    by_id.into_values().collect()
}

/// Align `cells` (first row = header) into a plain-text table: first
/// column left-aligned, the rest right-aligned, two-space gutters.
fn render_aligned(cells: &[Vec<String>]) -> String {
    let columns = cells.first().map(Vec::len).unwrap_or(0);
    let mut widths = vec![0usize; columns];
    for row in cells {
        for (w, c) in widths.iter_mut().zip(row) {
            *w = (*w).max(c.len());
        }
    }
    let mut out = String::new();
    for row in cells {
        let mut line = String::new();
        for (i, (c, w)) in row.iter().zip(&widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            if i == 0 {
                line.push_str(&format!("{c:<w$}"));
            } else {
                line.push_str(&format!("{c:>w$}"));
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Render summaries as an aligned plain-text table:
/// span · count · total ms · p50 µs · p99 µs · p999 µs.
pub fn render_table(rows: &[SpanSummary]) -> String {
    let header = ["span", "count", "total_ms", "p50_us", "p99_us", "p999_us"];
    let mut cells: Vec<Vec<String>> = vec![header.map(String::from).to_vec()];
    for r in rows {
        cells.push(vec![
            r.name.clone(),
            r.count.to_string(),
            format!("{:.3}", r.total_us as f64 / 1e3),
            r.p50_us.to_string(),
            r.p99_us.to_string(),
            r.p999_us.to_string(),
        ]);
    }
    render_aligned(&cells)
}

/// How many counter columns [`render_trace_table`] keeps (the biggest
/// totals win; the rest are dropped from the table, not the data).
pub const TRACE_TABLE_COUNTERS: usize = 6;

/// Render per-trace attribution as an aligned table: trace · label ·
/// spans · span_ms, then up to [`TRACE_TABLE_COUNTERS`] counter columns
/// chosen by total value across traces (descending, name-ascending ties).
pub fn render_trace_table(rows: &[TraceSummary]) -> String {
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for r in rows {
        for (name, &v) in &r.counters {
            *totals.entry(name.as_str()).or_default() += v;
        }
    }
    let mut picked: Vec<(&str, u64)> = totals.into_iter().collect();
    picked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    picked.truncate(TRACE_TABLE_COUNTERS);
    let counter_names: Vec<&str> = picked.into_iter().map(|(n, _)| n).collect();

    let mut header = vec![
        "trace".to_string(),
        "label".to_string(),
        "spans".to_string(),
        "span_ms".to_string(),
    ];
    header.extend(counter_names.iter().map(|n| n.to_string()));
    let mut cells = vec![header];
    for r in rows {
        let mut row = vec![
            r.id.to_string(),
            r.label.clone(),
            r.spans.to_string(),
            format!("{:.3}", r.span_us as f64 / 1e3),
        ];
        row.extend(
            counter_names
                .iter()
                .map(|n| r.counters.get(*n).copied().unwrap_or(0).to_string()),
        );
        cells.push(row);
    }
    render_aligned(&cells)
}

/// The SSSP-engine counters [`render_engine_counters`] reports, in order:
/// runs, how many of them stopped early at a pair query's target, how many
/// goal-directed queries reran with h ≡ 0, settles, the lower-bound row
/// searches and the bytes the rows hold (a gauge), and the route-cache
/// lookups.
pub const ENGINE_COUNTERS: [&str; 8] = [
    "risk_sssp_runs",
    "risk_sssp_early_exits",
    "risk_sssp_tie_reruns",
    "risk_sssp_pops",
    "lb_row_searches",
    "lb_row_bytes",
    "route_cache_hits",
    "route_cache_misses",
];

/// Render the process-wide [`ENGINE_COUNTERS`] a parsed JSONL export
/// carries (as counter or gauge lines) as an aligned counter · value
/// table; empty when it carries none of them.
pub fn render_engine_counters(lines: &[ObsLine]) -> String {
    let values: BTreeMap<&str, String> = lines
        .iter()
        .filter_map(|l| match l {
            ObsLine::Counter { name, value } => Some((name.as_str(), value.to_string())),
            ObsLine::Gauge { name, value } => Some((name.as_str(), value.to_string())),
            _ => None,
        })
        .collect();
    let mut cells = vec![vec!["counter".to_string(), "value".to_string()]];
    for name in ENGINE_COUNTERS {
        if let Some(v) = values.get(name) {
            cells.push(vec![name.to_string(), v.clone()]);
        }
    }
    if cells.len() == 1 {
        return String::new();
    }
    render_aligned(&cells)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::SpanRecord;

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let durs: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&durs, 0.50), 50);
        assert_eq!(nearest_rank(&durs, 0.99), 99);
        assert_eq!(nearest_rank(&[7], 0.50), 7);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }

    #[test]
    fn nearest_rank_p999_and_single_sample() {
        // 1000 samples: p999 is the 999th value; only the max sits above.
        let durs: Vec<u64> = (1..=1000).collect();
        assert_eq!(nearest_rank(&durs, 0.999), 999);
        assert_eq!(nearest_rank(&durs, 1.0), 1000);
        // 100 samples: ceil(99.9) = 100 — p999 is the max, not clamped out.
        let durs: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&durs, 0.999), 100);
        // Single sample: every quantile is that sample.
        assert_eq!(nearest_rank(&[42], 0.999), 42);
        assert_eq!(nearest_rank(&[42], 0.001), 42);
        let rows = summarize([("once".to_string(), 42)]);
        assert_eq!((rows[0].p50_us, rows[0].p99_us, rows[0].p999_us), (42, 42, 42));
    }

    #[test]
    fn summarize_groups_and_sorts_by_total() {
        let rows = summarize([
            ("fast".to_string(), 1),
            ("fast".to_string(), 3),
            ("slow".to_string(), 1000),
        ]);
        assert_eq!(rows[0].name, "slow");
        assert_eq!(rows[1].name, "fast");
        assert_eq!(rows[1].count, 2);
        assert_eq!(rows[1].total_us, 4);
        assert_eq!(rows[1].p50_us, 1);
        assert_eq!(rows[1].p99_us, 3);
    }

    #[test]
    fn table_renders_aligned_columns() {
        let rows = summarize([("work".to_string(), 1500), ("work".to_string(), 2500)]);
        let table = render_table(&rows);
        let mut lines = table.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("span"));
        assert!(header.contains("p99_us"));
        assert!(header.contains("p999_us"));
        let row = lines.next().unwrap();
        assert!(row.starts_with("work"));
        assert!(row.contains("4.000"), "total 4000 µs renders as 4.000 ms: {row}");
    }

    fn span(name: &str, trace: u64, dur: u64) -> ObsLine {
        ObsLine::Span(SpanRecord {
            name: name.into(),
            id: 0,
            parent: 0,
            trace,
            thread: 1,
            depth: 0,
            start_us: 0,
            duration_us: dur,
            fields: Vec::new(),
        })
    }

    #[test]
    fn engine_counters_render_in_fixed_order_and_skip_absent_ones() {
        let counter = |name: &str, value: u64| ObsLine::Counter {
            name: name.into(),
            value,
        };
        assert!(render_engine_counters(&[counter("other", 1)]).is_empty());
        let text = render_engine_counters(&[
            counter("route_cache_hits", 4),
            ObsLine::Gauge {
                name: "lb_row_bytes".into(),
                value: 4096.0,
            },
            counter("risk_sssp_early_exits", 7),
            counter("risk_sssp_runs", 9),
        ]);
        let rows: Vec<Vec<&str>> = text
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(
            rows,
            [
                ["counter", "value"],
                ["risk_sssp_runs", "9"],
                ["risk_sssp_early_exits", "7"],
                ["lb_row_bytes", "4096"],
                ["route_cache_hits", "4"],
            ]
        );
    }

    #[test]
    fn trace_summaries_fold_spans_into_attribution_rows() {
        let lines = vec![
            ObsLine::Trace {
                id: 1,
                label: "route".into(),
                counters: [("risk_sssp_runs".to_string(), 3)].into_iter().collect(),
            },
            ObsLine::Trace {
                id: 2,
                label: "ratio".into(),
                counters: [("risk_sssp_runs".to_string(), 10)].into_iter().collect(),
            },
            span("risk_route", 1, 500),
            span("risk_route", 1, 700),
            span("pair_sweep", 2, 9000),
            span("untraced", 0, 123),
        ];
        let rows = summarize_traces(&lines);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].id, rows[0].spans, rows[0].span_us), (1, 2, 1200));
        assert_eq!(rows[0].counters["risk_sssp_runs"], 3);
        assert_eq!((rows[1].id, rows[1].spans, rows[1].span_us), (2, 1, 9000));
        let table = render_trace_table(&rows);
        let header = table.lines().next().unwrap();
        assert!(header.starts_with("trace"));
        assert!(header.contains("risk_sssp_runs"));
        assert!(table.contains("route"));
        assert!(table.contains("9.000"));
    }
}
