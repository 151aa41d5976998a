//! Snapshot exporters: JSON Lines (via `riskroute-json`), the Prometheus
//! text-exposition format, and a Chrome trace-event JSON for
//! `chrome://tracing` / Perfetto — plus atomic file writes and an
//! exposition-format lint.
//!
//! # JSONL layout
//!
//! One self-describing object per line, discriminated by `"type"`:
//!
//! ```text
//! {"type":"meta","dropped_events":0}
//! {"type":"span","name":"pair_sweep","id":7,"parent":3,"trace":1,
//!  "thread":2,"depth":0,"start_us":12,"dur_us":340,
//!  "fields":[["pairs",12],["net","Level3"]]}
//! {"type":"counter","name":"dijkstra_pops","value":8123}
//! {"type":"gauge","name":"dijkstra_heap_peak","value":41}
//! {"type":"histogram","name":"checkpoint_write_seconds","sum":0.01,"count":3,
//!  "bounds":[...],"counts":[...]}
//! {"type":"trace","id":1,"label":"route","counters":[["risk_sssp_runs",3]]}
//! ```
//!
//! Numbers travel as JSON doubles, so integer values above 2^53 lose
//! precision; nothing in this pipeline approaches that.

use crate::{FieldValue, Histogram, MetricsSnapshot, SpanRecord, SpanStat, TraceStats};
use riskroute_json::{Json, JsonError};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One parsed line of a JSONL export.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsLine {
    /// Export header: events discarded by the buffer cap.
    Meta {
        /// Count of discarded span events.
        dropped_events: u64,
    },
    /// A span event.
    Span(SpanRecord),
    /// A counter reading.
    Counter {
        /// Counter name.
        name: String,
        /// Final value.
        value: u64,
    },
    /// A gauge reading.
    Gauge {
        /// Gauge name.
        name: String,
        /// Final value.
        value: f64,
    },
    /// A histogram reading.
    Histogram {
        /// Histogram name.
        name: String,
        /// The exported histogram.
        histogram: Histogram,
    },
    /// One trace's attribution table (label + per-trace counter deltas).
    Trace {
        /// Trace ID.
        id: u64,
        /// Label given to [`crate::ObsScope::begin`].
        label: String,
        /// Counter deltas attributed to this trace.
        counters: BTreeMap<String, u64>,
    },
}

fn field_value_to_json(v: &FieldValue) -> Json {
    match v {
        FieldValue::U64(n) => Json::Num(*n as f64),
        FieldValue::F64(x) => Json::Num(*x),
        FieldValue::Str(s) => Json::Str(s.clone()),
    }
}

fn field_value_from_json(v: &Json) -> Result<FieldValue, JsonError> {
    match v {
        Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53) => {
            Ok(FieldValue::U64(*n as u64))
        }
        Json::Num(n) => Ok(FieldValue::F64(*n)),
        Json::Str(s) => Ok(FieldValue::Str(s.clone())),
        other => Err(JsonError::Shape(format!(
            "expected number or string field value, got {other:?}"
        ))),
    }
}

fn span_to_json(s: &SpanRecord) -> Json {
    // Fields travel as [key, value] pairs (not an object) so insertion
    // order survives the round trip.
    let fields: Vec<Json> = s
        .fields
        .iter()
        .map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), field_value_to_json(v)]))
        .collect();
    Json::obj([
        ("type", Json::Str("span".into())),
        ("name", Json::Str(s.name.clone())),
        ("id", Json::Num(s.id as f64)),
        ("parent", Json::Num(s.parent as f64)),
        ("trace", Json::Num(s.trace as f64)),
        ("thread", Json::Num(s.thread as f64)),
        ("depth", Json::Num(f64::from(s.depth))),
        ("start_us", Json::Num(s.start_us as f64)),
        ("dur_us", Json::Num(s.duration_us as f64)),
        ("fields", Json::Arr(fields)),
    ])
}

fn num_arr<T: Copy + Into<f64>>(xs: &[T]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x.into())).collect())
}

/// Render a snapshot as JSON Lines.
pub fn to_jsonl(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let meta = Json::obj([
        ("type", Json::Str("meta".into())),
        ("dropped_events", Json::Num(snap.dropped_events as f64)),
    ]);
    let _ = writeln!(out, "{}", meta.to_string_compact());
    for s in &snap.spans {
        let _ = writeln!(out, "{}", span_to_json(s).to_string_compact());
    }
    for (name, &value) in &snap.counters {
        let line = Json::obj([
            ("type", Json::Str("counter".into())),
            ("name", Json::Str(name.clone())),
            ("value", Json::Num(value as f64)),
        ]);
        let _ = writeln!(out, "{}", line.to_string_compact());
    }
    for (name, &value) in &snap.gauges {
        let line = Json::obj([
            ("type", Json::Str("gauge".into())),
            ("name", Json::Str(name.clone())),
            ("value", Json::Num(value)),
        ]);
        let _ = writeln!(out, "{}", line.to_string_compact());
    }
    for (name, h) in &snap.histograms {
        let counts: Vec<f64> = h.counts().iter().map(|&c| c as f64).collect();
        let line = Json::obj([
            ("type", Json::Str("histogram".into())),
            ("name", Json::Str(name.clone())),
            ("sum", Json::Num(h.sum())),
            ("count", Json::Num(h.count() as f64)),
            ("bounds", num_arr(h.bounds())),
            ("counts", num_arr(&counts)),
        ]);
        let _ = writeln!(out, "{}", line.to_string_compact());
    }
    for (id, t) in &snap.traces {
        let counters: Vec<Json> = t
            .counters
            .iter()
            .map(|(k, &v)| Json::Arr(vec![Json::Str(k.clone()), Json::Num(v as f64)]))
            .collect();
        let line = Json::obj([
            ("type", Json::Str("trace".into())),
            ("id", Json::Num(*id as f64)),
            ("label", Json::Str(t.label.clone())),
            ("counters", Json::Arr(counters)),
        ]);
        let _ = writeln!(out, "{}", line.to_string_compact());
    }
    out
}

/// Read an optional non-negative integer field (absent → 0), tolerating
/// exports written before spans carried IDs.
fn opt_u64(v: &Json, name: &str) -> Result<u64, JsonError> {
    match v.field(name) {
        Ok(f) => Ok(f.as_usize()? as u64),
        Err(_) => Ok(0),
    }
}

fn parse_span(v: &Json) -> Result<SpanRecord, JsonError> {
    let mut fields = Vec::new();
    for pair in v.field("fields")?.as_arr()? {
        let [k, fv] = pair.as_arr()? else {
            return Err(JsonError::Shape(
                "span field is not a [key, value] pair".into(),
            ));
        };
        fields.push((k.as_str()?.to_string(), field_value_from_json(fv)?));
    }
    Ok(SpanRecord {
        name: v.field("name")?.as_str()?.to_string(),
        id: opt_u64(v, "id")?,
        parent: opt_u64(v, "parent")?,
        trace: opt_u64(v, "trace")?,
        thread: opt_u64(v, "thread")?,
        depth: v.field("depth")?.as_usize()? as u32,
        start_us: v.field("start_us")?.as_usize()? as u64,
        duration_us: v.field("dur_us")?.as_usize()? as u64,
        fields,
    })
}

fn parse_trace(v: &Json) -> Result<(u64, TraceStats), JsonError> {
    let mut counters = BTreeMap::new();
    for pair in v.field("counters")?.as_arr()? {
        let [k, cv] = pair.as_arr()? else {
            return Err(JsonError::Shape(
                "trace counter is not a [name, value] pair".into(),
            ));
        };
        counters.insert(k.as_str()?.to_string(), cv.as_usize()? as u64);
    }
    Ok((
        v.field("id")?.as_usize()? as u64,
        TraceStats {
            label: v.field("label")?.as_str()?.to_string(),
            counters,
        },
    ))
}

fn parse_histogram(v: &Json) -> Result<(String, Histogram), JsonError> {
    let name = v.field("name")?.as_str()?.to_string();
    let bounds = v
        .field("bounds")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect::<Result<Vec<f64>, _>>()?;
    let counts = v
        .field("counts")?
        .as_arr()?
        .iter()
        .map(|c| c.as_usize().map(|n| n as u64))
        .collect::<Result<Vec<u64>, _>>()?;
    let sum = v.field("sum")?.as_f64()?;
    let histogram = Histogram::from_parts(bounds, counts, sum).ok_or_else(|| {
        JsonError::Shape(format!("histogram {name:?}: counts do not match bounds"))
    })?;
    Ok((name, histogram))
}

/// Parse a JSONL export back into typed lines. Blank lines are skipped;
/// any malformed line fails the whole parse (exports are machine-written).
pub fn parse_jsonl(text: &str) -> Result<Vec<ObsLine>, JsonError> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let v = riskroute_json::parse(line)?;
        let kind = v.field("type")?.as_str()?.to_string();
        out.push(match kind.as_str() {
            "meta" => ObsLine::Meta {
                dropped_events: v.field("dropped_events")?.as_usize()? as u64,
            },
            "span" => ObsLine::Span(parse_span(&v)?),
            "counter" => ObsLine::Counter {
                name: v.field("name")?.as_str()?.to_string(),
                value: v.field("value")?.as_usize()? as u64,
            },
            "gauge" => ObsLine::Gauge {
                name: v.field("name")?.as_str()?.to_string(),
                value: v.field("value")?.as_f64()?,
            },
            "histogram" => {
                let (name, histogram) = parse_histogram(&v)?;
                ObsLine::Histogram { name, histogram }
            }
            "trace" => {
                let (id, stats) = parse_trace(&v)?;
                ObsLine::Trace {
                    id,
                    label: stats.label,
                    counters: stats.counters,
                }
            }
            other => {
                return Err(JsonError::Shape(format!("unknown line type {other:?}")));
            }
        });
    }
    Ok(out)
}

/// Reassemble a [`MetricsSnapshot`] from parsed JSONL lines (span_stats
/// are rebuilt from the span events, so they reflect only buffered spans).
pub fn snapshot_from_lines(lines: &[ObsLine]) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for line in lines {
        match line {
            ObsLine::Meta { dropped_events } => snap.dropped_events = *dropped_events,
            ObsLine::Span(s) => {
                let stat = snap.span_stats.entry(s.name.clone()).or_insert(SpanStat {
                    count: 0,
                    total_us: 0,
                });
                stat.count += 1;
                stat.total_us += s.duration_us;
                snap.spans.push(s.clone());
            }
            ObsLine::Counter { name, value } => {
                snap.counters.insert(name.clone(), *value);
            }
            ObsLine::Gauge { name, value } => {
                snap.gauges.insert(name.clone(), *value);
            }
            ObsLine::Histogram { name, histogram } => {
                snap.histograms.insert(name.clone(), histogram.clone());
            }
            ObsLine::Trace {
                id,
                label,
                counters,
            } => {
                snap.traces.insert(
                    *id,
                    TraceStats {
                        label: label.clone(),
                        counters: counters.clone(),
                    },
                );
            }
        }
    }
    snap
}

/// Restrict a metric name to the Prometheus charset `[a-zA-Z0-9_:]`,
/// mapping anything else to `_` (and prefixing `_` if it starts with a
/// digit).
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok || c.is_ascii_digit() { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a Prometheus label value: `\` → `\\`, `"` → `\"`, newline →
/// `\n`.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Render a snapshot in the Prometheus text-exposition format. All series
/// carry the `riskroute_` prefix; per-span latency totals become a
/// `riskroute_span_seconds` summary with a `span` label. The span-buffer
/// drop count is always exported as `riskroute_obs_spans_dropped` (even at
/// zero) so truncated traces are detectable from a scrape alone. Per-trace
/// tables are deliberately *not* exported here — trace IDs are unbounded
/// label cardinality; they travel via JSONL and [`to_chrome_trace`].
pub fn to_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# TYPE riskroute_obs_spans_dropped counter");
    let _ = writeln!(out, "riskroute_obs_spans_dropped {}", snap.dropped_events);
    for (name, &value) in &snap.counters {
        let n = format!("riskroute_{}", sanitize_metric_name(name));
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, &value) in &snap.gauges {
        let n = format!("riskroute_{}", sanitize_metric_name(name));
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, h) in &snap.histograms {
        let n = format!("riskroute_{}", sanitize_metric_name(name));
        let _ = writeln!(out, "# TYPE {n} histogram");
        let cumulative = h.cumulative();
        for (bound, cum) in h.bounds().iter().zip(&cumulative) {
            let _ = writeln!(out, "{n}_bucket{{le=\"{bound}\"}} {cum}");
        }
        let total = cumulative.last().copied().unwrap_or(0);
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {total}");
        let _ = writeln!(out, "{n}_sum {}", h.sum());
        let _ = writeln!(out, "{n}_count {}", h.count());
    }
    if !snap.span_stats.is_empty() {
        let _ = writeln!(out, "# TYPE riskroute_span_seconds summary");
        for (name, stat) in &snap.span_stats {
            let label = escape_label_value(name);
            let _ = writeln!(
                out,
                "riskroute_span_seconds_sum{{span=\"{label}\"}} {}",
                stat.total_us as f64 / 1e6
            );
            let _ = writeln!(
                out,
                "riskroute_span_seconds_count{{span=\"{label}\"}} {}",
                stat.count
            );
        }
    }
    out
}

/// Render the snapshot's span events as Chrome trace-event JSON (the
/// `chrome://tracing` / Perfetto format): one `"ph":"X"` complete event
/// per span with `ts`/`dur` in microseconds, `pid` = trace ID, `tid` = the
/// recording thread's stable ordinal, and span/parent IDs plus user fields
/// in `args`. Traces additionally get a `process_name` metadata event
/// carrying their label, so the viewer groups one request per "process".
pub fn to_chrome_trace(snap: &MetricsSnapshot) -> String {
    let mut events: Vec<Json> = Vec::new();
    for (id, t) in &snap.traces {
        events.push(Json::obj([
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(*id as f64)),
            ("tid", Json::Num(0.0)),
            (
                "args",
                Json::obj([("name", Json::Str(format!("trace {id}: {}", t.label)))]),
            ),
        ]));
    }
    for s in &snap.spans {
        let mut args = BTreeMap::new();
        for (k, v) in &s.fields {
            args.insert(k.clone(), field_value_to_json(v));
        }
        args.insert("span_id".into(), Json::Num(s.id as f64));
        args.insert("parent_id".into(), Json::Num(s.parent as f64));
        events.push(Json::obj([
            ("name", Json::Str(s.name.clone())),
            ("cat", Json::Str("riskroute".into())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Num(s.start_us as f64)),
            ("dur", Json::Num(s.duration_us as f64)),
            ("pid", Json::Num(s.trace as f64)),
            ("tid", Json::Num(s.thread as f64)),
            ("args", Json::Obj(args)),
        ]));
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
    .to_string_compact()
}

fn lint_name(name: &str, what: &str, lineno: usize) -> Result<(), String> {
    let mut chars = name.chars();
    let head_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    if !head_ok || !chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
        return Err(format!("line {lineno}: invalid {what} name {name:?}"));
    }
    Ok(())
}

fn lint_value(raw: &str, lineno: usize) -> Result<f64, String> {
    match raw {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => raw
            .parse::<f64>()
            .map_err(|_| format!("line {lineno}: unparseable sample value {raw:?}")),
    }
}

/// Parsed `key="value"` label pairs from one sample line.
type Labels = Vec<(String, String)>;

/// Parse one `{label="value",...}` block; returns the labels and the rest
/// of the line after the closing `}`.
fn lint_labels(body: &str, lineno: usize) -> Result<(Labels, &str), String> {
    let mut labels = Vec::new();
    let mut rest = body;
    loop {
        rest = rest.trim_start_matches(' ');
        if let Some(after) = rest.strip_prefix('}') {
            return Ok((labels, after));
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {lineno}: label without '='"))?;
        let key = &rest[..eq];
        lint_name(key, "label", lineno)?;
        if key.contains(':') {
            return Err(format!("line {lineno}: ':' not allowed in label {key:?}"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("line {lineno}: label value must be quoted"))?;
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let after_quote = loop {
            let Some((i, c)) = chars.next() else {
                return Err(format!("line {lineno}: unterminated label value"));
            };
            match c {
                '"' => break &rest[i + 1..],
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, e @ ('\\' | '"'))) => value.push(e),
                    other => {
                        return Err(format!(
                            "line {lineno}: bad escape {:?} in label value",
                            other.map(|(_, c)| c)
                        ))
                    }
                },
                '\n' => return Err(format!("line {lineno}: raw newline in label value")),
                c => value.push(c),
            }
        };
        labels.push((key.to_string(), value));
        rest = after_quote;
        if let Some(after) = rest.strip_prefix(',') {
            rest = after;
        } else if !rest.starts_with('}') {
            return Err(format!(
                "line {lineno}: expected ',' or '}}' after label, got {rest:?}"
            ));
        }
    }
}

/// Strictly lint a Prometheus text-exposition document: every line must be
/// a comment (`# HELP` / `# TYPE` / free comment) or a well-formed sample
/// `name[{labels}] value`; `_bucket` series must carry a parseable `le`,
/// include `+Inf`, be cumulative (non-decreasing in `le` order), and agree
/// with their `_count`. Returns the number of sample lines checked.
///
/// # Errors
/// A message naming the first offending line (1-based) and what is wrong
/// with it.
pub fn lint_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    // _bucket groups keyed by series name + non-le labels; value: (le,
    // count, raw le text) in file order.
    let mut buckets: BTreeMap<String, Vec<(f64, f64, String)>> = BTreeMap::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(decl) = comment
                .strip_prefix("TYPE ")
                .or_else(|| comment.strip_prefix("HELP "))
            {
                let mut parts = decl.split(' ');
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: empty TYPE/HELP"))?;
                lint_name(name, "metric", lineno)?;
                if comment.starts_with("TYPE") {
                    let kind = parts.next().unwrap_or("");
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {lineno}: unknown TYPE kind {kind:?}"));
                    }
                    if parts.next().is_some() {
                        return Err(format!("line {lineno}: trailing text after TYPE"));
                    }
                }
            }
            continue;
        }
        // Sample line.
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| format!("line {lineno}: sample has no value"))?;
        let name = &line[..name_end];
        lint_name(name, "metric", lineno)?;
        let (labels, rest) = if line[name_end..].starts_with('{') {
            lint_labels(&line[name_end + 1..], lineno)?
        } else {
            (Vec::new(), &line[name_end..])
        };
        let rest = rest
            .strip_prefix(' ')
            .ok_or_else(|| format!("line {lineno}: expected space before value"))?;
        let mut tokens = rest.split(' ');
        let value = lint_value(
            tokens
                .next()
                .ok_or_else(|| format!("line {lineno}: sample has no value"))?,
            lineno,
        )?;
        if let Some(ts) = tokens.next() {
            // Optional millisecond timestamp.
            ts.parse::<i64>()
                .map_err(|_| format!("line {lineno}: bad timestamp {ts:?}"))?;
        }
        if tokens.next().is_some() {
            return Err(format!("line {lineno}: trailing text after sample"));
        }
        samples += 1;
        let group_key = |base: &str, skip: Option<&str>| {
            let mut key = base.to_string();
            let mut rest: Vec<String> = labels
                .iter()
                .filter(|(k, _)| Some(k.as_str()) != skip)
                .map(|(k, v)| format!("{k}={v:?}"))
                .collect();
            rest.sort();
            for l in rest {
                key.push('\u{1}');
                key.push_str(&l);
            }
            key
        };
        if let Some(base) = name.strip_suffix("_bucket") {
            let le_raw = labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.clone())
                .ok_or_else(|| format!("line {lineno}: _bucket sample without le label"))?;
            let le = lint_value(&le_raw, lineno)
                .map_err(|_| format!("line {lineno}: unparseable le {le_raw:?}"))?;
            buckets
                .entry(group_key(base, Some("le")))
                .or_default()
                .push((le, value, le_raw));
        } else if let Some(base) = name.strip_suffix("_count") {
            counts.insert(group_key(base, None), value);
        }
    }
    for (key, series) in &buckets {
        let base = key.split('\u{1}').next().unwrap_or(key);
        let mut sorted = series.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        if sorted.last().is_none_or(|(le, _, _)| !le.is_infinite()) {
            return Err(format!("histogram {base}: missing le=\"+Inf\" bucket"));
        }
        let mut last = f64::NEG_INFINITY;
        for (le, cum, le_raw) in &sorted {
            if *cum < last {
                return Err(format!(
                    "histogram {base}: bucket le=\"{le_raw}\" count {cum} below previous {last} (not cumulative)"
                ));
            }
            last = *cum;
            let _ = le;
        }
        if let Some(&total) = counts.get(key) {
            let inf = sorted.last().map(|(_, c, _)| *c).unwrap_or(0.0);
            if total != inf {
                return Err(format!(
                    "histogram {base}: _count {total} disagrees with +Inf bucket {inf}"
                ));
            }
        }
    }
    Ok(samples)
}

/// Write `contents` atomically: to a `.tmp.<pid>` sibling first, then
/// rename over `path` (the checkpoint pattern — readers never observe a
/// partial file).
///
/// # Errors
/// Any I/O error from the write or the rename; the temp file is removed
/// if the rename fails.
pub fn write_atomic(path: impl AsRef<Path>, contents: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            dropped_events: 2,
            ..MetricsSnapshot::default()
        };
        snap.spans.push(SpanRecord {
            name: "pair_sweep".into(),
            id: 7,
            parent: 3,
            trace: 1,
            thread: 2,
            depth: 0,
            start_us: 10,
            duration_us: 340,
            fields: vec![
                ("pairs".into(), FieldValue::U64(12)),
                ("ratio".into(), FieldValue::F64(2.5)),
                ("net".into(), FieldValue::Str("Level3".into())),
            ],
        });
        snap.traces.insert(
            1,
            TraceStats {
                label: "route".into(),
                counters: [("risk_sssp_runs".to_string(), 3u64)].into_iter().collect(),
            },
        );
        snap.counters.insert("dijkstra_pops".into(), 8123);
        snap.gauges.insert("heap_peak".into(), 41.0);
        let mut h = Histogram::new(vec![0.001, 0.01]);
        h.observe(0.0005);
        h.observe(0.5);
        snap.histograms.insert("write_seconds".into(), h);
        snap.span_stats.insert(
            "pair_sweep".into(),
            SpanStat {
                count: 1,
                total_us: 340,
            },
        );
        snap
    }

    #[test]
    fn jsonl_round_trips_through_riskroute_json() {
        let snap = sample_snapshot();
        let text = to_jsonl(&snap);
        let lines = parse_jsonl(&text).unwrap();
        let back = snapshot_from_lines(&lines);
        assert_eq!(back.dropped_events, 2);
        assert_eq!(back.spans, snap.spans);
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.gauges, snap.gauges);
        assert_eq!(back.histograms, snap.histograms);
        assert_eq!(back.span_stats, snap.span_stats);
        assert_eq!(back.traces, snap.traces);
    }

    #[test]
    fn parse_accepts_spans_without_ids() {
        // Exports written before spans carried id/parent/trace/thread.
        let lines = parse_jsonl(
            r#"{"type":"span","name":"old","depth":0,"start_us":1,"dur_us":2,"fields":[]}"#,
        )
        .unwrap();
        let ObsLine::Span(s) = &lines[0] else {
            panic!("not a span: {lines:?}");
        };
        assert_eq!((s.id, s.parent, s.trace, s.thread), (0, 0, 0, 0));
    }

    #[test]
    fn parse_rejects_garbage_and_unknown_types() {
        assert!(parse_jsonl("not json").is_err());
        assert!(parse_jsonl("{\"type\":\"mystery\"}").is_err());
        assert!(parse_jsonl("{\"no_type\":1}").is_err());
        // Blank lines are fine.
        assert_eq!(parse_jsonl("\n\n").unwrap(), vec![]);
    }

    #[test]
    fn prometheus_escaping_and_sanitizing() {
        assert_eq!(sanitize_metric_name("a.b-c d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn prometheus_renders_all_families() {
        let mut snap = sample_snapshot();
        snap.span_stats.insert(
            "odd \"name\"\\path".into(),
            SpanStat {
                count: 3,
                total_us: 3_000_000,
            },
        );
        let text = to_prometheus(&snap);
        assert!(text.contains("# TYPE riskroute_dijkstra_pops counter"));
        assert!(text.contains("riskroute_dijkstra_pops 8123"));
        assert!(text.contains("# TYPE riskroute_heap_peak gauge"));
        assert!(text.contains("riskroute_write_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("riskroute_write_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("riskroute_write_seconds_count 2"));
        assert!(text.contains("riskroute_span_seconds_sum{span=\"pair_sweep\"} 0.00034"));
        assert!(text.contains("riskroute_span_seconds_count{span=\"odd \\\"name\\\"\\\\path\"} 3"));
    }

    #[test]
    fn prometheus_always_exports_the_drop_count() {
        let empty = MetricsSnapshot::default();
        assert!(to_prometheus(&empty).contains("riskroute_obs_spans_dropped 0"));
        assert!(to_prometheus(&sample_snapshot()).contains("riskroute_obs_spans_dropped 2"));
    }

    #[test]
    fn prometheus_exports_zero_observation_histograms_completely() {
        let mut snap = MetricsSnapshot::default();
        snap.histograms
            .insert("idle_seconds".into(), Histogram::new(vec![0.001, 0.01]));
        let text = to_prometheus(&snap);
        assert!(text.contains("riskroute_idle_seconds_bucket{le=\"0.001\"} 0"));
        assert!(text.contains("riskroute_idle_seconds_bucket{le=\"0.01\"} 0"));
        assert!(text.contains("riskroute_idle_seconds_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("riskroute_idle_seconds_sum 0"));
        assert!(text.contains("riskroute_idle_seconds_count 0"));
        // 5 histogram lines + the always-present drop counter.
        assert_eq!(lint_prometheus(&text).unwrap(), 6);
    }

    #[test]
    fn chrome_trace_exports_complete_events_and_process_names() {
        let text = to_chrome_trace(&sample_snapshot());
        let doc = riskroute_json::parse(&text).unwrap();
        let events = doc.field("traceEvents").unwrap().as_arr().unwrap();
        let meta = &events[0];
        assert_eq!(meta.field("ph").unwrap().as_str().unwrap(), "M");
        assert_eq!(
            meta.field("args")
                .unwrap()
                .field("name")
                .unwrap()
                .as_str()
                .unwrap(),
            "trace 1: route"
        );
        let span = &events[1];
        assert_eq!(span.field("ph").unwrap().as_str().unwrap(), "X");
        assert_eq!(span.field("name").unwrap().as_str().unwrap(), "pair_sweep");
        assert_eq!(span.field("ts").unwrap().as_usize().unwrap(), 10);
        assert_eq!(span.field("dur").unwrap().as_usize().unwrap(), 340);
        assert_eq!(span.field("pid").unwrap().as_usize().unwrap(), 1);
        assert_eq!(span.field("tid").unwrap().as_usize().unwrap(), 2);
        let args = span.field("args").unwrap();
        assert_eq!(args.field("span_id").unwrap().as_usize().unwrap(), 7);
        assert_eq!(args.field("parent_id").unwrap().as_usize().unwrap(), 3);
        assert_eq!(args.field("net").unwrap().as_str().unwrap(), "Level3");
    }

    #[test]
    fn lint_accepts_everything_this_exporter_writes() {
        let mut snap = sample_snapshot();
        snap.span_stats.insert(
            "odd \"name\"\\path".into(),
            SpanStat {
                count: 3,
                total_us: 3_000_000,
            },
        );
        let text = to_prometheus(&snap);
        let samples = lint_prometheus(&text).unwrap();
        assert!(samples >= 10, "{samples}");
    }

    #[test]
    fn lint_rejects_malformed_lines() {
        for (doc, why) in [
            ("9bad_name 1\n", "digit-prefixed name"),
            ("ok{le=0.1} 1\n", "unquoted label value"),
            ("ok{le=\"0.1} 1\n", "unterminated label value"),
            ("ok{le=\"0.1\"} nope\n", "unparseable value"),
            ("ok 1 2 3\n", "trailing text"),
            ("ok{bad-key=\"1\"} 1\n", "bad label key"),
            ("# TYPE ok sideways\n", "unknown TYPE kind"),
            (
                "h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"+Inf\"} 3\n",
                "non-cumulative buckets",
            ),
            ("h_bucket{le=\"0.1\"} 5\n", "missing +Inf"),
            ("h_bucket{x=\"1\"} 5\n", "bucket without le"),
            (
                "h_bucket{le=\"+Inf\"} 3\nh_count 4\n",
                "_count disagrees with +Inf",
            ),
        ] {
            assert!(
                lint_prometheus(doc).is_err(),
                "lint accepted {why}: {doc:?}"
            );
        }
        // A well-formed document with comments and timestamps passes.
        let ok = "# free comment\n# HELP h help text here\n# TYPE h histogram\n\
                  h_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 2 1700000000000\n\
                  h_sum 0.5\nh_count 2\n";
        assert_eq!(lint_prometheus(ok).unwrap(), 4);
    }

    #[test]
    fn cumulative_bucket_counts_are_monotone() {
        let snap = sample_snapshot();
        let text = to_prometheus(&snap);
        let mut last = 0;
        for line in text.lines().filter(|l| l.contains("_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn write_atomic_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join("riskroute-obs-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        write_atomic(&path, "one\n").unwrap();
        write_atomic(&path, "two\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two\n");
        // No stray temp files.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty());
    }
}
