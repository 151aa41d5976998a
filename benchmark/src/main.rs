//! The repository benchmark: five workloads, from one-shot `riskroute`
//! invocations to the warm `serve` daemon, each measured end to end with
//! tracing off and split across layers by a separate traced pass.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark [--seed <n>] [--seconds <s>]      # every workload, both passes
//! ```
//!
//! A single-workload run prints `workload metric value unit` lines and, as
//! its last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Without `--workload` the benchmark runs itself once per
//! workload and pass, one child at a time, and writes `report.json`. See
//! README.md for the workloads, the metrics and how to read the trace.

mod calib;
mod inputs;
mod layers;
mod oneshot;
mod prom;
mod replay;
mod scale;
mod serve;
mod stats;
mod sys;

use calib::Samples;
use riskroute_json::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// End-to-end metrics (`--trace 0`) with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`) with their units. A workload that never
/// calls into a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("context.build_ms", "ms"),
    ("topology.synth_ms", "ms"),
    ("planner.node_risk_ms", "ms"),
    ("planner.shares_ms", "ms"),
    ("planner.csr_ms", "ms"),
    ("intradomain.route_us", "us"),
    ("intradomain.pair_sweep_ms", "ms"),
    ("intradomain.set_forecast_ms", "ms"),
    ("ratios.aggregate_ms", "ms"),
    ("forecast.field_ms", "ms"),
    ("engine.sssp_runs", "count"),
    ("engine.settles", "count"),
    ("engine.relaxations", "count"),
    ("engine.settles_per_pair", "ratio"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.repair_share", "ratio"),
    ("engine.repair_settles", "count"),
    ("engine.trees_survived", "count"),
    ("serve.request_us_p50", "us"),
    ("serve.request_us_p99", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.transport_us_p50", "us"),
    ("serve.overloaded", "count"),
    ("process.unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// The workloads, in the order a full run visits them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    OneshotRoute,
    OneshotRatio,
    ReplayStorms,
    ServeMixed,
    Scale10k,
}

const WORKLOADS: [Workload; 5] = [
    Workload::OneshotRoute,
    Workload::OneshotRatio,
    Workload::ReplayStorms,
    Workload::ServeMixed,
    Workload::Scale10k,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::OneshotRoute => "oneshot-route",
            Workload::OneshotRatio => "oneshot-ratio",
            Workload::ReplayStorms => "replay-storms",
            Workload::ServeMixed => "serve-mixed",
            Workload::Scale10k => "scale-10k",
        }
    }

    fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Fewest timed units a run must complete for the statistics it
    /// reports: the median, plus the tail percentile the workload is sized
    /// for (p99 needs 1000 units, p90 needs 100; see [`stats::tail`]).
    fn min_samples(self) -> usize {
        match self {
            Workload::OneshotRoute => 20,
            Workload::OneshotRatio => 5,
            Workload::Scale10k => 100,
            Workload::ReplayStorms | Workload::ServeMixed => 1000,
        }
    }
}

/// Settings shared by every workload of one run.
pub struct Run {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// The `riskroute` binary the one-shot and serve workloads execute.
    pub riskroute: PathBuf,
    /// Where trace files go.
    pub out: PathBuf,
}

/// Operations attempted and the failures among them. An output mismatch,
/// a non-zero exit or a refused request is a failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(failure());
        }
    }
}

/// What a run with tracing off measured, in calibrated time.
pub struct Measured {
    /// Time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The timed units.
    pub units: Samples,
    /// Time of the timed phase.
    pub phase_s: f64,
    pub peak_rss_mib: f64,
    pub tally: Tally,
    /// Workload-specific facts printed beside the metrics.
    pub notes: Vec<(&'static str, f64, &'static str)>,
}

/// What a traced run measured, in calibrated time.
pub struct Traced {
    /// Unit latencies with tracing off, in the same run.
    pub untraced_ms: Vec<f64>,
    /// Unit latencies of the traced pass.
    pub traced_ms: Vec<f64>,
    /// Traced time per unit that the named layers account for.
    pub attributed_ms: f64,
    /// Per-layer metrics the workload measured.
    pub layers: Vec<(&'static str, f64)>,
    pub tally: Tally,
}

/// How long each workload warms up before its timed phase; the warm-up's
/// readings are discarded.
pub const WARMUP_S: f64 = 1.0;

/// A run repeats its set-up at least [`MIN_SETUPS`] times, and up to
/// [`MAX_SETUPS`] while the repetitions have taken under [`SETUP_BUDGET_S`];
/// `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 5;
const SETUP_BUDGET_S: f64 = 5.0;

/// Repeat `set_up` (which returns its product and its calibrated seconds),
/// handing every product but the last to `discard`; the last product and
/// every repetition's time.
pub fn repeat_setup<T>(
    mut set_up: impl FnMut() -> Result<(T, f64), String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, Vec<f64>), String> {
    let start = std::time::Instant::now();
    let (mut kept, secs) = set_up()?;
    let mut times = vec![secs];
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && start.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let (next, secs) = set_up()?;
        discard(std::mem::replace(&mut kept, next))?;
        times.push(secs);
    }
    Ok((kept, times))
}

/// Run `unit` for [`WARMUP_S`], at least once, discarding what it returns.
pub fn warm_up(mut unit: impl FnMut(usize) -> Result<(), String>) -> Result<(), String> {
    let start = std::time::Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < WARMUP_S {
        unit(i)?;
        i += 1;
    }
    Ok(())
}

/// The λ weights of a flag-free `riskroute` invocation.
pub fn cli_weights() -> riskroute::RiskWeights {
    riskroute_cli::parse_args(&["corpus".to_string()])
        .expect("a flag-free command parses")
        .weights()
}

struct Args {
    workload: Option<Workload>,
    trace: bool,
    run: Run,
}

fn parse_args() -> Result<Args, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let exe_dir = exe.parent().map_or_else(PathBuf::new, Path::to_path_buf);
    let mut args = Args {
        workload: None,
        trace: false,
        run: Run {
            seed: 42,
            seconds: 10.0,
            riskroute: exe_dir.join("riskroute"),
            out: exe_dir.join("..").join("benchmark"),
        },
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                args.run.seed = value()?.parse().map_err(|_| "--seed needs an integer")?;
            }
            "--seconds" => {
                args.run.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--riskroute" => args.run.riskroute = PathBuf::from(value()?),
            "--out" => args.run.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.run.out) {
        eprintln!("benchmark: cannot create {}: {e}", args.run.out.display());
        return ExitCode::from(2);
    }
    match args.workload {
        Some(w) => run_one(w, args.trace, &args.run),
        None => run_all(&args.run),
    }
}

/// How a single-workload run ends without a trustworthy result.
enum Abort {
    /// Set-up or I/O failed.
    Error(String),
    /// A sanity guard caught an impossible reading.
    Guard(String),
}

impl From<String> for Abort {
    fn from(e: String) -> Abort {
        Abort::Error(e)
    }
}

impl From<&str> for Abort {
    fn from(e: &str) -> Abort {
        Abort::Error(e.to_string())
    }
}

fn run_one(w: Workload, trace: bool, run: &Run) -> ExitCode {
    let result = if trace {
        traced(w, run)
    } else {
        untraced(w, run)
    };
    let (metrics, tally) = match result {
        Ok(r) => r,
        Err(Abort::Error(e)) => {
            eprintln!("benchmark: {}: {e}", w.name());
            return ExitCode::from(2);
        }
        Err(Abort::Guard(e)) => {
            eprintln!("benchmark: {}: sanity guard failed: {e}", w.name());
            return ExitCode::from(3);
        }
    };
    for failure in tally.failures.iter().take(5) {
        eprintln!("benchmark: {}: FAILED {failure}", w.name());
    }
    let declared = if trace { PER_LAYER } else { END_TO_END };
    let mut json = BTreeMap::new();
    for &(name, value, unit) in &metrics {
        println!("{} {name} {value} {unit}", w.name());
        if declared.iter().any(|&(n, _)| n == name) {
            json.insert(
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            );
        }
    }
    let correct = tally.failures.is_empty();
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failures.len() as f64)),
        ("metrics", Json::Obj(json)),
    ]);
    println!("{}", line.to_string_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn untraced(w: Workload, run: &Run) -> Result<(Metrics, Tally), Abort> {
    // Read before the workload pins itself to one core.
    let cores = sys::available_parallelism();
    let m = match w {
        Workload::OneshotRoute => oneshot::measure(oneshot::Kind::Route, run)?,
        Workload::OneshotRatio => oneshot::measure(oneshot::Kind::Ratio, run)?,
        Workload::ReplayStorms => replay::measure(run)?,
        Workload::ServeMixed => serve::measure(run)?,
        Workload::Scale10k => scale::measure(run)?,
    };
    let n = m.units.len();
    if n < w.min_samples() {
        return Err(Abort::Guard(format!(
            "{n} timed units; the reported statistics need at least {}",
            w.min_samples()
        )));
    }
    let latencies = m.units.calibrated();
    let setup = stats::median(&m.setup_s).ok_or("no set-up was timed")?;
    let p50 = stats::median(&latencies).ok_or("no unit was timed")?;
    let mut metrics: Metrics = vec![
        ("setup_s", setup, "s"),
        ("latency_p50_ms", p50, "ms"),
        ("throughput_per_s", n as f64 / m.phase_s, "1/s"),
        ("peak_rss_mib", m.peak_rss_mib, "MiB"),
        ("samples", n as f64, "count"),
        ("setup_repeats", m.setup_s.len() as f64, "count"),
    ];
    if let Some((p, v)) = stats::tail(&latencies) {
        metrics.push((tail_name(p), v, "ms"));
    }
    if let Some(wall_p50) = stats::median(&m.units.wall_ms) {
        metrics.push(("latency_p50_wall_ms", wall_p50, "ms"));
    }
    if let Some(factor) = stats::median(&m.units.factors) {
        metrics.push(("calibration_factor_p50", factor, "ratio"));
    }
    metrics.push((
        "failed_share",
        m.tally.failures.len() as f64 / m.tally.attempted.max(1) as f64,
        "ratio",
    ));
    metrics.push(("available_parallelism", cores as f64, "count"));
    metrics.extend(m.notes);
    Ok((metrics, m.tally))
}

fn tail_name(p: f64) -> &'static str {
    if p >= 99.9 {
        "latency_p999_ms"
    } else if p >= 99.0 {
        "latency_p99_ms"
    } else {
        "latency_p90_ms"
    }
}

fn traced(w: Workload, run: &Run) -> Result<(Metrics, Tally), Abort> {
    riskroute_obs::reset();
    let t = match w {
        Workload::OneshotRoute => oneshot::trace(oneshot::Kind::Route, run)?,
        Workload::OneshotRatio => oneshot::trace(oneshot::Kind::Ratio, run)?,
        Workload::ReplayStorms => replay::trace(run)?,
        Workload::ServeMixed => serve::trace(run)?,
        Workload::Scale10k => scale::trace(run)?,
    };
    riskroute_obs::disable();
    let path = run.out.join(format!("trace-{}.jsonl", w.name()));
    let jsonl = riskroute_obs::export::to_jsonl(&riskroute_obs::snapshot());
    riskroute_obs::export::write_atomic(&path, &jsonl)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    // Layers are compared with the traced units they ran in, so tracing's
    // own cost is on both sides; the overhead ratio compares the passes.
    let traced_mean = stats::mean(&t.traced_ms).ok_or("no traced unit was timed")?;
    let untraced_p50 = stats::median(&t.untraced_ms).ok_or("no untraced unit was timed")?;
    let traced_p50 = stats::median(&t.traced_ms).ok_or("no traced unit was timed")?;
    let unattributed = traced_mean - t.attributed_ms;
    let overhead = traced_p50 / untraced_p50;
    if unattributed < -0.1 * traced_mean {
        return Err(Abort::Guard(format!(
            "the traced layers sum to {:.3} ms per unit, more than 110% of the \
             traced unit's {traced_mean:.3} ms",
            t.attributed_ms
        )));
    }
    if overhead < 0.9 {
        return Err(Abort::Guard(format!(
            "traced p50 {traced_p50:.4} ms is below 0.9 x untraced p50 {untraced_p50:.4} ms"
        )));
    }
    let mut measured: BTreeMap<&str, f64> = t.layers.into_iter().collect();
    measured.insert("process.unattributed_ms", unattributed);
    measured.insert("trace.overhead_ratio", overhead);
    let mut metrics: Metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, measured.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    metrics.push((
        "trace.attributed_share",
        t.attributed_ms / traced_mean,
        "ratio",
    ));
    metrics.push((
        "trace.untraced_samples",
        t.untraced_ms.len() as f64,
        "count",
    ));
    metrics.push(("trace.traced_samples", t.traced_ms.len() as f64, "count"));
    Ok((metrics, t.tally))
}

/// Every workload with tracing off, then traced, each in its own child
/// process so no workload inherits another's heap, caches or collector.
fn run_all(run: &Run) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("benchmark: cannot locate the benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = BTreeMap::new();
    let mut all_ok = true;
    for w in WORKLOADS {
        let mut entry = BTreeMap::new();
        for trace in ["0", "1"] {
            let pass = if trace == "0" {
                "end_to_end"
            } else {
                "per_layer"
            };
            let (ok, lines, result) = match run_child(&exe, w, trace, run) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("benchmark: {}: {e}", w.name());
                    (false, Vec::new(), Json::Null)
                }
            };
            all_ok &= ok;
            let mut metrics = BTreeMap::new();
            for line in &lines {
                println!("{line}");
                let fields: Vec<&str> = line.split(' ').collect();
                if let [_, metric, value, unit] = fields[..] {
                    if let Ok(v) = value.parse::<f64>() {
                        metrics.insert(
                            metric.to_string(),
                            Json::obj([("value", Json::Num(v)), ("unit", Json::Str(unit.into()))]),
                        );
                    }
                }
            }
            let mut pass_entry = BTreeMap::from([("metrics".to_string(), Json::Obj(metrics))]);
            if let Json::Obj(fields) = result {
                for key in ["correct", "attempted", "failed"] {
                    if let Some(v) = fields.get(key) {
                        pass_entry.insert(key.to_string(), v.clone());
                    }
                }
            }
            entry.insert(pass.to_string(), Json::Obj(pass_entry));
        }
        report.insert(w.name().to_string(), Json::Obj(entry));
    }
    let doc = Json::obj([
        ("seed", Json::Num(run.seed as f64)),
        ("seconds", Json::Num(run.seconds)),
        (
            "available_parallelism",
            Json::Num(sys::available_parallelism() as f64),
        ),
        ("workloads", Json::Obj(report)),
    ]);
    let path = run.out.join("report.json");
    if let Err(e) = riskroute_obs::export::write_atomic(&path, &doc.to_string_pretty()) {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    eprintln!("benchmark: wrote {}", path.display());
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run one workload pass as a child; its metric lines and its result.
fn run_child(
    exe: &Path,
    w: Workload,
    trace: &str,
    run: &Run,
) -> Result<(bool, Vec<String>, Json), String> {
    let mut child = Command::new(exe)
        .args(["--workload", w.name(), "--trace", trace])
        .args(["--seed", &run.seed.to_string()])
        .args(["--seconds", &run.seconds.to_string()])
        .arg("--riskroute")
        .arg(&run.riskroute)
        .arg("--out")
        .arg(&run.out)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let read: Result<Vec<String>, _> = match child.stdout.take() {
        Some(stdout) => BufReader::new(stdout).lines().collect(),
        None => Ok(Vec::new()),
    };
    let status = child
        .wait()
        .map_err(|e| format!("cannot wait for the child: {e}"))?;
    let mut lines = read.map_err(|e| format!("cannot read the child's output: {e}"))?;
    let result = match lines.last().map(|l| riskroute_json::parse(l)) {
        Some(Ok(json)) => {
            lines.pop();
            json
        }
        _ => Json::Null,
    };
    Ok((status.success(), lines, result))
}
