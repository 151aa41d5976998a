//! Argument parsing (hand-rolled; the CLI's surface is small and the
//! workspace stays dependency-light).

use riskroute::{Parallelism, RiskWeights};
use riskroute_json::Json;
use riskroute_serve::{Request, ServeConfig};
use std::collections::BTreeMap;
use std::fmt;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// GraphML imports: `(path, network name)` pairs.
    pub graphml: Vec<(String, String)>,
    /// λ_h override (default 1e5).
    pub lambda_h: f64,
    /// λ_f override (default 1e3).
    pub lambda_f: f64,
    /// `--threads <N|auto>`: worker count for the parallel sweeps
    /// (default one worker). Every setting produces byte-identical output;
    /// the knob only trades wall-clock for cores.
    pub threads: Parallelism,
    /// `--no-route-cache` clears this (default `true`): disable the exact
    /// route-tree cache. A debugging knob — outputs are byte-identical
    /// either way; disabling only costs wall-clock.
    pub route_cache: bool,
    /// Observability flags (metrics/trace export, progress heartbeat).
    pub obs: ObsArgs,
    /// The subcommand.
    pub command: Command,
}

impl Cli {
    /// The risk weights this invocation runs under.
    pub fn weights(&self) -> RiskWeights {
        RiskWeights::new(self.lambda_h, self.lambda_f)
    }
}

/// Observability flags, valid on any subcommand.
///
/// When either output path is set the global collector is enabled for the
/// run and a snapshot is exported on the way out — even when the command
/// fails, so a budget-exhausted run still leaves its metrics behind.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsArgs {
    /// `--metrics-out <path>`: Prometheus text exposition, written
    /// atomically at exit.
    pub metrics_out: Option<String>,
    /// `--trace-out <path>`: JSONL event stream (spans + metrics), written
    /// atomically at exit; feed it to `riskroute obs-summary`.
    pub trace_out: Option<String>,
    /// `--progress`: rate-limited stderr heartbeat with an ETA derived
    /// from stage counts and `WorkBudget::work_done`.
    pub progress: bool,
}

impl ObsArgs {
    /// Whether the run needs the collector enabled.
    pub fn wants_collection(&self) -> bool {
        self.metrics_out.is_some() || self.trace_out.is_some()
    }
}

/// Execution-budget and checkpoint flags shared by the long-running
/// subcommands (`provision`, `replay`, `resume`).
#[derive(Debug, Clone, Default)]
pub struct BudgetArgs {
    /// `--deadline-ms N`: wall-clock cap; the run stops at the next clean
    /// stage boundary past the deadline and exits with code 9.
    pub deadline_ms: Option<u64>,
    /// `--max-work N`: cap on charged work units (candidate evaluations /
    /// replay ticks) — a deterministic, machine-independent budget.
    pub max_work: Option<u64>,
    /// `--checkpoint <path>`: write a crash-safe snapshot (atomic
    /// temp-file + rename) after every greedy iteration / replay tick
    /// batch, resumable with `riskroute resume <path>`.
    pub checkpoint: Option<String>,
    /// An externally owned cancel flag wired into the budget (no CLI flag;
    /// the serve daemon injects its drain-shed flag here so one store
    /// sheds every in-flight request at its next stage boundary).
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

// Manual impl: `Arc<AtomicBool>` has no `PartialEq`; two flags are the
// same exactly when they are the same allocation.
impl PartialEq for BudgetArgs {
    fn eq(&self, other: &Self) -> bool {
        let cancel_eq = match (&self.cancel, &other.cancel) {
            (None, None) => true,
            (Some(a), Some(b)) => std::sync::Arc::ptr_eq(a, b),
            _ => false,
        };
        self.deadline_ms == other.deadline_ms
            && self.max_work == other.max_work
            && self.checkpoint == other.checkpoint
            && cancel_eq
    }
}

impl BudgetArgs {
    /// Materialize the cooperative budget token these flags describe.
    pub fn to_budget(&self) -> riskroute::WorkBudget {
        let mut budget = riskroute::WorkBudget::unlimited();
        if let Some(ms) = self.deadline_ms {
            budget = budget.with_deadline_ms(ms);
        }
        if let Some(units) = self.max_work {
            budget = budget.with_max_work(units);
        }
        if let Some(cancel) = &self.cancel {
            budget = budget.with_cancel(std::sync::Arc::clone(cancel));
        }
        budget
    }
}

/// The subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the corpus (and imported) networks.
    Corpus,
    /// Compare RiskRoute and shortest-path for a PoP pair.
    Route {
        /// Network name.
        network: String,
        /// Source PoP selector (index or name substring).
        src: String,
        /// Destination PoP selector.
        dst: String,
    },
    /// Ranked backup paths for a PoP pair.
    Backup {
        /// Network name.
        network: String,
        /// Source PoP selector.
        src: String,
        /// Destination PoP selector.
        dst: String,
        /// Total paths to compute (primary + alternates).
        k: usize,
    },
    /// Best additional links (greedy Eq. 4).
    Provision {
        /// Network name.
        network: String,
        /// Number of links to propose.
        k: usize,
        /// Budget and checkpoint flags.
        budget: BudgetArgs,
    },
    /// Replay a hurricane against a network.
    Replay {
        /// Network name.
        network: String,
        /// Storm name (katrina, irene, sandy).
        storm: String,
        /// Advisory stride.
        stride: usize,
        /// `--stream`: ignore the recorded advisory series and instead
        /// consume NDJSON advisories from stdin continuously against the
        /// warm engine, emitting one NDJSON tick line each.
        stream: bool,
        /// Budget and checkpoint flags.
        budget: BudgetArgs,
    },
    /// Deterministic failure-scenario resilience sweep (N-1, sampled N-2,
    /// or a Monte-Carlo hazard ensemble).
    Sweep {
        /// Network name.
        network: String,
        /// Sweep mode: "n1", "n2", or "ensemble".
        mode: String,
        /// Scenario sample count (N-2 draws / ensemble members; ignored by
        /// the exhaustive N-1 mode).
        samples: usize,
        /// Sampling / ensemble master seed.
        seed: u64,
        /// Budget and checkpoint flags.
        budget: BudgetArgs,
    },
    /// Resume a provisioning or replay run from a checkpoint snapshot.
    Resume {
        /// Path to the snapshot file.
        snapshot: String,
        /// Budget and checkpoint flags for the continued run. When
        /// `--checkpoint` is omitted, new snapshots overwrite the input.
        budget: BudgetArgs,
    },
    /// Risk-weighted criticality ranking of a network's PoPs.
    Critical {
        /// Network name.
        network: String,
    },
    /// Link-corridor risk ranking and shared-risk link groups.
    Corridors {
        /// Network name.
        network: String,
    },
    /// The §7 aggregate ratio report (risk reduction / distance increase).
    Ratio {
        /// Network name.
        network: String,
        /// `--sample <K>`: score K seeded source/destination pairs instead
        /// of every pair — the only tractable mode on synthetic networks
        /// with tens of thousands of PoPs.
        sample: Option<usize>,
        /// `--seed <S>`: pair-sampling seed (only meaningful with
        /// `--sample`).
        seed: u64,
    },
    /// Generate a deterministic synthetic continental-scale network.
    Synth {
        /// Number of PoPs to generate.
        n: usize,
        /// `--seed <S>`: generation seed.
        seed: u64,
        /// `--out <path>`: write the network as GraphML (atomic rename)
        /// instead of just printing the summary; feed it back with
        /// `--graphml <path> --name <name>`.
        out: Option<String>,
    },
    /// Risk-aware OSPF link weights plus a fidelity evaluation.
    Ospf {
        /// Network name.
        network: String,
    },
    /// Run the warm-engine NDJSON query daemon.
    Serve {
        /// `--listen <addr>`: TCP bind address (port 0 picks an ephemeral
        /// port; the resolved address is printed on startup).
        listen: String,
        /// `--unix <path>`: serve on a Unix-domain socket instead of TCP
        /// (Unix only).
        unix: Option<String>,
        /// `--max-inflight N`: queries executing at once before admission
        /// control sheds with `overloaded`.
        max_inflight: usize,
        /// `--max-connections N`: open connections before accepts are
        /// refused.
        max_connections: usize,
        /// `--frame-cap-bytes N`: per-request frame size cap.
        frame_cap_bytes: usize,
        /// `--read-timeout-ms N`: stalled-writer disconnect timeout.
        read_timeout_ms: u64,
        /// `--write-timeout-ms N`: stalled-reader disconnect timeout.
        write_timeout_ms: u64,
        /// `--drain-ms N`: the finish window and then the shed window of a
        /// graceful drain.
        drain_ms: u64,
        /// `--deadline-ms N`: default per-request wall-clock deadline
        /// applied when a request does not set its own.
        deadline_ms: Option<u64>,
    },
    /// Storm failure injection.
    Failure {
        /// Network name.
        network: String,
        /// Storm name.
        storm: String,
    },
    /// Dump a network's topology as JSON or GraphML.
    Export {
        /// Network name.
        network: String,
        /// Output format: "json" (default) or "graphml".
        format: String,
        /// `--out <path>`: write to a file (atomic temp-file + rename)
        /// instead of stdout, so a mid-write kill never leaves a truncated
        /// export behind.
        out: Option<String>,
    },
    /// Summarize a `--trace-out` JSONL file: per-span latency table.
    ObsSummary {
        /// Path to the JSONL trace.
        path: String,
    },
    /// Convert a `--trace-out` JSONL file to Chrome trace-event JSON.
    ObsTrace {
        /// Path to the JSONL trace.
        path: String,
        /// Output path for the trace-event JSON.
        out: String,
    },
    /// Lint a Prometheus text-exposition file.
    ObsLint {
        /// Path to the exposition text.
        path: String,
    },
}

impl Command {
    /// The command's wire name, used as the trace label when observability
    /// collection is enabled.
    pub fn name(&self) -> &'static str {
        match self {
            Command::Corpus => "corpus",
            Command::Route { .. } => "route",
            Command::Backup { .. } => "backup",
            Command::Provision { .. } => "provision",
            Command::Replay { .. } => "replay",
            Command::Sweep { .. } => "sweep",
            Command::Resume { .. } => "resume",
            Command::Critical { .. } => "critical",
            Command::Corridors { .. } => "corridors",
            Command::Ratio { .. } => "ratio",
            Command::Synth { .. } => "synth",
            Command::Ospf { .. } => "ospf",
            Command::Serve { .. } => "serve",
            Command::Failure { .. } => "failure",
            Command::Export { .. } => "export",
            Command::ObsSummary { .. } => "obs-summary",
            Command::ObsTrace { .. } => "obs-trace",
            Command::ObsLint { .. } => "obs-lint",
        }
    }
}

/// Everything that can go wrong running the CLI, grouped by exit code.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// `--help` was requested; the payload is the usage text.
    Help(String),
    /// Malformed arguments (usage error).
    Bad(String),
    /// A name (network, PoP selector, storm) did not resolve.
    Unknown(String),
    /// Reading an input file failed.
    Io(String),
    /// A pipeline error from the unified core taxonomy.
    Core(riskroute::Error),
    /// The execution budget ran out before the computation finished. The
    /// report is the partial result plus resume instructions — the run's
    /// completed prefix is valid (and checkpointed when `--checkpoint` was
    /// given), it just is not the whole answer.
    Budget {
        /// The rendered partial report.
        report: String,
        /// Which limit stopped the run (the serve daemon forwards this as
        /// the typed `stopped` response field).
        stopped: riskroute::StopReason,
    },
    /// The serve daemon's drain deadline expired with work still stuck —
    /// in-flight connections were abandoned (their threads detached) so
    /// the process could exit instead of hanging.
    Drain(String),
}

impl CliError {
    /// The process exit code for this error family.
    ///
    /// `0` success/help, `2` usage, `3` unresolved name, `4` I/O,
    /// `5` parse/import/snapshot failures (GraphML, advisory, JSON,
    /// corrupt or stale checkpoint), `6` defined degradation surfaced as an
    /// error (unreachable pair, nothing left to aggregate), `7` invalid
    /// values or malformed structure (including a poisoned parallel worker
    /// pool), `9` execution budget exhausted
    /// (partial result, resumable), `10` forced serve drain (the daemon had
    /// to abandon stuck in-flight work to exit).
    pub fn exit_code(&self) -> i32 {
        use riskroute::Error as E;
        match self {
            CliError::Help(_) => 0,
            CliError::Bad(_) => 2,
            CliError::Unknown(_) => 3,
            CliError::Io(_) => 4,
            CliError::Core(e) => match e {
                E::Import(_)
                | E::Advisory(_)
                | E::Json(_)
                | E::SnapshotVersion { .. }
                | E::SnapshotIntegrity { .. } => 5,
                E::Unreachable { .. } | E::NoInformativePairs => 6,
                E::InvalidWeight { .. }
                | E::InvalidArgument { .. }
                | E::Graph(_)
                | E::Topology(_)
                | E::Geo(_)
                | E::NotAdjacent { .. }
                | E::UnknownNetwork(_)
                | E::WorkerPanic { .. } => 7,
            },
            CliError::Budget { .. } => 9,
            CliError::Drain(_) => 10,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Help(u) => f.write_str(u),
            CliError::Bad(m) => write!(f, "error: {m}\n\n{USAGE}"),
            CliError::Unknown(m) => write!(f, "error: {m}"),
            CliError::Io(m) => write!(f, "I/O error: {m}"),
            CliError::Core(e) => write!(f, "error: {}", riskroute::render_chain(e)),
            CliError::Budget { report, .. } => f.write_str(report),
            CliError::Drain(m) => write!(f, "forced drain: {m}"),
        }
    }
}

impl From<riskroute::Error> for CliError {
    fn from(e: riskroute::Error) -> Self {
        CliError::Core(e)
    }
}

/// Usage text.
pub const USAGE: &str = "\
riskroute — bit-risk-mile routing and provisioning (CoNEXT'13 reproduction)

USAGE:
  riskroute [GLOBALS] <COMMAND> [ARGS]

COMMANDS:
  corpus                             list available networks
  route <net> <src> <dst>            RiskRoute vs shortest path for a pair
  backup <net> <src> <dst> [-k N]    ranked backup paths (default k = 3)
  provision <net> [-k N] [BUDGET]    best new links (default k = 5)
  replay <net> <storm> [--stride N]  hurricane replay (default stride 8);
          [--stream] [BUDGET]        accepts BUDGET flags. --stream reads
                                     NDJSON advisories from stdin against the
                                     warm engine (one NDJSON tick line each)
                                     instead of the recorded series
  sweep <net> [--mode M] [--samples N] deterministic resilience sweep: full
        [--seed S] [BUDGET]          N-1 (default), sampled N-2, or a seeded
                                     hazard ensemble; ranked criticality
                                     report, byte-identical at any --threads
  resume <snapshot> [BUDGET]         continue a checkpointed provision/replay/
                                     sweep run; falls back to a fresh run
                                     (with a notice) if only the job line
                                     survives
  critical <net>                     risk-weighted PoP criticality ranking
  corridors <net>                    link-corridor risk + shared-risk groups
  ratio <net> [--sample K] [--seed S] §7 aggregate ratio report (Eq. 5 /
                                     Eq. 6); --sample scores K seeded pairs
                                     instead of all pairs (the tractable mode
                                     on 10k+-PoP synthetic networks)
  synth <n> [--seed S] [--out P]     generate a deterministic n-PoP synthetic
                                     continental network (population-weighted
                                     placement around the real gazetteer);
                                     --out writes GraphML for --graphml reuse
  ospf <net>                         risk-aware OSPF weights + fidelity
  failure <net> <storm>              storm failure injection
  export <net> [--format F] [--out P] topology as json | graphml, on stdout
                                     or atomically written to a file
  obs-summary <trace.jsonl>          per-span latency table (count, total,
                                     p50, p99, p999), SSSP-engine counters,
                                     and per-trace attribution from a
                                     --trace-out file
  obs trace <trace.jsonl> [--out P]  convert a --trace-out file to Chrome
                                     trace-event JSON (default out
                                     trace.json; open in chrome://tracing)
  obs lint <metrics.prom>            lint Prometheus text exposition (names,
                                     labels, bucket cumulativity); exit 5 on
                                     the first malformed line
  serve [--listen A] [--unix P]      warm-engine NDJSON query daemon (one
        [--max-inflight N]           request per line; ops: ping, route,
        [--max-connections N]        ratio, provision, replay, sweep, corpus,
        [--frame-cap-bytes N]        shutdown). Default --listen
        [--read-timeout-ms N]        127.0.0.1:4167; GET /metrics on the same
        [--write-timeout-ms N]       listener scrapes Prometheus text.
        [--drain-ms N]               Responses are byte-identical to the
        [--deadline-ms N]            one-shot CLI at any --threads setting;
                                     --deadline-ms sets a default per-request
                                     budget (typed partial responses)

BUDGET (provision, replay, sweep, resume):
  --deadline-ms <N>                  wall-clock budget; stop at the next
                                     clean stage boundary past it
  --max-work <N>                     cap candidate evaluations / replay
                                     ticks (deterministic budget)
  --checkpoint <path>                write a crash-safe snapshot (atomic
                                     rename) at every stage boundary;
                                     resume omits this to overwrite its
                                     input snapshot
  A budget-stopped run prints its completed prefix and exits with code 9.

GLOBALS:
  --graphml <file> --name <name>     import a Topology Zoo GraphML map
                                     (repeatable; imported names shadow corpus)
  --lambda-h <x>                     historical risk weight (default 1e5)
  --lambda-f <x>                     forecast risk weight (default 1e3)
  --threads <N|auto>                 worker threads for the pair sweeps,
                                     candidate scoring, replay ticks and
                                     sweep scenarios (default 1; auto = one
                                     per core). Output is byte-identical at
                                     any setting — every worker count runs
                                     the same units and merges them in order
  --no-route-cache                   disable the exact route-tree cache
                                     (debugging; output is byte-identical,
                                     runs just recompute every tree)
  -h, --help                         this text

OBSERVABILITY (any command):
  --metrics-out <path>               write Prometheus text exposition at exit
                                     (atomic rename; written even on failure)
  --trace-out <path>                 write a JSONL span/metric trace at exit;
                                     summarize with `riskroute obs-summary`
  --progress                         stderr heartbeat with ETA from stage
                                     counts and the work budget

PoP selectors are indices or unique case-insensitive name substrings.
Storms: katrina, irene, sandy. Everything is deterministic (seed 42).
-k, --sample and --samples accept at most 1048576.

EXIT CODES:
  0 ok/help   2 usage   3 unknown name   4 I/O   5 parse/import/snapshot
  6 unreachable or nothing to aggregate   7 invalid value
  9 budget exhausted (partial result; resumable from its checkpoint)
  10 forced serve drain (stuck in-flight work abandoned at shutdown)
";

/// Parse a raw argument vector (without the program name).
///
/// Global flags may appear anywhere; the rest is the command word and its
/// fields, which `decode` reads through the argv `Fields` source.
///
/// # Errors
/// [`CliError::Help`] for `-h`/`--help`, [`CliError::Bad`] otherwise.
pub fn parse_args(args: &[String]) -> Result<Cli, CliError> {
    let mut graphml = Vec::new();
    let mut lambda_h = 1e5;
    let mut lambda_f = 1e3;
    let mut threads = Parallelism::Sequential;
    let mut route_cache = true;
    let mut obs = ObsArgs::default();
    let mut rest: Vec<String> = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| CliError::Bad(format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "-h" | "--help" => return Err(CliError::Help(USAGE.to_string())),
            "--metrics-out" => obs.metrics_out = Some(value()?.clone()),
            "--trace-out" => obs.trace_out = Some(value()?.clone()),
            "--progress" => obs.progress = true,
            "--graphml" => {
                let path = value()?.clone();
                if value().map(String::as_str) != Ok("--name") {
                    return Err(CliError::Bad(
                        "--graphml <file> must be followed by --name <name>".into(),
                    ));
                }
                graphml.push((path, value()?.clone()));
            }
            "--lambda-h" => lambda_h = lambda(arg, Value::Arg(value()?.clone()))?,
            "--lambda-f" => lambda_f = lambda(arg, Value::Arg(value()?.clone()))?,
            "--threads" => threads = parse_threads(value()?)?,
            "--no-route-cache" => route_cache = false,
            _ => rest.push(arg.clone()),
        }
    }
    let Some((cmd, tail)) = rest.split_first() else {
        return Err(CliError::Help(USAGE.to_string()));
    };
    if cmd.starts_with('-') {
        return Err(CliError::Bad(format!("unknown flag {cmd}")));
    }
    let mut argv = Argv {
        args: tail,
        used: vec![false; tail.len()],
        positionals: 0,
    };
    let command = decode(cmd, &mut argv)?;
    argv.finish(cmd)?;
    Ok(Cli {
        graphml,
        lambda_h,
        lambda_f,
        threads,
        route_cache,
        obs,
        command,
    })
}

fn parse_threads(v: &str) -> Result<Parallelism, CliError> {
    if v == "auto" {
        return Ok(Parallelism::Auto);
    }
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(Parallelism::from_worker_count(n)),
        _ => Err(CliError::Bad(
            "--threads needs a positive integer or \"auto\"".into(),
        )),
    }
}

/// Decode a serve request: its op's command and the request's λ overrides
/// of `base`, with every body field accounted for.
///
/// # Errors
/// [`CliError::Bad`] for a missing, malformed or unknown field.
pub(crate) fn decode_request(
    request: &Request,
    base: RiskWeights,
) -> Result<(Command, RiskWeights), CliError> {
    let fields = request
        .body
        .as_obj()
        .map_err(|e| CliError::Bad(e.to_string()))?;
    let mut body = Body {
        fields,
        // Room for every name one decode asks, so asking never reallocates.
        asked: Vec::with_capacity(16),
    };
    let command = decode(&request.op, &mut body)?;
    let mut weight = |name: &'static str, default: f64| match body.value(name)? {
        Some(v) => lambda(&body.token(name), v),
        None => Ok(default),
    };
    let weights = RiskWeights::new(
        weight("lambda_h", base.lambda_h)?,
        weight("lambda_f", base.lambda_f)?,
    );
    body.finish(&request.op)?;
    Ok((command, weights))
}

/// One field value, as its source holds it.
pub(crate) enum Value {
    /// An argv token.
    Arg(String),
    /// A serve request field.
    Json(Json),
}

impl Value {
    fn text(self) -> Option<String> {
        match self {
            Value::Arg(s) | Value::Json(Json::Str(s)) => Some(s),
            Value::Json(_) => None,
        }
    }

    fn uint(self) -> Option<u64> {
        match self {
            Value::Arg(s) => s.parse().ok(),
            Value::Json(j) => j.as_usize().ok().map(|n| n as u64),
        }
    }
}

/// The λ check shared by the `--lambda-h`/`--lambda-f` globals and the
/// per-request `lambda_h`/`lambda_f` fields.
fn lambda(token: &str, v: Value) -> Result<f64, CliError> {
    match v {
        Value::Arg(s) => s.parse().ok(),
        Value::Json(j) => j.as_f64().ok(),
    }
    .filter(|x: &f64| x.is_finite() && *x >= 0.0)
    .ok_or_else(|| CliError::Bad(format!("{token} needs a finite non-negative number")))
}

/// Where a command's fields come from: an argv tail or a serve request
/// body. [`decode`] asks for every field by its wire name (`network`, `k`,
/// `deadline_ms`, …); [`Fields::finish`] then rejects whatever it never
/// asked for, so the decoder alone defines each command's fields.
pub(crate) trait Fields {
    /// The next positional field, called `name` in the usage text.
    fn positional(&mut self, name: &'static str) -> Option<Value>;
    /// The value of option `name`, if given.
    ///
    /// # Errors
    /// [`CliError::Bad`] when the source holds it malformed.
    fn value(&mut self, name: &'static str) -> Result<Option<Value>, CliError>;
    /// Whether switch `name` is set.
    ///
    /// # Errors
    /// [`CliError::Bad`] when the source holds it malformed.
    fn switch(&mut self, name: &'static str) -> Result<bool, CliError>;
    /// `name` as this source spells it in messages.
    fn token(&self, name: &str) -> String;
    /// Reject whatever decoding `cmd` never asked for.
    ///
    /// # Errors
    /// [`CliError::Bad`] naming the first unasked token.
    fn finish(&self, cmd: &str) -> Result<(), CliError>;
}

/// The argv source: positionals first, in order, then flags anywhere. A
/// field's flag is its name with `_` → `-`: `--deadline-ms`, or `-k` for a
/// one-letter name. Each flag may be given once.
struct Argv<'a> {
    args: &'a [String],
    used: Vec<bool>,
    positionals: usize,
}

impl Argv<'_> {
    /// Claim `name`'s flag and the `values` tokens after it.
    fn claim(&mut self, name: &str, values: usize) -> Result<Option<usize>, CliError> {
        let flag = self.token(name);
        let mut hits = (0..self.args.len()).filter(|&i| self.args[i] == flag);
        let Some(at) = hits.next() else {
            return Ok(None);
        };
        if hits.next().is_some() {
            return Err(CliError::Bad(format!("{flag} is given more than once")));
        }
        if at + values >= self.args.len() {
            return Err(CliError::Bad(format!("{flag} needs a value")));
        }
        self.used[at..=at + values].fill(true);
        Ok(Some(at))
    }
}

impl Fields for Argv<'_> {
    fn positional(&mut self, _name: &'static str) -> Option<Value> {
        let at = self.positionals;
        let arg = self.args.get(at).filter(|a| !a.starts_with('-'))?;
        self.used[at] = true;
        self.positionals += 1;
        Some(Value::Arg(arg.clone()))
    }

    fn value(&mut self, name: &'static str) -> Result<Option<Value>, CliError> {
        Ok(self
            .claim(name, 1)?
            .map(|at| Value::Arg(self.args[at + 1].clone())))
    }

    fn switch(&mut self, name: &'static str) -> Result<bool, CliError> {
        Ok(self.claim(name, 0)?.is_some())
    }

    fn token(&self, name: &str) -> String {
        if name.len() == 1 {
            format!("-{name}")
        } else {
            format!("--{}", name.replace('_', "-"))
        }
    }

    fn finish(&self, cmd: &str) -> Result<(), CliError> {
        match self.args.iter().zip(&self.used).find(|(_, used)| !**used) {
            None => Ok(()),
            Some((a, _)) if a.starts_with('-') => {
                Err(CliError::Bad(format!("unknown flag {a} for {cmd}")))
            }
            Some((a, _)) => Err(CliError::Bad(format!(
                "unexpected argument {a:?} for {cmd}"
            ))),
        }
    }
}

/// The serve source: a request body's fields, named like the CLI flags
/// with `-` → `_` and like the usage text's positionals. `op` and `id`
/// belong to the envelope. `checkpoint` and `stream` act on the daemon's
/// own files and stdin, so a body never offers them: they stay unasked
/// and `finish` rejects them like any unknown field.
struct Body<'a> {
    fields: &'a BTreeMap<String, Json>,
    asked: Vec<&'static str>,
}

impl Fields for Body<'_> {
    fn positional(&mut self, name: &'static str) -> Option<Value> {
        self.asked.push(name);
        self.fields.get(name).cloned().map(Value::Json)
    }

    fn value(&mut self, name: &'static str) -> Result<Option<Value>, CliError> {
        Ok(match name {
            "checkpoint" => None,
            _ => self.positional(name),
        })
    }

    fn switch(&mut self, _name: &'static str) -> Result<bool, CliError> {
        Ok(false)
    }

    fn token(&self, name: &str) -> String {
        format!("field {name:?}")
    }

    fn finish(&self, cmd: &str) -> Result<(), CliError> {
        let unasked =
            |k: &&String| !matches!(k.as_str(), "op" | "id") && !self.asked.contains(&k.as_str());
        match self.fields.keys().find(unasked) {
            Some(k) => Err(CliError::Bad(format!("unknown field {k:?} for op {cmd:?}"))),
            None => Ok(()),
        }
    }
}

/// Option `name` converted by `parse`, or a usage error naming the token
/// and `what` a valid value looks like.
fn field<T>(
    f: &mut dyn Fields,
    name: &'static str,
    what: &str,
    parse: impl FnOnce(Value) -> Option<T>,
) -> Result<Option<T>, CliError> {
    f.value(name)?
        .map(|v| parse(v).ok_or_else(|| CliError::Bad(format!("{} needs {what}", f.token(name)))))
        .transpose()
}

fn text(f: &mut dyn Fields, name: &'static str) -> Result<Option<String>, CliError> {
    field(f, name, "a string", Value::text)
}

fn uint(f: &mut dyn Fields, name: &'static str) -> Result<Option<u64>, CliError> {
    field(f, name, "a non-negative integer", Value::uint)
}

/// A count: a positive integer.
fn count(f: &mut dyn Fields, name: &'static str) -> Result<Option<usize>, CliError> {
    field(f, name, "a positive integer", |v| {
        v.uint().filter(|&n| n > 0).map(|n| n as usize)
    })
}

/// The largest `k`, `sample` or `samples` a command accepts. Each count
/// sizes work that is laid out up front (sampled pairs, scenario specs,
/// greedy rounds), and an allocation failure aborts the process instead of
/// unwinding, so one oversized request could take down the serve daemon.
pub(crate) const MAX_WORK_COUNT: usize = 1 << 20;

/// A count that sizes up-front work: a positive integer up to
/// [`MAX_WORK_COUNT`].
fn work_count(f: &mut dyn Fields, name: &'static str) -> Result<Option<usize>, CliError> {
    field(f, name, "a positive integer up to 1048576", |v| {
        v.uint()
            .filter(|&n| n > 0 && n <= MAX_WORK_COUNT as u64)
            .map(|n| n as usize)
    })
}

/// The positional fields `names` of `cmd`, all required, as strings.
fn required<const N: usize>(
    f: &mut dyn Fields,
    cmd: &str,
    names: [&'static str; N],
) -> Result<[String; N], CliError> {
    let mut values: [String; N] = std::array::from_fn(|_| String::new());
    for (slot, name) in values.iter_mut().zip(names) {
        *slot = match f.positional(name) {
            Some(v) => v
                .text()
                .ok_or_else(|| CliError::Bad(format!("{} needs a string", f.token(name))))?,
            None => {
                let usage: Vec<String> = names.iter().map(|n| format!("<{n}>")).collect();
                return Err(CliError::Bad(format!("{cmd} needs {}", usage.join(" "))));
            }
        };
    }
    Ok(values)
}

fn budget(f: &mut dyn Fields) -> Result<BudgetArgs, CliError> {
    Ok(BudgetArgs {
        deadline_ms: uint(f, "deadline_ms")?,
        max_work: uint(f, "max_work")?,
        checkpoint: text(f, "checkpoint")?,
        cancel: None,
    })
}

fn seed(f: &mut dyn Fields) -> Result<u64, CliError> {
    Ok(uint(f, "seed")?.unwrap_or(crate::CLI_SEED))
}

/// Decode command `cmd` from `f`: the one place each command's fields,
/// defaults and range checks are written, for argv and serve alike.
///
/// # Errors
/// [`CliError::Bad`] for an unknown command or a missing or malformed
/// field.
pub(crate) fn decode(cmd: &str, f: &mut dyn Fields) -> Result<Command, CliError> {
    Ok(match cmd {
        "corpus" => Command::Corpus,
        "route" => {
            let [network, src, dst] = required(f, cmd, ["network", "src", "dst"])?;
            Command::Route { network, src, dst }
        }
        "backup" => {
            let [network, src, dst] = required(f, cmd, ["network", "src", "dst"])?;
            Command::Backup {
                network,
                src,
                dst,
                k: work_count(f, "k")?.unwrap_or(3),
            }
        }
        "provision" => {
            let [network] = required(f, cmd, ["network"])?;
            Command::Provision {
                network,
                k: work_count(f, "k")?.unwrap_or(5),
                budget: budget(f)?,
            }
        }
        "replay" => {
            let [network, storm] = required(f, cmd, ["network", "storm"])?;
            Command::Replay {
                network,
                storm,
                stride: count(f, "stride")?.unwrap_or(8),
                stream: f.switch("stream")?,
                budget: budget(f)?,
            }
        }
        "sweep" => {
            let [network] = required(f, cmd, ["network"])?;
            let mode = text(f, "mode")?.unwrap_or_else(|| "n1".into());
            if !matches!(mode.as_str(), "n1" | "n2" | "ensemble") {
                return Err(CliError::Bad(format!(
                    "unknown sweep mode {mode:?} (expected n1, n2, or ensemble)"
                )));
            }
            Command::Sweep {
                network,
                mode,
                samples: work_count(f, "samples")?.unwrap_or(64),
                seed: seed(f)?,
                budget: budget(f)?,
            }
        }
        "resume" => {
            let [snapshot] = required(f, cmd, ["snapshot"])?;
            Command::Resume {
                snapshot,
                budget: budget(f)?,
            }
        }
        "critical" | "corridors" | "ospf" => {
            let [network] = required(f, cmd, ["network"])?;
            match cmd {
                "critical" => Command::Critical { network },
                "corridors" => Command::Corridors { network },
                _ => Command::Ospf { network },
            }
        }
        "ratio" => {
            let [network] = required(f, cmd, ["network"])?;
            Command::Ratio {
                network,
                sample: work_count(f, "sample")?,
                seed: seed(f)?,
            }
        }
        "synth" => {
            let [n] = required(f, cmd, ["n"])?;
            Command::Synth {
                n: n.parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| CliError::Bad("synth <n> needs a positive integer".into()))?,
                seed: seed(f)?,
                out: text(f, "out")?,
            }
        }
        "serve" => {
            let limits = ServeConfig::default();
            Command::Serve {
                listen: text(f, "listen")?.unwrap_or_else(|| "127.0.0.1:4167".into()),
                unix: text(f, "unix")?,
                max_inflight: count(f, "max_inflight")?.unwrap_or(limits.max_inflight),
                max_connections: count(f, "max_connections")?.unwrap_or(limits.max_connections),
                frame_cap_bytes: count(f, "frame_cap_bytes")?.unwrap_or(limits.frame_cap_bytes),
                read_timeout_ms: uint(f, "read_timeout_ms")?.unwrap_or(limits.read_timeout_ms),
                write_timeout_ms: uint(f, "write_timeout_ms")?.unwrap_or(limits.write_timeout_ms),
                drain_ms: uint(f, "drain_ms")?.unwrap_or(limits.drain_ms),
                deadline_ms: uint(f, "deadline_ms")?,
            }
        }
        "failure" => {
            let [network, storm] = required(f, cmd, ["network", "storm"])?;
            Command::Failure { network, storm }
        }
        "export" => {
            let [network] = required(f, cmd, ["network"])?;
            let format = text(f, "format")?.unwrap_or_else(|| "json".into());
            if format != "json" && format != "graphml" {
                return Err(CliError::Bad(format!("unknown export format {format:?}")));
            }
            Command::Export {
                network,
                format,
                out: text(f, "out")?,
            }
        }
        "obs-summary" => {
            let [path] = required(f, cmd, ["trace.jsonl"])?;
            Command::ObsSummary { path }
        }
        "obs" => match required(f, cmd, ["trace|lint", "path"]) {
            Ok([sub, path]) if sub == "trace" => Command::ObsTrace {
                path,
                out: text(f, "out")?.unwrap_or_else(|| "trace.json".into()),
            },
            Ok([sub, path]) if sub == "lint" => Command::ObsLint { path },
            _ => {
                return Err(CliError::Bad(
                    "obs needs a subcommand: trace <trace.jsonl> [--out <path>] \
                     or lint <metrics.prom>"
                        .into(),
                ))
            }
        },
        other => return Err(CliError::Bad(format!("unknown command {other:?}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_route() {
        let cli = parse_args(&args("route Sprint 0 5")).unwrap();
        assert_eq!(
            cli.command,
            Command::Route {
                network: "Sprint".into(),
                src: "0".into(),
                dst: "5".into()
            }
        );
        assert_eq!(cli.lambda_h, 1e5);
        assert_eq!(cli.lambda_f, 1e3);
    }

    #[test]
    fn parses_globals_anywhere() {
        let cli = parse_args(&args("--lambda-h 1e6 route Sprint 0 5 --lambda-f 0")).unwrap();
        assert_eq!(cli.lambda_h, 1e6);
        assert_eq!(cli.lambda_f, 0.0);
        assert!(matches!(cli.command, Command::Route { .. }));
    }

    #[test]
    fn parses_k_flags() {
        let cli = parse_args(&args("backup Sprint 0 5 -k 7")).unwrap();
        assert_eq!(
            cli.command,
            Command::Backup {
                network: "Sprint".into(),
                src: "0".into(),
                dst: "5".into(),
                k: 7
            }
        );
        let cli = parse_args(&args("provision Sprint")).unwrap();
        assert!(matches!(cli.command, Command::Provision { k: 5, .. }));
    }

    #[test]
    fn parses_graphml_imports() {
        let cli = parse_args(&args("--graphml zoo.graphml --name Abilene corpus")).unwrap();
        assert_eq!(cli.graphml, vec![("zoo.graphml".into(), "Abilene".into())]);
        assert_eq!(cli.command, Command::Corpus);
    }

    #[test]
    fn help_and_empty_return_usage() {
        assert!(matches!(
            parse_args(&args("--help")),
            Err(CliError::Help(_))
        ));
        assert!(matches!(parse_args(&[]), Err(CliError::Help(_))));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(
            parse_args(&args("explode")),
            Err(CliError::Bad(_))
        ));
        assert!(matches!(
            parse_args(&args("route Sprint 0")),
            Err(CliError::Bad(_))
        ));
        assert!(matches!(
            parse_args(&args("--lambda-h banana corpus")),
            Err(CliError::Bad(_))
        ));
        assert!(matches!(
            parse_args(&args("backup Sprint 0 5 -k 0")),
            Err(CliError::Bad(_))
        ));
        assert!(matches!(
            parse_args(&args("--graphml x.graphml corpus")),
            Err(CliError::Bad(_))
        ));
        assert!(matches!(
            parse_args(&args("--lambda-h -5 corpus")),
            Err(CliError::Bad(_))
        ));
    }

    #[test]
    fn export_format_parses_and_validates() {
        let cli = parse_args(&args("export NTT")).unwrap();
        assert_eq!(
            cli.command,
            Command::Export {
                network: "NTT".into(),
                format: "json".into(),
                out: None
            }
        );
        let cli = parse_args(&args("export NTT --format graphml")).unwrap();
        assert!(matches!(cli.command, Command::Export { ref format, .. } if format == "graphml"));
        let cli = parse_args(&args("export NTT --out topo.json")).unwrap();
        assert!(matches!(
            cli.command,
            Command::Export { ref out, .. } if out.as_deref() == Some("topo.json")
        ));
        assert!(matches!(
            parse_args(&args("export NTT --format yaml")),
            Err(CliError::Bad(_))
        ));
    }

    #[test]
    fn budget_flags_parse_on_provision_and_replay() {
        let cli = parse_args(&args(
            "provision Sprint -k 3 --deadline-ms 250 --max-work 10 --checkpoint snap.txt",
        ))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Provision {
                network: "Sprint".into(),
                k: 3,
                budget: BudgetArgs {
                    deadline_ms: Some(250),
                    max_work: Some(10),
                    checkpoint: Some("snap.txt".into()),
                    cancel: None,
                },
            }
        );
        let cli = parse_args(&args("replay Telepak katrina --max-work 0")).unwrap();
        let Command::Replay { budget, .. } = cli.command else {
            panic!("expected replay");
        };
        // 0 is a legal budget: exhaust at the first stage boundary.
        assert_eq!(budget.max_work, Some(0));
        assert_eq!(budget.deadline_ms, None);
        assert!(matches!(
            parse_args(&args("provision Sprint --deadline-ms soon")),
            Err(CliError::Bad(_))
        ));
    }

    #[test]
    fn resume_takes_a_snapshot_path() {
        let cli = parse_args(&args("resume snap.txt --deadline-ms 100")).unwrap();
        assert_eq!(
            cli.command,
            Command::Resume {
                snapshot: "snap.txt".into(),
                budget: BudgetArgs {
                    deadline_ms: Some(100),
                    max_work: None,
                    checkpoint: None,
                    cancel: None,
                },
            }
        );
        assert!(matches!(parse_args(&args("resume")), Err(CliError::Bad(_))));
    }

    #[test]
    fn sweep_defaults_and_flags() {
        let cli = parse_args(&args("sweep Level3")).unwrap();
        assert_eq!(
            cli.command,
            Command::Sweep {
                network: "Level3".into(),
                mode: "n1".into(),
                samples: 64,
                seed: crate::CLI_SEED,
                budget: BudgetArgs::default(),
            }
        );
        let cli = parse_args(&args(
            "sweep Level3 --mode ensemble --samples 32 --seed 7 \
             --max-work 5 --checkpoint sweep.snap --threads 4",
        ))
        .unwrap();
        assert_eq!(cli.threads, Parallelism::Threads(4));
        assert_eq!(
            cli.command,
            Command::Sweep {
                network: "Level3".into(),
                mode: "ensemble".into(),
                samples: 32,
                seed: 7,
                budget: BudgetArgs {
                    deadline_ms: None,
                    max_work: Some(5),
                    checkpoint: Some("sweep.snap".into()),
                    cancel: None,
                },
            }
        );
        assert!(matches!(
            parse_args(&args("sweep Level3 --mode n3")),
            Err(CliError::Bad(_))
        ));
        assert!(matches!(parse_args(&args("sweep")), Err(CliError::Bad(_))));
        assert!(matches!(
            parse_args(&args("sweep Level3 --samples 0")),
            Err(CliError::Bad(_))
        ));
    }

    #[test]
    fn obs_flags_parse_anywhere_and_default_off() {
        let cli = parse_args(&args("corpus")).unwrap();
        assert_eq!(cli.obs, ObsArgs::default());
        assert!(!cli.obs.wants_collection());
        let cli = parse_args(&args(
            "--metrics-out m.prom replay Telepak katrina --trace-out t.jsonl --progress",
        ))
        .unwrap();
        assert_eq!(cli.obs.metrics_out.as_deref(), Some("m.prom"));
        assert_eq!(cli.obs.trace_out.as_deref(), Some("t.jsonl"));
        assert!(cli.obs.progress);
        assert!(cli.obs.wants_collection());
        assert!(matches!(cli.command, Command::Replay { .. }));
        assert!(matches!(
            parse_args(&args("corpus --metrics-out")),
            Err(CliError::Bad(_))
        ));
        assert!(matches!(
            parse_args(&args("corpus --trace-out")),
            Err(CliError::Bad(_))
        ));
    }

    #[test]
    fn threads_flag_parses_and_validates() {
        let cli = parse_args(&args("corpus")).unwrap();
        assert_eq!(
            cli.threads,
            Parallelism::Sequential,
            "default is sequential"
        );
        let cli = parse_args(&args("--threads 1 corpus")).unwrap();
        assert_eq!(
            cli.threads,
            Parallelism::Sequential,
            "1 IS the sequential path"
        );
        let cli = parse_args(&args("--threads 4 corpus")).unwrap();
        assert_eq!(cli.threads, Parallelism::Threads(4));
        let cli = parse_args(&args("--threads auto corpus")).unwrap();
        assert_eq!(cli.threads, Parallelism::Auto);
        let cli = parse_args(&args("provision Sprint -k 2 --threads 8")).unwrap();
        assert_eq!(
            cli.threads,
            Parallelism::Threads(8),
            "valid after the command too"
        );
        assert!(matches!(
            parse_args(&args("--threads 0 corpus")),
            Err(CliError::Bad(_))
        ));
        assert!(matches!(
            parse_args(&args("--threads many corpus")),
            Err(CliError::Bad(_))
        ));
        assert!(matches!(
            parse_args(&args("corpus --threads")),
            Err(CliError::Bad(_))
        ));
    }

    #[test]
    fn route_cache_flag_defaults_on_and_parses() {
        let cli = parse_args(&args("corpus")).unwrap();
        assert!(cli.route_cache, "cache is on by default");
        let cli = parse_args(&args("--no-route-cache corpus")).unwrap();
        assert!(!cli.route_cache);
        let cli = parse_args(&args("provision Sprint -k 2 --no-route-cache")).unwrap();
        assert!(!cli.route_cache, "valid after the command too");
    }

    /// The usage error a rejected flag must produce: exit 2, naming it.
    fn assert_rejects_flag(argv: &str, flag: &str) {
        match parse_args(&args(argv)) {
            Err(e @ CliError::Bad(_)) => {
                assert_eq!(e.exit_code(), 2, "{argv}");
                assert!(
                    e.to_string().contains(flag),
                    "{argv}: error must name {flag}"
                );
            }
            other => panic!("{argv}: expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn removed_engine_flags_are_usage_errors() {
        for flag in ["--no-bucket-queue", "--no-delta-invalidation"] {
            assert_rejects_flag(&format!("{flag} corpus"), flag);
            assert_rejects_flag(&format!("{flag} ratio Sprint"), flag);
            assert_rejects_flag(&format!("ratio Sprint {flag}"), flag);
            assert_rejects_flag(&format!("replay Telepak katrina {flag}"), flag);
        }
    }

    #[test]
    fn chaos_is_not_a_command() {
        // The fault-injection harness runs as a test suite.
        for argv in ["chaos", "chaos --plans 8 --seed 42"] {
            match parse_args(&args(argv)) {
                Err(CliError::Bad(m)) => assert!(m.contains("unknown command \"chaos\""), "{m}"),
                other => panic!("{argv}: expected a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_subcommand_flags_are_usage_errors() {
        for argv in [
            "route Sprint 0 9 --bogus-flag",
            "ratio Telepak --bogus",
            "provision Telepak -k 1 --bogus",
            "replay Telepak katrina --bogus",
            "sweep Telepak --bogus",
            "corpus --bogus",
        ] {
            assert_rejects_flag(argv, "--bogus");
        }
        // A flag another command defines is still foreign here.
        assert_rejects_flag("route Sprint 0 9 --stride 2", "--stride");
        assert_rejects_flag("ratio Sprint --stream", "--stream");
        // A value-taking flag needs its value; it is not defaulted.
        assert_rejects_flag("provision Telepak -k", "-k");
        assert_rejects_flag("ratio Telepak --seed", "--seed");
        // Every positional and every flag is read, and each only once.
        assert_rejects_flag("ratio Sprint --seed 7 extra", "extra");
        assert_rejects_flag("route Sprint 0 9 10", "10");
        assert_rejects_flag("ratio Sprint --seed 1 --seed 2", "--seed");
        assert_rejects_flag("replay Telepak katrina --stream --stream", "--stream");
    }

    #[test]
    fn every_documented_command_flag_parses() {
        for argv in [
            "backup Sprint 0 5 -k 2",
            "provision Sprint -k 2 --deadline-ms 10 --max-work 3 --checkpoint p.snap",
            "replay Telepak katrina --stride 2 --stream --deadline-ms 10 --max-work 3 \
             --checkpoint r.snap",
            "sweep Level3 --mode n2 --samples 4 --seed 7 --deadline-ms 10 --max-work 3 \
             --checkpoint s.snap",
            "resume s.snap --deadline-ms 10 --max-work 3 --checkpoint t.snap",
            "ratio Sprint --sample 8 --seed 7",
            "synth 100 --seed 7 --out n.graphml",
            "export Sprint --format graphml --out n.graphml",
            "obs trace t.jsonl --out t.json",
            "serve --listen 127.0.0.1:0 --unix s.sock --max-inflight 2 --max-connections 4 \
             --frame-cap-bytes 4096 --read-timeout-ms 5 --write-timeout-ms 5 --drain-ms 5 \
             --deadline-ms 5",
            // Global flags stay valid after any command.
            "route Sprint 0 5 --lambda-h 1e6 --lambda-f 0 --threads 2 --no-route-cache \
             --metrics-out m.prom --trace-out t.jsonl --progress",
        ] {
            if let Err(e) = parse_args(&args(argv)) {
                panic!("{argv}: {e}");
            }
        }
    }

    #[test]
    fn replay_stream_flag_parses() {
        let cli = parse_args(&args("replay Telepak katrina")).unwrap();
        assert!(matches!(cli.command, Command::Replay { stream: false, .. }));
        let cli = parse_args(&args("replay Telepak katrina --stream")).unwrap();
        assert!(matches!(cli.command, Command::Replay { stream: true, .. }));
    }

    #[test]
    fn obs_summary_takes_a_path() {
        let cli = parse_args(&args("obs-summary trace.jsonl")).unwrap();
        assert_eq!(
            cli.command,
            Command::ObsSummary {
                path: "trace.jsonl".into()
            }
        );
        assert!(matches!(
            parse_args(&args("obs-summary")),
            Err(CliError::Bad(_))
        ));
    }

    #[test]
    fn obs_subcommands_parse_trace_and_lint() {
        let cli = parse_args(&args("obs trace trace.jsonl")).unwrap();
        assert_eq!(
            cli.command,
            Command::ObsTrace {
                path: "trace.jsonl".into(),
                out: "trace.json".into(),
            }
        );
        let cli = parse_args(&args("obs trace trace.jsonl --out chrome.json")).unwrap();
        assert_eq!(
            cli.command,
            Command::ObsTrace {
                path: "trace.jsonl".into(),
                out: "chrome.json".into(),
            }
        );
        let cli = parse_args(&args("obs lint metrics.prom")).unwrap();
        assert_eq!(
            cli.command,
            Command::ObsLint {
                path: "metrics.prom".into(),
            }
        );
        assert!(matches!(parse_args(&args("obs")), Err(CliError::Bad(_))));
        assert!(matches!(
            parse_args(&args("obs frobnicate x")),
            Err(CliError::Bad(_))
        ));
    }

    #[test]
    fn command_names_label_traces() {
        assert_eq!(
            parse_args(&args("route Sprint 0 5"))
                .unwrap()
                .command
                .name(),
            "route"
        );
        assert_eq!(
            parse_args(&args("obs lint m.prom")).unwrap().command.name(),
            "obs-lint"
        );
    }

    #[test]
    fn serve_defaults_and_flags() {
        let cli = parse_args(&args("serve")).unwrap();
        assert_eq!(
            cli.command,
            Command::Serve {
                listen: "127.0.0.1:4167".into(),
                unix: None,
                max_inflight: 8,
                max_connections: 64,
                frame_cap_bytes: 1 << 20,
                read_timeout_ms: 10_000,
                write_timeout_ms: 5_000,
                drain_ms: 2_000,
                deadline_ms: None,
            }
        );
        let cli = parse_args(&args(
            "serve --listen 127.0.0.1:0 --max-inflight 2 --drain-ms 300 \
             --deadline-ms 250 --frame-cap-bytes 4096 --threads 4",
        ))
        .unwrap();
        assert_eq!(cli.threads, Parallelism::Threads(4));
        let Command::Serve {
            listen,
            max_inflight,
            drain_ms,
            deadline_ms,
            frame_cap_bytes,
            ..
        } = cli.command
        else {
            panic!("expected serve");
        };
        assert_eq!(listen, "127.0.0.1:0");
        assert_eq!(max_inflight, 2);
        assert_eq!(drain_ms, 300);
        assert_eq!(deadline_ms, Some(250));
        assert_eq!(frame_cap_bytes, 4096);
        assert!(matches!(
            parse_args(&args("serve extra")),
            Err(CliError::Bad(_))
        ));
        assert!(matches!(
            parse_args(&args("serve --max-inflight 0")),
            Err(CliError::Bad(_))
        ));
    }

    #[test]
    fn ratio_takes_a_network() {
        let cli = parse_args(&args("ratio Sprint")).unwrap();
        assert_eq!(
            cli.command,
            Command::Ratio {
                network: "Sprint".into(),
                sample: None,
                seed: crate::CLI_SEED,
            }
        );
        assert!(matches!(parse_args(&args("ratio")), Err(CliError::Bad(_))));
    }

    #[test]
    fn ratio_sample_flags_parse() {
        let cli = parse_args(&args("ratio Sprint --sample 48 --seed 7")).unwrap();
        assert_eq!(
            cli.command,
            Command::Ratio {
                network: "Sprint".into(),
                sample: Some(48),
                seed: 7,
            }
        );
        assert!(matches!(
            parse_args(&args("ratio Sprint --sample 0")),
            Err(CliError::Bad(_))
        ));
    }

    #[test]
    fn work_counts_are_capped() {
        for cmd in [
            "ratio Sprint --sample",
            "sweep Sprint --mode ensemble --samples",
            "provision Sprint -k",
            "backup Sprint 0 9 -k",
        ] {
            let max = MAX_WORK_COUNT;
            assert!(parse_args(&args(&format!("{cmd} {max}"))).is_ok(), "{cmd}");
            let Err(CliError::Bad(msg)) = parse_args(&args(&format!("{cmd} {}", max + 1))) else {
                panic!("{cmd} above the cap must be a usage error");
            };
            assert!(msg.contains(&format!("up to {max}")), "{msg}");
        }
        assert!(USAGE.contains(&format!("at most {MAX_WORK_COUNT}")));
    }

    #[test]
    fn synth_defaults_and_flags() {
        let cli = parse_args(&args("synth 10000")).unwrap();
        assert_eq!(
            cli.command,
            Command::Synth {
                n: 10000,
                seed: crate::CLI_SEED,
                out: None,
            }
        );
        let cli = parse_args(&args("synth 1000 --seed 9 --out net.graphml")).unwrap();
        assert_eq!(
            cli.command,
            Command::Synth {
                n: 1000,
                seed: 9,
                out: Some("net.graphml".into()),
            }
        );
        assert!(matches!(parse_args(&args("synth")), Err(CliError::Bad(_))));
        assert!(matches!(
            parse_args(&args("synth zero")),
            Err(CliError::Bad(_))
        ));
        assert!(matches!(
            parse_args(&args("synth 0")),
            Err(CliError::Bad(_))
        ));
    }

    #[test]
    fn usage_documents_exit_codes_and_obs() {
        assert!(USAGE.contains("EXIT CODES"));
        assert!(USAGE.contains("9 budget exhausted"));
        assert!(USAGE.contains("10 forced serve drain"));
        assert!(USAGE.contains("serve [--listen A]"));
        assert!(USAGE.contains("ratio <net>"));
        assert!(USAGE.contains("--threads"));
        assert!(USAGE.contains("--no-route-cache"));
        assert!(!USAGE.contains("--no-delta-invalidation"));
        assert!(!USAGE.contains("--no-bucket-queue"));
        assert!(USAGE.contains("synth <n>"));
        assert!(USAGE.contains("--stream"));
        assert!(USAGE.contains("--metrics-out"));
        assert!(USAGE.contains("--trace-out"));
        assert!(USAGE.contains("--progress"));
        assert!(USAGE.contains("obs-summary"));
        assert!(USAGE.contains("obs trace"));
        assert!(USAGE.contains("obs lint"));
    }

    #[test]
    fn exit_codes_partition_the_taxonomy() {
        use riskroute::Error as E;
        assert_eq!(CliError::Help(String::new()).exit_code(), 0);
        assert_eq!(CliError::Bad(String::new()).exit_code(), 2);
        assert_eq!(CliError::Unknown(String::new()).exit_code(), 3);
        assert_eq!(CliError::Io(String::new()).exit_code(), 4);
        assert_eq!(
            CliError::Core(E::Advisory(riskroute_forecast::ParseError::MissingCenter)).exit_code(),
            5
        );
        assert_eq!(
            CliError::Core(E::Unreachable {
                network: "x".into(),
                src: 0,
                dst: 1
            })
            .exit_code(),
            6
        );
        assert_eq!(CliError::Core(E::NoInformativePairs).exit_code(), 6);
        assert_eq!(
            CliError::Core(E::InvalidWeight {
                context: "λ_h".into(),
                value: f64::NAN
            })
            .exit_code(),
            7
        );
        assert_eq!(
            CliError::Core(E::SnapshotVersion {
                found: 99,
                supported: 1
            })
            .exit_code(),
            5
        );
        assert_eq!(
            CliError::Core(E::SnapshotIntegrity {
                reason: "truncated".into()
            })
            .exit_code(),
            5
        );
        assert_eq!(
            CliError::Core(E::InvalidArgument {
                context: "stride".into(),
                message: "must be positive".into()
            })
            .exit_code(),
            7
        );
        assert_eq!(
            CliError::Core(E::WorkerPanic { panicked: 2 }).exit_code(),
            7
        );
        assert_eq!(
            CliError::Budget {
                report: "partial".into(),
                stopped: riskroute::StopReason::WorkExhausted,
            }
            .exit_code(),
            9
        );
        assert_eq!(
            CliError::Drain("2 connections stuck".into()).exit_code(),
            10
        );
    }

    #[test]
    fn core_errors_render_their_cause_chain() {
        let err = CliError::Core(riskroute::Error::from(
            riskroute_topology::TopologyError::SelfLink(2),
        ));
        let text = err.to_string();
        assert!(text.contains("topology construction failed"));
        assert!(text.contains("caused by: self-link on PoP 2"));
    }

    #[test]
    fn replay_stride_default_and_override() {
        let cli = parse_args(&args("replay Telepak katrina")).unwrap();
        assert!(matches!(cli.command, Command::Replay { stride: 8, .. }));
        let cli = parse_args(&args("replay Telepak katrina --stride 2")).unwrap();
        assert!(matches!(cli.command, Command::Replay { stride: 2, .. }));
    }
}
