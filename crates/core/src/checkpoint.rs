//! Crash-safe checkpoint snapshots for budgeted computations.
//!
//! A [`Snapshot`] captures the progress of a long provisioning, replay or
//! sweep run at a clean stage boundary, so a killed, preempted, or
//! budget-exhausted process (see [`crate::budget`]) can resume without
//! losing work — and so a resumed run reproduces the uninterrupted result
//! **bit-identically** (the crash-consistency invariant the root package's
//! `tests/chaos.rs` kill/resume test enforces).
//!
//! # Format
//!
//! Snapshots are line-oriented text (version 1):
//!
//! ```text
//! riskroute-snapshot/1
//! job <fnv1a-64 hex> <compact JSON>
//! progress <fnv1a-64 hex> <compact JSON>
//! end
//! ```
//!
//! - The **header** carries the format version; an unsupported version
//!   loads as [`Error::SnapshotVersion`], never a panic.
//! - The **job** line describes what was being computed (network, storm,
//!   k, stride, sweep mode, λ weights) — enough to restart from scratch.
//! - The **progress** line carries the completed prefix (chosen links /
//!   replayed ticks / evaluated scenarios). Every `f64` round-trips exactly
//!   through `riskroute-json`'s shortest-representation rendering, which
//!   is what makes resumed runs bit-identical.
//! - Each JSON section is independently checksummed with FNV-1a (64-bit,
//!   in-tree — no registry dependencies), and the `end` marker makes
//!   completeness explicit. A truncated or bit-flipped file fails
//!   validation as [`Error::SnapshotIntegrity`].
//!
//! The two-section layout is deliberate: truncation eats the file from the
//! end, so a damaged snapshot usually still has a valid job line.
//! [`load_snapshot_with_fallback`] exploits this to degrade gracefully —
//! when the progress is unusable but the job survives, the caller gets the
//! job back and can fall back to a fresh run instead of dying.
//!
//! [`save_snapshot`] writes through `riskroute_obs::export::write_atomic`
//! (temp file + rename in the target directory), so a kill mid-write can
//! never leave a torn snapshot behind: the previous snapshot, if any, stays
//! intact until the rename commits.

use crate::error::Error;
use crate::provisioning::{CandidateLink, GreedyLinks};
use crate::ratios::RatioReport;
use crate::replay::{DisasterReplay, ReplayTick};
use crate::scenario::{ExposureReport, FailElement, ScenarioSpec, SweepRecord};
use riskroute_json::{Json, JsonError};
use std::path::Path;

/// The snapshot format version this build reads and writes.
pub const SNAPSHOT_VERSION: u64 = 1;

/// First-line magic prefix; the version number follows the slash.
const MAGIC: &str = "riskroute-snapshot/";

/// What a snapshotted run was computing — enough to restart it fresh when
/// the progress section is unusable.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotJob {
    /// A greedy k-link provisioning run (`riskroute provision`).
    Provision {
        /// Network name.
        network: String,
        /// Total links requested.
        k: usize,
        /// Historical risk weight λ_h.
        lambda_h: f64,
        /// Forecast risk weight λ_f.
        lambda_f: f64,
    },
    /// A storm replay (`riskroute replay`).
    Replay {
        /// Network name.
        network: String,
        /// Storm name (lowercase; resolvable by the CLI).
        storm: String,
        /// Advisory stride.
        stride: usize,
        /// Historical risk weight λ_h.
        lambda_h: f64,
        /// Forecast risk weight λ_f.
        lambda_f: f64,
    },
    /// A scenario resilience sweep (`riskroute sweep`).
    Sweep {
        /// Network name.
        network: String,
        /// Sweep mode label (`"n1"`, `"n2"`, or `"ensemble"`).
        mode: String,
        /// Sample count (0 for exhaustive N-1).
        samples: usize,
        /// Sampling / ensemble master seed (0 for N-1).
        seed: u64,
        /// Historical risk weight λ_h.
        lambda_h: f64,
        /// Forecast risk weight λ_f.
        lambda_f: f64,
    },
}

impl SnapshotJob {
    /// The job kind tag used in the wire format.
    pub fn kind(&self) -> &'static str {
        match self {
            SnapshotJob::Provision { .. } => "provision",
            SnapshotJob::Replay { .. } => "replay",
            SnapshotJob::Sweep { .. } => "sweep",
        }
    }
}

/// The completed prefix of a snapshotted run.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotProgress {
    /// Links chosen so far by the greedy provisioning loop.
    Provision(GreedyLinks),
    /// Ticks replayed so far plus the index of the next advisory.
    Replay {
        /// The replay prefix.
        replay: DisasterReplay,
        /// Index into the strided advisory stream to evaluate next: the
        /// number of stored ticks, which a resume checks.
        next_index: usize,
    },
    /// Scenarios evaluated so far by a resilience sweep.
    Sweep {
        /// The unfailed network's exposure (the sweep's Δ reference).
        baseline: ExposureReport,
        /// Evaluated scenario records, in canonical scenario order.
        records: Vec<SweepRecord>,
        /// Index into the canonical scenario list to evaluate next: the
        /// number of stored records, which a resume checks.
        next_index: usize,
    },
}

/// A complete checkpoint: job description plus completed prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// What was being computed.
    pub job: SnapshotJob,
    /// How far it got.
    pub progress: SnapshotProgress,
}

/// Outcome of [`load_snapshot_with_fallback`].
#[derive(Debug, Clone, PartialEq)]
pub enum LoadOutcome {
    /// The snapshot validated end to end; resume from its progress.
    Resume(Snapshot),
    /// The progress section was unusable, but the job line survived: the
    /// caller should fall back to a fresh run of `job` (degraded mode) and
    /// report `error` as the reason.
    Fallback {
        /// The recovered job description.
        job: SnapshotJob,
        /// Why the progress could not be used.
        error: Error,
    },
}

impl Snapshot {
    /// Render to the versioned, checksummed wire format.
    pub fn to_text(&self) -> String {
        let job = job_to_json(&self.job).to_string_compact();
        let progress = progress_to_json(&self.progress).to_string_compact();
        format!(
            "{MAGIC}{SNAPSHOT_VERSION}\njob {:016x} {job}\nprogress {:016x} {progress}\nend\n",
            fnv1a_64(job.as_bytes()),
            fnv1a_64(progress.as_bytes()),
        )
    }
}

/// FNV-1a 64-bit hash — the snapshot checksum.
pub use riskroute_rng::fnv1a_64;

/// Save `snapshot` to `path` atomically, recording the
/// `checkpoint_write` span and the `checkpoint_writes`,
/// `checkpoint_bytes_written` and `checkpoint_write_seconds` metrics.
///
/// # Errors
/// Any I/O error from the write or rename.
pub fn save_snapshot(path: impl AsRef<Path>, snapshot: &Snapshot) -> std::io::Result<()> {
    let text = snapshot.to_text();
    let mut span = riskroute_obs::span!("checkpoint_write");
    let start = riskroute_obs::is_enabled().then(std::time::Instant::now);
    let result = riskroute_obs::export::write_atomic(path, &text);
    if let Some(start) = start {
        span.field("bytes", text.len());
        riskroute_obs::counter_add("checkpoint_writes", 1);
        riskroute_obs::counter_add("checkpoint_bytes_written", text.len() as u64);
        riskroute_obs::histogram_observe("checkpoint_write_seconds", start.elapsed().as_secs_f64());
    }
    result
}

fn integrity(reason: impl Into<String>) -> Error {
    Error::SnapshotIntegrity {
        reason: reason.into(),
    }
}

fn shape(e: &JsonError) -> Error {
    integrity(format!("undecodable section: {e}"))
}

/// Validate and load a snapshot from its wire text.
///
/// # Errors
/// [`Error::SnapshotVersion`] for an unsupported header version,
/// [`Error::SnapshotIntegrity`] for anything structurally wrong: missing
/// magic, truncated sections, checksum mismatches, undecodable JSON, or a
/// job/progress kind mismatch.
pub fn load_snapshot(text: &str) -> Result<Snapshot, Error> {
    let mut span = riskroute_obs::span!("checkpoint_load");
    if span.is_active() {
        span.field("bytes", text.len());
        riskroute_obs::counter_add("checkpoint_loads", 1);
        riskroute_obs::counter_add("checkpoint_bytes_read", text.len() as u64);
    }
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| integrity("empty snapshot"))?;
    let version_text = header
        .strip_prefix(MAGIC)
        .ok_or_else(|| integrity(format!("bad magic in header {header:?}")))?;
    let found: u64 = version_text
        .trim()
        .parse()
        .map_err(|_| integrity(format!("unparsable version {version_text:?}")))?;
    if found != SNAPSHOT_VERSION {
        return Err(Error::SnapshotVersion {
            found,
            supported: SNAPSHOT_VERSION,
        });
    }
    let job_line = lines.next().ok_or_else(|| integrity("missing job line"))?;
    let job = job_from_json(&parse_section(job_line, "job")?)?;
    let progress_line = lines
        .next()
        .ok_or_else(|| integrity("missing progress line (truncated snapshot)"))?;
    let progress = progress_from_json(&parse_section(progress_line, "progress")?)?;
    if lines.next() != Some("end") {
        return Err(integrity("missing end marker (truncated snapshot)"));
    }
    let consistent = matches!(
        (&job, &progress),
        (
            SnapshotJob::Provision { .. },
            SnapshotProgress::Provision(_)
        ) | (SnapshotJob::Replay { .. }, SnapshotProgress::Replay { .. })
            | (SnapshotJob::Sweep { .. }, SnapshotProgress::Sweep { .. })
    );
    if !consistent {
        return Err(integrity("job/progress kind mismatch"));
    }
    Ok(Snapshot { job, progress })
}

/// [`load_snapshot`], degrading gracefully: when the snapshot is invalid
/// but its job line still validates (the common shape of truncation, which
/// eats the file from the end), return [`LoadOutcome::Fallback`] so the
/// caller can rerun the job from scratch instead of failing outright. The
/// job-line grammar is stable across format versions, so even a stale
/// snapshot can fall back.
///
/// # Errors
/// The original typed load error, when not even the job is recoverable.
pub fn load_snapshot_with_fallback(text: &str) -> Result<LoadOutcome, Error> {
    let error = match load_snapshot(text) {
        Ok(snapshot) => return Ok(LoadOutcome::Resume(snapshot)),
        Err(e) => e,
    };
    let job = text
        .lines()
        .find(|l| l.starts_with("job "))
        .and_then(|line| parse_section(line, "job").ok())
        .and_then(|v| job_from_json(&v).ok());
    match job {
        Some(job) => Ok(LoadOutcome::Fallback { job, error }),
        None => Err(error),
    }
}

/// Parse one `"<tag> <checksum-hex> <json>"` line, validating the checksum
/// before touching the JSON.
fn parse_section(line: &str, tag: &str) -> Result<Json, Error> {
    let rest = line
        .strip_prefix(tag)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| integrity(format!("expected a {tag} line, got {line:?}")))?;
    let (checksum_hex, payload) = rest
        .split_once(' ')
        .ok_or_else(|| integrity(format!("{tag} line has no payload")))?;
    let expected = u64::from_str_radix(checksum_hex, 16)
        .map_err(|_| integrity(format!("{tag} checksum {checksum_hex:?} is not hex")))?;
    let actual = fnv1a_64(payload.as_bytes());
    if actual != expected {
        return Err(integrity(format!(
            "{tag} checksum mismatch (stored {expected:016x}, computed {actual:016x})"
        )));
    }
    riskroute_json::parse(payload).map_err(|e| shape(&e))
}

// --- JSON codecs (hand-rolled against riskroute-json, like the rest of the
// workspace's artifact types) ------------------------------------------------

fn job_to_json(job: &SnapshotJob) -> Json {
    match job {
        SnapshotJob::Provision {
            network,
            k,
            lambda_h,
            lambda_f,
        } => Json::obj([
            ("kind", Json::Str("provision".into())),
            ("network", Json::Str(network.clone())),
            ("k", Json::Num(*k as f64)),
            ("lambda_h", Json::Num(*lambda_h)),
            ("lambda_f", Json::Num(*lambda_f)),
        ]),
        SnapshotJob::Replay {
            network,
            storm,
            stride,
            lambda_h,
            lambda_f,
        } => Json::obj([
            ("kind", Json::Str("replay".into())),
            ("network", Json::Str(network.clone())),
            ("storm", Json::Str(storm.clone())),
            ("stride", Json::Num(*stride as f64)),
            ("lambda_h", Json::Num(*lambda_h)),
            ("lambda_f", Json::Num(*lambda_f)),
        ]),
        SnapshotJob::Sweep {
            network,
            mode,
            samples,
            seed,
            lambda_h,
            lambda_f,
        } => Json::obj([
            ("kind", Json::Str("sweep".into())),
            ("network", Json::Str(network.clone())),
            ("mode", Json::Str(mode.clone())),
            ("samples", Json::Num(*samples as f64)),
            // u64 seeds exceed f64's exact-integer range; a decimal string
            // round-trips every value.
            ("seed", Json::Str(seed.to_string())),
            ("lambda_h", Json::Num(*lambda_h)),
            ("lambda_f", Json::Num(*lambda_f)),
        ]),
    }
}

fn job_from_json(v: &Json) -> Result<SnapshotJob, Error> {
    let get = |key: &str| v.field(key).map_err(|e| shape(&e));
    let kind = get("kind")?.as_str().map_err(|e| shape(&e))?.to_string();
    let network = get("network")?.as_str().map_err(|e| shape(&e))?.to_string();
    let lambda_h = get("lambda_h")?.as_f64().map_err(|e| shape(&e))?;
    let lambda_f = get("lambda_f")?.as_f64().map_err(|e| shape(&e))?;
    match kind.as_str() {
        "provision" => Ok(SnapshotJob::Provision {
            network,
            k: get("k")?.as_usize().map_err(|e| shape(&e))?,
            lambda_h,
            lambda_f,
        }),
        "replay" => Ok(SnapshotJob::Replay {
            network,
            storm: get("storm")?.as_str().map_err(|e| shape(&e))?.to_string(),
            stride: get("stride")?.as_usize().map_err(|e| shape(&e))?,
            lambda_h,
            lambda_f,
        }),
        "sweep" => Ok(SnapshotJob::Sweep {
            network,
            mode: get("mode")?.as_str().map_err(|e| shape(&e))?.to_string(),
            samples: get("samples")?.as_usize().map_err(|e| shape(&e))?,
            seed: seed_from_json(get("seed")?)?,
            lambda_h,
            lambda_f,
        }),
        other => Err(integrity(format!("unknown job kind {other:?}"))),
    }
}

/// Decode a decimal-string u64 seed (see [`job_to_json`] for why seeds are
/// not JSON numbers).
fn seed_from_json(v: &Json) -> Result<u64, Error> {
    v.as_str()
        .map_err(|e| shape(&e))?
        .parse()
        .map_err(|_| integrity("seed is not a decimal u64"))
}

fn candidate_to_json(c: &CandidateLink) -> Json {
    Json::obj([
        ("a", Json::Num(c.a as f64)),
        ("b", Json::Num(c.b as f64)),
        ("miles", Json::Num(c.miles)),
        ("total_bit_risk", Json::Num(c.total_bit_risk)),
        ("shortcut_threshold", Json::Num(c.shortcut_threshold)),
    ])
}

fn candidate_from_json(v: &Json) -> Result<CandidateLink, Error> {
    let get = |key: &str| v.field(key).map_err(|e| shape(&e));
    Ok(CandidateLink {
        a: get("a")?.as_usize().map_err(|e| shape(&e))?,
        b: get("b")?.as_usize().map_err(|e| shape(&e))?,
        miles: get("miles")?.as_f64().map_err(|e| shape(&e))?,
        total_bit_risk: get("total_bit_risk")?.as_f64().map_err(|e| shape(&e))?,
        shortcut_threshold: get("shortcut_threshold")?.as_f64().map_err(|e| shape(&e))?,
    })
}

fn report_to_json(r: &RatioReport) -> Json {
    Json::obj([
        ("risk_reduction_ratio", Json::Num(r.risk_reduction_ratio)),
        (
            "distance_increase_ratio",
            Json::Num(r.distance_increase_ratio),
        ),
        ("pairs", Json::Num(r.pairs as f64)),
        ("stranded_pairs", Json::Num(r.stranded_pairs as f64)),
    ])
}

fn report_from_json(v: &Json) -> Result<RatioReport, Error> {
    let get = |key: &str| v.field(key).map_err(|e| shape(&e));
    Ok(RatioReport {
        risk_reduction_ratio: get("risk_reduction_ratio")?
            .as_f64()
            .map_err(|e| shape(&e))?,
        distance_increase_ratio: get("distance_increase_ratio")?
            .as_f64()
            .map_err(|e| shape(&e))?,
        pairs: get("pairs")?.as_usize().map_err(|e| shape(&e))?,
        stranded_pairs: get("stranded_pairs")?.as_usize().map_err(|e| shape(&e))?,
    })
}

fn tick_to_json(t: &ReplayTick) -> Json {
    Json::obj([
        ("advisory", Json::Num(t.advisory as f64)),
        ("label", Json::Str(t.label.clone())),
        ("pops_in_scope", Json::Num(t.pops_in_scope as f64)),
        (
            "pops_in_hurricane_winds",
            Json::Num(t.pops_in_hurricane_winds as f64),
        ),
        ("report", report_to_json(&t.report)),
        ("degraded", Json::Bool(t.degraded)),
    ])
}

fn tick_from_json(v: &Json) -> Result<ReplayTick, Error> {
    let get = |key: &str| v.field(key).map_err(|e| shape(&e));
    Ok(ReplayTick {
        advisory: get("advisory")?.as_usize().map_err(|e| shape(&e))?,
        label: get("label")?.as_str().map_err(|e| shape(&e))?.to_string(),
        pops_in_scope: get("pops_in_scope")?.as_usize().map_err(|e| shape(&e))?,
        pops_in_hurricane_winds: get("pops_in_hurricane_winds")?
            .as_usize()
            .map_err(|e| shape(&e))?,
        report: report_from_json(get("report")?)?,
        degraded: get("degraded")?.as_bool().map_err(|e| shape(&e))?,
    })
}

fn element_to_json(e: &FailElement) -> Json {
    match e {
        FailElement::Node(v) => Json::obj([
            ("kind", Json::Str("node".into())),
            ("v", Json::Num(*v as f64)),
        ]),
        FailElement::Link(a, b) => Json::obj([
            ("kind", Json::Str("link".into())),
            ("a", Json::Num(*a as f64)),
            ("b", Json::Num(*b as f64)),
        ]),
    }
}

fn element_from_json(v: &Json) -> Result<FailElement, Error> {
    let get = |key: &str| v.field(key).map_err(|e| shape(&e));
    match get("kind")?.as_str().map_err(|e| shape(&e))? {
        "node" => Ok(FailElement::Node(
            get("v")?.as_usize().map_err(|e| shape(&e))?,
        )),
        "link" => Ok(FailElement::Link(
            get("a")?.as_usize().map_err(|e| shape(&e))?,
            get("b")?.as_usize().map_err(|e| shape(&e))?,
        )),
        other => Err(integrity(format!("unknown fail element kind {other:?}"))),
    }
}

fn spec_to_json(spec: &ScenarioSpec) -> Json {
    match spec {
        ScenarioSpec::One(e) => {
            Json::obj([("kind", Json::Str("one".into())), ("e", element_to_json(e))])
        }
        ScenarioSpec::Two(e1, e2) => Json::obj([
            ("kind", Json::Str("two".into())),
            ("e1", element_to_json(e1)),
            ("e2", element_to_json(e2)),
        ]),
        ScenarioSpec::Member { index, seed } => Json::obj([
            ("kind", Json::Str("member".into())),
            ("index", Json::Num(*index as f64)),
            ("seed", Json::Str(seed.to_string())),
        ]),
    }
}

fn spec_from_json(v: &Json) -> Result<ScenarioSpec, Error> {
    let get = |key: &str| v.field(key).map_err(|e| shape(&e));
    match get("kind")?.as_str().map_err(|e| shape(&e))? {
        "one" => Ok(ScenarioSpec::One(element_from_json(get("e")?)?)),
        "two" => Ok(ScenarioSpec::Two(
            element_from_json(get("e1")?)?,
            element_from_json(get("e2")?)?,
        )),
        "member" => Ok(ScenarioSpec::Member {
            index: get("index")?.as_usize().map_err(|e| shape(&e))?,
            seed: seed_from_json(get("seed")?)?,
        }),
        other => Err(integrity(format!("unknown scenario spec kind {other:?}"))),
    }
}

fn exposure_to_json(e: &ExposureReport) -> Json {
    Json::obj([
        ("bit_risk_total", Json::Num(e.bit_risk_total)),
        ("routable_pairs", Json::Num(e.routable_pairs as f64)),
        ("stranded_pairs", Json::Num(e.stranded_pairs as f64)),
    ])
}

fn exposure_from_json(v: &Json) -> Result<ExposureReport, Error> {
    let get = |key: &str| v.field(key).map_err(|e| shape(&e));
    Ok(ExposureReport {
        bit_risk_total: get("bit_risk_total")?.as_f64().map_err(|e| shape(&e))?,
        routable_pairs: get("routable_pairs")?.as_usize().map_err(|e| shape(&e))?,
        stranded_pairs: get("stranded_pairs")?.as_usize().map_err(|e| shape(&e))?,
    })
}

fn sweep_record_to_json(r: &SweepRecord) -> Json {
    Json::obj([
        ("spec", spec_to_json(&r.spec)),
        ("label", Json::Str(r.label.clone())),
        ("exposure", exposure_to_json(&r.exposure)),
    ])
}

fn sweep_record_from_json(v: &Json) -> Result<SweepRecord, Error> {
    let get = |key: &str| v.field(key).map_err(|e| shape(&e));
    Ok(SweepRecord {
        spec: spec_from_json(get("spec")?)?,
        label: get("label")?.as_str().map_err(|e| shape(&e))?.to_string(),
        exposure: exposure_from_json(get("exposure")?)?,
    })
}

fn progress_to_json(progress: &SnapshotProgress) -> Json {
    match progress {
        SnapshotProgress::Provision(links) => Json::obj([
            ("kind", Json::Str("provision".into())),
            ("original_bit_risk", Json::Num(links.original_bit_risk)),
            (
                "added",
                Json::Arr(links.added.iter().map(candidate_to_json).collect()),
            ),
        ]),
        SnapshotProgress::Replay { replay, next_index } => Json::obj([
            ("kind", Json::Str("replay".into())),
            ("storm", Json::Str(replay.storm.clone())),
            ("network", Json::Str(replay.network.clone())),
            ("next_index", Json::Num(*next_index as f64)),
            (
                "ticks",
                Json::Arr(replay.ticks.iter().map(tick_to_json).collect()),
            ),
        ]),
        SnapshotProgress::Sweep {
            baseline,
            records,
            next_index,
        } => Json::obj([
            ("kind", Json::Str("sweep".into())),
            ("baseline", exposure_to_json(baseline)),
            ("next_index", Json::Num(*next_index as f64)),
            (
                "records",
                Json::Arr(records.iter().map(sweep_record_to_json).collect()),
            ),
        ]),
    }
}

fn progress_from_json(v: &Json) -> Result<SnapshotProgress, Error> {
    let get = |key: &str| v.field(key).map_err(|e| shape(&e));
    let kind = get("kind")?.as_str().map_err(|e| shape(&e))?.to_string();
    match kind.as_str() {
        "provision" => {
            let added = get("added")?
                .as_arr()
                .map_err(|e| shape(&e))?
                .iter()
                .map(candidate_from_json)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(SnapshotProgress::Provision(GreedyLinks {
                original_bit_risk: get("original_bit_risk")?.as_f64().map_err(|e| shape(&e))?,
                added,
            }))
        }
        "replay" => {
            let ticks = get("ticks")?
                .as_arr()
                .map_err(|e| shape(&e))?
                .iter()
                .map(tick_from_json)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(SnapshotProgress::Replay {
                replay: DisasterReplay {
                    storm: get("storm")?.as_str().map_err(|e| shape(&e))?.to_string(),
                    network: get("network")?.as_str().map_err(|e| shape(&e))?.to_string(),
                    ticks,
                },
                next_index: get("next_index")?.as_usize().map_err(|e| shape(&e))?,
            })
        }
        "sweep" => {
            let records = get("records")?
                .as_arr()
                .map_err(|e| shape(&e))?
                .iter()
                .map(sweep_record_from_json)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(SnapshotProgress::Sweep {
                baseline: exposure_from_json(get("baseline")?)?,
                records,
                next_index: get("next_index")?.as_usize().map_err(|e| shape(&e))?,
            })
        }
        other => Err(integrity(format!("unknown progress kind {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn sample_provision() -> Snapshot {
        Snapshot {
            job: SnapshotJob::Provision {
                network: "Sprint".into(),
                k: 5,
                lambda_h: 1e5,
                lambda_f: 1e3,
            },
            progress: SnapshotProgress::Provision(GreedyLinks {
                original_bit_risk: 123456.789012345,
                added: vec![CandidateLink {
                    a: 3,
                    b: 11,
                    miles: 412.03125,
                    total_bit_risk: 98765.4321098765,
                    shortcut_threshold: 0.5,
                }],
            }),
        }
    }

    fn sample_replay() -> Snapshot {
        Snapshot {
            job: SnapshotJob::Replay {
                network: "Telepak".into(),
                storm: "katrina".into(),
                stride: 4,
                lambda_h: 1e5,
                lambda_f: 1e3,
            },
            progress: SnapshotProgress::Replay {
                replay: DisasterReplay {
                    storm: "KATRINA".into(),
                    network: "Telepak".into(),
                    ticks: vec![ReplayTick {
                        advisory: 9,
                        label: "11 AM CDT SAT AUG 27 2005".into(),
                        pops_in_scope: 2,
                        pops_in_hurricane_winds: 1,
                        report: RatioReport {
                            risk_reduction_ratio: 0.123456789,
                            distance_increase_ratio: 0.0123456789,
                            pairs: 42,
                            stranded_pairs: 3,
                        },
                        degraded: true,
                    }],
                },
                next_index: 5,
            },
        }
    }

    fn sample_sweep() -> Snapshot {
        let job = SnapshotJob::Sweep {
            network: "Level3".into(),
            mode: "ensemble".into(),
            samples: 64,
            // Exercises the > 2^53 range that a JSON number would lose.
            seed: u64::MAX - 12345,
            lambda_h: 1e5,
            lambda_f: 1e3,
        };
        let baseline = ExposureReport {
            bit_risk_total: 9_876_543.210987654,
            routable_pairs: 27_028,
            stranded_pairs: 0,
        };
        let records = vec![
            SweepRecord {
                spec: ScenarioSpec::One(FailElement::Node(17)),
                label: "node 17 (Denver)".into(),
                exposure: ExposureReport {
                    bit_risk_total: 9_900_001.000000001,
                    routable_pairs: 26_796,
                    stranded_pairs: 232,
                },
            },
            SweepRecord {
                spec: ScenarioSpec::Two(FailElement::Link(3, 9), FailElement::Node(4)),
                label: "link 3-9 (A - B) + node 4 (C)".into(),
                exposure: ExposureReport {
                    bit_risk_total: 0.123_456_789_012_345_68,
                    routable_pairs: 5,
                    stranded_pairs: 27_023,
                },
            },
            SweepRecord {
                spec: ScenarioSpec::Member {
                    index: 63,
                    seed: u64::MAX - 12345,
                },
                label: "member 63".into(),
                exposure: ExposureReport {
                    bit_risk_total: 1e300,
                    routable_pairs: 27_028,
                    stranded_pairs: 0,
                },
            },
        ];
        Snapshot {
            job,
            progress: SnapshotProgress::Sweep {
                baseline,
                records,
                next_index: 3,
            },
        }
    }

    #[test]
    fn snapshots_round_trip_bit_identically() {
        for snapshot in [sample_provision(), sample_replay(), sample_sweep()] {
            let text = snapshot.to_text();
            let back = load_snapshot(&text).unwrap();
            assert_eq!(back, snapshot, "exact round trip, f64s included");
        }
    }

    #[test]
    fn sweep_seeds_survive_beyond_f64_precision() {
        let text = sample_sweep().to_text();
        let back = load_snapshot(&text).unwrap();
        let SnapshotJob::Sweep { seed, .. } = back.job else {
            panic!("sweep job expected");
        };
        assert_eq!(seed, u64::MAX - 12345);
    }

    #[test]
    fn sweep_kind_mismatch_is_rejected() {
        let franken = Snapshot {
            job: sample_sweep().job,
            progress: sample_replay().progress,
        };
        let err = load_snapshot(&franken.to_text()).unwrap_err();
        assert!(err.to_string().contains("kind mismatch"));
    }

    #[test]
    fn truncated_bytes_fail_with_typed_integrity_error() {
        let text = sample_provision().to_text();
        // Every proper prefix must be a typed error (or, for a prefix that
        // still ends exactly after "end\n", the full document).
        for cut in 0..text.len() - 1 {
            if !text.is_char_boundary(cut) {
                continue;
            }
            let err = load_snapshot(&text[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::SnapshotIntegrity { .. } | Error::SnapshotVersion { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let text = sample_replay().to_text();
        // Flip a digit inside the progress payload.
        let corrupted = text.replacen("\"pairs\":42", "\"pairs\":43", 1);
        assert_ne!(corrupted, text);
        let err = load_snapshot(&corrupted).unwrap_err();
        assert!(matches!(err, Error::SnapshotIntegrity { .. }), "{err}");
        assert!(err.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn stale_version_is_a_typed_error_with_job_fallback() {
        let text = sample_provision().to_text().replacen(
            "riskroute-snapshot/1",
            "riskroute-snapshot/99",
            1,
        );
        let err = load_snapshot(&text).unwrap_err();
        assert_eq!(
            err,
            Error::SnapshotVersion {
                found: 99,
                supported: SNAPSHOT_VERSION
            }
        );
        let outcome = load_snapshot_with_fallback(&text).unwrap();
        let LoadOutcome::Fallback { job, error } = outcome else {
            panic!("stale snapshot must fall back, not resume");
        };
        assert_eq!(job.kind(), "provision");
        assert!(matches!(error, Error::SnapshotVersion { .. }));
    }

    #[test]
    fn truncation_after_the_job_line_falls_back_to_the_job() {
        let text = sample_replay().to_text();
        let job_end = text.find("\nprogress ").unwrap() + 1;
        let outcome = load_snapshot_with_fallback(&text[..job_end]).unwrap();
        let LoadOutcome::Fallback { job, error } = outcome else {
            panic!("truncated progress must fall back");
        };
        assert!(matches!(job, SnapshotJob::Replay { ref storm, .. } if storm == "katrina"));
        assert!(matches!(error, Error::SnapshotIntegrity { .. }));
    }

    #[test]
    fn truncation_inside_the_job_line_is_unrecoverable_but_typed() {
        let text = sample_provision().to_text();
        let mid_job = text.find("\"network\"").unwrap();
        let err = load_snapshot_with_fallback(&text[..mid_job]).unwrap_err();
        assert!(matches!(err, Error::SnapshotIntegrity { .. }), "{err}");
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let provision = sample_provision();
        let replay = sample_replay();
        let franken = Snapshot {
            job: provision.job,
            progress: replay.progress,
        };
        let err = load_snapshot(&franken.to_text()).unwrap_err();
        assert!(err.to_string().contains("kind mismatch"));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }
}
