//! Subcommand implementations: pure functions to output strings.

use crate::args::{decode_request, BudgetArgs, Command};
use crate::{resolve_pop, resolve_storm, CliContext, CliError};
use riskroute::backup::backup_paths;
use riskroute::checkpoint::{self, LoadOutcome, Snapshot, SnapshotJob, SnapshotProgress};
use riskroute::failure::{criticality_ranking, storm_failure};
use riskroute::prelude::*;
use riskroute::provisioning::{greedy_links_budgeted, GreedyLinks};
use riskroute::replay::{
    raw_advisories, replay_raw_advisories_budgeted, DisasterReplay, RawAdvisory, ReplaySession,
};
use riskroute::scenario::{
    run_sweep_budgeted, scenario_specs, FailElement, SweepOutcome, SweepPrior,
};
use riskroute::{NodeRisk, RoutedPath};
use riskroute_forecast::{ForecastRisk, StormSwath};
use riskroute_obs::Heartbeat;
use riskroute_population::PopShares;
use riskroute_serve::{QueryCx, QueryHandler, Reply, Request, ServeConfig, Server};
use riskroute_topology::Network;
use std::fmt::Write as _;

/// `riskroute corpus`
pub fn corpus(ctx: &CliContext) -> String {
    let mut out = String::from("Available networks (seed 42):\n\n");
    let _ = writeln!(
        out,
        "{:<20} {:<10} {:>5} {:>6} {:>12} {:>7}",
        "Network", "Kind", "PoPs", "Links", "Footprint mi", "Peers"
    );
    out.push_str(&"-".repeat(66));
    out.push('\n');
    for net in ctx.imported.iter().chain(ctx.corpus.all_networks()) {
        let kind = if ctx.imported.iter().any(|n| n.name() == net.name()) {
            "imported"
        } else {
            match net.kind() {
                NetworkKind::Tier1 => "tier-1",
                NetworkKind::Regional => "regional",
            }
        };
        let _ = writeln!(
            out,
            "{:<20} {:<10} {:>5} {:>6} {:>12.0} {:>7}",
            net.name(),
            kind,
            net.pop_count(),
            net.link_count(),
            net.footprint_miles(),
            ctx.corpus.peering.peer_count(net.name()),
        );
    }
    out
}

fn describe_route(net: &Network, label: &str, r: &RoutedPath) -> String {
    let path: Vec<&str> = r
        .nodes
        .iter()
        .map(|&n| net.pops()[n].name.as_str())
        .collect();
    format!(
        "{label}: {:.0} bit-miles + {:.0} risk-miles = {:.0} bit-risk miles\n  {}\n",
        r.bit_miles,
        r.risk_miles,
        r.bit_risk_miles,
        path.join(" -> ")
    )
}

/// `riskroute route <net> <src> <dst>`
pub fn route(
    ctx: &CliContext,
    network: &str,
    src: &str,
    dst: &str,
    weights: RiskWeights,
) -> Result<String, CliError> {
    let net = ctx.network(network)?;
    let (s, d) = (resolve_pop(net, src)?, resolve_pop(net, dst)?);
    let planner = ctx.planner(net, weights);
    let unreachable = || riskroute::Error::Unreachable {
        network: net.name().to_string(),
        src: s,
        dst: d,
    };
    let sp = planner.shortest_route(s, d).ok_or_else(unreachable)?;
    let rr = planner.try_risk_route(s, d)?;
    let mut out = format!(
        "{}: {} -> {} (lambda_h {:.0e}, lambda_f {:.0e})\n\n",
        net.name(),
        net.pops()[s].name,
        net.pops()[d].name,
        weights.lambda_h,
        weights.lambda_f
    );
    out.push_str(&describe_route(net, "shortest path", &sp));
    out.push_str(&describe_route(net, "RiskRoute    ", &rr));
    let _ = writeln!(
        out,
        "\nrisk reduction {} for {} extra distance",
        percent(
            100.0 * (1.0 - rr.bit_risk_miles / sp.bit_risk_miles),
            sp.bit_risk_miles
        ),
        percent(100.0 * (rr.bit_miles / sp.bit_miles - 1.0), sp.bit_miles)
    );
    Ok(out)
}

/// `value` as a one-decimal percentage, or `n/a` when the shortest-path
/// total it is a share of is 0 (a zero-length path), where it would be
/// `NaN` or infinite.
fn percent(value: f64, of: f64) -> String {
    if of > 0.0 {
        format!("{value:.1}%")
    } else {
        "n/a".to_string()
    }
}

/// `riskroute backup <net> <src> <dst> -k N`
pub fn backup(
    ctx: &CliContext,
    network: &str,
    src: &str,
    dst: &str,
    k: usize,
    weights: RiskWeights,
) -> Result<String, CliError> {
    let net = ctx.network(network)?;
    let (s, d) = (resolve_pop(net, src)?, resolve_pop(net, dst)?);
    let planner = ctx.planner(net, weights);
    let plan =
        backup_paths(&planner, net, s, d, k).ok_or_else(|| riskroute::Error::Unreachable {
            network: net.name().to_string(),
            src: s,
            dst: d,
        })?;
    let mut out = format!(
        "{}: ranked paths {} -> {}\n\n",
        net.name(),
        net.pops()[s].name,
        net.pops()[d].name
    );
    out.push_str(&describe_route(net, "primary ", &plan.primary));
    for (i, alt) in plan.alternates.iter().enumerate() {
        out.push_str(&describe_route(net, &format!("backup {}", i + 1), alt));
    }
    if plan.alternates.is_empty() {
        out.push_str("(no loopless alternates exist)\n");
    }
    Ok(out)
}

/// `complete` is false when a budget stopped the run: a cut before the first
/// link says nothing about whether candidates exist.
fn render_provision(net: &Network, result: &GreedyLinks, complete: bool) -> String {
    let mut out = format!(
        "{}: best additional links (greedy Eq. 4; original total bit-risk {:.3e})\n\n",
        net.name(),
        result.original_bit_risk
    );
    if complete && result.added.is_empty() {
        out.push_str("no candidate links at any shortcut threshold\n");
    }
    for (i, link) in result.added.iter().enumerate() {
        // With no connected pair the original total is 0 and a share of it
        // is meaningless; report the new total itself.
        let total = if result.original_bit_risk > 0.0 {
            format!(
                "falls to {:.2}% of original",
                100.0 * link.total_bit_risk / result.original_bit_risk
            )
        } else {
            format!("is {:.3e}", link.total_bit_risk)
        };
        let _ = writeln!(
            out,
            "{}. {} <-> {} ({:.0} mi, filter >{:.0}%): total {total}",
            i + 1,
            net.pops()[link.a].name,
            net.pops()[link.b].name,
            link.miles,
            100.0 * link.shortcut_threshold,
        );
    }
    out
}

/// `riskroute provision <net> -k N [--deadline-ms N] [--max-work N]
/// [--checkpoint <path>] [--progress]`
pub fn provision(
    ctx: &CliContext,
    network: &str,
    k: usize,
    weights: RiskWeights,
    budget: &BudgetArgs,
    progress: bool,
) -> Result<String, CliError> {
    let job = SnapshotJob::Provision {
        network: network.to_string(),
        k,
        lambda_h: weights.lambda_h,
        lambda_f: weights.lambda_f,
    };
    run_job(ctx, job, None, String::new(), budget, progress)
}

fn render_replay(result: &DisasterReplay, stride: usize) -> String {
    let mut out = format!(
        "{} under Hurricane {} (every {}th advisory)\n\n",
        result.network, result.storm, stride
    );
    for tick in &result.ticks {
        let bar = "#".repeat(((tick.report.risk_reduction_ratio * 150.0).round() as usize).min(60));
        let _ = writeln!(
            out,
            "{:<24} rr {:>6.3}  in-scope {:>3}  hurricane-winds {:>3}  {}",
            tick.label,
            tick.report.risk_reduction_ratio,
            tick.pops_in_scope,
            tick.pops_in_hurricane_winds,
            bar
        );
    }
    if let Some(peak) = result.peak() {
        let _ = writeln!(
            out,
            "\npeak risk-reduction ratio {:.3} at {}",
            peak.report.risk_reduction_ratio, peak.label
        );
    }
    out
}

/// `riskroute replay <net> <storm> --stride N [--deadline-ms N]
/// [--max-work N] [--checkpoint <path>] [--progress]`
pub fn replay(
    ctx: &CliContext,
    network: &str,
    storm: &str,
    stride: usize,
    weights: RiskWeights,
    budget: &BudgetArgs,
    progress: bool,
) -> Result<String, CliError> {
    ctx.network(network)?;
    let job = SnapshotJob::Replay {
        network: network.to_string(),
        storm: resolve_storm(storm)?.name().to_lowercase(),
        stride,
        lambda_h: weights.lambda_h,
        lambda_f: weights.lambda_f,
    };
    run_job(ctx, job, None, String::new(), budget, progress)
}

/// `riskroute replay <net> <storm> --stream`: read NDJSON advisories from
/// stdin and answer each with one NDJSON tick line computed against the warm
/// engine. Unlike the recorded replay, the planner persists across ticks, so
/// a tick whose forecast leaves the costs bitwise unchanged is served from
/// the warm route-tree cache.
pub fn replay_stream(
    ctx: &CliContext,
    network: &str,
    weights: RiskWeights,
) -> Result<String, CliError> {
    let net = ctx.network(network)?;
    let planner = ctx.planner(net, weights);
    let locations: Vec<_> = net.pops().iter().map(|p| p.location).collect();
    let stdin = std::io::stdin();
    replay_stream_from(&planner, &locations, stdin.lock())
}

/// Testable core of [`replay_stream`]: one NDJSON advisory object
/// (`{"number":N,"label":"...","text":"..."}`) per input line, one NDJSON
/// tick object per output line, then a trailing summary object. Blank lines
/// are skipped; a malformed line aborts the stream with its line number.
fn replay_stream_from(
    planner: &Planner,
    locations: &[riskroute_geo::GeoPoint],
    input: impl std::io::BufRead,
) -> Result<String, CliError> {
    use riskroute_json::Json;
    let mut session = ReplaySession::all_pairs(planner, locations).map_err(CliError::Core)?;
    let mut out = String::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.map_err(|e| CliError::Io(format!("stdin read failed: {e}")))?;
        if line.trim().is_empty() {
            continue;
        }
        let bad =
            |e: riskroute_json::JsonError| CliError::Bad(format!("stdin line {}: {e}", lineno + 1));
        let doc = riskroute_json::parse(&line).map_err(bad)?;
        let raw = RawAdvisory {
            number: doc.field("number").and_then(Json::as_usize).map_err(bad)?,
            label: doc
                .field("label")
                .and_then(Json::as_str)
                .map_err(bad)?
                .to_string(),
            text: doc
                .field("text")
                .and_then(Json::as_str)
                .map_err(bad)?
                .to_string(),
        };
        let tick = session.tick(&raw);
        let obj = Json::obj([
            ("advisory", Json::Num(tick.advisory as f64)),
            ("label", Json::Str(tick.label.clone())),
            ("pops_in_scope", Json::Num(tick.pops_in_scope as f64)),
            (
                "pops_in_hurricane_winds",
                Json::Num(tick.pops_in_hurricane_winds as f64),
            ),
            (
                "risk_reduction_ratio",
                Json::Num(tick.report.risk_reduction_ratio),
            ),
            (
                "distance_increase_ratio",
                Json::Num(tick.report.distance_increase_ratio),
            ),
            ("pairs", Json::Num(tick.report.pairs as f64)),
            (
                "stranded_pairs",
                Json::Num(tick.report.stranded_pairs as f64),
            ),
            ("degraded", Json::Bool(tick.degraded)),
        ]);
        out.push_str(&obj.to_string_compact());
        out.push('\n');
    }
    let summary = Json::obj([
        ("summary", Json::Bool(true)),
        ("ticks", Json::Num(session.ticks_processed() as f64)),
        ("degraded_ticks", Json::Num(session.degraded_ticks() as f64)),
    ]);
    out.push_str(&summary.to_string_compact());
    out.push('\n');
    Ok(out)
}

fn element_name(net: &Network, e: &FailElement) -> String {
    match *e {
        FailElement::Node(v) => net.pops()[v].name.clone(),
        FailElement::Link(a, b) => {
            format!("{} <-> {}", net.pops()[a].name, net.pops()[b].name)
        }
    }
}

fn render_sweep(net: &Network, outcome: &SweepOutcome) -> String {
    let mode_desc = match outcome.mode {
        SweepMode::N1 => "full N-1".to_string(),
        SweepMode::N2 { samples, seed } => {
            format!("sampled N-2 ({samples} draws, seed {seed})")
        }
        SweepMode::Ensemble { samples, seed } => {
            format!("hazard ensemble ({samples} members, seed {seed})")
        }
    };
    let mut out = format!(
        "{}: {mode_desc} resilience sweep, {} scenarios evaluated\n",
        outcome.network,
        outcome.records.len()
    );
    let _ = writeln!(
        out,
        "baseline: {:.4e} bit-risk miles, {} routable pairs, {} stranded\n",
        outcome.baseline.bit_risk_total,
        outcome.baseline.routable_pairs,
        outcome.baseline.stranded_pairs
    );
    let ranked = outcome.ranked();
    if ranked.is_empty() {
        out.push_str("(no scenarios evaluated)\n");
        return out;
    }
    out.push_str("criticality ranking (by stranded pairs, then bit-risk miles):\n");
    let _ = writeln!(
        out,
        "{:<4} {:<44} {:>14} {:>11}",
        "rank", "scenario", "d bit-risk", "d stranded"
    );
    out.push_str(&"-".repeat(76));
    out.push('\n');
    for (pos, (_, rec)) in ranked.iter().enumerate().take(15) {
        let _ = writeln!(
            out,
            "{:<4} {:<44} {:>+14.4e} {:>+11}",
            pos + 1,
            rec.label,
            outcome.delta_bit_risk(rec),
            outcome.delta_stranded(rec)
        );
    }
    if ranked.len() > 15 {
        let _ = writeln!(out, "… and {} more scenarios", ranked.len() - 15);
    }
    if matches!(outcome.mode, SweepMode::Ensemble { .. }) {
        if let Some((p5, p50, p95)) = outcome.risk_bands() {
            let _ = writeln!(
                out,
                "\nensemble bit-risk bands: p5 {p5:.4e}  p50 {p50:.4e}  p95 {p95:.4e}"
            );
        }
    }
    if matches!(outcome.mode, SweepMode::N2 { .. }) {
        out.push_str("\nworst-case fork per element:\n");
        for (e, dbr, dst) in outcome.worst_per_element().iter().take(10) {
            let _ = writeln!(
                out,
                "  {:<44} {:>+14.4e} {:>+6} stranded",
                element_name(net, e),
                dbr,
                dst
            );
        }
    }
    out
}

/// `riskroute sweep <net> [--mode n1|n2|ensemble] [--samples N] [--seed S]
/// [--deadline-ms N] [--max-work N] [--checkpoint <path>] [--progress]`
#[allow(clippy::too_many_arguments)]
pub fn sweep(
    ctx: &CliContext,
    network: &str,
    mode_label: &str,
    samples: usize,
    seed: u64,
    weights: RiskWeights,
    budget: &BudgetArgs,
    progress: bool,
) -> Result<String, CliError> {
    ctx.network(network)?;
    // args.rs validates the label; this guards programmatic callers.
    let mode = SweepMode::from_parts(mode_label, samples, seed)
        .ok_or_else(|| CliError::Bad(format!("unknown sweep mode {mode_label:?}")))?;
    let job = SnapshotJob::Sweep {
        network: network.to_string(),
        mode: mode.label().to_string(),
        samples: mode.samples(),
        seed: mode.seed(),
        lambda_h: weights.lambda_h,
        lambda_f: weights.lambda_f,
    };
    run_job(ctx, job, None, String::new(), budget, progress)
}

/// The stage-boundary bookkeeping of one budgeted job: the `--progress`
/// heartbeat and the snapshot written at every boundary.
struct JobRun<'a> {
    job: &'a SnapshotJob,
    checkpoint: Option<&'a str>,
    work: &'a WorkBudget,
    /// Stages in the whole job (links requested, advisories, scenarios).
    total: usize,
    heartbeat: Option<Heartbeat>,
    /// The first failed snapshot write; it fails the job once it stops.
    error: Option<String>,
}

impl<'a> JobRun<'a> {
    fn new(
        job: &'a SnapshotJob,
        budget: &'a BudgetArgs,
        work: &'a WorkBudget,
        total: usize,
        heartbeat: Option<Heartbeat>,
    ) -> Self {
        JobRun {
            job,
            checkpoint: budget.checkpoint.as_deref(),
            work,
            total,
            heartbeat,
            error: None,
        }
    }

    fn save(&mut self, progress: impl FnOnce() -> SnapshotProgress) {
        if let Some(path) = self.checkpoint {
            let snap = Snapshot {
                job: self.job.clone(),
                progress: progress(),
            };
            if let Err(e) = checkpoint::save_snapshot(path, &snap) {
                self.error
                    .get_or_insert(format!("cannot write checkpoint {path}: {e}"));
            }
        }
    }

    /// A stage boundary with `done` stages complete.
    fn batch(&mut self, done: usize, progress: impl FnOnce() -> SnapshotProgress) {
        if let Some(hb) = &mut self.heartbeat {
            let work = format!("work {}", self.work.work_done());
            hb.tick(done as u64, Some(self.total as u64), &work);
        }
        self.save(progress);
    }

    /// End the job with `done` stages complete and `rendered` its report.
    /// A budget stop writes a final snapshot (a deadline can pass before
    /// the first boundary, and batches close only every few stages), then
    /// appends what stopped the run, how far it got and how to continue
    /// it, and surfaces as [`CliError::Budget`] (exit code 9).
    fn finish(
        mut self,
        mut report: String,
        done: usize,
        stopped: Option<StopReason>,
        unit: &str,
        progress: impl FnOnce() -> SnapshotProgress,
    ) -> Result<String, CliError> {
        if let Some(hb) = &mut self.heartbeat {
            let work = format!("work {}", self.work.work_done());
            hb.finish(done as u64, Some(self.total as u64), &work);
        }
        if stopped.is_some() {
            self.save(progress);
        }
        if let Some(msg) = self.error {
            return Err(CliError::Io(msg));
        }
        let Some(stopped) = stopped else {
            return Ok(report);
        };
        let total = self.total;
        let _ = writeln!(
            report,
            "\nbudget exhausted ({stopped}): {done} of {total} {unit}"
        );
        match self.checkpoint {
            Some(path) => {
                let _ = writeln!(
                    report,
                    "checkpoint saved; continue with `riskroute resume {path}`"
                );
            }
            None => report.push_str(
                "no --checkpoint path was given, so this partial progress was not saved\n",
            ),
        }
        Err(CliError::Budget { report, stopped })
    }
}

fn integrity(reason: String) -> CliError {
    CliError::Core(riskroute::Error::SnapshotIntegrity { reason })
}

/// A snapshot's `next_index` must be the length of the prefix it stores.
fn check_prefix(next_index: usize, stored: usize, what: &str) -> Result<(), CliError> {
    if next_index == stored {
        return Ok(());
    }
    Err(integrity(format!(
        "next_index {next_index} does not match the {stored} stored {what}"
    )))
}

/// The one driver of the budgeted jobs: `provision`, `replay` and `sweep`
/// call it with no prior, `resume` with the prefix its snapshot holds. It
/// builds the planner the job's λ weights name (for `resume` the
/// snapshot's, not the CLI globals, so a resumed run cannot silently change
/// the job it continues), runs the job under the budget from its prior,
/// and writes `Snapshot { job, progress }` at every stage boundary and on
/// a stop. Every stage is a deterministic function of the job and the
/// prefix before it, which is what makes a resumed run bit-identical to an
/// uninterrupted one at any worker count.
fn run_job(
    ctx: &CliContext,
    job: SnapshotJob,
    prior: Option<SnapshotProgress>,
    notice: String,
    budget: &BudgetArgs,
    progress: bool,
) -> Result<String, CliError> {
    let work = budget.to_budget();
    let heartbeat = |label: String| progress.then(|| Heartbeat::new(label));
    match &job {
        SnapshotJob::Provision {
            network,
            k,
            lambda_h,
            lambda_f,
        } => {
            let weights = RiskWeights::new(*lambda_h, *lambda_f);
            let net = ctx.network(network)?;
            let planner = ctx.planner(net, weights);
            let prior = match prior {
                Some(SnapshotProgress::Provision(links)) => Some(links),
                None => None,
                Some(_) => return Err(integrity("job/progress kind mismatch".into())),
            };
            let risk = planner.risk().clone();
            let shares = PopShares::from_shares(planner.shares().shares().to_vec());
            let rebuild =
                move |aug: &Network| Planner::new(aug, risk.clone(), shares.clone(), weights);
            let snap = |links: &GreedyLinks| SnapshotProgress::Provision(links.clone());
            let mut run = JobRun::new(
                &job,
                budget,
                &work,
                *k,
                heartbeat(format!("provision {network}")),
            );
            let (links, stopped) =
                greedy_links_budgeted(net, &planner, *k, rebuild, prior, &work, |links| {
                    run.batch(links.added.len(), || snap(links));
                })
                .into_parts();
            let report = notice + &render_provision(net, &links, stopped.is_none());
            run.finish(report, links.added.len(), stopped, "links chosen", || {
                snap(&links)
            })
        }
        SnapshotJob::Replay {
            network,
            storm,
            stride,
            lambda_h,
            lambda_f,
        } => {
            let weights = RiskWeights::new(*lambda_h, *lambda_f);
            let net = ctx.network(network)?;
            let label = format!("replay {network} {storm}");
            let storm = resolve_storm(storm)?;
            let planner = ctx.planner(net, weights);
            let prior = match prior {
                Some(SnapshotProgress::Replay { replay, next_index }) => {
                    check_prefix(next_index, replay.ticks.len(), "ticks")?;
                    replay.ticks
                }
                None => Vec::new(),
                Some(_) => return Err(integrity("job/progress kind mismatch".into())),
            };
            let raws = raw_advisories(storm, *stride)?;
            let locations: Vec<_> = net.pops().iter().map(|p| p.location).collect();
            let all: Vec<usize> = (0..net.pop_count()).collect();
            let snap = |replay: &DisasterReplay| SnapshotProgress::Replay {
                replay: replay.clone(),
                next_index: replay.ticks.len(),
            };
            let mut run = JobRun::new(&job, budget, &work, raws.len(), heartbeat(label));
            let (replay, stopped) = replay_raw_advisories_budgeted(
                &planner,
                net.name(),
                &locations,
                storm.name(),
                &raws,
                &all,
                &all,
                prior,
                &work,
                |replay| run.batch(replay.ticks.len(), || snap(replay)),
            )?
            .into_parts();
            let report = notice + &render_replay(&replay, *stride);
            run.finish(
                report,
                replay.ticks.len(),
                stopped,
                "advisories replayed",
                || snap(&replay),
            )
        }
        SnapshotJob::Sweep {
            network,
            mode,
            samples,
            seed,
            lambda_h,
            lambda_f,
        } => {
            let weights = RiskWeights::new(*lambda_h, *lambda_f);
            let net = ctx.network(network)?;
            let mode = SweepMode::from_parts(mode, *samples, *seed)
                .ok_or_else(|| integrity(format!("unknown sweep mode {mode:?} in snapshot")))?;
            let planner = ctx.planner(net, weights);
            let prior = match prior {
                Some(SnapshotProgress::Sweep {
                    baseline,
                    records,
                    next_index,
                }) => {
                    check_prefix(next_index, records.len(), "records")?;
                    Some(SweepPrior { baseline, records })
                }
                None => None,
                Some(_) => return Err(integrity("job/progress kind mismatch".into())),
            };
            let snap = |outcome: &SweepOutcome| SnapshotProgress::Sweep {
                baseline: outcome.baseline,
                records: outcome.records.clone(),
                next_index: outcome.records.len(),
            };
            let total = scenario_specs(net, mode).len();
            let label = format!("sweep {network} {}", mode.label());
            let mut run = JobRun::new(&job, budget, &work, total, heartbeat(label));
            let (outcome, stopped) = run_sweep_budgeted(&planner, net, mode, prior, &work, |o| {
                run.batch(o.records.len(), || snap(o));
            })?
            .into_parts();
            let report = notice + &render_sweep(net, &outcome);
            run.finish(
                report,
                outcome.records.len(),
                stopped,
                "scenarios evaluated",
                || snap(&outcome),
            )
        }
    }
}

/// `riskroute resume <snapshot> [--deadline-ms N] [--max-work N]
/// [--checkpoint <path>]`
///
/// Continues a checkpointed run through `run_job`, bit-identically to
/// the uninterrupted one. When the progress section is unusable but the
/// job line survives — the common shape of truncation — the job restarts
/// from scratch under a degraded-mode notice instead of failing. New
/// snapshots overwrite the input snapshot unless `--checkpoint` redirects
/// them.
pub fn resume(
    ctx: &CliContext,
    snapshot_path: &str,
    budget: &BudgetArgs,
    show_progress: bool,
) -> Result<String, CliError> {
    let text = std::fs::read_to_string(snapshot_path)
        .map_err(|e| CliError::Io(format!("cannot read snapshot {snapshot_path}: {e}")))?;
    let mut budget = budget.clone();
    if budget.checkpoint.is_none() {
        budget.checkpoint = Some(snapshot_path.to_string());
    }
    let (job, prior, notice) = match checkpoint::load_snapshot_with_fallback(&text)? {
        LoadOutcome::Resume(snap) => (
            snap.job,
            Some(snap.progress),
            format!("resuming from {snapshot_path}\n\n"),
        ),
        LoadOutcome::Fallback { job, error } => {
            let notice = format!(
                "degraded mode: snapshot {snapshot_path} is not resumable ({error}); \
                 restarting the {} job from scratch\n\n",
                job.kind()
            );
            (job, None, notice)
        }
    };
    run_job(ctx, job, prior, notice, &budget, show_progress)
}

/// Seeded sample of `k` ordered source/destination pairs over `n` PoPs
/// (`i ≠ j` by construction; duplicates allowed, like any bootstrap draw).
pub fn sampled_pairs(n: usize, k: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = riskroute_rng::StdRng::seed_from_u64(seed);
    (0..k)
        .map(|_| {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n - 1);
            (i, if j >= i { j + 1 } else { j })
        })
        .collect()
}

/// `riskroute ratio <net> [--sample K] [--seed S]`
pub fn ratio(
    ctx: &CliContext,
    network: &str,
    weights: RiskWeights,
    sample: Option<usize>,
    seed: u64,
) -> Result<String, CliError> {
    let net = ctx.network(network)?;
    let planner = ctx.planner(net, weights);
    let report = match sample {
        Some(k) => {
            if net.pop_count() < 2 {
                return Err(CliError::Core(riskroute::Error::NoInformativePairs));
            }
            let pairs = sampled_pairs(net.pop_count(), k, seed);
            let sweep = planner.pair_list_sweep(&pairs);
            RatioReport::aggregate_with_stranded(sweep.outcomes.iter(), sweep.stranded.len())
        }
        None => planner.ratio_report(),
    };
    if !report.is_informative() {
        return Err(CliError::Core(riskroute::Error::NoInformativePairs));
    }
    let mut out = format!(
        "{}: network-wide RiskRoute ratios (lambda_h {:.0e}, lambda_f {:.0e})\n\n",
        net.name(),
        weights.lambda_h,
        weights.lambda_f
    );
    match sample {
        Some(k) => {
            let _ = writeln!(
                out,
                "pairs aggregated: {} of {k} sampled PoP pairs ({} stranded; seed {seed})",
                report.pairs, report.stranded_pairs
            );
        }
        None => {
            let _ = writeln!(
                out,
                "pairs aggregated: {} ordered PoP pairs ({} stranded)",
                report.pairs, report.stranded_pairs
            );
        }
    }
    let _ = writeln!(
        out,
        "risk reduction ratio (Eq. 5):    {:.4}",
        report.risk_reduction_ratio
    );
    let _ = writeln!(
        out,
        "distance increase ratio (Eq. 6): {:.4}",
        report.distance_increase_ratio
    );
    Ok(out)
}

/// The daemon's [`QueryHandler`]: answers queries with the same pure
/// command functions as one-shot invocations, over one warm context, which
/// is what makes serve responses byte-identical to the CLI.
pub struct ServeHandler {
    ctx: CliContext,
    weights: RiskWeights,
    default_deadline_ms: Option<u64>,
}

/// The stable kebab-case `kind` a [`CliError`] maps to on the wire.
fn error_kind(err: &CliError) -> &'static str {
    match err {
        CliError::Help(_) => "help",
        CliError::Bad(_) => "bad-request",
        CliError::Unknown(_) => "unknown-name",
        CliError::Io(_) => "io-error",
        CliError::Core(_) => "engine-error",
        CliError::Budget { .. } => "budget-exhausted",
        CliError::Drain(_) => "forced-drain",
    }
}

impl ServeHandler {
    /// A handler answering over `ctx` at `weights`, with an optional
    /// daemon-wide default per-request deadline.
    pub fn new(ctx: CliContext, weights: RiskWeights, default_deadline_ms: Option<u64>) -> Self {
        ServeHandler {
            ctx,
            weights,
            default_deadline_ms,
        }
    }

    /// Decode the request through the CLI's own decoder and run it
    /// through the CLI's dispatch, so a field-free request answers exactly
    /// like the flag-free command.
    fn answer(&self, request: &Request, cx: &QueryCx) -> Result<String, CliError> {
        const OPS: [&str; 6] = ["corpus", "route", "ratio", "provision", "replay", "sweep"];
        if !OPS.contains(&request.op.as_str()) {
            return Err(CliError::Bad(format!(
                "unknown op {:?} (expected ping, route, ratio, provision, \
                 replay, sweep, corpus, or shutdown)",
                request.op
            )));
        }
        let (mut command, weights) = decode_request(request, self.weights)?;
        // Requests override the daemon's default deadline; every budget is
        // wired to the daemon's shed flag so a drain past its deadline
        // stops in-flight work at the next stage boundary as a typed
        // partial.
        if let Command::Provision { budget, .. }
        | Command::Replay { budget, .. }
        | Command::Sweep { budget, .. } = &mut command
        {
            budget.deadline_ms = budget.deadline_ms.or(self.default_deadline_ms);
            budget.cancel = Some(std::sync::Arc::clone(&cx.cancel));
        }
        execute(&self.ctx, &command, weights, false)
    }
}

impl QueryHandler for ServeHandler {
    fn handle(&self, request: &Request, cx: &QueryCx) -> Reply {
        match self.answer(request, cx) {
            Ok(output) => Reply::Ok { output },
            Err(CliError::Budget { report, stopped }) => Reply::Partial {
                output: report,
                stopped: stopped.to_string(),
            },
            Err(err) => Reply::Err {
                kind: error_kind(&err).to_string(),
                exit_code: i64::from(err.exit_code()),
                // The CLI usage text documents flags, not wire fields.
                message: match &err {
                    CliError::Bad(m) => format!("error: {m}"),
                    _ => err.to_string(),
                },
            },
        }
    }
}

#[cfg(unix)]
fn bind_unix_server(
    path: &str,
    handler: std::sync::Arc<dyn QueryHandler>,
    config: ServeConfig,
) -> Result<(Server, String), CliError> {
    let server = Server::bind_unix(path, handler, config)
        .map_err(|e| CliError::Io(format!("cannot bind {path}: {e}")))?;
    Ok((server, format!("unix:{path}")))
}

#[cfg(not(unix))]
fn bind_unix_server(
    path: &str,
    _handler: std::sync::Arc<dyn QueryHandler>,
    _config: ServeConfig,
) -> Result<(Server, String), CliError> {
    let _ = path;
    Err(CliError::Bad(
        "--unix is only available on Unix platforms".into(),
    ))
}

/// `riskroute serve [--listen A] [--unix P] [--max-inflight N] …`
///
/// Loads the engine once (the context moves into the handler), announces
/// the resolved endpoint on stdout, and runs the accept loop until a
/// protocol `shutdown` request drains it. A clean drain returns a summary;
/// a forced drain (in-flight work outlived both drain windows) surfaces as
/// [`CliError::Drain`] and exit code 10. `command` is the decoded
/// [`Command::Serve`]; any other command is a usage error.
pub fn serve(ctx: CliContext, command: &Command, weights: RiskWeights) -> Result<String, CliError> {
    let Command::Serve {
        listen,
        unix,
        max_inflight,
        max_connections,
        frame_cap_bytes,
        read_timeout_ms,
        write_timeout_ms,
        drain_ms,
        deadline_ms,
    } = command
    else {
        return Err(CliError::Bad(format!("{} is not serve", command.name())));
    };
    // The scrape endpoint must have live counters whether or not
    // --metrics-out asked for a file export.
    riskroute_obs::enable();
    let config = ServeConfig {
        max_connections: *max_connections,
        max_inflight: *max_inflight,
        frame_cap_bytes: *frame_cap_bytes,
        read_timeout_ms: *read_timeout_ms,
        write_timeout_ms: *write_timeout_ms,
        drain_ms: *drain_ms,
        ..ServeConfig::default()
    };
    let handler: std::sync::Arc<dyn QueryHandler> =
        std::sync::Arc::new(ServeHandler::new(ctx, weights, *deadline_ms));
    let (server, endpoint) = match unix {
        Some(path) => bind_unix_server(path, handler, config)?,
        None => {
            let server = Server::bind_tcp(listen, handler, config)
                .map_err(|e| CliError::Io(format!("cannot bind {listen}: {e}")))?;
            let endpoint = server
                .local_addr()
                .map_or_else(|| listen.clone(), |a| a.to_string());
            (server, endpoint)
        }
    };
    // Announced and flushed before the accept loop blocks, so wrappers can
    // parse the resolved ephemeral port.
    println!("listening on {endpoint}");
    let _ = std::io::Write::flush(&mut std::io::stdout());
    let report = server.run();
    if report.forced {
        return Err(CliError::Drain(format!(
            "{} connection(s) still active at the end of the shed grace window \
             ({} connections, {} requests served before shutdown)",
            report.abandoned_connections, report.connections_total, report.requests_total
        )));
    }
    Ok(format!(
        "drained cleanly: {} connections, {} requests{}\n",
        report.connections_total,
        report.requests_total,
        if report.shed {
            " (in-flight work shed at the drain deadline)"
        } else {
            ""
        }
    ))
}

/// Run a decoded command over a built context: the one dispatch behind
/// both the one-shot CLI and the serve daemon.
///
/// # Errors
/// The command's own [`CliError`]. `serve` and the `obs`
/// commands do not run over a shared context and are usage errors here.
pub fn execute(
    ctx: &CliContext,
    command: &Command,
    weights: RiskWeights,
    progress: bool,
) -> Result<String, CliError> {
    match command {
        Command::Corpus => Ok(corpus(ctx)),
        Command::Route { network, src, dst } => route(ctx, network, src, dst, weights),
        Command::Backup {
            network,
            src,
            dst,
            k,
        } => backup(ctx, network, src, dst, *k, weights),
        Command::Provision { network, k, budget } => {
            provision(ctx, network, *k, weights, budget, progress)
        }
        Command::Replay {
            network,
            stream: true,
            ..
        } => replay_stream(ctx, network, weights),
        Command::Replay {
            network,
            storm,
            stride,
            budget,
            ..
        } => replay(ctx, network, storm, *stride, weights, budget, progress),
        Command::Sweep {
            network,
            mode,
            samples,
            seed,
            budget,
        } => sweep(
            ctx, network, mode, *samples, *seed, weights, budget, progress,
        ),
        Command::Resume { snapshot, budget } => resume(ctx, snapshot, budget, progress),
        Command::Ratio {
            network,
            sample,
            seed,
        } => ratio(ctx, network, weights, *sample, *seed),
        Command::Synth { n, seed, out } => synth(*n, *seed, out.as_deref()),
        Command::Critical { network } => critical(ctx, network),
        Command::Corridors { network } => corridors(ctx, network),
        Command::Ospf { network } => ospf(ctx, network, weights),
        Command::Failure { network, storm } => failure(ctx, network, storm),
        Command::Export {
            network,
            format,
            out,
        } => export(ctx, network, format, out.as_deref()),
        Command::Serve { .. }
        | Command::ObsSummary { .. }
        | Command::ObsTrace { .. }
        | Command::ObsLint { .. } => Err(CliError::Bad(format!(
            "{} does not run over a shared context",
            command.name()
        ))),
    }
}

/// `riskroute critical <net>`
pub fn critical(ctx: &CliContext, network: &str) -> Result<String, CliError> {
    let net = ctx.network(network)?;
    let risk = NodeRisk::from_historical(net, &ctx.hazards);
    let ranking = criticality_ranking(net, &risk);
    let mut out = format!(
        "{}: PoPs by risk-weighted criticality (betweenness x historical risk)\n\n",
        net.name()
    );
    let _ = writeln!(
        out,
        "{:<28} {:>12} {:>10} {:>10}  SPOF",
        "PoP", "Betweenness", "Risk", "Exposure"
    );
    out.push_str(&"-".repeat(72));
    out.push('\n');
    for c in ranking.iter().take(15) {
        let _ = writeln!(
            out,
            "{:<28} {:>12.1} {:>10.4} {:>10.2} {}",
            c.name,
            c.betweenness,
            c.historical_risk,
            c.exposure,
            if c.articulation { " YES" } else { "" }
        );
    }
    let spofs = ranking.iter().filter(|c| c.articulation).count();
    let _ = writeln!(
        out,
        "\n{} of {} PoPs are articulation points (structural single points of failure)",
        spofs,
        net.pop_count()
    );
    Ok(out)
}

/// `riskroute corridors <net>`
pub fn corridors(ctx: &CliContext, network: &str) -> Result<String, CliError> {
    let net = ctx.network(network)?;
    let risks = riskroute::corridor::corridor_risks(net, &ctx.hazards);
    let mut out = format!(
        "{}: link corridors by integrated risk (risk-miles = mean o_h x length)\n\n",
        net.name()
    );
    let _ = writeln!(
        out,
        "{:<44} {:>8} {:>10} {:>10} {:>11}",
        "Link", "Miles", "Mean risk", "Peak risk", "Risk-miles"
    );
    out.push_str(&"-".repeat(88));
    out.push('\n');
    for r in risks.iter().take(15) {
        let _ = writeln!(
            out,
            "{:<44} {:>8.0} {:>10.4} {:>10.4} {:>11.2}",
            format!(
                "{} <-> {}",
                net.pops()[r.endpoints.0].name,
                net.pops()[r.endpoints.1].name
            ),
            r.miles,
            r.mean_risk,
            r.peak_risk,
            r.risk_miles
        );
    }
    let mean_peak = risks.iter().map(|r| r.peak_risk).sum::<f64>() / risks.len().max(1) as f64;
    let groups = riskroute::corridor::shared_risk_link_groups(net, &ctx.hazards, mean_peak, 250.0);
    let _ = writeln!(
        out,
        "\nShared-risk link groups (peak > network mean {mean_peak:.3}, hot spots within 250 mi):"
    );
    for (i, g) in groups.iter().enumerate().take(6) {
        let names: Vec<String> = g
            .iter()
            .map(|&l| {
                let link = &net.links()[l];
                format!("{}<->{}", net.pops()[link.a].name, net.pops()[link.b].name)
            })
            .collect();
        let _ = writeln!(out, "  group {}: {}", i + 1, names.join(", "));
    }
    if groups.is_empty() {
        out.push_str("  (none above threshold)\n");
    }
    Ok(out)
}

/// `riskroute ospf <net>`
pub fn ospf(ctx: &CliContext, network: &str, weights: RiskWeights) -> Result<String, CliError> {
    let net = ctx.network(network)?;
    let planner = ctx.planner(net, weights);
    let beta = riskroute::ospf::mean_impact(&planner);
    let link_weights = riskroute::ospf::risk_aware_weights(net, &planner, beta);
    let eval = riskroute::ospf::evaluate_ospf(net, &planner, &link_weights)?;
    let exact = planner.ratio_report();
    let mut out = format!(
        "{}: risk-aware OSPF link weights (beta_ref = mean impact {:.4})\n\n",
        net.name(),
        beta
    );
    let _ = writeln!(out, "{:<44} {:>9} {:>12}", "Link", "Miles", "OSPF weight");
    out.push_str(&"-".repeat(68));
    out.push('\n');
    for (l, w) in net.links().iter().zip(&link_weights).take(20) {
        let _ = writeln!(
            out,
            "{:<44} {:>9.0} {:>12.0}",
            format!("{} <-> {}", net.pops()[l.a].name, net.pops()[l.b].name),
            l.miles,
            w
        );
    }
    if net.link_count() > 20 {
        let _ = writeln!(out, "… and {} more links", net.link_count() - 20);
    }
    let _ = writeln!(
        out,
        "\nfidelity vs exact RiskRoute: {:.1}% of paths identical; \
         mean excess bit-risk {:.2}%",
        100.0 * eval.path_fidelity,
        100.0 * eval.mean_excess_bit_risk
    );
    let captured = if exact.risk_reduction_ratio > 1e-9 {
        eval.report.risk_reduction_ratio / exact.risk_reduction_ratio
    } else {
        1.0
    };
    let _ = writeln!(
        out,
        "risk reduction captured: {:.0}% ({:.3} of {:.3})",
        100.0 * captured,
        eval.report.risk_reduction_ratio,
        exact.risk_reduction_ratio
    );
    Ok(out)
}

/// `riskroute failure <net> <storm>`
pub fn failure(ctx: &CliContext, network: &str, storm: &str) -> Result<String, CliError> {
    let net = ctx.network(network)?;
    let storm = resolve_storm(storm)?;
    let shares = PopShares::assign(&ctx.population, net, None);
    let swath = StormSwath::new(
        advisories_for(storm)
            .iter()
            .map(ForecastRisk::from_advisory)
            .collect(),
    );
    let report = storm_failure(net, &shares, &swath);
    let mut out = format!(
        "{} under Hurricane {}: failure injection (hurricane-force winds destroy PoPs)\n\n",
        net.name(),
        storm.name()
    );
    let _ = writeln!(
        out,
        "failed PoPs: {} of {}",
        report.failed_pops.len(),
        net.pop_count()
    );
    for &p in report.failed_pops.iter().take(12) {
        let _ = writeln!(out, "  - {}", net.pops()[p].name);
    }
    if report.failed_pops.len() > 12 {
        let _ = writeln!(out, "  … and {} more", report.failed_pops.len() - 12);
    }
    let _ = writeln!(out, "links lost: {}", report.lost_links);
    let _ = writeln!(out, "surviving components: {}", report.survivor_components);
    let _ = writeln!(
        out,
        "disconnected survivor pairs: {}",
        report.disconnected_pairs
    );
    let _ = writeln!(
        out,
        "population share affected: {:.1}% ({:.1}% on failed PoPs, {:.1}% isolated)",
        100.0 * report.total_affected_share(),
        100.0 * report.failed_population_share,
        100.0 * report.isolated_population_share
    );
    Ok(out)
}

/// `riskroute export <net> [--format json|graphml] [--out <path>]`
///
/// With `--out`, the export goes through the same atomic temp-file + rename
/// as checkpoint snapshots: a kill mid-write leaves the previous file (or
/// nothing), never a truncated export.
pub fn export(
    ctx: &CliContext,
    network: &str,
    format: &str,
    out: Option<&str>,
) -> Result<String, CliError> {
    let net = ctx.network(network)?;
    let payload = match format {
        "json" => riskroute_json::to_string_pretty(net),
        "graphml" => riskroute_topology::import::network_to_graphml(net),
        other => return Err(CliError::Bad(format!("unknown export format {other:?}"))),
    };
    match out {
        None => Ok(payload),
        Some(path) => {
            riskroute_obs::export::write_atomic(path, &payload)
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
            Ok(format!(
                "wrote {path} ({} bytes, {format}; atomic temp-file + rename)\n",
                payload.len()
            ))
        }
    }
}

/// `riskroute synth <n> [--seed S] [--out <path>]`
///
/// Generates a deterministic synthetic continental network (population-
/// weighted placement around the real gazetteer) and prints a summary;
/// `--out` additionally writes the network as GraphML through the atomic
/// temp-file + rename path, ready for `--graphml <path> --name <name>`.
pub fn synth(n: usize, seed: u64, out: Option<&str>) -> Result<String, CliError> {
    let net = riskroute_topology::scale::synth_network(n, seed).map_err(riskroute::Error::from)?;
    if riskroute_obs::is_enabled() {
        riskroute_obs::counter_add("synth_pops_generated", net.pop_count() as u64);
    }
    let mut summary = format!(
        "{}: {} PoPs, {} links, {:.0} footprint miles (seed {seed})\n",
        net.name(),
        net.pop_count(),
        net.link_count(),
        net.footprint_miles()
    );
    if let Some(path) = out {
        let payload = riskroute_topology::import::network_to_graphml(&net);
        riskroute_obs::export::write_atomic(path, &payload)
            .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(
            summary,
            "wrote {path} ({} bytes, graphml; atomic temp-file + rename); \
             query it with --graphml {path} --name {}",
            payload.len(),
            net.name()
        );
    }
    Ok(summary)
}

/// `riskroute obs-summary <trace.jsonl>`
///
/// Reads a `--trace-out` JSONL file and prints a per-span latency table
/// (count, total, p50, p99, p999) sorted by total time, the SSSP-engine
/// counters (runs, early exits, settles, cache hits/misses), a per-trace
/// attribution table when the trace carries request scopes, and a warning
/// when the capture ring buffer dropped span events.
pub fn obs_summary(path: &str) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read trace {path}: {e}")))?;
    let lines = riskroute_obs::export::parse_jsonl(&text)
        .map_err(|e| CliError::Core(riskroute::Error::Json(e)))?;
    let dropped: u64 = lines
        .iter()
        .map(|l| match l {
            riskroute_obs::export::ObsLine::Meta { dropped_events } => *dropped_events,
            _ => 0,
        })
        .sum();
    let warning = if dropped > 0 {
        format!(
            "warning: {dropped} span events were dropped at capture (ring \
             buffer full) — span totals undercount\n"
        )
    } else {
        String::new()
    };
    let rows = riskroute_obs::summary::summarize_lines(&lines);
    if rows.is_empty() {
        return Ok(format!(
            "{warning}{path}: no span events (was the run traced with --trace-out?)\n"
        ));
    }
    let mut out = warning;
    let _ = write!(out, "{path}: spans by total time\n\n");
    out.push_str(&riskroute_obs::summary::render_table(&rows));
    let engine = riskroute_obs::summary::render_engine_counters(&lines);
    if !engine.is_empty() {
        out.push_str("\nsssp engine\n\n");
        out.push_str(&engine);
    }
    let traces = riskroute_obs::summary::summarize_traces(&lines);
    if !traces.is_empty() {
        out.push_str("\nper-trace attribution\n\n");
        out.push_str(&riskroute_obs::summary::render_trace_table(&traces));
    }
    Ok(out)
}

/// `riskroute obs trace <trace.jsonl> [--out <path>]`
///
/// Converts a `--trace-out` JSONL file to Chrome trace-event JSON (load it
/// in `chrome://tracing` or Perfetto). The output is written atomically.
pub fn obs_trace(path: &str, out: &str) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read trace {path}: {e}")))?;
    let lines = riskroute_obs::export::parse_jsonl(&text)
        .map_err(|e| CliError::Core(riskroute::Error::Json(e)))?;
    let snap = riskroute_obs::export::snapshot_from_lines(&lines);
    let rendered = riskroute_obs::export::to_chrome_trace(&snap);
    riskroute_obs::export::write_atomic(out, &rendered)
        .map_err(|e| CliError::Io(format!("cannot write {out}: {e}")))?;
    Ok(format!(
        "{out}: {} span events across {} traces (open in chrome://tracing)\n",
        snap.spans.len(),
        snap.traces.len(),
    ))
}

/// `riskroute obs lint <metrics.prom>`
///
/// Parses every line of a Prometheus text-exposition file, rejecting
/// malformed metric names, labels, values, and histogram `_bucket` series
/// that are missing `+Inf`, non-cumulative, or inconsistent with `_count`.
pub fn obs_lint(path: &str) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read exposition {path}: {e}")))?;
    let samples = riskroute_obs::export::lint_prometheus(&text).map_err(|e| {
        CliError::Core(riskroute::Error::Json(riskroute_json::JsonError::Shape(
            format!("{path}: {e}"),
        )))
    })?;
    Ok(format!("{path}: {samples} samples, exposition format ok\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CliContext {
        CliContext::build(&[]).unwrap()
    }

    #[test]
    fn corpus_lists_everything() {
        let out = corpus(&ctx());
        assert!(out.contains("Level3"));
        assert!(out.contains("Telepak"));
        assert!(out.contains("tier-1"));
        assert!(out.contains("regional"));
    }

    #[test]
    fn route_compares_both_paths() {
        let out = route(
            &ctx(),
            "Sprint",
            "0",
            "5",
            RiskWeights::historical_only(1e5),
        )
        .unwrap();
        assert!(out.contains("shortest path"));
        assert!(out.contains("RiskRoute"));
        assert!(out.contains("risk reduction"));
    }

    #[test]
    fn zero_length_route_prints_no_nan() {
        let out = route(&ctx(), "Level3", "3", "3", RiskWeights::PAPER).unwrap();
        assert!(
            out.ends_with("\nrisk reduction n/a for n/a extra distance\n"),
            "{out}"
        );
        assert!(!out.contains("NaN") && !out.contains("inf"), "{out}");
    }

    #[test]
    fn route_rejects_unknown_network() {
        let err = route(&ctx(), "Nope", "0", "1", RiskWeights::PAPER).unwrap_err();
        assert!(matches!(err, CliError::Unknown(_)));
        assert!(err.to_string().contains("unknown network"));
    }

    #[test]
    fn obs_summary_renders_a_latency_table() {
        let dir = tmp_dir("riskroute-cli-obs-summary");
        let path = dir.join("trace.jsonl");
        let path_s = path.display().to_string();
        // A trace with two spans of one name and one of another.
        std::fs::write(
            &path,
            "{\"type\":\"span\",\"name\":\"replay_tick\",\"depth\":0,\
             \"start_us\":0,\"dur_us\":100,\"fields\":[]}\n\
             {\"type\":\"span\",\"name\":\"replay_tick\",\"depth\":0,\
             \"start_us\":200,\"dur_us\":300,\"fields\":[]}\n\
             {\"type\":\"span\",\"name\":\"checkpoint_write\",\"depth\":1,\
             \"start_us\":50,\"dur_us\":10,\"fields\":[]}\n",
        )
        .unwrap();
        let out = obs_summary(&path_s).unwrap();
        assert!(out.contains("span"), "{out}");
        assert!(out.contains("count"), "{out}");
        assert!(out.contains("p50_us"), "{out}");
        assert!(out.contains("p99_us"), "{out}");
        assert!(out.contains("replay_tick"), "{out}");
        assert!(out.contains("checkpoint_write"), "{out}");
        // replay_tick has more total time, so it sorts first.
        assert!(
            out.find("replay_tick").unwrap() < out.find("checkpoint_write").unwrap(),
            "{out}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obs_summary_error_families() {
        let missing = obs_summary("/no/such/trace.jsonl").unwrap_err();
        assert!(matches!(missing, CliError::Io(_)));
        assert_eq!(missing.exit_code(), 4);
        let dir = tmp_dir("riskroute-cli-obs-garbage");
        let path = dir.join("bad.jsonl");
        std::fs::write(&path, "not json at all\n").unwrap();
        let err = obs_summary(&path.display().to_string()).unwrap_err();
        assert!(matches!(err, CliError::Core(riskroute::Error::Json(_))));
        assert_eq!(err.exit_code(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obs_summary_empty_trace_is_a_notice_not_an_error() {
        let dir = tmp_dir("riskroute-cli-obs-empty");
        let path = dir.join("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        let out = obs_summary(&path.display().to_string()).unwrap();
        assert!(out.contains("no span events"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obs_summary_warns_on_drops_and_attributes_traces() {
        let dir = tmp_dir("riskroute-cli-obs-drops");
        let path = dir.join("trace.jsonl");
        std::fs::write(
            &path,
            "{\"type\":\"meta\",\"dropped_events\":3}\n\
             {\"type\":\"span\",\"name\":\"replay_tick\",\"id\":2,\"parent\":0,\
             \"trace\":1,\"thread\":1,\"depth\":0,\"start_us\":0,\"dur_us\":100,\
             \"fields\":[]}\n\
             {\"type\":\"trace\",\"id\":1,\"label\":\"replay\",\
             \"counters\":[[\"risk_sssp_runs\",7]]}\n",
        )
        .unwrap();
        let out = obs_summary(&path.display().to_string()).unwrap();
        assert!(out.contains("warning: 3 span events were dropped"), "{out}");
        assert!(out.contains("per-trace attribution"), "{out}");
        assert!(out.contains("replay"), "{out}");
        assert!(out.contains("risk_sssp_runs"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obs_summary_reports_sssp_early_exits() {
        let dir = tmp_dir("riskroute-cli-obs-engine");
        let path = dir.join("trace.jsonl");
        std::fs::write(
            &path,
            "{\"type\":\"span\",\"name\":\"pair_sweep\",\"id\":2,\"parent\":0,\
             \"trace\":0,\"thread\":1,\"depth\":0,\"start_us\":0,\"dur_us\":100,\
             \"fields\":[]}\n\
             {\"type\":\"counter\",\"name\":\"risk_sssp_runs\",\"value\":9}\n\
             {\"type\":\"counter\",\"name\":\"risk_sssp_early_exits\",\"value\":8}\n",
        )
        .unwrap();
        let out = obs_summary(&path.display().to_string()).unwrap();
        assert!(out.contains("sssp engine"), "{out}");
        let line = out
            .lines()
            .find(|l| l.starts_with("risk_sssp_early_exits"))
            .unwrap_or_else(|| panic!("no early-exit row: {out}"));
        assert!(line.ends_with(" 8"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obs_trace_converts_to_chrome_trace_events() {
        let dir = tmp_dir("riskroute-cli-obs-trace");
        let src = dir.join("trace.jsonl");
        std::fs::write(
            &src,
            "{\"type\":\"span\",\"name\":\"sssp\",\"id\":2,\"parent\":0,\
             \"trace\":1,\"thread\":1,\"depth\":0,\"start_us\":5,\"dur_us\":40,\
             \"fields\":[]}\n\
             {\"type\":\"trace\",\"id\":1,\"label\":\"route\",\"counters\":[]}\n",
        )
        .unwrap();
        let out = dir.join("trace.json");
        let out_s = out.display().to_string();
        let msg = obs_trace(&src.display().to_string(), &out_s).unwrap();
        assert!(msg.contains("1 span events across 1 traces"), "{msg}");
        let body = std::fs::read_to_string(&out).unwrap();
        let doc = riskroute_json::parse(&body).unwrap();
        let events = doc.field("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2, "{body}"); // process_name meta + span
        let missing = obs_trace("/no/such/trace.jsonl", &out_s).unwrap_err();
        assert_eq!(missing.exit_code(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obs_lint_accepts_good_and_rejects_bad_expositions() {
        let dir = tmp_dir("riskroute-cli-obs-lint");
        let good = dir.join("good.prom");
        std::fs::write(&good, "# TYPE riskroute_pops counter\nriskroute_pops 5\n").unwrap();
        let out = obs_lint(&good.display().to_string()).unwrap();
        assert!(out.contains("1 samples, exposition format ok"), "{out}");
        // A bucket series with no +Inf bound is malformed.
        let bad = dir.join("bad.prom");
        std::fs::write(
            &bad,
            "riskroute_h_bucket{le=\"1\"} 2\nriskroute_h_count 2\n",
        )
        .unwrap();
        let err = obs_lint(&bad.display().to_string()).unwrap_err();
        assert_eq!(err.exit_code(), 5, "{err:?}");
        assert!(err.to_string().contains("+Inf"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backup_lists_ranked_paths() {
        let out = backup(
            &ctx(),
            "Sprint",
            "0",
            "5",
            3,
            RiskWeights::historical_only(1e5),
        )
        .unwrap();
        assert!(out.contains("primary"));
    }

    #[test]
    fn provision_reports_links_or_absence() {
        let out = provision(
            &ctx(),
            "Sprint",
            2,
            RiskWeights::historical_only(1e5),
            &BudgetArgs::default(),
            false,
        )
        .unwrap();
        assert!(out.contains("best additional links"));
    }

    #[test]
    fn provision_cut_before_its_first_link_claims_no_absence() {
        let budget = BudgetArgs {
            deadline_ms: Some(0),
            ..BudgetArgs::default()
        };
        let out = provision(&ctx(), "Sprint", 2, RiskWeights::PAPER, &budget, false);
        let Err(CliError::Budget { report, .. }) = out else {
            panic!("a 0 ms deadline must cut provisioning: {out:?}");
        };
        assert!(report.contains("0 of 2 links chosen"), "{report}");
        assert!(!report.contains("no candidate links"), "{report}");
    }

    #[test]
    fn replay_renders_ticks() {
        let out = replay(
            &ctx(),
            "Telepak",
            "katrina",
            20,
            RiskWeights::PAPER,
            &BudgetArgs::default(),
            false,
        )
        .unwrap();
        assert!(out.contains("KATRINA"));
        assert!(out.contains("rr "));
        assert!(out.contains("peak risk-reduction"));
    }

    #[test]
    fn replay_stream_emits_one_ndjson_tick_per_advisory() {
        use riskroute_json::Json;
        let ctx = ctx();
        let net = ctx.network("Telepak").unwrap();
        let planner = ctx.planner(net, RiskWeights::PAPER);
        let locations: Vec<_> = net.pops().iter().map(|p| p.location).collect();
        let raws = raw_advisories(Storm::Katrina, 20).unwrap();
        assert!(raws.len() >= 2, "need at least two advisories");
        let mut input = String::new();
        for raw in &raws {
            let obj = Json::obj([
                ("number", Json::Num(raw.number as f64)),
                ("label", Json::Str(raw.label.clone())),
                ("text", Json::Str(raw.text.clone())),
            ]);
            input.push_str(&obj.to_string_compact());
            input.push('\n');
        }
        // A blank line anywhere in the stream is skipped, not an error.
        input.push('\n');
        let out = replay_stream_from(&planner, &locations, input.as_bytes()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), raws.len() + 1, "{out}");
        for (raw, line) in raws.iter().zip(&lines) {
            let doc = riskroute_json::parse(line).unwrap();
            assert_eq!(
                doc.field("advisory").unwrap().as_usize().unwrap(),
                raw.number
            );
            assert_eq!(doc.field("label").unwrap().as_str().unwrap(), raw.label);
            assert!(doc.field("risk_reduction_ratio").unwrap().as_f64().is_ok());
            assert!(!doc.field("degraded").unwrap().as_bool().unwrap());
        }
        let summary = riskroute_json::parse(lines[lines.len() - 1]).unwrap();
        assert!(summary.field("summary").unwrap().as_bool().unwrap());
        assert_eq!(
            summary.field("ticks").unwrap().as_usize().unwrap(),
            raws.len()
        );
        assert_eq!(
            summary.field("degraded_ticks").unwrap().as_usize().unwrap(),
            0
        );
        // The streamed ratios are bit-identical to the recorded replay at the
        // same stride: the warm engine's cached trees change nothing.
        let recorded = replay(
            &ctx,
            "Telepak",
            "katrina",
            20,
            RiskWeights::PAPER,
            &BudgetArgs::default(),
            false,
        )
        .unwrap();
        let first = riskroute_json::parse(lines[0]).unwrap();
        let rr = first
            .field("risk_reduction_ratio")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(
            recorded.contains(&format!("rr {rr:>6.3}")),
            "streamed rr {rr} missing from recorded report:\n{recorded}"
        );
    }

    #[test]
    fn replay_stream_rejects_malformed_lines_with_line_numbers() {
        let ctx = ctx();
        let net = ctx.network("Telepak").unwrap();
        let planner = ctx.planner(net, RiskWeights::PAPER);
        let locations: Vec<_> = net.pops().iter().map(|p| p.location).collect();
        let err =
            replay_stream_from(&planner, &locations, "{\"number\":1}\n".as_bytes()).unwrap_err();
        let CliError::Bad(msg) = err else {
            panic!("expected usage error, got {err:?}");
        };
        assert!(msg.contains("stdin line 1"), "{msg}");
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn provision_budget_exhaustion_checkpoints_and_resumes() {
        let dir = tmp_dir("riskroute-cli-prov-resume");
        let path = dir.join("snap.txt");
        let path_s = path.display().to_string();
        let ctx = ctx();
        let weights = RiskWeights::historical_only(1e5);
        let budget = BudgetArgs {
            max_work: Some(0),
            checkpoint: Some(path_s.clone()),
            ..BudgetArgs::default()
        };
        let err = provision(&ctx, "Sprint", 2, weights, &budget, false).unwrap_err();
        assert_eq!(err.exit_code(), 9);
        let CliError::Budget { report, .. } = &err else {
            panic!("expected budget exhaustion, got {err:?}");
        };
        assert!(report.contains("budget exhausted"));
        assert!(report.contains("riskroute resume"));
        // The snapshot on disk validates and resumes to the exact
        // uninterrupted result.
        let text = std::fs::read_to_string(&path).unwrap();
        riskroute::checkpoint::load_snapshot(&text).unwrap();
        let resumed = resume(&ctx, &path_s, &BudgetArgs::default(), false).unwrap();
        let direct = provision(&ctx, "Sprint", 2, weights, &BudgetArgs::default(), false).unwrap();
        assert!(resumed.starts_with("resuming from "), "{resumed}");
        assert!(
            resumed.ends_with(&direct),
            "resumed:\n{resumed}\ndirect:\n{direct}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_budget_partial_resumes_bit_identically() {
        let dir = tmp_dir("riskroute-cli-replay-resume");
        let path = dir.join("snap.txt");
        let path_s = path.display().to_string();
        let ctx = ctx();
        let budget = BudgetArgs {
            max_work: Some(1),
            checkpoint: Some(path_s.clone()),
            ..BudgetArgs::default()
        };
        let err = replay(
            &ctx,
            "Telepak",
            "katrina",
            20,
            RiskWeights::PAPER,
            &budget,
            false,
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 9);
        let resumed = resume(&ctx, &path_s, &BudgetArgs::default(), false).unwrap();
        let direct = replay(
            &ctx,
            "Telepak",
            "katrina",
            20,
            RiskWeights::PAPER,
            &BudgetArgs::default(),
            false,
        )
        .unwrap();
        assert!(resumed.starts_with("resuming from "), "{resumed}");
        assert!(
            resumed.ends_with(&direct),
            "resumed:\n{resumed}\ndirect:\n{direct}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_renders_a_ranked_criticality_report() {
        let out = sweep(
            &ctx(),
            "Telepak",
            "n1",
            0,
            0,
            RiskWeights::historical_only(1e5),
            &BudgetArgs::default(),
            false,
        )
        .unwrap();
        assert!(out.contains("full N-1 resilience sweep"), "{out}");
        assert!(out.contains("baseline:"), "{out}");
        assert!(out.contains("criticality ranking"), "{out}");
        assert!(out.contains("d stranded"), "{out}");
    }

    #[test]
    fn sweep_ensemble_reports_risk_bands() {
        let out = sweep(
            &ctx(),
            "Telepak",
            "ensemble",
            4,
            7,
            RiskWeights::PAPER,
            &BudgetArgs::default(),
            false,
        )
        .unwrap();
        assert!(out.contains("hazard ensemble (4 members, seed 7)"), "{out}");
        assert!(out.contains("ensemble bit-risk bands: p5"), "{out}");
    }

    #[test]
    fn sweep_n2_lists_worst_fork_per_element() {
        let out = sweep(
            &ctx(),
            "Telepak",
            "n2",
            6,
            42,
            RiskWeights::historical_only(1e5),
            &BudgetArgs::default(),
            false,
        )
        .unwrap();
        assert!(out.contains("sampled N-2 (6 draws, seed 42)"), "{out}");
        assert!(out.contains("worst-case fork per element:"), "{out}");
    }

    #[test]
    fn sweep_rejects_unknown_mode() {
        let err = sweep(
            &ctx(),
            "Telepak",
            "n3",
            0,
            0,
            RiskWeights::PAPER,
            &BudgetArgs::default(),
            false,
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Bad(_)));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn sweep_budget_exhaustion_checkpoints_and_resumes() {
        let dir = tmp_dir("riskroute-cli-sweep-resume");
        let path = dir.join("snap.txt");
        let path_s = path.display().to_string();
        let ctx = ctx();
        let weights = RiskWeights::historical_only(1e5);
        let budget = BudgetArgs {
            max_work: Some(3),
            checkpoint: Some(path_s.clone()),
            ..BudgetArgs::default()
        };
        let err = sweep(&ctx, "Telepak", "n1", 0, 0, weights, &budget, false).unwrap_err();
        assert_eq!(err.exit_code(), 9);
        let CliError::Budget { report, .. } = &err else {
            panic!("expected budget exhaustion, got {err:?}");
        };
        assert!(report.contains("scenarios evaluated"));
        assert!(report.contains("riskroute resume"));
        let text = std::fs::read_to_string(&path).unwrap();
        riskroute::checkpoint::load_snapshot(&text).unwrap();
        let resumed = resume(&ctx, &path_s, &BudgetArgs::default(), false).unwrap();
        let direct = sweep(
            &ctx,
            "Telepak",
            "n1",
            0,
            0,
            weights,
            &BudgetArgs::default(),
            false,
        )
        .unwrap();
        assert!(resumed.starts_with("resuming from "), "{resumed}");
        assert!(
            resumed.ends_with(&direct),
            "resumed:\n{resumed}\ndirect:\n{direct}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unusable_progress_falls_back_to_a_fresh_run() {
        let dir = tmp_dir("riskroute-cli-resume-fallback");
        let path = dir.join("snap.txt");
        let path_s = path.display().to_string();
        let ctx = ctx();
        let budget = BudgetArgs {
            max_work: Some(1),
            checkpoint: Some(path_s.clone()),
            ..BudgetArgs::default()
        };
        let _ = replay(
            &ctx,
            "Telepak",
            "katrina",
            20,
            RiskWeights::PAPER,
            &budget,
            false,
        )
        .unwrap_err();
        // Truncate everything past the job line (the common shape of
        // disk-level damage: files lose their tails).
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.find("\nprogress ").unwrap() + 1;
        std::fs::write(&path, &text[..cut]).unwrap();
        let out = resume(&ctx, &path_s, &BudgetArgs::default(), false).unwrap();
        assert!(out.starts_with("degraded mode:"), "{out}");
        let direct = replay(
            &ctx,
            "Telepak",
            "katrina",
            20,
            RiskWeights::PAPER,
            &BudgetArgs::default(),
            false,
        )
        .unwrap();
        assert!(out.ends_with(&direct), "out:\n{out}\ndirect:\n{direct}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_snapshots_are_typed_errors() {
        let dir = tmp_dir("riskroute-cli-resume-garbage");
        let path = dir.join("snap.txt");
        std::fs::write(&path, "not a snapshot\n").unwrap();
        let ctx = ctx();
        let err = resume(
            &ctx,
            &path.display().to_string(),
            &BudgetArgs::default(),
            false,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CliError::Core(riskroute::Error::SnapshotIntegrity { .. })
        ));
        assert_eq!(err.exit_code(), 5);
        let missing =
            resume(&ctx, "/no/such/snapshot.txt", &BudgetArgs::default(), false).unwrap_err();
        assert!(matches!(missing, CliError::Io(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_out_writes_atomically() {
        let dir = tmp_dir("riskroute-cli-export-out");
        let path = dir.join("ntt.json");
        let path_s = path.display().to_string();
        let out = export(&ctx(), "NTT", "json", Some(&path_s)).unwrap();
        assert!(out.contains("wrote"), "{out}");
        let back: Network =
            riskroute_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back.name(), "NTT");
        // No temp droppings from the atomic write.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ratio_reports_network_wide_ratios() {
        let out = ratio(
            &ctx(),
            "Sprint",
            RiskWeights::historical_only(1e5),
            None,
            42,
        )
        .unwrap();
        assert!(out.contains("risk reduction ratio (Eq. 5)"), "{out}");
        assert!(out.contains("distance increase ratio (Eq. 6)"), "{out}");
        assert!(out.contains("ordered PoP pairs"), "{out}");
    }

    #[test]
    fn ratio_sampled_mode_reports_sample_size_and_seed() {
        let out = ratio(
            &ctx(),
            "Sprint",
            RiskWeights::historical_only(1e5),
            Some(16),
            7,
        )
        .unwrap();
        assert!(out.contains("16 sampled PoP pairs"), "{out}");
        assert!(out.contains("seed 7"), "{out}");
        assert!(out.contains("risk reduction ratio (Eq. 5)"), "{out}");
    }

    #[test]
    fn sampled_pairs_are_deterministic_and_never_self_pairs() {
        let a = sampled_pairs(50, 200, 9);
        let b = sampled_pairs(50, 200, 9);
        assert_eq!(a, b);
        assert!(a.iter().all(|&(i, j)| i != j && i < 50 && j < 50));
        let c = sampled_pairs(50, 200, 10);
        assert_ne!(a, c, "different seeds draw different pairs");
    }

    #[test]
    fn synth_summary_and_graphml_round_trip() {
        let out = synth(300, 42, None).unwrap();
        assert!(out.contains("300 PoPs"), "{out}");
        assert!(out.contains("seed 42"), "{out}");
        let dir = std::env::temp_dir().join("riskroute-cli-synth");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("synth.graphml");
        let _ = synth(300, 42, Some(&path.display().to_string())).unwrap();
        let xml = std::fs::read_to_string(&path).unwrap();
        let net = riskroute_topology::import::network_from_graphml(
            &xml,
            "synth-300",
            NetworkKind::Regional,
        )
        .unwrap();
        assert_eq!(net.pop_count(), 300);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn critical_flags_spofs() {
        let out = critical(&ctx(), "Deutsche Telekom").unwrap();
        assert!(out.contains("criticality"));
        assert!(out.contains("articulation points"));
    }

    #[test]
    fn ospf_reports_weights_and_fidelity() {
        let out = ospf(&ctx(), "Sprint", RiskWeights::historical_only(1e5)).unwrap();
        assert!(out.contains("OSPF weight"));
        assert!(out.contains("risk reduction captured"));
    }

    #[test]
    fn disconnected_import_reports_no_pairs_and_an_absolute_total() {
        // Two PoPs and no links: the importer accepts it, but no pair is
        // connected, so the original total bit-risk is 0.
        let pop = |name: &str, lat: f64, lon: f64| riskroute_topology::Pop {
            name: name.into(),
            location: riskroute_geo::GeoPoint::new(lat, lon).unwrap(),
        };
        let net = Network::new(
            "Two",
            NetworkKind::Regional,
            vec![pop("A", 32.78, -96.80), pop("B", 30.27, -97.74)],
            vec![],
        )
        .unwrap();
        let dir = tmp_dir("riskroute-cli-two-pops");
        let path = dir.join("two.graphml");
        std::fs::write(&path, riskroute_topology::import::network_to_graphml(&net)).unwrap();
        let ctx = CliContext::build(&[(path.display().to_string(), "Two".into())]).unwrap();
        let err = ospf(&ctx, "Two", RiskWeights::PAPER).unwrap_err();
        assert_eq!(err.exit_code(), 6, "{err}");
        let out = provision(
            &ctx,
            "Two",
            1,
            RiskWeights::PAPER,
            &BudgetArgs::default(),
            false,
        )
        .unwrap();
        assert!(out.contains("original total bit-risk 0.000e0"), "{out}");
        assert!(out.contains("1. A <-> B"), "{out}");
        assert!(out.contains("): total is "), "{out}");
        assert!(!out.contains("of original"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corridors_ranks_links() {
        let out = corridors(&ctx(), "Telepak").unwrap();
        assert!(out.contains("Risk-miles"));
        assert!(out.contains("Shared-risk link groups"));
    }

    #[test]
    fn failure_reports_damage() {
        let out = failure(&ctx(), "Telepak", "katrina").unwrap();
        assert!(out.contains("failed PoPs"));
        assert!(out.contains("population share affected"));
        // No survivor is cut off, so the isolated share is an empty sum.
        assert!(out.contains(" 0.0% isolated)"), "{out}");
    }

    #[test]
    fn failure_with_no_failed_pop_prints_positive_zero_shares() {
        let out = failure(&ctx(), "Telepak", "sandy").unwrap();
        assert!(out.contains("failed PoPs: 0 of"), "{out}");
        assert!(
            out.contains("population share affected: 0.0% (0.0% on failed PoPs, 0.0% isolated)"),
            "{out}"
        );
    }

    #[test]
    fn export_round_trips_through_json() {
        let json = export(&ctx(), "NTT", "json", None).unwrap();
        let back: Network = riskroute_json::from_str(&json).unwrap();
        assert_eq!(back.name(), "NTT");
        assert_eq!(back.pop_count(), 12);
    }

    #[test]
    fn export_graphml_re_imports() {
        let xml = export(&ctx(), "NTT", "graphml", None).unwrap();
        let back = riskroute_topology::import::network_from_graphml(
            &xml,
            "NTT",
            riskroute_topology::NetworkKind::Tier1,
        )
        .unwrap();
        assert_eq!(back.pop_count(), 12);
        assert!(export(&ctx(), "NTT", "yaml", None).is_err());
    }
}
