//! Seeded chaos-injection harness.
//!
//! A [`FaultPlan`] is a deterministic, seed-derived bundle of faults —
//! dropped links, garbled or truncated advisory text, deleted hazard
//! events, zeroed population blocks, and non-finite entry costs — that
//! [`run_chaos`] injects into a full corpus pipeline (topology → population
//! → hazards → planner → disaster replay → ratio aggregation). The driver
//! asserts the degraded-mode invariants the rest of the crate promises:
//!
//! - **No panic**: every stage completes under every plan.
//! - **Defined degradation**: corrupted advisories yield *flagged* degraded
//!   ticks (never dropped ticks), partitions yield *counted* stranded pairs
//!   (never aborted sweeps), poisoned entry costs *isolate* their PoPs
//!   (never crash the search), and every reported ratio stays finite.
//!
//! Everything is keyed off the plan's seed, so a failing plan replays
//! exactly with `FaultPlan::from_seed(seed)`.
//!
//! Two harness extensions cover **interruption of the process itself**
//! (PR 2's crash-consistency work):
//!
//! - Each plan also injects a [`SnapshotFault`] — truncated snapshot bytes
//!   or a stale format version — and asserts the checkpoint loader rejects
//!   the damage with a *typed* error ([`Error::SnapshotIntegrity`] /
//!   [`Error::SnapshotVersion`], never a panic) while
//!   [`crate::checkpoint::load_snapshot_with_fallback`] still recovers the
//!   job line whenever possible, so `resume` can fall back to a fresh run.
//! - [`run_kill_resume`] kills a provisioning run and a replay sweep at a
//!   seeded iteration via the cooperative cancel flag, round-trips the last
//!   checkpoint through the wire format, resumes, and asserts the resumed
//!   result is **bit-identical** to the uninterrupted run.
//!
//! A third extension covers the **scenario-fork engine**
//! ([`crate::scenario`]): [`run_fork_faults`] kills an N-1 resilience sweep
//! mid-run and resumes it through a wire-format sweep snapshot (bit-identical
//! resume), forks with *every* node deactivated (must degrade to all-stranded
//! accounting, never panic), and forks with an empty delta (must alias the
//! base planner — same cost stamp, same bits, cache reuse included).

use crate::budget::{Budgeted, WorkBudget};
use crate::checkpoint::{self, LoadOutcome, Snapshot, SnapshotProgress};
use crate::engine::{self, CsrGraph};
use crate::error::Error;
use crate::intradomain::Planner;
use crate::metric::{NodeRisk, RiskWeights};
use crate::provisioning::{greedy_links, greedy_links_budgeted, greedy_links_resume};
use crate::replay::{
    raw_advisories, replay_raw_advisories, replay_raw_advisories_budgeted, RawAdvisory,
};
use crate::scenario::{
    base_exposure, run_sweep, run_sweep_budgeted, scenario_specs, ScenarioDelta, ScenarioFork,
    SweepMode, SweepPrior,
};
use riskroute_forecast::{Storm, ALL_STORMS};
use riskroute_geo::GeoPoint;
use riskroute_hazard::HistoricalRisk;
use riskroute_par::Parallelism;
use riskroute_population::{PopShares, PopulationModel};
use riskroute_rng::StdRng;
use riskroute_topology::{Corpus, Network, NetworkKind, Pop};

/// Replay stride used by the harness (every 4th advisory — enough ticks to
/// exercise the storm's approach, peak, and decay without dominating the
/// suite's runtime).
const CHAOS_STRIDE: usize = 4;
/// Synthetic census blocks per plan.
const CHAOS_BLOCKS: usize = 800;
/// Hazard events per kind before deletion faults.
const CHAOS_EVENT_CAP: usize = 60;

/// A fault injected into the *checkpoint snapshot* after the replay runs —
/// the crash-corruption half of the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotFault {
    /// Leave the snapshot intact (it must then load and round-trip).
    None,
    /// Truncate the snapshot at a seeded byte offset (a crash mid-`write`
    /// without the atomic-rename discipline).
    TruncateBytes,
    /// Rewrite the header to an unsupported future format version.
    StaleVersion,
}

impl SnapshotFault {
    /// Stable name used in reports and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            SnapshotFault::None => "none",
            SnapshotFault::TruncateBytes => "truncate-bytes",
            SnapshotFault::StaleVersion => "stale-version",
        }
    }
}

/// A deterministic, seed-derived bundle of faults to inject into one
/// pipeline run. Identical seeds produce identical plans (and identical
/// [`ChaosReport`]s), so failures replay exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; all fault placement derives from it.
    pub seed: u64,
    /// Fraction of the chosen network's links to drop (may partition it).
    pub drop_link_fraction: f64,
    /// Fraction of advisory texts to garble (character noise).
    pub garble_advisory_fraction: f64,
    /// Fraction of advisory texts to truncate mid-sentence.
    pub truncate_advisory_fraction: f64,
    /// Fraction of each hazard corpus' events to delete.
    pub delete_event_fraction: f64,
    /// Fraction of PoP population shares to zero out.
    pub zero_population_fraction: f64,
    /// Fraction of PoPs whose entry cost is poisoned non-finite.
    pub poison_cost_fraction: f64,
    /// Corruption applied to the run's checkpoint snapshot.
    pub snapshot_fault: SnapshotFault,
}

impl FaultPlan {
    /// Derive a plan from a seed. Fault intensities are drawn from ranges
    /// wide enough to partition topologies and blind the forecast, but they
    /// never take a fraction past ~0.45 — a plan that deletes *everything*
    /// tests vacuous behaviour, not degradation.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        FaultPlan {
            seed,
            drop_link_fraction: rng.gen_range(0.05..0.40),
            garble_advisory_fraction: rng.gen_range(0.05..0.30),
            truncate_advisory_fraction: rng.gen_range(0.05..0.30),
            delete_event_fraction: rng.gen_range(0.0..0.45),
            zero_population_fraction: rng.gen_range(0.0..0.40),
            poison_cost_fraction: rng.gen_range(0.05..0.35),
            snapshot_fault: match rng.gen_range(0..3usize) {
                0 => SnapshotFault::None,
                1 => SnapshotFault::TruncateBytes,
                _ => SnapshotFault::StaleVersion,
            },
        }
    }

    /// The `count` plans of a suite rooted at `base_seed` (seeds
    /// `base_seed..base_seed + count`).
    pub fn suite(base_seed: u64, count: usize) -> Vec<FaultPlan> {
        (0..count as u64)
            .map(|i| FaultPlan::from_seed(base_seed.wrapping_add(i)))
            .collect()
    }
}

/// What one chaos run did and how the pipeline degraded — the
/// defined-degradation evidence for one [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// The plan's seed.
    pub seed: u64,
    /// Network the faults were injected into.
    pub network: String,
    /// Storm replayed under the faults.
    pub storm: String,
    /// Links dropped from the topology.
    pub dropped_links: usize,
    /// Advisory texts corrupted (garbled + truncated).
    pub corrupted_advisories: usize,
    /// Hazard events deleted across all corpora.
    pub deleted_events: usize,
    /// Population shares zeroed.
    pub zeroed_blocks: usize,
    /// PoPs with poisoned (non-finite) entry costs.
    pub poisoned_pops: usize,
    /// Ticks the replay produced (always the full advisory count).
    pub total_ticks: usize,
    /// Ticks that ran in degraded (forecast-dropped) mode.
    pub degraded_ticks: usize,
    /// Stranded pairs in the post-storm ratio sweep.
    pub stranded_pairs: usize,
    /// PoPs isolated by the poisoned-cost search.
    pub isolated_pops: usize,
    /// Whether every reported ratio stayed finite.
    pub finite_ratios: bool,
    /// Which snapshot corruption was injected (stable name).
    pub snapshot_fault: String,
    /// Whether the checkpoint loader honoured its contract: a clean
    /// snapshot loads and round-trips bit-identically; a corrupted one is
    /// rejected with a typed error (never a panic).
    pub snapshot_contract_held: bool,
    /// Whether the job line was still recoverable from the (possibly
    /// corrupted) snapshot, enabling the fresh-run fallback.
    pub snapshot_job_recovered: bool,
}

impl ChaosReport {
    /// One-line summary for the CLI table.
    pub fn summary_line(&self) -> String {
        format!(
            "seed {:>4}  {:<16} {:<8} links -{:<3} adv x{:<3} events -{:<4} \
             shares 0x{:<3} poisoned {:<3} | ticks {:>2} degraded {:>2} \
             stranded {:>4} isolated {:>2} finite {} | snap {:<14} held {} job {}",
            self.seed,
            self.network,
            self.storm,
            self.dropped_links,
            self.corrupted_advisories,
            self.deleted_events,
            self.zeroed_blocks,
            self.poisoned_pops,
            self.total_ticks,
            self.degraded_ticks,
            self.stranded_pairs,
            self.isolated_pops,
            self.finite_ratios,
            self.snapshot_fault,
            self.snapshot_contract_held,
            self.snapshot_job_recovered,
        )
    }

    /// Which fault-plan entries actually fired (injected a nonzero amount
    /// of damage), as `"kind(count)"` labels. A plan can request a fault
    /// that lands nowhere (e.g. a tiny fraction of a tiny network), so the
    /// fired list — not the plan — is the ground truth of what this run
    /// exercised.
    pub fn fired_faults(&self) -> Vec<String> {
        let mut fired = Vec::new();
        let mut push = |label: &str, n: usize| {
            if n > 0 {
                fired.push(format!("{label}({n})"));
            }
        };
        push("drop_links", self.dropped_links);
        push("corrupt_advisories", self.corrupted_advisories);
        push("delete_events", self.deleted_events);
        push("zero_shares", self.zeroed_blocks);
        push("poison_costs", self.poisoned_pops);
        if self.snapshot_fault != SnapshotFault::None.name() {
            fired.push(format!("snapshot({})", self.snapshot_fault));
        }
        fired
    }
}

/// Pick `fraction` of `0..n` (rounded, at least one when the fraction is
/// positive and `n > 0`, never all of them for n > 1).
fn pick_indices(rng: &mut StdRng, n: usize, fraction: f64) -> Vec<usize> {
    if n == 0 || fraction <= 0.0 {
        return Vec::new();
    }
    let want = ((n as f64 * fraction).round() as usize)
        .max(1)
        .min(n.saturating_sub(1).max(1));
    let mut idx: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut idx);
    idx.truncate(want);
    idx.sort_unstable();
    idx
}

/// Drop a fraction of links from `network`. The surviving link set is a
/// subset of a valid network's links, so rebuilding cannot fail.
fn drop_links(network: &Network, fraction: f64, rng: &mut StdRng) -> (Network, usize) {
    let doomed = pick_indices(rng, network.link_count(), fraction);
    let keep: Vec<(usize, usize)> = network
        .links()
        .iter()
        .enumerate()
        .filter(|(i, _)| !doomed.contains(i))
        .map(|(_, l)| (l.a, l.b))
        .collect();
    let degraded = match Network::new(
        network.name(),
        network.kind(),
        network.pops().to_vec(),
        keep,
    ) {
        Ok(net) => net,
        // A subset of already-validated links cannot introduce range,
        // self-link, or duplicate violations.
        Err(_) => unreachable!("dropping links from a valid network keeps it valid"),
    };
    (degraded, doomed.len())
}

/// Corrupt a fraction of the advisory stream: garbled texts get character
/// noise heavy enough to defeat the §4.4 parser; truncated texts are cut
/// off before the positional sentence. Returns how many were touched.
fn corrupt_advisories(raws: &mut [RawAdvisory], plan: &FaultPlan, rng: &mut StdRng) -> usize {
    let garble = pick_indices(rng, raws.len(), plan.garble_advisory_fraction);
    for &i in &garble {
        raws[i].text = raws[i]
            .text
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() && rng.gen_bool(0.6) {
                    '#'
                } else {
                    c
                }
            })
            .collect();
    }
    let truncate = pick_indices(rng, raws.len(), plan.truncate_advisory_fraction);
    for &i in &truncate {
        let cut = raws[i].text.len().min(rng.gen_range(0..40usize));
        let at = (0..=cut).rev().find(|&b| raws[i].text.is_char_boundary(b));
        raws[i].text.truncate(at.unwrap_or(0));
    }
    let mut touched: Vec<usize> = garble;
    touched.extend(truncate);
    touched.sort_unstable();
    touched.dedup();
    touched.len()
}

/// Run the full corpus pipeline under one fault plan, asserting the
/// degraded-mode invariants along the way.
///
/// # Errors
/// Propagates [`Error::UnknownNetwork`] if the corpus has no regional
/// network to target (cannot happen with the standard corpus) — every fault
/// itself must degrade, not error.
///
/// # Panics
/// Panics only when a degradation invariant is violated — which is exactly
/// the regression the harness exists to catch.
pub fn run_chaos(plan: &FaultPlan) -> Result<ChaosReport, Error> {
    run_chaos_at(plan, Parallelism::Sequential)
}

/// [`run_chaos`] with the pipeline's sweeps running under an explicit
/// [`Parallelism`] setting — the harness's *threads* dimension. The report
/// must be identical at every setting (the determinism contract), so the
/// suite runs each plan at two worker counts and diffs the reports: any
/// divergence is a data race or a broken ordered reduction.
///
/// # Errors
/// Same contract as [`run_chaos`].
pub fn run_chaos_at(plan: &FaultPlan, parallelism: Parallelism) -> Result<ChaosReport, Error> {
    let mut rng = StdRng::seed_from_u64(plan.seed);

    // --- Substrate: corpus topology, population, hazards ----------------
    let corpus = Corpus::standard(plan.seed);
    let regionals: Vec<&Network> = corpus
        .all_networks()
        .filter(|n| n.kind() == NetworkKind::Regional)
        .collect();
    if regionals.is_empty() {
        return Err(Error::UnknownNetwork("<any regional>".into()));
    }
    let target = regionals[rng.gen_range(0..regionals.len())];
    let storm = ALL_STORMS[rng.gen_range(0..ALL_STORMS.len())];

    // --- Fault: drop links (may partition the topology) ------------------
    let (network, dropped_links) = drop_links(target, plan.drop_link_fraction, &mut rng);

    // --- Fault: delete hazard events (thinner KDE corpus) ----------------
    let survivors = ((CHAOS_EVENT_CAP as f64) * (1.0 - plan.delete_event_fraction))
        .round()
        .max(1.0) as usize;
    let deleted_events = (CHAOS_EVENT_CAP - survivors) * 5; // five corpora
    let hazards = HistoricalRisk::standard(plan.seed, Some(survivors));

    // --- Fault: zero population blocks -----------------------------------
    let population = PopulationModel::synthesize(plan.seed, CHAOS_BLOCKS);
    let mut shares = PopShares::assign(&population, &network, None)
        .shares()
        .to_vec();
    let zeroed = pick_indices(&mut rng, shares.len(), plan.zero_population_fraction);
    for &i in &zeroed {
        shares[i] = 0.0;
    }
    let planner = Planner::new(
        &network,
        NodeRisk::from_historical(&network, &hazards),
        PopShares::from_shares(shares),
        RiskWeights::PAPER,
    )
    .with_parallelism(parallelism);

    // --- Fault: corrupt the advisory feed, then replay --------------------
    let mut raws = raw_advisories(storm, CHAOS_STRIDE)?;
    let expected_ticks = raws.len();
    let corrupted_advisories = corrupt_advisories(&mut raws, plan, &mut rng);
    let locations: Vec<GeoPoint> = network.pops().iter().map(|p| p.location).collect();
    let all: Vec<usize> = (0..network.pop_count()).collect();
    let replay = replay_raw_advisories(
        &planner,
        network.name(),
        &locations,
        storm.name(),
        &raws,
        &all,
        &all,
    )?;
    assert_eq!(
        replay.ticks.len(),
        expected_ticks,
        "degraded replay must keep every tick"
    );
    let mut finite_ratios = true;
    for tick in &replay.ticks {
        finite_ratios &= tick.report.risk_reduction_ratio.is_finite()
            && tick.report.distance_increase_ratio.is_finite();
    }

    // --- Fault: poison entry costs (non-finite weights) -------------------
    let poisoned = pick_indices(&mut rng, network.pop_count(), plan.poison_cost_fraction);
    let source = all
        .iter()
        .copied()
        .find(|s| !poisoned.contains(s))
        .unwrap_or(0);
    let mut rho = vec![0.0; network.pop_count()];
    for &p in &poisoned {
        rho[p] = f64::NAN;
    }
    let csr = CsrGraph::from_adjacency(planner.adjacency());
    let tree = engine::sssp(&csr, source, 1.0, &engine::Rho::new(rho));
    let isolated_pops = all.iter().filter(|&&v| !tree.reachable(v)).count();
    for &p in &poisoned {
        assert!(
            p == source || !tree.reachable(p),
            "poisoned PoP {p} must be unroutable, not crash the search"
        );
    }

    // --- Fault: corrupt the run's checkpoint snapshot ----------------------
    let weights = RiskWeights::PAPER;
    let snapshot = Snapshot::replay(
        network.name(),
        &storm.name().to_lowercase(),
        CHAOS_STRIDE,
        weights.lambda_h,
        weights.lambda_f,
        &replay,
        replay.ticks.len(),
    );
    let text = snapshot.to_text();
    let corrupted_text = match plan.snapshot_fault {
        SnapshotFault::None => None,
        SnapshotFault::TruncateBytes => {
            // Stop short of len-1: cutting only the trailing newline leaves
            // a document that still parses, which tests nothing.
            let cut = rng.gen_range(1..text.len() - 1);
            let at = (0..=cut)
                .rev()
                .find(|&b| text.is_char_boundary(b))
                .unwrap_or(0);
            Some(text[..at].to_string())
        }
        SnapshotFault::StaleVersion => {
            Some(text.replacen("riskroute-snapshot/1", "riskroute-snapshot/99", 1))
        }
    };
    let (snapshot_contract_held, snapshot_job_recovered) = match &corrupted_text {
        // Clean snapshot: must load and round-trip bit-identically.
        None => (
            checkpoint::load_snapshot(&text)
                .map(|s| s == snapshot)
                .unwrap_or(false),
            true,
        ),
        // Corrupted snapshot: the strict loader must reject it with a typed
        // error (reaching this line at all proves it did not panic), and the
        // fallback loader may still salvage the job line.
        Some(bad) => (
            checkpoint::load_snapshot(bad).is_err(),
            matches!(
                checkpoint::load_snapshot_with_fallback(bad),
                Ok(LoadOutcome::Fallback { .. })
            ),
        ),
    };

    // --- Aggregate ratios on the degraded topology -------------------------
    let report = planner.ratio_report();
    finite_ratios &=
        report.risk_reduction_ratio.is_finite() && report.distance_increase_ratio.is_finite();
    assert!(
        report.is_informative() || report.stranded_pairs > 0 || network.pop_count() < 2,
        "an uninformative sweep must account for its pairs as stranded"
    );

    let chaos_report = ChaosReport {
        seed: plan.seed,
        network: network.name().to_string(),
        storm: storm.name().to_string(),
        dropped_links,
        corrupted_advisories,
        deleted_events,
        zeroed_blocks: zeroed.len(),
        poisoned_pops: poisoned.len(),
        total_ticks: replay.ticks.len(),
        degraded_ticks: replay.degraded_ticks(),
        stranded_pairs: report.stranded_pairs,
        isolated_pops,
        finite_ratios,
        snapshot_fault: plan.snapshot_fault.name().to_string(),
        snapshot_contract_held,
        snapshot_job_recovered,
    };
    if riskroute_obs::is_enabled() {
        riskroute_obs::counter_add("chaos_runs", 1);
        riskroute_obs::counter_add("chaos_faults_links_dropped", dropped_links as u64);
        riskroute_obs::counter_add(
            "chaos_faults_advisories_corrupted",
            corrupted_advisories as u64,
        );
        riskroute_obs::counter_add("chaos_faults_events_deleted", deleted_events as u64);
        riskroute_obs::counter_add("chaos_faults_shares_zeroed", zeroed.len() as u64);
        riskroute_obs::counter_add("chaos_faults_costs_poisoned", poisoned.len() as u64);
        if plan.snapshot_fault != SnapshotFault::None {
            riskroute_obs::counter_add("chaos_faults_snapshot", 1);
        }
    }
    Ok(chaos_report)
}

/// Worker counts the suites exercise for the *threads* dimension: one
/// worker plus a small pool (2 workers keeps chunk hand-offs and
/// steals in play without starving CI machines).
pub const CHAOS_THREAD_MATRIX: &[Parallelism] = &[Parallelism::Sequential, Parallelism::Threads(2)];

/// Run a whole suite of seeded plans; every plan must complete (the no-panic
/// invariant) and every report must have finite ratios. Each plan runs at
/// every [`CHAOS_THREAD_MATRIX`] worker count and the reports are diffed —
/// the returned reports are the sequential ones.
///
/// # Errors
/// Propagates the first [`run_chaos_at`] error.
///
/// # Panics
/// Panics when a parallel run's report diverges from the sequential one —
/// evidence of a data race or a broken ordered reduction.
pub fn run_chaos_suite(base_seed: u64, count: usize) -> Result<Vec<ChaosReport>, Error> {
    FaultPlan::suite(base_seed, count)
        .iter()
        .map(|plan| {
            let sequential = run_chaos_at(plan, Parallelism::Sequential)?;
            for &par in CHAOS_THREAD_MATRIX {
                if par.is_sequential() {
                    continue;
                }
                let parallel = run_chaos_at(plan, par)?;
                assert_eq!(
                    parallel, sequential,
                    "seed {}: chaos report diverged at {par}",
                    plan.seed
                );
            }
            Ok(sequential)
        })
        .collect()
}

/// Sanity check a completed report against the defined-degradation
/// contract; returns the violations (empty = clean).
pub fn violations(report: &ChaosReport) -> Vec<String> {
    let mut v = Vec::new();
    if !report.finite_ratios {
        v.push(format!("seed {}: non-finite ratio reported", report.seed));
    }
    if report.degraded_ticks > report.corrupted_advisories {
        v.push(format!(
            "seed {}: {} degraded ticks but only {} corrupted advisories",
            report.seed, report.degraded_ticks, report.corrupted_advisories
        ));
    }
    if report.total_ticks == 0 {
        v.push(format!("seed {}: replay produced no ticks", report.seed));
    }
    if !report.snapshot_contract_held {
        v.push(format!(
            "seed {}: snapshot loader broke its contract under fault {:?}",
            report.seed, report.snapshot_fault
        ));
    }
    if report.snapshot_fault == SnapshotFault::StaleVersion.name() && !report.snapshot_job_recovered
    {
        v.push(format!(
            "seed {}: stale-version snapshot must still yield its job for the \
             fresh-run fallback",
            report.seed
        ));
    }
    v
}

// --- Kill/resume crash-consistency harness ----------------------------------

/// Evidence from one [`run_kill_resume`] crash-consistency run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillResumeReport {
    /// The seed that placed the kill points.
    pub seed: u64,
    /// Greedy iterations completed before the provisioning run was killed.
    pub provision_killed_after: usize,
    /// Whether the resumed provisioning run reproduced the uninterrupted
    /// [`crate::provisioning::GreedyLinks`] bit-identically.
    pub provision_identical: bool,
    /// Replay ticks completed before the sweep was killed.
    pub replay_killed_after: usize,
    /// Whether the resumed replay reproduced the uninterrupted
    /// [`crate::replay::DisasterReplay`] bit-identically.
    pub replay_identical: bool,
}

impl KillResumeReport {
    /// The crash-consistency invariant: both legs resumed bit-identically.
    pub fn identical(&self) -> bool {
        self.provision_identical && self.replay_identical
    }

    /// One-line summary for the CLI table.
    pub fn summary_line(&self) -> String {
        format!(
            "seed {:>4}  provision killed@{:<2} identical {:<5}  replay killed@{:<3} identical {}",
            self.seed,
            self.provision_killed_after,
            self.provision_identical,
            self.replay_killed_after,
            self.replay_identical,
        )
    }
}

fn fixture_pop(name: &str, lat: f64, lon: f64) -> Pop {
    let location = match GeoPoint::new(lat, lon) {
        Ok(p) => p,
        Err(_) => unreachable!("fixture coordinates are valid"),
    };
    Pop {
        name: name.into(),
        location,
    }
}

/// A horseshoe-with-gap topology rich enough to admit several greedy links,
/// with one risky PoP forcing detours — the provisioning leg's fixture.
fn provisioning_fixture() -> (Network, Planner) {
    let net = match Network::new(
        "chaos-horseshoe",
        NetworkKind::Regional,
        vec![
            fixture_pop("P0", 35.0, -100.0),
            fixture_pop("P1", 35.0, -97.0),
            fixture_pop("P2", 35.0, -94.0),
            fixture_pop("P3", 35.8, -94.0),
            fixture_pop("P4", 35.8, -100.0),
            fixture_pop("P5", 35.8, -97.0),
        ],
        vec![(0, 1), (1, 2), (2, 3), (3, 5), (5, 4)],
    ) {
        Ok(n) => n,
        Err(_) => unreachable!("static fixture is valid"),
    };
    let risk = NodeRisk::new(vec![0.0, 0.0, 2e-3, 0.0, 0.0, 0.0], vec![0.0; 6]);
    let shares = PopShares::from_shares(vec![1.0 / 6.0; 6]);
    let planner = Planner::new(&net, risk, shares, RiskWeights::historical_only(1e5));
    (net, planner)
}

/// The Gulf-coast diamond in Katrina's path — the replay leg's fixture.
fn replay_fixture() -> (Network, Planner) {
    let net = match Network::new(
        "chaos-gulf",
        NetworkKind::Regional,
        vec![
            fixture_pop("Houston", 29.76, -95.37),
            fixture_pop("Little Rock", 34.75, -92.29),
            fixture_pop("New Orleans", 29.95, -90.07),
            fixture_pop("Atlanta", 33.75, -84.39),
        ],
        vec![(0, 1), (1, 3), (0, 2), (2, 3)],
    ) {
        Ok(n) => n,
        Err(_) => unreachable!("static fixture is valid"),
    };
    let n = net.pop_count();
    let planner = Planner::new(
        &net,
        NodeRisk::new(vec![0.0; n], vec![0.0; n]),
        PopShares::from_shares(vec![1.0 / n as f64; n]),
        RiskWeights::PAPER,
    );
    (net, planner)
}

/// Kill a provisioning run and a replay sweep at seeded iterations, resume
/// each from a checkpoint round-tripped through the wire format, and check
/// the crash-consistency invariant: the resumed result must be
/// **bit-identical** to the uninterrupted run.
///
/// The kill is delivered through the cooperative cancel flag
/// ([`WorkBudget::cancel_handle`]) exactly as an operator or signal handler
/// would deliver it, and the resume state travels through
/// [`Snapshot::to_text`] → [`checkpoint::load_snapshot`], so the test
/// covers the serialization layer, not just the in-memory resume path.
///
/// # Errors
/// Propagates checkpoint or replay errors — any of which is itself a
/// harness failure, since this pipeline injects no input faults.
pub fn run_kill_resume(seed: u64) -> Result<KillResumeReport, Error> {
    run_kill_resume_at(seed, Parallelism::Sequential)
}

/// [`run_kill_resume`] with both legs' sweeps running under an explicit
/// [`Parallelism`] setting. A parallel run must place its seeded kill at
/// the same boundary and resume to the same bits as the sequential one —
/// the suite diffs the reports across [`CHAOS_THREAD_MATRIX`].
///
/// # Errors
/// Same contract as [`run_kill_resume`].
pub fn run_kill_resume_at(seed: u64, parallelism: Parallelism) -> Result<KillResumeReport, Error> {
    use std::sync::atomic::Ordering;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x517c_c1b7_2722_0a95);

    // --- Provisioning leg -------------------------------------------------
    let (net, planner) = provisioning_fixture();
    let planner = planner.with_parallelism(parallelism);
    let k = 3;
    let weights = planner.weights();
    let rebuild = |risk: NodeRisk, shares_src: &Planner| {
        let shares = PopShares::from_shares(shares_src.shares().shares().to_vec());
        move |n: &Network| Planner::new(n, risk.clone(), shares.clone(), weights)
    };
    let uninterrupted = greedy_links(&net, &planner, k, rebuild(planner.risk().clone(), &planner));
    let total = uninterrupted.added.len();
    // Kill strictly before the run finishes so the resume leg is exercised.
    let provision_killed_after = 1 + rng.gen_range(0..total.saturating_sub(1).max(1));
    let budget = WorkBudget::unlimited();
    let cancel = budget.cancel_handle();
    let mut last_snapshot = String::new();
    let run = greedy_links_budgeted(
        &net,
        &planner,
        k,
        rebuild(planner.risk().clone(), &planner),
        &budget,
        |links| {
            // Checkpoint every iteration (what the CLI does), then deliver
            // the kill at the seeded one.
            last_snapshot =
                Snapshot::provision(net.name(), k, weights.lambda_h, weights.lambda_f, links)
                    .to_text();
            if links.added.len() == provision_killed_after {
                cancel.store(true, Ordering::Relaxed);
            }
        },
    );
    let provision_identical = match run {
        Budgeted::Partial { completed, .. } => {
            let loaded = checkpoint::load_snapshot(&last_snapshot)?;
            let SnapshotProgress::Provision(prior) = loaded.progress else {
                return Err(Error::SnapshotIntegrity {
                    reason: "provisioning snapshot decoded to a replay progress".into(),
                });
            };
            if prior != completed {
                false
            } else {
                let resumed = greedy_links_resume(
                    &net,
                    &planner,
                    k,
                    rebuild(planner.risk().clone(), &planner),
                    prior,
                    &WorkBudget::unlimited(),
                    |_| {},
                );
                let (resumed, stopped) = resumed.into_parts();
                stopped.is_none() && resumed == uninterrupted
            }
        }
        // Degenerate fixture (fewer than two links): nothing to kill.
        Budgeted::Complete(completed) => completed == uninterrupted,
    };

    // --- Replay leg -------------------------------------------------------
    let (net, planner) = replay_fixture();
    let planner = planner.with_parallelism(parallelism);
    let weights = planner.weights();
    let locations: Vec<GeoPoint> = net.pops().iter().map(|p| p.location).collect();
    let all: Vec<usize> = (0..net.pop_count()).collect();
    let raws = raw_advisories(Storm::Katrina, CHAOS_STRIDE)?;
    let clean = replay_raw_advisories(
        &planner,
        net.name(),
        &locations,
        Storm::Katrina.name(),
        &raws,
        &all,
        &all,
    )?;
    let replay_killed_after = 1 + rng.gen_range(0..raws.len().saturating_sub(1).max(1));
    let budget = WorkBudget::unlimited().with_max_work(replay_killed_after as u64);
    let run = replay_raw_advisories_budgeted(
        &planner,
        net.name(),
        &locations,
        Storm::Katrina.name(),
        &raws,
        &all,
        &all,
        Vec::new(),
        &budget,
        |_, _| {},
    )?;
    let replay_identical = match run {
        Budgeted::Partial {
            completed,
            resume_state,
            ..
        } => {
            let text = Snapshot::replay(
                net.name(),
                "katrina",
                CHAOS_STRIDE,
                weights.lambda_h,
                weights.lambda_f,
                &completed,
                resume_state.next_index,
            )
            .to_text();
            let loaded = checkpoint::load_snapshot(&text)?;
            let SnapshotProgress::Replay { replay, next_index } = loaded.progress else {
                return Err(Error::SnapshotIntegrity {
                    reason: "replay snapshot decoded to a provisioning progress".into(),
                });
            };
            if next_index != replay.ticks.len() {
                false
            } else {
                let resumed = replay_raw_advisories_budgeted(
                    &planner,
                    net.name(),
                    &locations,
                    Storm::Katrina.name(),
                    &raws,
                    &all,
                    &all,
                    replay.ticks,
                    &WorkBudget::unlimited(),
                    |_, _| {},
                )?;
                let (resumed, stopped) = resumed.into_parts();
                stopped.is_none() && resumed == clean
            }
        }
        Budgeted::Complete(completed) => completed == clean,
    };

    Ok(KillResumeReport {
        seed,
        provision_killed_after,
        provision_identical,
        replay_killed_after,
        replay_identical,
    })
}

/// Run [`run_kill_resume`] across `count` seeds rooted at `base_seed`,
/// each seed at every [`CHAOS_THREAD_MATRIX`] worker count; the returned
/// reports are the sequential ones.
///
/// # Errors
/// Propagates the first failing run.
///
/// # Panics
/// Panics when a parallel run's report diverges from the sequential one.
pub fn run_kill_resume_suite(base_seed: u64, count: usize) -> Result<Vec<KillResumeReport>, Error> {
    (0..count as u64)
        .map(|i| {
            let seed = base_seed.wrapping_add(i);
            let sequential = run_kill_resume_at(seed, Parallelism::Sequential)?;
            for &par in CHAOS_THREAD_MATRIX {
                if par.is_sequential() {
                    continue;
                }
                let parallel = run_kill_resume_at(seed, par)?;
                assert_eq!(
                    parallel, sequential,
                    "seed {seed}: kill/resume report diverged at {par}"
                );
            }
            Ok(sequential)
        })
        .collect()
}

// --- Scenario-fork fault harness ---------------------------------------------

/// Evidence from one [`run_fork_faults`] run over the scenario-fork engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ForkFaultReport {
    /// The seed that placed the mid-sweep kill.
    pub seed: u64,
    /// Scenarios evaluated before the N-1 sweep was killed.
    pub sweep_killed_after: usize,
    /// Whether the sweep resumed from its wire-format snapshot to bits
    /// identical with the uninterrupted run.
    pub sweep_identical: bool,
    /// Stranded pairs reported by the fork with every node deactivated.
    pub all_off_stranded: usize,
    /// Whether the all-nodes-off fork degraded correctly: zero routable
    /// pairs, every pair stranded, zero accumulated bit-risk, no panic.
    pub all_off_ok: bool,
    /// Whether the empty-delta fork aliased the base planner: same cost
    /// stamp and bit-identical exposure.
    pub empty_delta_ok: bool,
}

impl ForkFaultReport {
    /// The fork-fault invariant: every leg held.
    pub fn identical(&self) -> bool {
        self.sweep_identical && self.all_off_ok && self.empty_delta_ok
    }

    /// One-line summary for the CLI table.
    pub fn summary_line(&self) -> String {
        format!(
            "seed {:>4}  sweep killed@{:<3} identical {:<5}  all-off stranded {:>3} ok {:<5}  \
             empty-delta alias {}",
            self.seed,
            self.sweep_killed_after,
            self.sweep_identical,
            self.all_off_stranded,
            self.all_off_ok,
            self.empty_delta_ok,
        )
    }
}

/// Inject fork-level faults into the scenario engine: kill an N-1 sweep at
/// a seeded scenario and resume it through a wire-format snapshot, fork
/// with every node deactivated, and fork with an empty delta — asserting
/// bit-identical resume, all-stranded degradation, and base aliasing
/// respectively.
///
/// # Errors
/// Propagates sweep or checkpoint errors — any of which is itself a harness
/// failure, since this pipeline injects no input faults.
pub fn run_fork_faults(seed: u64) -> Result<ForkFaultReport, Error> {
    run_fork_faults_at(seed, Parallelism::Sequential)
}

/// [`run_fork_faults`] with the sweep fanned out under an explicit
/// [`Parallelism`] setting; the suite diffs reports across
/// [`CHAOS_THREAD_MATRIX`].
///
/// # Errors
/// Same contract as [`run_fork_faults`].
pub fn run_fork_faults_at(seed: u64, parallelism: Parallelism) -> Result<ForkFaultReport, Error> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2545_f491_4f6c_dd1d);

    // --- Fault: kill the N-1 sweep mid-run, resume from the snapshot ------
    let (net, planner) = provisioning_fixture();
    let planner = planner.with_parallelism(parallelism);
    let weights = planner.weights();
    let mode = SweepMode::N1;
    let clean = run_sweep(&planner, &net, mode)?;
    let total = scenario_specs(&net, mode).len();
    let sweep_killed_after = 1 + rng.gen_range(0..total.saturating_sub(1).max(1));
    let budget = WorkBudget::unlimited().with_max_work(sweep_killed_after as u64);
    let run = run_sweep_budgeted(&planner, &net, mode, None, &budget, |_, _| {})?;
    let sweep_identical = match run {
        Budgeted::Partial {
            completed,
            resume_state,
            ..
        } => {
            let text = Snapshot::sweep(
                net.name(),
                mode,
                weights.lambda_h,
                weights.lambda_f,
                completed.baseline,
                &completed.records,
                resume_state.next_index,
            )
            .to_text();
            let loaded = checkpoint::load_snapshot(&text)?;
            let SnapshotProgress::Sweep {
                baseline,
                records,
                next_index,
            } = loaded.progress
            else {
                return Err(Error::SnapshotIntegrity {
                    reason: "sweep snapshot decoded to another progress kind".into(),
                });
            };
            if next_index != records.len() {
                false
            } else {
                let resumed = run_sweep_budgeted(
                    &planner,
                    &net,
                    mode,
                    Some(SweepPrior { baseline, records }),
                    &WorkBudget::unlimited(),
                    |_, _| {},
                )?;
                let (resumed, stopped) = resumed.into_parts();
                stopped.is_none() && resumed == clean
            }
        }
        // Degenerate fixture (a single scenario): nothing to kill.
        Budgeted::Complete(completed) => completed == clean,
    };

    // --- Fault: fork with every node deactivated ---------------------------
    let n = net.pop_count();
    let all_off = (0..n).fold(ScenarioDelta::new(), |d, v| d.deactivate_node(v));
    let exp = ScenarioFork::fork(&planner, all_off).exposure();
    let all_off_stranded = exp.stranded_pairs;
    let all_off_ok = exp.routable_pairs == 0
        && exp.stranded_pairs == n * (n - 1) / 2
        && exp.bit_risk_total == 0.0;

    // --- Fault: fork with an empty delta -----------------------------------
    let base_exp = base_exposure(&planner);
    let fork = ScenarioFork::fork(&planner, ScenarioDelta::new());
    let fork_exp = fork.exposure();
    let empty_delta_ok = fork.is_base_alias()
        && fork.planner().cost_stamp() == planner.cost_stamp()
        && fork_exp.bit_risk_total.to_bits() == base_exp.bit_risk_total.to_bits()
        && fork_exp.routable_pairs == base_exp.routable_pairs
        && fork_exp.stranded_pairs == base_exp.stranded_pairs;

    Ok(ForkFaultReport {
        seed,
        sweep_killed_after,
        sweep_identical,
        all_off_stranded,
        all_off_ok,
        empty_delta_ok,
    })
}

/// Run [`run_fork_faults`] across `count` seeds rooted at `base_seed`, each
/// seed at every [`CHAOS_THREAD_MATRIX`] worker count; the returned reports
/// are the sequential ones.
///
/// # Errors
/// Propagates the first failing run.
///
/// # Panics
/// Panics when a parallel run's report diverges from the sequential one.
pub fn run_fork_fault_suite(base_seed: u64, count: usize) -> Result<Vec<ForkFaultReport>, Error> {
    (0..count as u64)
        .map(|i| {
            let seed = base_seed.wrapping_add(i);
            let sequential = run_fork_faults_at(seed, Parallelism::Sequential)?;
            for &par in CHAOS_THREAD_MATRIX {
                if par.is_sequential() {
                    continue;
                }
                let parallel = run_fork_faults_at(seed, par)?;
                assert_eq!(
                    parallel, sequential,
                    "seed {seed}: fork-fault report diverged at {par}"
                );
            }
            Ok(sequential)
        })
        .collect()
}

/// Connection-level fault kinds the serve daemon must absorb without
/// process exit (the fourth harness extension — transport chaos).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// Random non-protocol bytes terminated by a newline.
    GarbageBytes,
    /// A valid request frame cut mid-document, then disconnect.
    TruncatedFrame,
    /// A complete request, then disconnect before reading the response.
    MidRequestDisconnect,
    /// A partial frame, then the client stalls without ever finishing it.
    StalledWriter,
    /// A frame nested deeper than the wire parse limit allows.
    DeepNesting,
    /// A single frame larger than the connection's frame cap.
    OversizedFrame,
}

impl ConnFault {
    /// Stable kebab-case name (used in reports and counter assertions).
    pub fn name(self) -> &'static str {
        match self {
            ConnFault::GarbageBytes => "garbage-bytes",
            ConnFault::TruncatedFrame => "truncated-frame",
            ConnFault::MidRequestDisconnect => "mid-request-disconnect",
            ConnFault::StalledWriter => "stalled-writer",
            ConnFault::DeepNesting => "deep-nesting",
            ConnFault::OversizedFrame => "oversized-frame",
        }
    }

    /// The obs counter this fault must drive when thrown at a live daemon.
    pub fn expected_counter(self) -> &'static str {
        match self {
            ConnFault::GarbageBytes | ConnFault::DeepNesting => "serve_frames_malformed",
            ConnFault::TruncatedFrame => "serve_frames_truncated",
            // The request itself is well-formed; the daemon must still have
            // executed it (and survived the dead peer on write-back).
            ConnFault::MidRequestDisconnect => "serve_requests_total",
            ConnFault::StalledWriter => "serve_clients_stalled",
            ConnFault::OversizedFrame => "serve_frames_oversized",
        }
    }
}

/// All connection fault kinds, in suite order.
pub const ALL_CONN_FAULTS: &[ConnFault] = &[
    ConnFault::GarbageBytes,
    ConnFault::TruncatedFrame,
    ConnFault::MidRequestDisconnect,
    ConnFault::StalledWriter,
    ConnFault::DeepNesting,
    ConnFault::OversizedFrame,
];

/// A seed-derived adversarial client script for one connection: the exact
/// bytes written and how the client behaves afterwards. The serve chaos
/// suite replays these against a live daemon; everything is a pure
/// function of the seed, so a failing plan replays exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnFaultPlan {
    /// The driving seed.
    pub seed: u64,
    /// Which fault this connection injects.
    pub fault: ConnFault,
    /// The bytes the chaotic client writes before its fault behavior.
    pub payload: Vec<u8>,
    /// Whether the client reads responses before closing (`false` models
    /// a peer that vanishes or stalls).
    pub reads_response: bool,
}

/// The frame cap the serve chaos suite configures, so
/// [`ConnFault::OversizedFrame`] payloads are reliably over it without
/// being expensive to generate.
pub const CHAOS_FRAME_CAP: usize = 4 << 10;

/// The wire nesting limit the suite assumes (matches
/// `riskroute_json::ParseLimits::strict`).
pub const CHAOS_WIRE_DEPTH: usize = 32;

impl ConnFaultPlan {
    /// Derive the plan for `seed` deterministically.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51ed_270b_8d3c_91a7);
        let fault = ALL_CONN_FAULTS[rng.gen_range(0..ALL_CONN_FAULTS.len())];
        let base = br#"{"op":"ratio","network":"Sprint"}"#;
        let (payload, reads_response) = match fault {
            ConnFault::GarbageBytes => {
                let len = rng.gen_range(16..200usize);
                let mut bytes: Vec<u8> = (0..len)
                    .map(|_| rng.gen_range(0x21..0x7fusize) as u8)
                    .collect();
                // Never start with 'G': the daemon multiplexes an HTTP
                // scrape endpoint on a "GET " prefix, and this fault must
                // exercise the NDJSON parse path.
                bytes[0] = b'?';
                bytes.push(b'\n');
                (bytes, true)
            }
            ConnFault::TruncatedFrame => {
                let cut = rng.gen_range(1..base.len());
                (base[..cut].to_vec(), false)
            }
            ConnFault::MidRequestDisconnect => {
                let mut bytes = base.to_vec();
                bytes.push(b'\n');
                (bytes, false)
            }
            ConnFault::StalledWriter => {
                let cut = rng.gen_range(1..base.len());
                (base[..cut].to_vec(), false)
            }
            ConnFault::DeepNesting => {
                let depth = CHAOS_WIRE_DEPTH + 1 + rng.gen_range(0..32usize);
                let mut doc = String::from(r#"{"op":"#);
                doc.push_str(&"[".repeat(depth));
                doc.push('0');
                doc.push_str(&"]".repeat(depth));
                doc.push('}');
                doc.push('\n');
                (doc.into_bytes(), true)
            }
            ConnFault::OversizedFrame => {
                let pad = CHAOS_FRAME_CAP + rng.gen_range(1..1024usize);
                let mut doc = String::from(r#"{"op":"ping","pad":""#);
                doc.push_str(&"x".repeat(pad));
                doc.push_str("\"}\n");
                (doc.into_bytes(), true)
            }
        };
        ConnFaultPlan {
            seed,
            fault,
            payload,
            reads_response,
        }
    }

    /// A deterministic suite of `count` plans seeded `base_seed..`,
    /// extended so every [`ConnFault`] kind appears at least once (tail
    /// plans use seeds `base_seed + 1000 + kind_index`).
    pub fn suite(base_seed: u64, count: usize) -> Vec<ConnFaultPlan> {
        let mut plans: Vec<ConnFaultPlan> = (0..count as u64)
            .map(|i| ConnFaultPlan::from_seed(base_seed + i))
            .collect();
        for (i, &fault) in ALL_CONN_FAULTS.iter().enumerate() {
            if !plans.iter().any(|p| p.fault == fault) {
                let mut extra = ConnFaultPlan::from_seed(base_seed + 1000 + i as u64);
                // from_seed picks the fault from the seed; force the kind
                // while keeping the payload deterministic for it.
                if extra.fault != fault {
                    extra = ConnFaultPlan::forced(base_seed + 1000 + i as u64, fault);
                }
                plans.push(extra);
            }
        }
        plans
    }

    /// Derive a plan for a specific fault kind (payload still seeded).
    pub fn forced(seed: u64, fault: ConnFault) -> Self {
        // Scan nearby derived seeds until the kind matches; bounded because
        // the kind draw is uniform over six variants.
        for probe in 0..1024u64 {
            let plan = ConnFaultPlan::from_seed(seed.wrapping_add(probe.wrapping_mul(7919)));
            if plan.fault == fault {
                return ConnFaultPlan { seed, ..plan };
            }
        }
        // Statistically unreachable (p ≈ (5/6)^1024); fall back to the
        // plain derivation so callers still get a valid plan.
        ConnFaultPlan::from_seed(seed)
    }

    /// One-line description for suite logs.
    pub fn summary_line(&self) -> String {
        format!(
            "conn seed {:>4}  fault {:<22}  payload {:>5} B  reads_response {}",
            self.seed,
            self.fault.name(),
            self.payload.len(),
            self.reads_response
        )
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn plans_are_deterministic_and_distinct() {
        let a = FaultPlan::from_seed(7);
        let b = FaultPlan::from_seed(7);
        assert_eq!(a, b);
        let c = FaultPlan::from_seed(8);
        assert_ne!(a, c);
        for p in [&a, &c] {
            assert!(p.drop_link_fraction > 0.0 && p.drop_link_fraction < 0.5);
            assert!(p.poison_cost_fraction > 0.0 && p.poison_cost_fraction < 0.5);
        }
    }

    #[test]
    fn suite_derives_sequential_seeds() {
        let plans = FaultPlan::suite(100, 3);
        assert_eq!(plans.len(), 3);
        assert_eq!(plans[0].seed, 100);
        assert_eq!(plans[2].seed, 102);
    }

    #[test]
    fn single_run_is_reproducible() {
        let plan = FaultPlan::from_seed(3);
        let a = run_chaos(&plan).unwrap();
        let b = run_chaos(&plan).unwrap();
        assert_eq!(a, b, "same plan, same report");
        assert!(a.finite_ratios);
        assert!(a.total_ticks > 0);
        assert!(violations(&a).is_empty(), "{:?}", violations(&a));
    }

    #[test]
    fn corruption_defeats_the_parser_often_enough() {
        // Garbling is probabilistic character noise; make sure it actually
        // produces degraded ticks somewhere across a few seeds (otherwise
        // the harness would silently stop exercising the degraded path).
        let any_degraded = (0..4)
            .map(|s| run_chaos(&FaultPlan::from_seed(s)).unwrap())
            .any(|r| r.degraded_ticks > 0);
        assert!(any_degraded, "no seed produced a degraded tick");
    }

    #[test]
    fn dropping_links_reports_them() {
        let plan = FaultPlan {
            seed: 11,
            drop_link_fraction: 0.35,
            garble_advisory_fraction: 0.0,
            truncate_advisory_fraction: 0.0,
            delete_event_fraction: 0.0,
            zero_population_fraction: 0.0,
            poison_cost_fraction: 0.1,
            snapshot_fault: SnapshotFault::None,
        };
        let r = run_chaos(&plan).unwrap();
        assert!(r.dropped_links > 0);
        assert_eq!(r.corrupted_advisories, 0);
        assert_eq!(r.degraded_ticks, 0, "clean feed, no degraded ticks");
        assert!(r.snapshot_contract_held, "clean snapshot must round-trip");
    }

    fn plan_with_snapshot_fault(seed: u64, fault: SnapshotFault) -> FaultPlan {
        FaultPlan {
            snapshot_fault: fault,
            ..FaultPlan::from_seed(seed)
        }
    }

    #[test]
    fn truncated_snapshots_error_typed_never_panic() {
        for seed in 0..4 {
            let r = run_chaos(&plan_with_snapshot_fault(
                seed,
                SnapshotFault::TruncateBytes,
            ))
            .unwrap();
            assert_eq!(r.snapshot_fault, "truncate-bytes");
            assert!(r.snapshot_contract_held, "seed {seed}: untyped rejection");
            assert!(violations(&r).is_empty(), "{:?}", violations(&r));
        }
    }

    #[test]
    fn stale_version_snapshots_error_typed_and_keep_the_job() {
        for seed in 0..4 {
            let r =
                run_chaos(&plan_with_snapshot_fault(seed, SnapshotFault::StaleVersion)).unwrap();
            assert_eq!(r.snapshot_fault, "stale-version");
            assert!(r.snapshot_contract_held, "seed {seed}: untyped rejection");
            assert!(
                r.snapshot_job_recovered,
                "seed {seed}: job must survive a stale header"
            );
            assert!(violations(&r).is_empty(), "{:?}", violations(&r));
        }
    }

    #[test]
    fn kill_resume_is_bit_identical_across_seeds() {
        // Acceptance criterion: ≥ 4 seeds, provisioning interrupted at a
        // seeded iteration, resumed from its snapshot, bit-identical output.
        let reports = run_kill_resume_suite(0, 5).unwrap();
        assert_eq!(reports.len(), 5);
        for r in &reports {
            assert!(r.identical(), "{}", r.summary_line());
            assert!(r.provision_killed_after >= 1);
            assert!(r.replay_killed_after >= 1);
        }
        // The kill point actually moves with the seed.
        assert!(
            reports
                .iter()
                .any(|r| r.replay_killed_after != reports[0].replay_killed_after),
            "seeded kill points must vary"
        );
    }

    #[test]
    fn chaos_reports_are_thread_count_invariant() {
        let plan = FaultPlan::from_seed(5);
        let seq = run_chaos_at(&plan, Parallelism::Sequential).unwrap();
        let par = run_chaos_at(&plan, Parallelism::Threads(2)).unwrap();
        assert_eq!(seq, par, "threads dimension must not change the report");
    }

    #[test]
    fn kill_resume_is_thread_count_invariant() {
        let seq = run_kill_resume_at(9, Parallelism::Sequential).unwrap();
        let par = run_kill_resume_at(9, Parallelism::Threads(2)).unwrap();
        assert_eq!(seq, par);
        assert!(seq.identical());
    }

    #[test]
    fn kill_resume_is_reproducible() {
        let a = run_kill_resume(2).unwrap();
        let b = run_kill_resume(2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn kill_resume_of_forked_sweeps_is_bit_identical_across_seeds() {
        let reports = run_fork_fault_suite(0, 4).unwrap();
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert!(r.identical(), "{}", r.summary_line());
            assert!(r.sweep_killed_after >= 1);
        }
        // The kill point actually moves with the seed.
        assert!(
            reports
                .iter()
                .any(|r| r.sweep_killed_after != reports[0].sweep_killed_after),
            "seeded kill points must vary"
        );
    }

    #[test]
    fn fork_fault_reports_are_thread_count_invariant() {
        let seq = run_fork_faults_at(6, Parallelism::Sequential).unwrap();
        let par = run_fork_faults_at(6, Parallelism::Threads(2)).unwrap();
        assert_eq!(seq, par);
        assert!(seq.identical());
    }

    #[test]
    fn fork_faults_are_reproducible() {
        let a = run_fork_faults(1).unwrap();
        let b = run_fork_faults(1).unwrap();
        assert_eq!(a, b);
    }
}
