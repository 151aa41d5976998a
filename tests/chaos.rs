//! Seeded chaos-injection harness.
//!
//! A [`FaultPlan`] is a deterministic, seed-derived bundle of faults —
//! dropped links, garbled or truncated advisory text, deleted hazard
//! events, zeroed population blocks, non-finite entry costs and a damaged
//! checkpoint snapshot — that [`run_chaos`] injects into a full corpus
//! pipeline (topology → population → hazards → planner → disaster replay →
//! ratio aggregation). The degraded-mode contract it checks:
//!
//! - **No panic**: every stage completes under every plan.
//! - **Defined degradation**: corrupted advisories yield *flagged* degraded
//!   ticks (never dropped ticks), partitions yield *counted* stranded pairs
//!   (never aborted sweeps), poisoned entry costs *isolate* their PoPs
//!   (never crash the search), and every reported ratio stays finite.
//! - **Typed snapshot damage**: a truncated or stale-version snapshot is
//!   rejected with a typed error, and the fallback loader still recovers
//!   the job line whenever it survives.
//!
//! The kill/resume test kills provisioning, replay and an N-1 sweep at a
//! seeded stage, round-trips the completed prefix through the snapshot wire
//! format, resumes, and requires the result to be **bit-identical** to the
//! uninterrupted run.
//!
//! Every result must also be identical at each [`CHAOS_THREAD_MATRIX`]
//! worker count: a divergence is a data race or a broken ordered
//! reduction. Everything is keyed off the seed, so a failing plan replays
//! exactly with `FaultPlan::from_seed(seed)`.

use riskroute::budget::{Budgeted, WorkBudget};
use riskroute::checkpoint::{self, LoadOutcome, Snapshot, SnapshotJob, SnapshotProgress};
use riskroute::engine::{self, CsrGraph};
use riskroute::provisioning::{greedy_links, greedy_links_budgeted, GreedyLinks};
use riskroute::replay::{
    raw_advisories, replay_raw_advisories, replay_raw_advisories_budgeted, RawAdvisory,
};
use riskroute::routing::Adjacency;
use riskroute::{
    run_sweep, run_sweep_budgeted, scenario_specs, NodeRisk, Parallelism, Planner, RiskWeights,
    SweepMode, SweepPrior,
};
use riskroute_forecast::{Storm, ALL_STORMS};
use riskroute_geo::GeoPoint;
use riskroute_hazard::HistoricalRisk;
use riskroute_population::{PopShares, PopulationModel};
use riskroute_rng::StdRng;
use riskroute_topology::{Corpus, Network, NetworkKind, Pop};
use std::fmt::Debug;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Replay stride (every 4th advisory — enough ticks to exercise the storm's
/// approach, peak, and decay without dominating the suite's runtime).
const CHAOS_STRIDE: usize = 4;
/// Synthetic census blocks per plan.
const CHAOS_BLOCKS: usize = 800;
/// Hazard events per kind before deletion faults.
const CHAOS_EVENT_CAP: usize = 60;
/// Links the kill/resume provisioning leg asks for.
const PROVISION_K: usize = 3;

/// Worker counts every run is repeated at: one worker plus a small pool
/// (2 workers keeps chunk hand-offs and steals in play without starving
/// CI machines).
const CHAOS_THREAD_MATRIX: &[Parallelism] = &[Parallelism::Sequential, Parallelism::Threads(2)];

/// Run `run` at every [`CHAOS_THREAD_MATRIX`] setting, assert the results
/// are equal, and return the sequential one.
fn at_every_thread_count<T: PartialEq + Debug>(
    seed: u64,
    what: &str,
    run: impl Fn(Parallelism) -> T,
) -> T {
    let (&first, rest) = CHAOS_THREAD_MATRIX.split_first().expect("nonempty matrix");
    let result = run(first);
    for &par in rest {
        assert_eq!(run(par), result, "seed {seed}: {what} diverged at {par}");
    }
    result
}

/// A fault injected into the checkpoint snapshot after the replay runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SnapshotFault {
    /// Leave the snapshot intact (it must then load and round-trip).
    None,
    /// Truncate the snapshot at a seeded byte offset (a crash mid-`write`
    /// without the atomic-rename discipline).
    TruncateBytes,
    /// Rewrite the header to an unsupported future format version.
    StaleVersion,
}

impl SnapshotFault {
    fn name(self) -> &'static str {
        match self {
            SnapshotFault::None => "none",
            SnapshotFault::TruncateBytes => "truncate-bytes",
            SnapshotFault::StaleVersion => "stale-version",
        }
    }
}

/// A deterministic, seed-derived bundle of faults for one pipeline run.
#[derive(Debug, PartialEq)]
struct FaultPlan {
    /// Master seed; all fault placement derives from it.
    seed: u64,
    /// Fraction of the chosen network's links to drop (may partition it).
    drop_link_fraction: f64,
    /// Fraction of advisory texts to garble (character noise).
    garble_advisory_fraction: f64,
    /// Fraction of advisory texts to truncate mid-sentence.
    truncate_advisory_fraction: f64,
    /// Fraction of each hazard corpus' events to delete.
    delete_event_fraction: f64,
    /// Fraction of PoP population shares to zero out.
    zero_population_fraction: f64,
    /// Fraction of PoPs whose entry cost is poisoned non-finite.
    poison_cost_fraction: f64,
    /// Corruption applied to the run's checkpoint snapshot.
    snapshot_fault: SnapshotFault,
}

impl FaultPlan {
    /// Derive a plan from a seed. Intensities are wide enough to partition
    /// topologies and blind the forecast, but no fraction passes ~0.45: a
    /// plan that deletes *everything* tests vacuous behaviour, not
    /// degradation.
    fn from_seed(seed: u64) -> Self {
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
}

/// What one chaos run did and how the pipeline degraded.
#[derive(Debug, PartialEq)]
struct ChaosReport {
    seed: u64,
    /// Network the faults were injected into.
    network: String,
    /// Storm replayed under the faults.
    storm: String,
    dropped_links: usize,
    /// Advisory texts corrupted (garbled + truncated).
    corrupted_advisories: usize,
    /// Hazard events deleted across all corpora.
    deleted_events: usize,
    zeroed_blocks: usize,
    /// PoPs with poisoned (non-finite) entry costs.
    poisoned_pops: usize,
    /// Ticks the replay produced (always the full advisory count).
    total_ticks: usize,
    /// Ticks that ran in degraded (forecast-dropped) mode.
    degraded_ticks: usize,
    /// Stranded pairs in the post-storm ratio sweep.
    stranded_pairs: usize,
    /// PoPs isolated by the poisoned-cost search.
    isolated_pops: usize,
    finite_ratios: bool,
    /// Which snapshot corruption was injected (stable name).
    snapshot_fault: String,
    /// A clean snapshot loaded and round-tripped bit-identically, or a
    /// corrupted one was rejected with a typed error.
    snapshot_contract_held: bool,
    /// The job line was still recoverable from the (possibly corrupted)
    /// snapshot, enabling the fresh-run fallback.
    snapshot_job_recovered: bool,
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

/// Drop a fraction of links from `network`.
fn drop_links(network: &Network, fraction: f64, rng: &mut StdRng) -> (Network, usize) {
    let doomed = pick_indices(rng, network.link_count(), fraction);
    let keep: Vec<(usize, usize)> = network
        .links()
        .iter()
        .enumerate()
        .filter(|(i, _)| !doomed.contains(i))
        .map(|(_, l)| (l.a, l.b))
        .collect();
    let degraded = Network::new(
        network.name(),
        network.kind(),
        network.pops().to_vec(),
        keep,
    )
    .expect("dropping links from a valid network keeps it valid");
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

/// Run the full corpus pipeline under one fault plan with its sweeps at
/// `parallelism`, asserting the degraded-mode invariants along the way.
fn run_chaos(plan: &FaultPlan, parallelism: Parallelism) -> ChaosReport {
    let mut rng = StdRng::seed_from_u64(plan.seed);

    // --- Substrate: corpus topology, population, hazards ----------------
    let corpus = Corpus::standard(plan.seed);
    let regionals: Vec<&Network> = corpus
        .all_networks()
        .filter(|n| n.kind() == NetworkKind::Regional)
        .collect();
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
    let mut raws = raw_advisories(storm, CHAOS_STRIDE).expect("advisory feed");
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
    )
    .expect("a corrupted feed degrades, never errors");
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
    // The planner's own graph: the same CSR `Planner::new` builds.
    let csr = CsrGraph::from_adjacency(&Adjacency::from_links(
        network.pop_count(),
        network.links().iter().map(|l| (l.a, l.b, l.miles)),
    ));
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
    let snapshot = Snapshot {
        job: SnapshotJob::Replay {
            network: network.name().to_string(),
            storm: storm.name().to_lowercase(),
            stride: CHAOS_STRIDE,
            lambda_h: weights.lambda_h,
            lambda_f: weights.lambda_f,
        },
        progress: SnapshotProgress::Replay {
            next_index: replay.ticks.len(),
            replay: replay.clone(),
        },
    };
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

    ChaosReport {
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
    }
}

/// The chaos reports of `seeds`, each checked equal at every worker count.
fn chaos_reports(seeds: Range<u64>) -> Vec<ChaosReport> {
    seeds
        .map(|seed| {
            at_every_thread_count(seed, "chaos report", |par| {
                run_chaos(&FaultPlan::from_seed(seed), par)
            })
        })
        .collect()
}

/// Check a completed report against the defined-degradation contract;
/// returns the violations (empty = clean).
fn violations(report: &ChaosReport) -> Vec<String> {
    let mut v = Vec::new();
    if !report.finite_ratios {
        v.push("non-finite ratio reported".to_string());
    }
    if report.degraded_ticks > report.corrupted_advisories {
        v.push(format!(
            "{} degraded ticks but only {} corrupted advisories",
            report.degraded_ticks, report.corrupted_advisories
        ));
    }
    if report.total_ticks == 0 {
        v.push("replay produced no ticks".to_string());
    }
    if !report.snapshot_contract_held {
        v.push(format!(
            "snapshot loader broke its contract under fault {:?}",
            report.snapshot_fault
        ));
    }
    if report.snapshot_fault == SnapshotFault::StaleVersion.name() && !report.snapshot_job_recovered
    {
        v.push("stale-version snapshot must still yield its job for the fresh-run fallback".into());
    }
    v
}

fn assert_no_violations(reports: &[ChaosReport]) {
    for r in reports {
        let v = violations(r);
        assert!(v.is_empty(), "seed {}: {v:?}\n{r:?}", r.seed);
    }
}

#[test]
fn plans_are_deterministic_and_distinct() {
    let a = FaultPlan::from_seed(7);
    assert_eq!(a, FaultPlan::from_seed(7));
    let c = FaultPlan::from_seed(8);
    assert_ne!(a, c);
    for p in [&a, &c] {
        assert!(p.drop_link_fraction > 0.0 && p.drop_link_fraction < 0.5);
        assert!(p.poison_cost_fraction > 0.0 && p.poison_cost_fraction < 0.5);
    }
}

#[test]
fn ten_plans_degrade_defined_and_exercise_every_path() {
    // "Completing" IS the no-panic invariant: every plan drives the real
    // pipeline end to end, so a panic anywhere aborts this test.
    let reports = chaos_reports(0..10);
    assert_no_violations(&reports);
    for r in &reports {
        assert!(r.degraded_ticks <= r.total_ticks, "{r:?}");
    }
    // The plans are genuinely distinct fault bundles, not one plan rerun.
    let plans: Vec<FaultPlan> = (0..10).map(FaultPlan::from_seed).collect();
    for (i, a) in plans.iter().enumerate() {
        for b in &plans[i + 1..] {
            assert_ne!(a, b, "plans {} and {} coincide", a.seed, b.seed);
        }
    }
    // Otherwise the invariants above pass vacuously.
    assert!(
        reports
            .iter()
            .any(|r| r.stranded_pairs > 0 || r.isolated_pops > 0),
        "no seed partitioned or isolated anything"
    );
    assert!(
        reports.iter().all(|r| r.corrupted_advisories > 0),
        "a plan failed to corrupt any advisory"
    );
    assert!(
        reports.iter().all(|r| r.dropped_links > 0),
        "a plan failed to drop any link"
    );
}

#[test]
fn suite_is_deterministic_across_runs() {
    assert_eq!(
        chaos_reports(50..52),
        chaos_reports(50..52),
        "same seeds must reproduce identical reports"
    );
}

#[test]
fn ci_fault_plans_hold_every_invariant() {
    // The fault plans CI has always run (seeds 42..49).
    assert_no_violations(&chaos_reports(42..50));
}

#[test]
fn corruption_defeats_the_parser_often_enough() {
    // Garbling is probabilistic character noise; make sure it actually
    // produces degraded ticks somewhere across a few seeds (otherwise the
    // harness would silently stop exercising the degraded path).
    let any_degraded = (0..4)
        .map(|s| run_chaos(&FaultPlan::from_seed(s), Parallelism::Sequential))
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
    let r = run_chaos(&plan, Parallelism::Sequential);
    assert!(r.dropped_links > 0);
    assert_eq!(r.corrupted_advisories, 0);
    assert_eq!(r.degraded_ticks, 0, "clean feed, no degraded ticks");
    assert!(r.snapshot_contract_held, "clean snapshot must round-trip");
}

#[test]
fn damaged_snapshots_error_typed_never_panic() {
    for fault in [SnapshotFault::TruncateBytes, SnapshotFault::StaleVersion] {
        for seed in 0..4 {
            let plan = FaultPlan {
                snapshot_fault: fault,
                ..FaultPlan::from_seed(seed)
            };
            let r = run_chaos(&plan, Parallelism::Sequential);
            assert_eq!(r.snapshot_fault, fault.name());
            // Includes the stale-version job-recovery check.
            assert_no_violations(&[r]);
        }
    }
}

// --- Kill/resume crash consistency ------------------------------------------

/// One kill/resume leg's evidence.
#[derive(Debug, PartialEq)]
struct Leg {
    /// Stages completed before the kill.
    killed_after: usize,
    /// Whether the resumed run reproduced the uninterrupted one bit for bit.
    identical: bool,
}

/// The seeded stage after which a leg is killed: in `1..stages`, so the
/// resume always has work left.
fn kill_point(rng: &mut StdRng, stages: usize) -> usize {
    1 + rng.gen_range(0..stages.saturating_sub(1).max(1))
}

/// The stream the provisioning and replay legs draw their kill points
/// from, provisioning first.
fn provision_replay_kills(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x517c_c1b7_2722_0a95)
}

/// Write `progress` as a snapshot of `job` and load it back, so every leg
/// resumes through the wire format, not just the in-memory path.
fn round_trip(job: SnapshotJob, progress: SnapshotProgress) -> SnapshotProgress {
    let text = Snapshot { job, progress }.to_text();
    checkpoint::load_snapshot(&text)
        .expect("a fresh snapshot loads")
        .progress
}

fn fixture_pop(name: &str, lat: f64, lon: f64) -> Pop {
    Pop {
        name: name.into(),
        location: GeoPoint::new(lat, lon).expect("valid fixture coordinates"),
    }
}

/// A horseshoe-with-gap topology rich enough to admit several greedy links,
/// with one risky PoP forcing detours.
fn horseshoe_fixture(parallelism: Parallelism) -> (Network, Planner) {
    let net = Network::new(
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
    )
    .expect("static fixture is valid");
    let risk = NodeRisk::new(vec![0.0, 0.0, 2e-3, 0.0, 0.0, 0.0], vec![0.0; 6]);
    let shares = PopShares::from_shares(vec![1.0 / 6.0; 6]);
    let planner = Planner::new(&net, risk, shares, RiskWeights::historical_only(1e5))
        .with_parallelism(parallelism);
    (net, planner)
}

/// Kill greedy provisioning through the cooperative cancel flag, exactly as
/// an operator or signal handler would, checkpointing every iteration as
/// the CLI does.
fn provision_leg(seed: u64, parallelism: Parallelism) -> Leg {
    let (net, planner) = horseshoe_fixture(parallelism);
    let weights = planner.weights();
    let rebuild = || {
        let risk = planner.risk().clone();
        let shares = PopShares::from_shares(planner.shares().shares().to_vec());
        move |n: &Network| Planner::new(n, risk.clone(), shares.clone(), weights)
    };
    let uninterrupted = greedy_links(&net, &planner, PROVISION_K, rebuild());
    assert_eq!(
        uninterrupted.added.len(),
        PROVISION_K,
        "fixture admits k links"
    );
    let killed_after = kill_point(&mut provision_replay_kills(seed), PROVISION_K);
    let cancel = Arc::new(AtomicBool::new(false));
    let budget = WorkBudget::unlimited().with_cancel(Arc::clone(&cancel));
    let mut checkpointed: Option<GreedyLinks> = None;
    let run = greedy_links_budgeted(
        &net,
        &planner,
        PROVISION_K,
        rebuild(),
        None,
        &budget,
        |links| {
            checkpointed = Some(links.clone());
            if links.added.len() == killed_after {
                cancel.store(true, Ordering::Relaxed);
            }
        },
    );
    let Budgeted::Partial { completed, .. } = run else {
        panic!("seed {seed}: the kill after link {killed_after} did not stop provisioning");
    };
    let job = SnapshotJob::Provision {
        network: net.name().to_string(),
        k: PROVISION_K,
        lambda_h: weights.lambda_h,
        lambda_f: weights.lambda_f,
    };
    let last = checkpointed.expect("a checkpoint before the kill");
    let SnapshotProgress::Provision(prior) = round_trip(job, SnapshotProgress::Provision(last))
    else {
        panic!("provisioning snapshot decoded to another progress kind");
    };
    let identical = prior == completed && {
        let (resumed, stopped) = greedy_links_budgeted(
            &net,
            &planner,
            PROVISION_K,
            rebuild(),
            Some(prior),
            &WorkBudget::unlimited(),
            |_| {},
        )
        .into_parts();
        stopped.is_none() && resumed == uninterrupted
    };
    Leg {
        killed_after,
        identical,
    }
}

/// Kill a Katrina replay over a Gulf-coast diamond with a work cap.
fn replay_leg(seed: u64, parallelism: Parallelism) -> Leg {
    let net = Network::new(
        "chaos-gulf",
        NetworkKind::Regional,
        vec![
            fixture_pop("Houston", 29.76, -95.37),
            fixture_pop("Little Rock", 34.75, -92.29),
            fixture_pop("New Orleans", 29.95, -90.07),
            fixture_pop("Atlanta", 33.75, -84.39),
        ],
        vec![(0, 1), (1, 3), (0, 2), (2, 3)],
    )
    .expect("static fixture is valid");
    let n = net.pop_count();
    let planner = Planner::new(
        &net,
        NodeRisk::new(vec![0.0; n], vec![0.0; n]),
        PopShares::from_shares(vec![1.0 / n as f64; n]),
        RiskWeights::PAPER,
    )
    .with_parallelism(parallelism);
    let weights = planner.weights();
    let locations: Vec<GeoPoint> = net.pops().iter().map(|p| p.location).collect();
    let all: Vec<usize> = (0..n).collect();
    let raws = raw_advisories(Storm::Katrina, CHAOS_STRIDE).expect("advisory feed");
    let replay = |prior, budget: &WorkBudget| {
        let storm = Storm::Katrina.name();
        replay_raw_advisories_budgeted(
            &planner,
            net.name(),
            &locations,
            storm,
            &raws,
            &all,
            &all,
            prior,
            budget,
            |_| {},
        )
        .expect("a clean feed replays")
    };
    let clean = replay_raw_advisories(
        &planner,
        net.name(),
        &locations,
        Storm::Katrina.name(),
        &raws,
        &all,
        &all,
    )
    .expect("a clean feed replays");
    let mut kills = provision_replay_kills(seed);
    kill_point(&mut kills, PROVISION_K); // the provisioning leg's draw
    let killed_after = kill_point(&mut kills, raws.len());
    let budget = WorkBudget::unlimited().with_max_work(killed_after as u64);
    let Budgeted::Partial { completed, .. } = replay(Vec::new(), &budget) else {
        panic!("seed {seed}: a {killed_after}-tick budget did not stop the replay");
    };
    let job = SnapshotJob::Replay {
        network: net.name().to_string(),
        storm: "katrina".into(),
        stride: CHAOS_STRIDE,
        lambda_h: weights.lambda_h,
        lambda_f: weights.lambda_f,
    };
    let progress = SnapshotProgress::Replay {
        next_index: completed.ticks.len(),
        replay: completed,
    };
    let SnapshotProgress::Replay {
        replay: prior,
        next_index,
    } = round_trip(job, progress)
    else {
        panic!("replay snapshot decoded to another progress kind");
    };
    let identical = next_index == prior.ticks.len() && {
        let (resumed, stopped) = replay(prior.ticks, &WorkBudget::unlimited()).into_parts();
        stopped.is_none() && resumed == clean
    };
    Leg {
        killed_after,
        identical,
    }
}

/// Kill an N-1 scenario-fork sweep of the horseshoe with a work cap.
fn sweep_leg(seed: u64, parallelism: Parallelism) -> Leg {
    let (net, planner) = horseshoe_fixture(parallelism);
    let weights = planner.weights();
    let mode = SweepMode::N1;
    let clean = run_sweep(&planner, &net, mode).expect("sweep runs");
    let mut kills = StdRng::seed_from_u64(seed ^ 0x2545_f491_4f6c_dd1d);
    let killed_after = kill_point(&mut kills, scenario_specs(&net, mode).len());
    let budget = WorkBudget::unlimited().with_max_work(killed_after as u64);
    let run = run_sweep_budgeted(&planner, &net, mode, None, &budget, |_| {}).expect("sweep runs");
    let Budgeted::Partial { completed, .. } = run else {
        panic!("seed {seed}: a {killed_after}-scenario budget did not stop the sweep");
    };
    let job = SnapshotJob::Sweep {
        network: net.name().to_string(),
        mode: mode.label().to_string(),
        samples: mode.samples(),
        seed: mode.seed(),
        lambda_h: weights.lambda_h,
        lambda_f: weights.lambda_f,
    };
    let progress = SnapshotProgress::Sweep {
        baseline: completed.baseline,
        next_index: completed.records.len(),
        records: completed.records,
    };
    let SnapshotProgress::Sweep {
        baseline,
        records,
        next_index,
    } = round_trip(job, progress)
    else {
        panic!("sweep snapshot decoded to another progress kind");
    };
    let identical = next_index == records.len() && {
        let prior = SweepPrior { baseline, records };
        let (resumed, stopped) = run_sweep_budgeted(
            &planner,
            &net,
            mode,
            Some(prior),
            &WorkBudget::unlimited(),
            |_| {},
        )
        .expect("sweep resumes")
        .into_parts();
        stopped.is_none() && resumed == clean
    };
    Leg {
        killed_after,
        identical,
    }
}

#[test]
fn kill_resume_is_bit_identical_across_seeds() {
    type Run = fn(u64, Parallelism) -> Leg;
    let legs: [(&str, Run, Range<u64>); 3] = [
        ("provisioning", provision_leg, 0..5),
        ("replay", replay_leg, 0..5),
        ("sweep", sweep_leg, 0..4),
    ];
    for (name, leg, seeds) in legs {
        let runs: Vec<Leg> = seeds
            .map(|seed| at_every_thread_count(seed, name, |par| leg(seed, par)))
            .collect();
        for (seed, r) in runs.iter().enumerate() {
            assert!(r.identical, "{name} seed {seed}: {r:?}");
            assert!(r.killed_after >= 1, "{name} seed {seed}: {r:?}");
        }
        assert!(
            runs.iter().any(|r| r.killed_after != runs[0].killed_after),
            "{name}: seeded kill points must vary"
        );
    }
}
