//! Sequential/parallel equivalence: every `--threads` setting must produce
//! byte-identical results. The parallel reductions replay the sequential
//! fold order exactly, so these are `assert_eq!` checks on full result
//! structs (f64s included), not tolerance comparisons — and budgeted runs
//! must cut at the same stage boundary regardless of worker count.

use riskroute::prelude::*;
use riskroute::provisioning::{greedy_links, greedy_links_budgeted, greedy_links_resume};
use riskroute::replay::{raw_advisories, replay_raw_advisories_budgeted, replay_storm};
use riskroute_geo::GeoPoint;
use riskroute_hazard::HistoricalRisk;
use riskroute_population::PopShares;
use riskroute_topology::Network;

/// Sequential first: the later entries are diffed against index 0.
const MATRIX: [Parallelism; 3] = [
    Parallelism::Sequential,
    Parallelism::Threads(2),
    Parallelism::Threads(8),
];

fn substrate() -> (Corpus, PopulationModel, HistoricalRisk) {
    (
        Corpus::standard(42),
        PopulationModel::synthesize(42, 4_000),
        HistoricalRisk::standard(42, Some(800)),
    )
}

fn planner_at(
    net: &Network,
    population: &PopulationModel,
    hazards: &HistoricalRisk,
    parallelism: Parallelism,
) -> Planner {
    Planner::for_network(net, population, hazards, RiskWeights::historical_only(1e5))
        .with_parallelism(parallelism)
}

#[test]
fn ratio_reports_are_identical_across_thread_counts() {
    let (corpus, population, hazards) = substrate();
    let net = corpus.network("Telepak").unwrap();
    let sequential = planner_at(net, &population, &hazards, MATRIX[0]).ratio_report();
    for par in &MATRIX[1..] {
        let report = planner_at(net, &population, &hazards, *par).ratio_report();
        assert_eq!(sequential, report, "ratio report diverged at {par}");
    }
}

#[test]
fn provisioning_pick_sequence_is_identical_across_thread_counts() {
    let (corpus, population, hazards) = substrate();
    let net = corpus.network("Telepak").unwrap();
    let mut runs = Vec::new();
    for par in MATRIX {
        let planner = planner_at(net, &population, &hazards, par);
        let risk = planner.risk().clone();
        let shares = PopShares::from_shares(planner.shares().shares().to_vec());
        let weights = RiskWeights::historical_only(1e5);
        let rebuild = move |aug: &Network| Planner::new(aug, risk.clone(), shares.clone(), weights);
        runs.push(greedy_links(net, &planner, 3, rebuild));
    }
    assert!(
        !runs[0].added.is_empty(),
        "fixture must actually choose links"
    );
    for (run, par) in runs.iter().zip(MATRIX).skip(1) {
        assert_eq!(&runs[0], run, "greedy pick sequence diverged at {par}");
    }
}

#[test]
fn budgeted_provisioning_cuts_and_resumes_identically_across_thread_counts() {
    let (corpus, population, hazards) = substrate();
    let net = corpus.network("Telepak").unwrap();
    let weights = RiskWeights::historical_only(1e5);
    let mut partials = Vec::new();
    let mut resumed_runs = Vec::new();
    for par in MATRIX {
        let planner = planner_at(net, &population, &hazards, par);
        let risk = planner.risk().clone();
        let shares = PopShares::from_shares(planner.shares().shares().to_vec());
        let make_rebuild = || {
            let risk = risk.clone();
            let shares = shares.clone();
            move |aug: &Network| Planner::new(aug, risk.clone(), shares.clone(), weights)
        };
        // One greedy iteration's worth of work: the cut must land after
        // the same iteration no matter how the wave was fanned out.
        let budget = WorkBudget::unlimited().with_max_work(1);
        let run = greedy_links_budgeted(net, &planner, 3, make_rebuild(), &budget, |_| {});
        let Budgeted::Partial {
            completed,
            resume_state,
            stopped,
        } = run
        else {
            panic!("a 1-unit budget must stop a 3-link search ({par})");
        };
        assert_eq!(stopped, StopReason::WorkExhausted);
        partials.push((completed.clone(), resume_state));
        let resume = greedy_links_resume(
            net,
            &planner,
            3,
            make_rebuild(),
            completed,
            &WorkBudget::unlimited(),
            |_| {},
        );
        let (full, stopped) = resume.into_parts();
        assert!(stopped.is_none(), "unlimited resume never stops");
        resumed_runs.push(full);
    }
    for (i, par) in MATRIX.iter().enumerate().skip(1) {
        assert_eq!(partials[0], partials[i], "partial prefix diverged at {par}");
        assert_eq!(
            resumed_runs[0], resumed_runs[i],
            "resumed result diverged at {par}"
        );
    }
}

#[test]
fn replay_tick_series_is_identical_across_thread_counts() {
    let (corpus, population, hazards) = substrate();
    let net = corpus.network("Telepak").unwrap();
    let sequential = replay_storm(
        &planner_at(net, &population, &hazards, MATRIX[0]),
        net,
        Storm::Katrina,
        4,
    )
    .unwrap();
    assert!(
        sequential.ticks.len() >= 3,
        "fixture needs a real tick series"
    );
    for par in &MATRIX[1..] {
        let replay = replay_storm(
            &planner_at(net, &population, &hazards, *par),
            net,
            Storm::Katrina,
            4,
        )
        .unwrap();
        assert_eq!(sequential, replay, "replay tick series diverged at {par}");
    }
}

#[test]
fn budgeted_replay_cuts_and_resumes_identically_across_thread_counts() {
    let (corpus, population, hazards) = substrate();
    let net = corpus.network("Telepak").unwrap();
    let locations: Vec<GeoPoint> = net.pops().iter().map(|p| p.location).collect();
    let all: Vec<usize> = (0..net.pop_count()).collect();
    let raws = raw_advisories(Storm::Katrina, 4).unwrap();
    assert!(raws.len() >= 4, "fixture needs enough advisories to cut");
    let cut = raws.len() as u64 / 2;

    let mut partials = Vec::new();
    let mut resumed_runs = Vec::new();
    for par in MATRIX {
        let planner = planner_at(net, &population, &hazards, par);
        let budget = WorkBudget::unlimited().with_max_work(cut);
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
        )
        .unwrap();
        let Budgeted::Partial {
            completed,
            resume_state,
            stopped,
        } = run
        else {
            panic!(
                "a {cut}-tick budget must stop a {}-tick replay ({par})",
                raws.len()
            );
        };
        assert_eq!(stopped, StopReason::WorkExhausted);
        assert_eq!(
            completed.ticks.len(),
            usize::try_from(cut).unwrap(),
            "the work-counter cut must land on the exact tick boundary at {par}"
        );
        assert_eq!(resume_state.next_index, completed.ticks.len());
        partials.push(completed.clone());
        let resume = replay_raw_advisories_budgeted(
            &planner,
            net.name(),
            &locations,
            Storm::Katrina.name(),
            &raws,
            &all,
            &all,
            completed.ticks,
            &WorkBudget::unlimited(),
            |_, _| {},
        )
        .unwrap();
        let (full, stopped) = resume.into_parts();
        assert!(stopped.is_none(), "unlimited resume never stops");
        resumed_runs.push(full);
    }
    for (i, par) in MATRIX.iter().enumerate().skip(1) {
        assert_eq!(
            partials[0], partials[i],
            "partial tick prefix diverged at {par}"
        );
        assert_eq!(
            resumed_runs[0], resumed_runs[i],
            "resumed tick series diverged at {par}"
        );
    }
}
