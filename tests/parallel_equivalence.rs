//! Sequential/parallel equivalence of the ratio report and of greedy
//! provisioning: every `--threads` setting must produce byte-identical
//! results. The parallel reductions replay the sequential fold order
//! exactly, so these are `assert_eq!` checks on full result structs (f64s
//! included), not tolerance comparisons — and budgeted runs must cut at the
//! same stage boundary regardless of worker count. (The same checks at
//! cache off/on, and the replay and sweep ones, are rows of
//! `tests/sssp_differential.rs`.)

use riskroute::prelude::*;
use riskroute::provisioning::{greedy_links, greedy_links_budgeted};
use riskroute_hazard::HistoricalRisk;
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
        runs.push(greedy_links(net, &planner, 3));
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
    let mut partials = Vec::new();
    let mut resumed_runs = Vec::new();
    for par in MATRIX {
        let planner = planner_at(net, &population, &hazards, par);
        // One greedy iteration's worth of work: the cut must land after
        // the same iteration no matter how the wave was fanned out.
        let budget = WorkBudget::unlimited().with_max_work(1);
        let run = greedy_links_budgeted(net, &planner, 3, None, &budget, |_| {});
        let Budgeted::Partial { completed, stopped } = run else {
            panic!("a 1-unit budget must stop a 3-link search ({par})");
        };
        assert_eq!(stopped, StopReason::WorkExhausted);
        partials.push(completed.clone());
        let resume = greedy_links_budgeted(
            net,
            &planner,
            3,
            Some(completed),
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
