//! Scenario-sweep equivalence: a sweep is a deterministic function of
//! (planner, network, mode) — byte-identical at any worker count and
//! across any budget-cut/resume boundary — and its criticality ranking
//! must agree with graph theory on a hand-checked fixture.

use riskroute::prelude::*;
use riskroute::scenario::{run_sweep_budgeted, scenario_specs, SweepPrior};
use riskroute::{
    base_exposure, ExposureReport, FailElement, NodeRisk, ScenarioDelta, ScenarioFork,
    ScenarioSpec, WorkBudget,
};
use riskroute_geo::GeoPoint;
use riskroute_hazard::HistoricalRisk;
use riskroute_population::{PopShares, PopulationModel};
use riskroute_topology::{Network, NetworkKind, Pop};

/// Sequential first: the later entries are diffed against index 0.
const MATRIX: [Parallelism; 3] = [
    Parallelism::Sequential,
    Parallelism::Threads(2),
    Parallelism::Threads(8),
];

fn corpus_planner(parallelism: Parallelism) -> (Network, Planner) {
    let corpus = Corpus::standard(42);
    let population = PopulationModel::synthesize(42, 4_000);
    let hazards = HistoricalRisk::standard(42, Some(800));
    let net = corpus.network("Telepak").unwrap().clone();
    let planner = Planner::for_network(
        &net,
        &population,
        &hazards,
        RiskWeights::historical_only(1e5),
    )
    .with_parallelism(parallelism);
    (net, planner)
}

#[test]
fn n1_sweeps_are_identical_across_thread_counts() {
    let (net, sequential) = corpus_planner(MATRIX[0]);
    let baseline = run_sweep(&sequential, &net, SweepMode::N1).unwrap();
    assert_eq!(
        baseline.records.len(),
        net.pop_count() + net.link_count(),
        "N-1 must cover every node and every link"
    );
    for par in &MATRIX[1..] {
        let (net, planner) = corpus_planner(*par);
        let outcome = run_sweep(&planner, &net, SweepMode::N1).unwrap();
        assert_eq!(baseline, outcome, "N-1 sweep diverged at {par}");
    }
}

#[test]
fn sampled_sweeps_are_identical_across_thread_counts() {
    for mode in [
        SweepMode::N2 {
            samples: 12,
            seed: 7,
        },
        SweepMode::Ensemble {
            samples: 6,
            seed: 7,
        },
    ] {
        let (net, sequential) = corpus_planner(MATRIX[0]);
        let baseline = run_sweep(&sequential, &net, mode).unwrap();
        for par in &MATRIX[1..] {
            let (net, planner) = corpus_planner(*par);
            let outcome = run_sweep(&planner, &net, mode).unwrap();
            assert_eq!(baseline, outcome, "{mode:?} sweep diverged at {par}");
        }
    }
}

#[test]
fn budget_cut_and_resume_matches_the_uninterrupted_sweep() {
    let (net, planner) = corpus_planner(Parallelism::Sequential);
    let uninterrupted = run_sweep(&planner, &net, SweepMode::N1).unwrap();
    for par in MATRIX {
        let (net, planner) = corpus_planner(par);
        let cut = run_sweep_budgeted(
            &planner,
            &net,
            SweepMode::N1,
            None,
            &WorkBudget::unlimited().with_max_work(5),
            |_, _| {},
        )
        .unwrap();
        let Budgeted::Partial {
            completed,
            resume_state,
            stopped,
        } = cut
        else {
            panic!("a 5-scenario budget must cut the sweep at {par}");
        };
        // The cut lands on the same canonical boundary at every worker
        // count: exactly the budgeted number of scenarios, as a prefix.
        assert_eq!(completed.records.len(), 5, "cut moved at {par}");
        assert_eq!(resume_state.next_index, 5, "resume index moved at {par}");
        assert_eq!(stopped, StopReason::WorkExhausted);
        assert_eq!(
            completed.records[..],
            uninterrupted.records[..5],
            "partial prefix diverged at {par}"
        );
        let prior = SweepPrior {
            baseline: completed.baseline,
            records: completed.records,
        };
        let resumed = run_sweep_budgeted(
            &planner,
            &net,
            SweepMode::N1,
            Some(prior),
            &WorkBudget::unlimited(),
            |_, _| {},
        )
        .unwrap();
        let (resumed, still_stopped) = resumed.into_parts();
        assert!(still_stopped.is_none());
        assert_eq!(resumed, uninterrupted, "resumed sweep diverged at {par}");
    }
}

/// Level3 N-1 specs checked against a rebuilt planner: evenly spaced over
/// the 577 specs (233 nodes, then 344 links), so the sample covers both.
const LEVEL3_N1_SAMPLES: usize = 48;

fn bits(e: &ExposureReport) -> (u64, usize, usize) {
    (
        e.bit_risk_total.to_bits(),
        e.routable_pairs,
        e.stranded_pairs,
    )
}

/// A fresh planner over `net` with `e` failed (a failed node keeps its PoP
/// but loses every incident link), reusing the base risk and shares.
fn rebuilt_without(net: &Network, base: &Planner, e: FailElement) -> Planner {
    let keep = |a: usize, b: usize| match e {
        FailElement::Node(v) => a != v && b != v,
        FailElement::Link(x, y) => (a.min(b), a.max(b)) != (x, y),
    };
    let keep_pairs: Vec<(usize, usize)> = net
        .links()
        .iter()
        .filter(|l| keep(l.a, l.b))
        .map(|l| (l.a, l.b))
        .collect();
    let masked = Network::new(net.name(), net.kind(), net.pops().to_vec(), keep_pairs).unwrap();
    Planner::new(
        &masked,
        base.risk().clone(),
        PopShares::from_shares(base.shares().shares().to_vec()),
        base.weights(),
    )
}

#[test]
fn level3_n1_forks_match_rebuilt_planners_bit_for_bit() {
    let corpus = Corpus::standard(42);
    let population = PopulationModel::synthesize(42, 4_000);
    let hazards = HistoricalRisk::standard(42, Some(800));
    let net = corpus.network("Level3").unwrap();
    let planner = Planner::for_network(
        net,
        &population,
        &hazards,
        RiskWeights::historical_only(1e5),
    );
    // Warm the base cache so forks take the tree-adoption path, as they do
    // inside a sweep.
    let _ = base_exposure(&planner);
    let specs = scenario_specs(net, SweepMode::N1);
    assert_eq!(specs.len(), 577);
    let mut kinds = (0, 0);
    for i in (0..LEVEL3_N1_SAMPLES).map(|k| k * specs.len() / LEVEL3_N1_SAMPLES) {
        let ScenarioSpec::One(e) = specs[i] else {
            panic!("N-1 emits only single-element specs")
        };
        let delta = match e {
            FailElement::Node(v) => {
                kinds.0 += 1;
                ScenarioDelta::new().deactivate_node(v)
            }
            FailElement::Link(a, b) => {
                kinds.1 += 1;
                ScenarioDelta::new().deactivate_link(a, b)
            }
        };
        let fork = ScenarioFork::fork(&planner, delta);
        assert_eq!(
            bits(&fork.exposure()),
            bits(&base_exposure(&rebuilt_without(net, &planner, e))),
            "fork diverged from the rebuilt planner at {e:?}"
        );
    }
    assert!(
        kinds.0 > 0 && kinds.1 > 0,
        "sample must cover nodes and links"
    );
}

/// Two triangles sharing only vertex 2 — the textbook cut vertex. Failing
/// it strands every cross-triangle pair (plus its own four incident
/// pairs); failing any other node strands only that node's four pairs,
/// and no single link disconnects anything (each sits on a triangle).
fn cut_vertex_fixture() -> (Network, Planner) {
    let pop = |name: &str, lat: f64, lon: f64| Pop {
        name: name.into(),
        location: GeoPoint::new(lat, lon).unwrap(),
    };
    let net = Network::new(
        "bowtie",
        NetworkKind::Regional,
        vec![
            pop("A", 35.0, -100.0),
            pop("B", 36.0, -99.0),
            pop("Cut", 35.5, -98.0),
            pop("D", 35.0, -96.0),
            pop("E", 36.0, -95.0),
        ],
        vec![(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)],
    )
    .unwrap();
    let risk = NodeRisk::new(vec![1e-3; 5], vec![0.0; 5]);
    let shares = PopShares::from_shares(vec![0.2; 5]);
    let planner = Planner::new(&net, risk, shares, RiskWeights::historical_only(1e5));
    (net, planner)
}

#[test]
fn known_cut_vertex_ranks_first_in_the_n1_report() {
    let (net, planner) = cut_vertex_fixture();
    let outcome = run_sweep(&planner, &net, SweepMode::N1).unwrap();
    // 5 nodes + 6 links.
    assert_eq!(outcome.records.len(), 11);
    let ranked = outcome.ranked();
    let (_, top) = ranked[0];
    assert_eq!(
        top.spec,
        ScenarioSpec::One(FailElement::Node(2)),
        "the cut vertex must rank first, got {:?}",
        top.spec
    );
    // Hand-count: 4 incident pairs + 2x2 cross-triangle pairs.
    assert_eq!(outcome.delta_stranded(top), 8);
    // Every other node failure strands exactly its 4 incident pairs, and
    // no link failure strands anything (every link sits on a triangle).
    for (_, rec) in &ranked[1..] {
        match rec.spec {
            ScenarioSpec::One(FailElement::Node(_)) => {
                assert_eq!(outcome.delta_stranded(rec), 4, "{:?}", rec.spec);
            }
            ScenarioSpec::One(FailElement::Link(..)) => {
                assert_eq!(outcome.delta_stranded(rec), 0, "{:?}", rec.spec);
            }
            ref other => panic!("unexpected N-1 spec {other:?}"),
        }
    }
}

#[test]
fn scenario_specs_order_is_the_canonical_contract() {
    let (net, _) = cut_vertex_fixture();
    let specs = scenario_specs(&net, SweepMode::N1);
    let nodes = net.pop_count();
    for (i, spec) in specs.iter().enumerate().take(nodes) {
        assert_eq!(*spec, ScenarioSpec::One(FailElement::Node(i)));
    }
    for (l, spec) in net.links().iter().zip(&specs[nodes..]) {
        assert_eq!(
            *spec,
            ScenarioSpec::One(FailElement::Link(l.a.min(l.b), l.a.max(l.b)))
        );
    }
}
