//! Crash-consistency of budgeted provisioning: the greedy search is
//! deterministic, and resuming from a snapshot taken at *any* checkpoint
//! boundary reproduces the uninterrupted result bit-identically.

use riskroute::checkpoint::{load_snapshot, Snapshot, SnapshotProgress};
use riskroute::prelude::*;
use riskroute::provisioning::{greedy_links, greedy_links_resume, GreedyLinks};
use riskroute_population::PopShares;
use riskroute_topology::Network;

const K: usize = 3;

fn substrate() -> (Corpus, PopulationModel, riskroute_hazard::HistoricalRisk) {
    (
        Corpus::standard(42),
        PopulationModel::synthesize(42, 4_000),
        riskroute_hazard::HistoricalRisk::standard(42, Some(800)),
    )
}

#[test]
fn greedy_provisioning_is_deterministic_and_resumes_from_every_boundary() {
    let (corpus, population, hazards) = substrate();
    let net = corpus.network("Telepak").unwrap();
    let weights = RiskWeights::historical_only(1e5);
    let planner = Planner::for_network(net, &population, &hazards, weights);
    let risk = planner.risk().clone();
    let shares = PopShares::from_shares(planner.shares().shares().to_vec());
    let make_rebuild = || {
        let risk = risk.clone();
        let shares = shares.clone();
        move |aug: &Network| Planner::new(aug, risk.clone(), shares.clone(), weights)
    };

    // Determinism: two unbudgeted runs agree exactly, f64s included.
    let full = greedy_links(net, &planner, K, make_rebuild());
    let again = greedy_links(net, &planner, K, make_rebuild());
    assert_eq!(full, again, "greedy must be bit-deterministic");
    assert!(!full.added.is_empty(), "fixture must actually choose links");

    // Crash-consistency: for every prefix length (every point a checkpoint
    // could have been written, including the empty one), round-trip the
    // prefix through the snapshot wire format and resume. The continuation
    // must land on the identical uninterrupted result.
    for cut in 0..=full.added.len() {
        let prior = GreedyLinks {
            original_bit_risk: full.original_bit_risk,
            added: full.added[..cut].to_vec(),
        };
        let snap = Snapshot::provision(net.name(), K, weights.lambda_h, weights.lambda_f, &prior);
        let loaded = load_snapshot(&snap.to_text()).unwrap();
        let SnapshotProgress::Provision(prior) = loaded.progress else {
            panic!("provision snapshot must load provision progress");
        };
        assert_eq!(prior.added.len(), cut, "prefix survives the wire format");
        let run = greedy_links_resume(
            net,
            &planner,
            K,
            make_rebuild(),
            prior,
            &WorkBudget::unlimited(),
            |_| {},
        );
        let (resumed, stopped) = run.into_parts();
        assert!(stopped.is_none(), "unlimited budget never stops");
        assert_eq!(
            resumed, full,
            "resume from boundary {cut} must be bit-identical"
        );
    }
}
