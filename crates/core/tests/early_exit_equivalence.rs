//! Differential test: target-settle early exit is output-identical to
//! building the complete risk tree.
//!
//! Three layers are crossed:
//!
//! 1. `engine::sssp_to` against `engine::sssp`: for every (source, target)
//!    pair of random graphs (zero, ε and exactly tied weights, isolated
//!    PoPs, β = 0 included) on both frontiers, the early-exit tree equals
//!    the full tree on its settled prefix — dist bits, pred, ρ-sum — reads
//!    every other node as unreachable, and yields the same target path.
//! 2. The planner sweeps: `pair_sweep` and `pair_list_sweep` outcomes are
//!    equal with the route cache on and off at 1, 2 and 8 workers, and
//!    equal to the full-tree `risk_route` / `shortest_route` answers.
//! 3. The cache rules: a partial tree is never handed to a full-tree
//!    reader (`risk_route`'s tree, scenario-fork adoption, delta repair,
//!    greedy provisioning's cache adoption), a full request replaces it,
//!    and the hit/miss/early-exit counters follow.

use riskroute::engine::{sssp, sssp_to, CsrGraph};
use riskroute::provisioning::greedy_links;
use riskroute::routing::Adjacency;
use riskroute::{NodeRisk, Parallelism, Planner, RiskWeights, ScenarioDelta, ScenarioFork};
use riskroute_geo::GeoPoint;
use riskroute_obs::{trace_counters, ObsScope};
use riskroute_population::PopShares;
use riskroute_rng::StdRng;
use riskroute_topology::{Network, NetworkKind, Pop};
use std::collections::BTreeMap;

const GRAPH_CASES: usize = 40;
const PLANNER_CASES: usize = 10;
const NO_PRED: u32 = u32::MAX;

/// A random graph whose tail nodes are isolated PoPs, with weights drawn
/// from exact zeros, ε, exactly tied values and wide magnitudes.
fn random_adjacency(rng: &mut StdRng) -> Adjacency {
    let connected = rng.gen_range(2..24usize);
    let n = connected + rng.gen_range(0..3usize);
    let weights = [0.0, f64::EPSILON, 1.0, 1.0, 2.0, 0.5, 1e4];
    let weight = |rng: &mut StdRng| match rng.next_u64() % 3 {
        0 | 1 => weights[(rng.next_u64() % weights.len() as u64) as usize],
        _ => rng.gen_f64() * 10.0,
    };
    let mut links: Vec<(usize, usize, f64)> = Vec::new();
    for i in 1..connected {
        let w = weight(rng);
        links.push((rng.gen_range(0..i), i, w));
    }
    for _ in 0..rng.gen_range(0..2 * connected) {
        let a = rng.gen_range(0..connected);
        let b = rng.gen_range(0..connected);
        if a != b {
            links.push((a, b, weight(rng)));
        }
    }
    Adjacency::from_links(n, links)
}

#[test]
fn early_exit_trees_match_the_full_run_on_the_settled_prefix() {
    let mut rng = StdRng::seed_from_u64(0xea51);
    let mut stopped_short = 0usize;
    for case in 0..GRAPH_CASES {
        let adj = random_adjacency(&mut rng);
        let csr = CsrGraph::from_adjacency(&adj);
        let n = adj.node_count();
        // ρ with zeros and exact ties, so entry costs collapse into shared
        // cost classes too.
        let rho: Vec<f64> = (0..n)
            .map(|_| match rng.next_u64() % 3 {
                0 => 0.0,
                1 => 0.5,
                _ => rng.gen_f64() * 4.0,
            })
            .collect();
        for beta in [0.0, 0.7, 3.0] {
            for bucket in [false, true] {
                for source in 0..n {
                    let full = sssp(&csr, source, beta, &rho, bucket);
                    for target in 0..n {
                        let part = sssp_to(&csr, source, beta, &rho, bucket, target);
                        let at = format!("case {case} β {beta} bucket {bucket} {source}→{target}");
                        assert!(part.answers(target), "{at}: target not answered");
                        assert_eq!(part.path_to(target), full.path_to(target), "{at}: path");
                        if !part.is_complete() {
                            stopped_short += 1;
                        }
                        for v in 0..n {
                            if part.dist(v).is_finite() {
                                assert_eq!(
                                    part.dist(v).to_bits(),
                                    full.dist(v).to_bits(),
                                    "{at}: dist[{v}]"
                                );
                                assert_eq!(
                                    part.pred_slice()[v],
                                    full.pred_slice()[v],
                                    "{at}: pred[{v}]"
                                );
                                if beta == 0.0 {
                                    assert_eq!(
                                        part.rho_sum_slice()[v].to_bits(),
                                        full.rho_sum_slice()[v].to_bits(),
                                        "{at}: rho_sum[{v}]"
                                    );
                                }
                            } else {
                                assert_eq!(part.pred_slice()[v], NO_PRED, "{at}: pred[{v}]");
                                // Anything strictly closer than the target
                                // popped before it: unsettled nodes lie at
                                // or beyond the target's distance.
                                assert!(
                                    full.dist(v) >= full.dist(target),
                                    "{at}: node {v} inside the horizon left unsettled"
                                );
                            }
                        }
                        if part.is_complete() {
                            for v in 0..n {
                                assert_eq!(part.dist(v).to_bits(), full.dist(v).to_bits());
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(stopped_short > 1000, "early exit never cut a run short");
}

fn pop(i: usize, lat: f64, lon: f64) -> Pop {
    Pop {
        name: format!("P{i}"),
        location: GeoPoint::new(lat, lon).expect("in range"),
    }
}

/// A random geometric network with one isolated PoP (its pairs strand).
fn random_network(rng: &mut StdRng) -> (Network, Vec<f64>, Vec<f64>) {
    let n = rng.gen_range(5..16usize);
    let pops: Vec<Pop> = (0..n)
        .map(|i| {
            pop(
                i,
                rng.gen_range(30.0..45.0),
                rng.gen_range(-120.0..-75.0) + i as f64 * 1e-4,
            )
        })
        .collect();
    // PoP n-1 stays isolated.
    let mut links: Vec<(usize, usize)> = (1..n - 1).map(|i| (i - 1, i)).collect();
    for _ in 0..rng.gen_range(0..n) {
        let a = rng.gen_range(0..n - 1);
        let b = rng.gen_range(0..n - 1);
        let key = (a.min(b), a.max(b));
        if a != b && !links.contains(&key) {
            links.push(key);
        }
    }
    let network = Network::new("early", NetworkKind::Regional, pops, links).expect("valid");
    let risk: Vec<f64> = (0..n)
        .map(|_| {
            if rng.next_u64().is_multiple_of(4) {
                0.0
            } else {
                rng.gen_f64() * 0.3
            }
        })
        .collect();
    // Repeated share values give equal β across destinations, so one
    // (source, β) key serves several pair queries.
    let raw: Vec<f64> = (0..n)
        .map(|_| [0.1, 0.2, 0.2, 0.5][(rng.next_u64() % 4) as usize])
        .collect();
    let total: f64 = raw.iter().sum();
    (network, risk, raw.iter().map(|s| s / total).collect())
}

#[test]
fn planner_sweeps_identical_across_cache_and_workers() {
    let mut rng = StdRng::seed_from_u64(0xea52);
    for case in 0..PLANNER_CASES {
        let (network, risk, shares) = random_network(&mut rng);
        let n = network.pop_count();
        let base = Planner::new(
            &network,
            NodeRisk::new(risk.clone(), vec![0.0; n]),
            PopShares::from_shares(shares.clone()),
            RiskWeights::PAPER,
        );
        let all: Vec<usize> = (0..n).collect();
        // Repeated sources with near and far targets, self-pairs, and
        // pairs into the isolated PoP.
        let pairs: Vec<(usize, usize)> = (0..4 * n)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();

        // The full-tree oracle: risk_route / shortest_route per pair.
        let oracle = base.clone().with_route_cache(false);
        let reference = oracle.pair_sweep(&all, &all);
        for o in &reference.outcomes {
            assert_eq!(
                Some(&o.risk_route),
                oracle.risk_route(o.src, o.dst).as_ref()
            );
            assert_eq!(
                Some(&o.shortest),
                oracle.shortest_route(o.src, o.dst).as_ref()
            );
        }
        for &(i, j) in &reference.stranded {
            assert!(oracle.risk_route(i, j).is_none() || oracle.shortest_route(i, j).is_none());
        }
        let reference_list = oracle.pair_list_sweep(&pairs);

        for workers in [1usize, 2, 8] {
            for cache in [false, true] {
                // A fresh planner per setting: a warm cache from an earlier
                // setting would hide cold-path divergence.
                let planner = Planner::new(
                    &network,
                    NodeRisk::new(risk.clone(), vec![0.0; n]),
                    PopShares::from_shares(shares.clone()),
                    RiskWeights::PAPER,
                )
                .with_route_cache(cache)
                .with_parallelism(Parallelism::from_worker_count(workers));
                let at = format!("case {case} workers {workers} cache {cache}");
                // List first (partial trees for both legs), then the full
                // sweep over the same cache, then the list again warm.
                let list = planner.pair_list_sweep(&pairs);
                assert_eq!(
                    reference_list.outcomes, list.outcomes,
                    "{at}: list outcomes"
                );
                assert_eq!(
                    reference_list.stranded, list.stranded,
                    "{at}: list stranded"
                );
                let sweep = planner.pair_sweep(&all, &all);
                assert_eq!(reference.outcomes, sweep.outcomes, "{at}: sweep outcomes");
                assert_eq!(reference.stranded, sweep.stranded, "{at}: sweep stranded");
                let again = planner.pair_list_sweep(&pairs);
                assert_eq!(reference_list.outcomes, again.outcomes, "{at}: warm list");
                for &(i, j) in pairs.iter().take(8) {
                    assert_eq!(oracle.risk_route(i, j), planner.risk_route(i, j), "{at}");
                }
            }
        }
    }
}

/// An 8-PoP west→east chain with uniform shares, so every pair has the
/// same β and one (source, β) key serves near and far targets alike.
fn chain() -> (Network, Vec<f64>) {
    let pops: Vec<Pop> = (0..8)
        .map(|i| pop(i, 35.0 + 0.1 * i as f64, -110.0 + 3.0 * i as f64))
        .collect();
    let links: Vec<(usize, usize)> = (1..8).map(|i| (i - 1, i)).chain([(2, 5)]).collect();
    let network = Network::new("chain", NetworkKind::Regional, pops, links).expect("valid");
    let risk = vec![0.0, 0.01, 0.2, 0.05, 0.0, 0.1, 0.02, 0.0];
    (network, risk)
}

fn chain_planner(forecast: Vec<f64>) -> Planner {
    let (network, risk) = chain();
    Planner::new(
        &network,
        NodeRisk::new(risk, forecast),
        PopShares::from_shares(vec![0.125; 8]),
        RiskWeights::PAPER,
    )
}

/// Run `f` under a fresh trace scope; its result and the counters
/// attributed to that trace alone (sibling tests cannot pollute them).
fn counted<T>(f: impl FnOnce() -> T) -> (T, BTreeMap<String, u64>) {
    riskroute_obs::enable();
    let scope = ObsScope::begin("early-exit");
    let out = {
        let _guard = scope.enter();
        f()
    };
    (out, trace_counters(scope.trace_id()))
}

fn get(counters: &BTreeMap<String, u64>, name: &str) -> u64 {
    counters.get(name).copied().unwrap_or(0)
}

#[test]
fn partial_trees_never_reach_full_tree_readers() {
    let (network, _) = chain();
    let zero = vec![0.0; 8];
    let oracle = chain_planner(zero.clone()).with_route_cache(false);

    // A pair query to the nearest neighbour leaves partial trees (β and
    // β = 0) rooted at 0 that stop short of PoP 7.
    let planner = chain_planner(zero.clone());
    let (_, c) = counted(|| planner.pair_list_sweep(&[(0, 1)]));
    assert_eq!(get(&c, "risk_sssp_runs"), 2);
    assert_eq!(get(&c, "risk_sssp_early_exits"), 2);
    assert_eq!(get(&c, "route_cache_misses"), 2);

    // risk_route's tree: the partial counts as a miss and a full run
    // replaces it.
    let (route, c) = counted(|| planner.risk_route(0, 7));
    assert!(route.is_some());
    assert_eq!(route, oracle.risk_route(0, 7));
    assert_eq!(get(&c, "route_cache_misses"), 1);
    assert_eq!(get(&c, "route_cache_hits"), 0);
    assert_eq!(get(&c, "risk_sssp_runs"), 1);
    assert_eq!(get(&c, "risk_sssp_early_exits"), 0);

    // A pair query beyond the partial β = 0 tree's horizon runs one full
    // distance tree; the RiskRoute leg hits the complete tree just built.
    let (sweep, c) = counted(|| planner.pair_list_sweep(&[(0, 7)]));
    assert_eq!(sweep.outcomes, oracle.pair_list_sweep(&[(0, 7)]).outcomes);
    assert_eq!(get(&c, "route_cache_misses"), 1);
    assert_eq!(get(&c, "route_cache_hits"), 1);
    assert_eq!(get(&c, "risk_sssp_runs"), 1);
    assert_eq!(get(&c, "risk_sssp_early_exits"), 0);

    // Both trees are complete now: any target hits.
    let (_, c) = counted(|| planner.pair_list_sweep(&[(0, 4), (0, 6)]));
    assert_eq!(get(&c, "route_cache_hits"), 4);
    assert_eq!(get(&c, "risk_sssp_runs"), 0);

    // Scenario-fork adoption probes complete distance trees only.
    let delta = ScenarioDelta::new().deactivate_link(6, 7);
    let partial_base = chain_planner(zero.clone());
    partial_base.pair_list_sweep(&[(0, 1)]);
    let (fork, c) = counted(|| ScenarioFork::fork(&partial_base, delta.clone()));
    assert_eq!(get(&c, "scenario_trees_adopted"), 0);
    let full_base = chain_planner(zero.clone());
    full_base.shortest_route(0, 7);
    let (full_fork, c) = counted(|| ScenarioFork::fork(&full_base, delta.clone()));
    assert_eq!(
        get(&c, "scenario_trees_adopted"),
        1,
        "complete trees are adopted"
    );
    let oracle_fork = ScenarioFork::fork(&oracle, delta);
    let all: Vec<usize> = (0..8).collect();
    let expect = oracle_fork.planner().pair_sweep(&all, &all);
    assert_eq!(
        fork.planner().pair_sweep(&all, &all).outcomes,
        expect.outcomes
    );
    assert_eq!(
        full_fork.planner().pair_sweep(&all, &all).outcomes,
        expect.outcomes
    );

    // Delta repair never carries a partial parent tree across a forecast
    // change; a complete one is carried.
    let mut forecast = zero.clone();
    forecast[6] = 0.3;
    let new_oracle = chain_planner(forecast.clone()).with_route_cache(false);
    let mut partial_parent = chain_planner(zero.clone());
    partial_parent.pair_list_sweep(&[(0, 1)]);
    partial_parent.set_forecast(forecast.clone());
    let (route, c) = counted(|| partial_parent.risk_route(0, 7));
    assert_eq!(route, new_oracle.risk_route(0, 7));
    assert_eq!(get(&c, "sssp_repairs") + get(&c, "trees_survived_delta"), 0);
    assert_eq!(get(&c, "risk_sssp_runs"), 1);
    let mut full_parent = chain_planner(zero.clone());
    full_parent.risk_route(0, 7);
    full_parent.set_forecast(forecast);
    let (route, c) = counted(|| full_parent.risk_route(0, 7));
    assert_eq!(route, new_oracle.risk_route(0, 7));
    assert_eq!(get(&c, "sssp_repairs") + get(&c, "trees_survived_delta"), 1);
    assert_eq!(get(&c, "risk_sssp_runs"), 0);

    // Greedy provisioning adopts trees across each added link: a cache full
    // of partial trees must not move its picks.
    let warm = chain_planner(zero.clone());
    warm.pair_sweep(&all, &all);
    warm.pair_list_sweep(&[(0, 1), (3, 4), (7, 6)]);
    assert_eq!(
        greedy_links(&network, &warm, 2, |net: &Network| rebuild_chain(net, true)),
        greedy_links(&network, &oracle, 2, |net: &Network| rebuild_chain(
            net, false
        ))
    );
}

/// The chain planner over an augmented copy of the chain network.
fn rebuild_chain(network: &Network, cache: bool) -> Planner {
    let (_, risk) = chain();
    Planner::new(
        network,
        NodeRisk::new(risk, vec![0.0; 8]),
        PopShares::from_shares(vec![0.125; 8]),
        RiskWeights::PAPER,
    )
    .with_route_cache(cache)
}
