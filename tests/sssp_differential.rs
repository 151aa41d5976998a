//! The differential suite for the SSSP stack: one engine kernel, one
//! oracle, one table.
//!
//! 1. **Engine.** `engine::sssp` and the pair-query early exit
//!    `engine::sssp_to` are checked against the heap-based
//!    `routing::risk_sssp` oracle on adversarial random graphs (weights 0,
//!    ε, exact ties and 4000, isolated PoPs; ρ with negative, NaN and ∞
//!    entries) and one fixed square, at β = 0, finite β, and a β large
//!    enough that β·ρ overflows to the ∞-sanitized cost: dist bits,
//!    predecessors and paths, plus the ρ-sum channel of β = 0 trees.
//! 2. **Planner table.** Every planner workload is a row rendered to bytes
//!    (the `Debug` rendering, which round-trips every f64 bit-for-bit) and
//!    run under each configuration of route cache {on, off} × workers
//!    {1, 2, 8}. Each configuration gets a freshly built planner, so a warm
//!    cache never hides a cold-path divergence. A row is compared against
//!    the cache-off sequential planner, or against an independent oracle
//!    where the row names one: full-tree `risk_route`/`shortest_route`
//!    answers, a planner built fresh at the evolved state or at each
//!    replay tick, or a fresh planner given the fork's forecast.
//! 3. **Cache and fork rules** that only show in counters: partial
//!    pair-query trees never reach a full-tree reader and a full request
//!    replaces them; forecast-only forks share the base stamp when ρ is
//!    bitwise unchanged and adopt base distance trees otherwise.

use riskroute::engine::{sssp, sssp_to, CsrGraph};
use riskroute::prelude::*;
use riskroute::provisioning::{greedy_links_budgeted, greedy_links_resume};
use riskroute::replay::{
    raw_advisories, replay_raw_advisories_budgeted, replay_storm, DisasterReplay, ReplaySession,
    ReplayTick,
};
use riskroute::routing::{risk_sssp, Adjacency, RiskTree};
use riskroute::scenario::{base_exposure, run_sweep_budgeted, SweepPrior};
use riskroute::PairOutcome;
use riskroute_geo::GeoPoint;
use riskroute_obs::{trace_counters, ObsScope};
use riskroute_rng::StdRng;
use riskroute_topology::Pop;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::OnceLock;

const NO_PRED: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Engine kernel against the oracle
// ---------------------------------------------------------------------------

/// Random graphs per engine test.
const GRAPH_CASES: usize = 40;

/// β values every engine case runs: the distance tree, two finite metrics,
/// and one that overflows β·ρ to the ∞-sanitized (unroutable) cost.
const BETAS: [f64; 4] = [0.0, 0.7, 3.0, f64::MAX];

/// A random graph whose tail nodes are isolated PoPs, with weights drawn
/// from exact zeros, ε, exactly tied values, 4000, and a spread of
/// magnitudes.
fn random_adjacency(rng: &mut StdRng) -> Adjacency {
    let connected = rng.gen_range(2..24usize);
    let n = connected + rng.gen_range(0..3usize);
    let weights = [0.0, f64::EPSILON, 1.0, 1.0, 0.5, 4000.0];
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

/// ρ with zeros and exact ties (entry costs collapse into shared cost
/// classes), a spread of magnitudes, and the occasional negative, NaN or
/// infinite value the sanitizer turns into an unroutable node (chaos
/// poisons PoPs with NaN this way).
fn random_rho(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| match rng.next_u64() % 7 {
            0 => 0.0,
            1 => 0.5,
            2 => -1.0,
            3 => f64::NAN,
            4 => f64::INFINITY,
            _ => rng.gen_f64() * 4.0,
        })
        .collect()
}

/// The fixed case: a square whose corner 1 is far riskier than a detour
/// through corner 3, so every finite β > 0 reroutes around it.
fn square_case() -> (Adjacency, Vec<f64>) {
    let adj = Adjacency::from_links(
        4,
        vec![(0, 1, 10.0), (1, 2, 10.0), (2, 3, 10.0), (3, 0, 10.0)],
    );
    (adj, vec![0.0, 100.0, 0.0, 0.25])
}

/// The ρ-sum a β = 0 tree must record for `v`: ρ accumulated down the
/// oracle's path in path order (the engine's settle-time recurrence).
fn path_rho_sum(oracle: &RiskTree, rho: &[f64], v: usize) -> f64 {
    oracle.path_to(v).map_or(f64::INFINITY, |path| {
        path.iter().skip(1).fold(0.0, |acc, &u| acc + rho[u])
    })
}

/// Every case — the random graphs plus [`square_case`]: graph, CSR
/// snapshot, ρ, β, and the oracle tree per source. At β = 0 the oracle
/// charges a literal zero entry cost, the distance tree the kernel
/// computes without reading ρ (so a NaN ρ leaves it routable).
fn engine_cases(seed: u64, mut check: impl FnMut(&str, &CsrGraph, &[f64], f64, &[RiskTree])) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cases: Vec<(Adjacency, Vec<f64>)> = (0..GRAPH_CASES)
        .map(|_| {
            let adj = random_adjacency(&mut rng);
            let rho = random_rho(&mut rng, adj.node_count());
            (adj, rho)
        })
        .collect();
    cases.push(square_case());
    for (case, (adj, rho)) in cases.iter().enumerate() {
        let csr = CsrGraph::from_adjacency(adj);
        for beta in BETAS {
            let oracle: Vec<RiskTree> = (0..adj.node_count())
                .map(|s| risk_sssp(adj, s, |v| if beta == 0.0 { 0.0 } else { beta * rho[v] }))
                .collect();
            check(&format!("case {case} β {beta}"), &csr, rho, beta, &oracle);
        }
    }
}

#[test]
fn engine_sssp_matches_the_oracle() {
    engine_cases(0x5ca1e, |at, csr, rho, beta, oracle| {
        for (source, expect) in oracle.iter().enumerate() {
            let tree = sssp(csr, source, beta, rho);
            assert!(tree.is_complete(), "{at} {source}: full run is complete");
            for v in 0..csr.node_count() {
                let at = format!("{at} {source}→{v}");
                assert_eq!(
                    tree.dist(v).to_bits(),
                    expect.dist(v).to_bits(),
                    "{at}: dist"
                );
                assert_eq!(tree.pred_slice()[v], expect.pred_slice()[v], "{at}: pred");
                assert_eq!(tree.path_to(v), expect.path_to(v), "{at}: path");
                if beta == 0.0 {
                    assert_eq!(
                        tree.rho_sum_slice()[v].to_bits(),
                        path_rho_sum(expect, rho, v).to_bits(),
                        "{at}: rho_sum"
                    );
                }
            }
        }
    });
}

#[test]
fn sssp_to_matches_the_oracle_on_its_settled_prefix() {
    let mut stopped_short = 0usize;
    engine_cases(0xea51, |at, csr, rho, beta, oracle| {
        for (source, expect) in oracle.iter().enumerate() {
            for target in 0..csr.node_count() {
                let part = sssp_to(csr, source, beta, rho, target);
                let at = format!("{at} {source}→{target}");
                assert!(part.answers(target), "{at}: target not answered");
                assert_eq!(part.path_to(target), expect.path_to(target), "{at}: path");
                if !part.is_complete() {
                    stopped_short += 1;
                }
                for v in 0..csr.node_count() {
                    if part.dist(v).is_finite() {
                        assert_eq!(
                            part.dist(v).to_bits(),
                            expect.dist(v).to_bits(),
                            "{at}: dist[{v}]"
                        );
                        assert_eq!(
                            part.pred_slice()[v],
                            expect.pred_slice()[v],
                            "{at}: pred[{v}]"
                        );
                        if beta == 0.0 {
                            assert_eq!(
                                part.rho_sum_slice()[v].to_bits(),
                                path_rho_sum(expect, rho, v).to_bits(),
                                "{at}: rho_sum[{v}]"
                            );
                        }
                    } else {
                        assert_eq!(part.pred_slice()[v], NO_PRED, "{at}: pred[{v}]");
                        // Everything strictly closer than the target popped
                        // before it, so unsettled nodes lie at or beyond it.
                        assert!(
                            expect.dist(v) >= expect.dist(target),
                            "{at}: node {v} inside the horizon left unsettled"
                        );
                    }
                }
            }
        }
    });
    assert!(stopped_short > 1000, "early exit never cut a run short");
}

// ---------------------------------------------------------------------------
// The planner table
// ---------------------------------------------------------------------------

/// One planner configuration of the table.
#[derive(Debug, Clone, Copy)]
struct Config {
    cache: bool,
    workers: usize,
}

impl Config {
    fn apply(self, planner: Planner) -> Planner {
        planner
            .with_route_cache(self.cache)
            .with_parallelism(Parallelism::from_worker_count(self.workers))
    }
}

/// Route cache {on, off} × workers {1, 2, 8}.
fn configs() -> impl Iterator<Item = Config> {
    [false, true]
        .into_iter()
        .flat_map(|cache| [1, 2, 8].map(move |workers| Config { cache, workers }))
}

/// The reference every row without an oracle is compared against.
const REFERENCE: Config = Config {
    cache: false,
    workers: 1,
};

/// Render a workload result. `Debug` prints every f64 in its shortest
/// round-trip form, so equal renderings mean bit-equal results.
fn render(value: &impl Debug) -> String {
    format!("{value:#?}")
}

/// Run one table row: `run` under every configuration must match the
/// oracle, or the reference configuration when the row has none.
fn check_row(run: fn(Config) -> String, oracle: Option<fn() -> String>) {
    let expect = oracle.map_or_else(|| run(REFERENCE), |o| o());
    for config in configs() {
        let got = run(config);
        assert!(
            got == expect,
            "{config:?} diverged:\n{got}\n--- expected ---\n{expect}"
        );
    }
}

/// The table: one `#[test]` per row, so rows run in parallel.
macro_rules! differential_table {
    ($($name:ident => $run:expr, $oracle:expr;)*) => {
        $(
            #[test]
            fn $name() {
                check_row($run, $oracle);
            }
        )*
    };
}

differential_table! {
    ratio_report_cold_and_warm => ratio_report, None;
    pair_sweeps_against_full_trees => pair_sweeps, Some(pair_sweeps_oracle);
    greedy_pick_sequence => greedy_picks, None;
    greedy_budget_cut_and_resume => greedy_cut_and_resume, None;
    replay_tick_series => replay_ticks, None;
    replay_ticks_against_fresh_planners => replay_ticks, Some(fresh_replay_ticks);
    replay_budget_cut_and_resume => replay_cut_and_resume, None;
    n1_sweep_records => n1_sweep, None;
    ensemble_sweep_with_forecast_overrides => ensemble_sweep, None;
    ensemble_budget_cut_and_resume => ensemble_cut_and_resume, None;
    evolved_forecasts_against_fresh_planners => evolved_forecasts, Some(fresh_forecasts);
    forecast_forks_against_fresh_planners => forecast_forks, Some(forecast_forks_oracle);
}

/// The Telepak substrate the corpus rows share (reduced census and hazard
/// models keep debug-build runs short).
struct Substrate {
    corpus: Corpus,
    population: PopulationModel,
    hazards: HistoricalRisk,
}

fn substrate() -> &'static Substrate {
    static SUBSTRATE: OnceLock<Substrate> = OnceLock::new();
    SUBSTRATE.get_or_init(|| Substrate {
        corpus: Corpus::standard(42),
        population: PopulationModel::synthesize(42, 4_000),
        hazards: HistoricalRisk::standard(42, Some(800)),
    })
}

fn telepak() -> &'static Network {
    substrate()
        .corpus
        .network("Telepak")
        .expect("corpus network")
}

/// A fresh Telepak planner under `weights` in configuration `config`.
fn telepak_planner(weights: RiskWeights, config: Config) -> Planner {
    let s = substrate();
    config.apply(Planner::for_network(
        telepak(),
        &s.population,
        &s.hazards,
        weights,
    ))
}

/// The greedy `rebuild` closure: a planner over the augmented network with
/// the base planner's risk and shares (greedy applies the knobs).
fn rebuild_from(planner: &Planner) -> impl FnMut(&Network) -> Planner {
    let risk = planner.risk().clone();
    let shares = planner.shares().clone();
    let weights = planner.weights();
    move |net: &Network| Planner::new(net, risk.clone(), shares.clone(), weights)
}

fn ratio_report(config: Config) -> String {
    let planner = telepak_planner(RiskWeights::historical_only(1e5), config);
    let cold = planner.ratio_report();
    let warm = planner.ratio_report();
    render(&(cold, warm))
}

fn greedy_picks(config: Config) -> String {
    let planner = telepak_planner(RiskWeights::historical_only(1e5), config);
    let picks = greedy_links(telepak(), &planner, 3, rebuild_from(&planner));
    assert!(
        !picks.added.is_empty(),
        "fixture must actually choose links"
    );
    render(&picks)
}

fn greedy_cut_and_resume(config: Config) -> String {
    let net = telepak();
    let planner = telepak_planner(RiskWeights::historical_only(1e5), config);
    let budget = WorkBudget::unlimited().with_max_work(1);
    let cut = greedy_links_budgeted(net, &planner, 3, rebuild_from(&planner), &budget, |_| {});
    let Budgeted::Partial { completed, .. } = cut.clone() else {
        panic!("a 1-unit budget must stop a 3-link search ({config:?})");
    };
    let resumed = greedy_links_resume(
        net,
        &planner,
        3,
        rebuild_from(&planner),
        completed,
        &WorkBudget::unlimited(),
        |_| {},
    );
    render(&(cut, resumed))
}

fn replay_ticks(config: Config) -> String {
    let planner = telepak_planner(RiskWeights::PAPER, config);
    let replay = replay_storm(&planner, telepak(), Storm::Katrina, 4).expect("replay");
    assert!(replay.ticks.len() >= 3, "fixture needs a real tick series");
    render(&replay)
}

/// The same tick series with every tick evaluated by a session opened on a
/// freshly built planner, so no tick inherits trees or stamps from the one
/// before it.
fn fresh_replay_ticks() -> String {
    let net = telepak();
    let locations: Vec<GeoPoint> = net.pops().iter().map(|p| p.location).collect();
    let ticks: Vec<ReplayTick> = raw_advisories(Storm::Katrina, 4)
        .expect("advisories")
        .iter()
        .map(|raw| {
            let fresh = telepak_planner(RiskWeights::PAPER, REFERENCE);
            ReplaySession::all_pairs(&fresh, &locations)
                .expect("session")
                .tick(raw)
        })
        .collect();
    render(&DisasterReplay {
        storm: Storm::Katrina.name().to_string(),
        network: net.name().to_string(),
        ticks,
    })
}

fn replay_cut_and_resume(config: Config) -> String {
    let net = telepak();
    let planner = telepak_planner(RiskWeights::PAPER, config);
    let raws = raw_advisories(Storm::Katrina, 4).expect("advisories");
    let locations: Vec<GeoPoint> = net.pops().iter().map(|p| p.location).collect();
    let all: Vec<usize> = (0..net.pop_count()).collect();
    let run = |prior, budget: &WorkBudget| {
        replay_raw_advisories_budgeted(
            &planner,
            net.name(),
            &locations,
            "KATRINA",
            &raws,
            &all,
            &all,
            prior,
            budget,
            |_, _| {},
        )
        .expect("replay")
    };
    let cut = run(Vec::new(), &WorkBudget::unlimited().with_max_work(2));
    let Budgeted::Partial { completed, .. } = cut.clone() else {
        panic!("a 2-tick budget must stop the replay ({config:?})");
    };
    let resumed = run(completed.ticks, &WorkBudget::unlimited());
    render(&(cut, resumed))
}

fn n1_sweep(config: Config) -> String {
    let planner = telepak_planner(RiskWeights::PAPER, config);
    render(&run_sweep(&planner, telepak(), SweepMode::N1).expect("sweep"))
}

/// The full ensemble sweep: every member is a forecast-only fork.
fn ensemble_sweep(config: Config) -> String {
    let planner = telepak_planner(RiskWeights::PAPER, config);
    let mode = SweepMode::Ensemble {
        samples: 6,
        seed: 7,
    };
    let swept = run_sweep(&planner, telepak(), mode).expect("sweep");
    assert!(!swept.records.is_empty(), "fixture must evaluate members");
    render(&swept)
}

fn ensemble_cut_and_resume(config: Config) -> String {
    let net = telepak();
    let planner = telepak_planner(RiskWeights::PAPER, config);
    let mode = SweepMode::Ensemble {
        samples: 5,
        seed: 11,
    };
    let budget = WorkBudget::unlimited().with_max_work(2);
    let cut = run_sweep_budgeted(&planner, net, mode, None, &budget, |_, _| {}).expect("sweep");
    let Budgeted::Partial {
        completed, stopped, ..
    } = cut.clone()
    else {
        panic!("a 2-unit budget must stop a 5-member sweep ({config:?})");
    };
    assert_eq!(stopped, StopReason::WorkExhausted);
    let prior = SweepPrior {
        baseline: completed.baseline,
        records: completed.records,
    };
    let resumed = run_sweep_budgeted(
        &planner,
        net,
        mode,
        Some(prior),
        &WorkBudget::unlimited(),
        |_, _| {},
    )
    .expect("sweep");
    render(&(cut, resumed))
}

/// Random networks for the pair-sweep and evolved-forecast rows.
const NETWORK_CASES: usize = 6;

fn pop(name: String, lat: f64, lon: f64) -> Pop {
    Pop {
        name,
        location: GeoPoint::new(lat, lon).expect("in range"),
    }
}

/// A random geometric network whose last PoP is isolated (its pairs
/// strand), with historical risk (zeros included) and shares drawn from a
/// few repeated values, so equal β lets one tree key serve several pairs.
fn random_network(rng: &mut StdRng, case: usize) -> (Network, Vec<f64>, PopShares) {
    let n = rng.gen_range(5..16usize);
    let pops: Vec<Pop> = (0..n)
        .map(|i| {
            let lat = rng.gen_range(30.0..45.0);
            let lon = rng.gen_range(-120.0..-75.0) + i as f64 * 1e-4;
            pop(format!("P{case}-{i}"), lat, lon)
        })
        .collect();
    let mut links: Vec<(usize, usize)> = (1..n - 1).map(|i| (rng.gen_range(0..i), i)).collect();
    for _ in 0..rng.gen_range(0..n) {
        let a = rng.gen_range(0..n - 1);
        let b = rng.gen_range(0..n - 1);
        let key = (a.min(b), a.max(b));
        if a != b && !links.iter().any(|&(x, y)| (x.min(y), x.max(y)) == key) {
            links.push(key);
        }
    }
    let network = Network::new(format!("diff-{case}"), NetworkKind::Regional, pops, links)
        .expect("valid network");
    let risk: Vec<f64> = (0..n)
        .map(|_| {
            if rng.gen_bool(0.25) {
                0.0
            } else {
                rng.gen_f64() * 0.3
            }
        })
        .collect();
    let raw: Vec<f64> = (0..n)
        .map(|_| [0.1, 0.2, 0.2, 0.5][(rng.next_u64() % 4) as usize])
        .collect();
    let total: f64 = raw.iter().sum();
    let shares = PopShares::from_shares(raw.iter().map(|s| s / total).collect());
    (network, risk, shares)
}

/// Each random network with its historical risk, its shares, and the pair
/// list the sweep rows query (repeated sources, self-pairs, and pairs into
/// the isolated PoP).
fn network_cases(mut each: impl FnMut(&Network, &[f64], &PopShares, &[(usize, usize)])) {
    let mut rng = StdRng::seed_from_u64(0xd1ff);
    for case in 0..NETWORK_CASES {
        let (network, risk, shares) = random_network(&mut rng, case);
        let n = network.pop_count();
        let pairs: Vec<(usize, usize)> = (0..4 * n)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        each(&network, &risk, &shares, &pairs);
    }
}

fn random_planner(
    network: &Network,
    risk: &[f64],
    forecast: Vec<f64>,
    shares: &PopShares,
) -> Planner {
    Planner::new(
        network,
        NodeRisk::new(risk.to_vec(), forecast),
        shares.clone(),
        RiskWeights::PAPER,
    )
}

/// List sweep (partial trees for both legs), full sweep over the same
/// cache, then the list again warm.
fn pair_sweeps(config: Config) -> String {
    let mut out = String::new();
    network_cases(|network, risk, shares, pairs| {
        let n = network.pop_count();
        let planner = config.apply(random_planner(network, risk, vec![0.0; n], shares));
        let all: Vec<usize> = (0..n).collect();
        let list = planner.pair_list_sweep(pairs);
        let sweep = planner.pair_sweep(&all, &all);
        let again = planner.pair_list_sweep(pairs);
        let answers =
            |s: &riskroute::intradomain::PairSweep| (s.outcomes.clone(), s.stranded.clone());
        out += &render(&(answers(&list), answers(&sweep), answers(&again)));
    });
    out
}

/// The same answers from full-tree readers only: one `risk_route` and one
/// `shortest_route` per pair on a cache-off planner.
fn pair_sweeps_oracle() -> String {
    let mut out = String::new();
    network_cases(|network, risk, shares, pairs| {
        let n = network.pop_count();
        let planner = random_planner(network, risk, vec![0.0; n], shares).with_route_cache(false);
        let answer = |pairs: &[(usize, usize)]| {
            let mut outcomes = Vec::new();
            let mut stranded = Vec::new();
            for &(i, j) in pairs.iter().filter(|(i, j)| i != j) {
                match (planner.shortest_route(i, j), planner.risk_route(i, j)) {
                    (Some(shortest), Some(risk_route)) => outcomes.push(PairOutcome {
                        src: i,
                        dst: j,
                        risk_route,
                        shortest,
                    }),
                    _ => stranded.push((i, j)),
                }
            }
            (outcomes, stranded)
        };
        let all: Vec<(usize, usize)> = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
        out += &render(&(answer(pairs), answer(&all), answer(pairs)));
    });
    out
}

/// The forecast sequence the evolved-forecast row walks: bitwise
/// resubmissions, single-node nudges, drops back to zero, and global
/// rewrites.
fn forecast_sequence(rng: &mut StdRng, n: usize) -> Vec<Vec<f64>> {
    let mut forecast = vec![0.0; n];
    (0..8)
        .map(|_| {
            match rng.gen_range(0..4usize) {
                0 => {}
                1 => forecast[rng.gen_range(0..n)] = rng.gen_f64() * 1e-2,
                2 => forecast[rng.gen_range(0..n)] = 0.0,
                _ => forecast.iter_mut().for_each(|f| *f = rng.gen_f64() * 1e-2),
            }
            forecast.clone()
        })
        .collect()
}

/// One planner evolved through `set_forecast`, sweeping after each step.
fn evolved_forecasts(config: Config) -> String {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut out = String::new();
    network_cases(|network, risk, shares, _| {
        let n = network.pop_count();
        let all: Vec<usize> = (0..n).collect();
        let mut planner = config.apply(random_planner(network, risk, vec![0.0; n], shares));
        for forecast in forecast_sequence(&mut rng, n) {
            planner.set_forecast(forecast);
            out += &render(&planner.pair_sweep(&all, &all));
        }
    });
    out
}

/// The same sweeps from a planner built fresh at every state.
fn fresh_forecasts() -> String {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut out = String::new();
    network_cases(|network, risk, shares, _| {
        let n = network.pop_count();
        let all: Vec<usize> = (0..n).collect();
        for forecast in forecast_sequence(&mut rng, n) {
            let fresh = random_planner(network, risk, forecast, shares).with_route_cache(false);
            out += &render(&fresh.pair_sweep(&all, &all));
        }
    });
    out
}

/// A storm-shaped forecast override over Telepak: risk at every fifth PoP.
fn override_forecast() -> Vec<f64> {
    (0..telepak().pop_count())
        .map(|v| {
            if v % 5 == 0 {
                0.5 + v as f64 * 1e-3
            } else {
                0.0
            }
        })
        .collect()
}

/// Weights under which the override changes ρ, and under which it cannot
/// (λ_f = 0).
fn fork_weights() -> [RiskWeights; 2] {
    [RiskWeights::PAPER, RiskWeights::historical_only(1e5)]
}

/// Forecast-only forks of a warm base, both fork paths.
fn forecast_forks(config: Config) -> String {
    let mut out = String::new();
    for weights in fork_weights() {
        let base = telepak_planner(weights, config);
        let _ = base_exposure(&base);
        let fork = ScenarioFork::fork(
            &base,
            ScenarioDelta::new().with_forecast(override_forecast()),
        );
        out += &render(&(fork.exposure(), fork.planner().ratio_report()));
    }
    out
}

/// The same answers from a fresh planner given the override forecast.
fn forecast_forks_oracle() -> String {
    let mut out = String::new();
    for weights in fork_weights() {
        let base = telepak_planner(weights, REFERENCE);
        let mut risk = base.risk().clone();
        risk.set_forecast(override_forecast());
        let fresh =
            Planner::new(telepak(), risk, base.shares().clone(), weights).with_route_cache(false);
        out += &render(&(base_exposure(&fresh), fresh.ratio_report()));
    }
    out
}

// ---------------------------------------------------------------------------
// Rules that only show in counters
// ---------------------------------------------------------------------------

/// Run `f` under a fresh trace scope; its result and the counters
/// attributed to that trace alone (sibling tests cannot pollute them).
fn counted<T>(f: impl FnOnce() -> T) -> (T, BTreeMap<String, u64>) {
    riskroute_obs::enable();
    let scope = ObsScope::begin("sssp-differential");
    let out = {
        let _guard = scope.enter();
        f()
    };
    (out, trace_counters(scope.trace_id()))
}

fn get(counters: &BTreeMap<String, u64>, name: &str) -> u64 {
    counters.get(name).copied().unwrap_or(0)
}

/// An 8-PoP west→east chain with uniform shares, so every pair has the
/// same β and one (source, β) key serves near and far targets alike.
fn chain() -> (Network, Vec<f64>) {
    let pops: Vec<Pop> = (0..8)
        .map(|i| {
            pop(
                format!("C{i}"),
                35.0 + 0.1 * i as f64,
                -110.0 + 3.0 * i as f64,
            )
        })
        .collect();
    let links: Vec<(usize, usize)> = (1..8).map(|i| (i - 1, i)).chain([(2, 5)]).collect();
    let network = Network::new("chain", NetworkKind::Regional, pops, links).expect("valid");
    (network, vec![0.0, 0.01, 0.2, 0.05, 0.0, 0.1, 0.02, 0.0])
}

fn chain_planner(network: &Network, cache: bool) -> Planner {
    let (_, risk) = chain();
    Planner::new(
        network,
        NodeRisk::new(risk, vec![0.0; 8]),
        PopShares::from_shares(vec![0.125; 8]),
        RiskWeights::PAPER,
    )
    .with_route_cache(cache)
}

#[test]
fn partial_trees_never_reach_full_tree_readers() {
    let (network, _) = chain();
    let oracle = chain_planner(&network, false);
    let all: Vec<usize> = (0..8).collect();

    // A pair query to the nearest neighbour leaves partial trees (β and
    // β = 0) rooted at 0 that stop short of PoP 7.
    let planner = chain_planner(&network, true);
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

    // Both trees are complete now: any target hits.
    let (_, c) = counted(|| planner.pair_list_sweep(&[(0, 4), (0, 6)]));
    assert_eq!(get(&c, "route_cache_hits"), 4);
    assert_eq!(get(&c, "risk_sssp_runs"), 0);

    // Scenario-fork adoption takes complete distance trees only.
    let delta = ScenarioDelta::new().deactivate_link(6, 7);
    let partial_base = chain_planner(&network, true);
    partial_base.pair_list_sweep(&[(0, 1)]);
    let (fork, c) = counted(|| ScenarioFork::fork(&partial_base, delta.clone()));
    assert_eq!(get(&c, "scenario_trees_adopted"), 0);
    let full_base = chain_planner(&network, true);
    full_base.shortest_route(0, 7);
    let (full_fork, c) = counted(|| ScenarioFork::fork(&full_base, delta.clone()));
    assert_eq!(
        get(&c, "scenario_trees_adopted"),
        1,
        "complete trees are adopted"
    );
    let expect = ScenarioFork::fork(&oracle, delta)
        .planner()
        .pair_sweep(&all, &all);
    assert_eq!(
        fork.planner().pair_sweep(&all, &all).outcomes,
        expect.outcomes
    );
    assert_eq!(
        full_fork.planner().pair_sweep(&all, &all).outcomes,
        expect.outcomes
    );

    // Greedy provisioning adopts trees across each added link: a cache full
    // of partial trees must not move its picks.
    let warm = chain_planner(&network, true);
    warm.pair_sweep(&all, &all);
    warm.pair_list_sweep(&[(0, 1), (3, 4), (7, 6)]);
    assert_eq!(
        greedy_links(&network, &warm, 2, |net: &Network| chain_planner(net, true)),
        greedy_links(&network, &oracle, 2, |net: &Network| chain_planner(
            net, false
        ))
    );
}

#[test]
fn forecast_forks_share_the_base_stamp_or_adopt_its_trees() {
    let forecast = override_forecast();
    // λ_f = 0: ρ is bitwise unchanged, so the fork shares the warm base
    // cache and runs no SSSP at all.
    let base = telepak_planner(
        RiskWeights::historical_only(1e5),
        Config {
            cache: true,
            workers: 1,
        },
    );
    let _ = base_exposure(&base);
    let (_, c) = counted(|| {
        let fork = ScenarioFork::fork(&base, ScenarioDelta::new().with_forecast(forecast.clone()));
        fork.exposure()
    });
    assert_eq!(get(&c, "forks_created"), 1);
    assert_eq!(get(&c, "forks_reused_cache"), 1);
    assert_eq!(
        get(&c, "risk_sssp_runs"),
        0,
        "a stamp-sharing fork recomputes nothing"
    );

    // ρ changes: a private cache seeded with every base distance tree,
    // ρ-sums recomputed, so exposure still runs no SSSP.
    let base = telepak_planner(
        RiskWeights::PAPER,
        Config {
            cache: true,
            workers: 1,
        },
    );
    let _ = base_exposure(&base);
    let (_, c) = counted(|| {
        let fork = ScenarioFork::fork(&base, ScenarioDelta::new().with_forecast(forecast));
        fork.exposure()
    });
    assert_eq!(get(&c, "forks_created"), 1);
    // base_exposure builds a distance tree for every root but the last.
    assert_eq!(
        get(&c, "scenario_trees_adopted") as usize,
        telepak().pop_count() - 1,
        "every base distance tree is adopted"
    );
    assert_eq!(
        get(&c, "risk_sssp_runs"),
        0,
        "adopted trees serve the whole exposure"
    );
}
