//! The differential suite for the SSSP stack: one engine kernel, one
//! oracle, one table.
//!
//! 1. **Engine.** `engine::sssp` and the pair-query early exit
//!    `engine::sssp_to` (which returns one target's answer) are checked
//!    against the heap-based
//!    `routing::risk_sssp` oracle on adversarial random graphs (weights 0,
//!    ε, exact ties and 4000, isolated PoPs; ρ with negative, NaN and ∞
//!    entries) and one fixed square, at β = 0, finite β, and a β large
//!    enough that β·ρ overflows to the ∞-sanitized cost: dist bits,
//!    predecessors and paths. Distance trees carry no ρ; the planner's
//!    shortest legs sum it along the oracle's path, bit for bit.
//! 2. **Planner table.** Every planner workload is a row rendered to bytes
//!    (the `Debug` rendering, which round-trips every f64 bit-for-bit) and
//!    run under each configuration of route cache {on, off} × workers
//!    {1, 2, 4, 8}. Each configuration gets a freshly built planner, so a
//!    warm cache never hides a cold-path divergence. A row is compared
//!    against the cache-off sequential planner, or against an independent
//!    oracle where the row names one: full-tree `risk_route`/`shortest_route`
//!    answers, a planner built fresh at the evolved state or at each
//!    replay tick, a fresh planner given the fork's forecast, or, for the
//!    Eq. 5/6 term fold (`ratio_report_for`), the outcomes of the
//!    path-building `pair_sweep` aggregated by the reference. Budgeted
//!    rows also check the cut itself at every configuration: it stops on
//!    exhausted work at the budgeted stage boundary, and the resumed run
//!    completes.
//! 3. **Cache and fork rules** that only show in counters: pair-list
//!    answers are never cached, and a complete tree answers every pair
//!    query; distance trees survive a forecast change, and a
//!    forecast-only fork is a clone that reads the base's distance trees
//!    (it adopts none and runs no search).

use riskroute::engine::{sssp, sssp_to, Bound, Chords, CsrGraph, LbRow, Rho};
use riskroute::peering::score_peerings;
use riskroute::prelude::*;
use riskroute::provisioning::{greedy_links_budgeted, with_extra_link};
use riskroute::replay::{
    raw_advisories, replay_raw_advisories_budgeted, replay_storm, DisasterReplay, ReplaySession,
    ReplayTick,
};
use riskroute::routing::{risk_sssp, Adjacency, PairAnswer, RiskTree};
use riskroute::scenario::{base_exposure, run_sweep_budgeted, SweepPrior};
use riskroute::PairOutcome;
use riskroute_geo::distance::great_circle_miles;
use riskroute_geo::GeoPoint;
use riskroute_obs::{trace_counters, ObsScope};
use riskroute_rng::StdRng;
use riskroute_topology::colocation::DEFAULT_COLOCATION_MILES;
use riskroute_topology::Pop;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::OnceLock;

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

/// The Σρ a shortest leg to `v` must charge: ρ accumulated down the
/// oracle's path in path order, from 0.0.
fn path_rho_sum(oracle: &RiskTree, rho: &[f64], v: usize) -> f64 {
    oracle.path_to(v).map_or(f64::INFINITY, |path| {
        path.iter().skip(1).fold(0.0, |acc, &u| acc + rho[u])
    })
}

/// Every case — the random graphs plus [`square_case`]: graph, CSR
/// snapshot, ρ, β, and the oracle tree per source. At β = 0 the oracle
/// charges a literal zero entry cost, the distance tree the kernel
/// computes without reading ρ (so a NaN ρ leaves it routable).
fn engine_cases(
    seed: u64,
    mut check: impl FnMut(&str, &Adjacency, &CsrGraph, &Rho, f64, &[RiskTree]),
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cases: Vec<(Adjacency, Vec<f64>)> = (0..GRAPH_CASES)
        .map(|_| {
            let adj = random_adjacency(&mut rng);
            let rho = random_rho(&mut rng, adj.node_count());
            (adj, rho)
        })
        .collect();
    cases.push(square_case());
    for (case, (adj, rho)) in cases.into_iter().enumerate() {
        let csr = CsrGraph::from_adjacency(&adj);
        let rho = Rho::new(rho);
        for beta in BETAS {
            let oracle = oracle_trees(&adj, &rho, beta);
            check(
                &format!("case {case} β {beta}"),
                &adj,
                &csr,
                &rho,
                beta,
                &oracle,
            );
        }
    }
}

/// The oracle tree from every source under metric β over ρ.
fn oracle_trees(adj: &Adjacency, rho: &[f64], beta: f64) -> Vec<RiskTree> {
    (0..adj.node_count())
        .map(|s| risk_sssp(adj, s, |v| if beta == 0.0 { 0.0 } else { beta * rho[v] }))
        .collect()
}

#[test]
fn engine_sssp_matches_the_oracle() {
    engine_cases(0x5ca1e, |at, _, csr, rho, beta, oracle| {
        for (source, expect) in oracle.iter().enumerate() {
            let tree = sssp(csr, source, beta, rho);
            for v in 0..csr.node_count() {
                let at = format!("{at} {source}→{v}");
                assert_eq!(
                    tree.dist(v).to_bits(),
                    expect.dist(v).to_bits(),
                    "{at}: dist"
                );
                assert_eq!(tree.pred_slice()[v], expect.pred_slice()[v], "{at}: pred");
                assert_eq!(tree.path_to(v), expect.path_to(v), "{at}: path");
            }
        }
    });
}

/// Check one pair query's answer against the oracle tree: path and
/// distance bits.
fn assert_answer(at: &str, answer: Option<&PairAnswer>, expect: &RiskTree, target: usize) {
    let Some(answer) = answer else {
        assert!(!expect.reachable(target), "{at}: reachable target lost");
        return;
    };
    assert_eq!(
        Some(&answer.path),
        expect.path_to(target).as_ref(),
        "{at}: path"
    );
    assert_eq!(
        answer.dist.to_bits(),
        expect.dist(target).to_bits(),
        "{at}: dist"
    );
}

#[test]
fn pair_answer_matches_the_oracle() {
    let ((), c) = counted(|| {
        engine_cases(0xea51, |at, _, csr, rho, beta, oracle| {
            for (source, expect) in oracle.iter().enumerate() {
                let tree = sssp(csr, source, beta, rho);
                for target in 0..csr.node_count() {
                    let at = format!("{at} {source}→{target}");
                    let answer = sssp_to(csr, source, beta, rho, target, Bound::Zero);
                    assert_answer(&at, answer.as_ref(), expect, target);
                    // The whole tree's read of the same target is the same
                    // answer, bit for bit.
                    let whole = tree.pair_answer(target);
                    assert_eq!(answer.is_some(), whole.is_some(), "{at}: whole-tree read");
                    let (Some(answer), Some(whole)) = (answer, whole) else {
                        continue;
                    };
                    assert_eq!(answer.path, whole.path, "{at}: whole-tree path");
                    assert_eq!(answer.dist.to_bits(), whole.dist.to_bits(), "{at}");
                }
            }
        });
    });
    assert!(
        get(&c, "risk_sssp_early_exits") > 1000,
        "early exit never cut a run short"
    );
    assert_eq!(get(&c, "risk_sssp_tie_reruns"), 0, "h ≡ 0 never reruns");
}

/// Forecast terms added to a row's historical ρ: zeros, exact ties, and a
/// value that makes a negative historical entry routable.
const FORECAST_TERMS: [f64; 3] = [0.0, 0.25, 3.0];

/// A\* on lower-bound rows against the oracle, on every engine case (tied,
/// zero, ε and 4000-mile weights; NaN, ∞ and negative ρ; β = 0, β·ρ
/// overflow; isolated PoPs). Each target's row is built once, under the
/// case's ρ taken as historical risk, and then answers queries under that
/// ρ and under a later forecast that adds a non-negative term to it.
#[test]
fn goal_directed_pair_queries_match_the_oracle() {
    // Per-query counter scopes, summed: [A* pops and plain pops over the
    // queries that did not rerun, reruns, rows].
    let mut tally = [0u64; 4];
    engine_cases(0xa5a5, |at, adj, csr, rho, beta, oracle| {
        let n = csr.node_count();
        let (rows, c) = counted(|| (0..n).map(|t| LbRow::new(csr, rho, t)).collect::<Vec<_>>());
        tally[3] += get(&c, "lb_row_searches");
        let later = Rho::new(
            (0..n)
                .map(|v| rho[v] + FORECAST_TERMS[v % FORECAST_TERMS.len()])
                .collect(),
        );
        let later_oracle = oracle_trees(adj, &later, beta);
        for (rho, oracle, when) in [(rho, oracle, "now"), (&later, &later_oracle[..], "later")] {
            for (source, expect) in oracle.iter().enumerate() {
                for (target, row) in rows.iter().enumerate() {
                    let at = format!("{at} {when} {source}→{target}");
                    let (answer, c) =
                        counted(|| sssp_to(csr, source, beta, rho, target, Bound::Row(row)));
                    assert_answer(&at, answer.as_ref(), expect, target);
                    let (_, plain) =
                        counted(|| sssp_to(csr, source, beta, rho, target, Bound::Zero));
                    if get(&c, "risk_sssp_tie_reruns") == 0 {
                        tally[0] += get(&c, "risk_sssp_pops");
                        tally[1] += get(&plain, "risk_sssp_pops");
                    } else {
                        tally[2] += 1;
                    }
                }
            }
        }
    });
    let [astar_pops, plain_pops, reruns, rows] = tally;
    assert!(rows > 1000, "rows were built");
    assert!(reruns > 0, "the tied cases rerun with h ≡ 0");
    assert!(
        astar_pops < plain_pops,
        "the rows never narrowed a search: {astar_pops} A* pops vs {plain_pops} plain \
         ({reruns} reruns)"
    );
}

/// A random geographic graph: PoPs in a US-sized box, some of them
/// colocated (zero-mile links), every link its great-circle miles.
fn geographic_case(rng: &mut StdRng) -> (Vec<GeoPoint>, Adjacency) {
    let n = rng.gen_range(3..20usize);
    let mut points: Vec<GeoPoint> = Vec::with_capacity(n);
    for i in 0..n {
        let point = if i > 0 && rng.gen_bool(0.15) {
            points[rng.gen_range(0..i)]
        } else {
            GeoPoint::new(rng.gen_range(25.0..48.0), rng.gen_range(-124.0..-68.0))
                .expect("in range")
        };
        points.push(point);
    }
    let mut links: Vec<(usize, usize)> = (1..n).map(|i| (rng.gen_range(0..i), i)).collect();
    for _ in 0..rng.gen_range(0..2 * n) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            links.push((a, b));
        }
    }
    let adj = Adjacency::from_links(
        n,
        links
            .into_iter()
            .map(|(a, b)| (a, b, great_circle_miles(points[a], points[b]))),
    );
    (points, adj)
}

/// A\* on the chord bound against the oracle on geographic graphs, the
/// only graphs the bound applies to.
#[test]
fn chord_bound_pair_queries_match_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0xc0d);
    let ((), c) = counted(|| {
        for case in 0..GRAPH_CASES {
            let (points, adj) = geographic_case(&mut rng);
            let csr = CsrGraph::from_adjacency(&adj);
            let chords = Chords::new(&points, &csr).expect("great-circle links fit the chord");
            let rho = Rho::new(random_rho(&mut rng, adj.node_count()));
            for beta in BETAS {
                for (source, expect) in oracle_trees(&adj, &rho, beta).iter().enumerate() {
                    for target in 0..adj.node_count() {
                        let at = format!("case {case} β {beta} {source}→{target}");
                        let answer =
                            sssp_to(&csr, source, beta, &rho, target, Bound::Chord(&chords));
                        assert_answer(&at, answer.as_ref(), expect, target);
                    }
                }
            }
        }
    });
    assert!(get(&c, "risk_sssp_early_exits") > 1000);
}

/// A link shorter than the chord between its endpoints would let the
/// chord overestimate a path, so the bound is refused for the whole graph.
#[test]
fn chord_bound_switches_off_for_a_link_shorter_than_its_chord() {
    let points = [
        GeoPoint::new(35.0, -100.0).expect("in range"),
        GeoPoint::new(36.0, -98.0).expect("in range"),
        GeoPoint::new(37.0, -96.0).expect("in range"),
    ];
    let arc = |a: usize, b: usize| great_circle_miles(points[a], points[b]);
    let graph = |short: f64| {
        CsrGraph::from_adjacency(&Adjacency::from_links(
            3,
            vec![(0, 1, arc(0, 1)), (1, 2, arc(1, 2) * short)],
        ))
    };
    assert!(Chords::new(&points, &graph(1.0)).is_some());
    // A chord is shorter than its arc by ~θ²/24 (4.5e-5 here), so a link
    // 0.1% short of the arc is shorter than its chord.
    assert!(Chords::new(&points, &graph(0.999)).is_none());
    assert!(Chords::new(&points, &graph(0.5)).is_none());
}

/// Two predecessors tie for node 3 (1 + 2 + 0.5 = 2 + 1 + 0.5 = 3.5).
/// Dijkstra settles node 1 first and keeps it; the row, loose at node 2
/// (its least miles to the target run through the risky node 5, its least
/// risk through node 3), settles node 2 first. The second offer ties, so
/// the query reruns with h ≡ 0 and answers 0→1→3→4, not 0→2→3→4.
#[test]
fn a_tie_offered_out_of_dijkstra_order_reruns() {
    let adj = Adjacency::from_links(
        6,
        vec![
            (0, 1, 1.0),
            (0, 2, 2.0),
            (1, 3, 2.0),
            (2, 3, 1.0),
            (3, 4, 1.0),
            (2, 5, 0.1),
            (5, 4, 0.1),
        ],
    );
    let csr = CsrGraph::from_adjacency(&adj);
    let rho = Rho::new(vec![0.0, 0.0, 0.0, 0.5, 0.5, 1000.0]);
    let row = LbRow::new(&csr, &rho, 4);
    let (answer, c) = counted(|| sssp_to(&csr, 0, 1.0, &rho, 4, Bound::Row(&row)));
    assert_eq!(get(&c, "risk_sssp_tie_reruns"), 1);
    let oracle = oracle_trees(&adj, &rho, 1.0);
    assert_eq!(oracle[0].path_to(4), Some(vec![0, 1, 3, 4]));
    assert_answer("pred tie", answer.as_ref(), &oracle[0], 4);
}

/// Two frontier entries with the same key when the target settles: the
/// target (node 1) and node 2, which reaches it over a zero-mile link.
/// Node 1 pops first on the node-index tie-break and the query stops, but
/// node 2's entry is still at the target's key, so the query reruns with
/// h ≡ 0 — and answers exactly as the plain run does.
#[test]
fn an_equal_key_entry_at_the_stop_reruns() {
    let adj = Adjacency::from_links(3, vec![(0, 1, 1.0), (0, 2, 1.0), (2, 1, 0.0)]);
    let csr = CsrGraph::from_adjacency(&adj);
    let rho = Rho::new(vec![0.0; 3]);
    let row = LbRow::new(&csr, &rho, 1);
    let (answer, c) = counted(|| sssp_to(&csr, 0, 0.0, &rho, 1, Bound::Row(&row)));
    assert_eq!(get(&c, "risk_sssp_tie_reruns"), 1);
    assert_eq!(get(&c, "risk_sssp_runs"), 2);
    let oracle = oracle_trees(&adj, &rho, 0.0);
    assert_answer("stop tie", answer.as_ref(), &oracle[0], 1);
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

/// Route cache {on, off} × workers {1, 2, 4, 8}.
fn configs() -> impl Iterator<Item = Config> {
    [false, true]
        .into_iter()
        .flat_map(|cache| [1, 2, 4, 8].map(move |workers| Config { cache, workers }))
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

/// Historical risk alone (λ_f = 0), the weights under which a forecast
/// changes no ρ.
fn historical() -> RiskWeights {
    RiskWeights::historical_only(1e5)
}

differential_table! {
    ratio_report_cold_and_warm => ratio_report, None;
    ratio_terms_on_every_corpus_network =>
        |c| corpus_ratios(c, Fold::Terms), Some(|| corpus_ratios(REFERENCE, Fold::Outcomes));
    ratio_terms_on_a_partitioned_fork =>
        |c| fork_ratios(c, Fold::Terms), Some(|| fork_ratios(REFERENCE, Fold::Outcomes));
    ratio_terms_with_zero_beta_pairs =>
        |c| zero_beta_ratios(c, Fold::Terms), Some(|| zero_beta_ratios(REFERENCE, Fold::Outcomes));
    ratio_memo_serves_one_cost_state => ratio_memo, None;
    pair_sweeps_against_full_trees => pair_sweeps, Some(pair_sweeps_oracle);
    greedy_pick_sequence => greedy_picks, None;
    greedy_budget_cut_and_resume => greedy_cut_and_resume, None;
    peering_scores_on_a_merged_topology => peering_scores, None;
    replay_tick_series => |c| replay_ticks(RiskWeights::PAPER, c), None;
    replay_tick_series_under_historical_risk => |c| replay_ticks(historical(), c), None;
    replay_ticks_against_fresh_planners =>
        |c| replay_ticks(RiskWeights::PAPER, c), Some(fresh_replay_ticks);
    replay_budget_cut_and_resume => |c| replay_cut_and_resume(RiskWeights::PAPER, 2, c), None;
    // Half the 16-tick series.
    replay_budget_cut_and_resume_under_historical_risk =>
        |c| replay_cut_and_resume(historical(), 8, c), None;
    n1_sweep_records => n1_sweep, None;
    n1_budget_cut_and_resume => n1_cut_and_resume, None;
    n2_sweep_records => n2_sweep, None;
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

fn ratio_report(config: Config) -> String {
    let planner = telepak_planner(historical(), config);
    let cold = planner.ratio_report();
    let warm = planner.ratio_report();
    render(&(cold, warm))
}

/// How a ratio row folds its reports: straight from the sweep's Eq. 5/6
/// terms, or from the outcomes of the path-building sweep (the reference).
#[derive(Debug, Clone, Copy)]
enum Fold {
    Terms,
    Outcomes,
}

/// `planner`'s report over `sources` × `dests`, folded as `fold` says.
fn ratio_of(planner: &Planner, sources: &[usize], dests: &[usize], fold: Fold) -> RatioReport {
    match fold {
        Fold::Terms => planner.ratio_report_for(sources, dests),
        Fold::Outcomes => {
            let sweep = planner.pair_sweep(sources, dests);
            RatioReport::aggregate_with_stranded(sweep.outcomes.iter(), sweep.stranded.len())
        }
    }
}

/// Reports over all pairs (twice: cold, then warm) and over the even PoPs
/// to every PoP, rendered.
fn ratios_of(planner: &Planner, fold: Fold) -> String {
    let all: Vec<usize> = (0..planner.pop_count()).collect();
    let evens: Vec<usize> = all.iter().copied().step_by(2).collect();
    render(&[
        ratio_of(planner, &all, &all, fold),
        ratio_of(planner, &all, &all, fold),
        ratio_of(planner, &evens, &all, fold),
    ])
}

/// Every corpus network under the paper's weights.
fn corpus_ratios(config: Config, fold: Fold) -> String {
    let s = substrate();
    s.corpus
        .all_networks()
        .map(|net| {
            let planner = config.apply(Planner::for_network(
                net,
                &s.population,
                &s.hazards,
                RiskWeights::PAPER,
            ));
            format!("{}: {}", net.name(), ratios_of(&planner, fold))
        })
        .collect()
}

/// A Telepak fork with two PoPs failed: their pairs strand.
fn fork_ratios(config: Config, fold: Fold) -> String {
    let base = telepak_planner(RiskWeights::PAPER, config);
    let fork = ScenarioFork::fork(
        &base,
        ScenarioDelta::new().deactivate_node(3).deactivate_node(40),
    );
    let all: Vec<usize> = (0..base.pop_count()).collect();
    let report = ratio_of(fork.planner(), &all, &all, fold);
    assert_eq!(report.stranded_pairs, 4 * (all.len() - 1) - 2, "{config:?}");
    ratios_of(fork.planner(), fold)
}

/// The random networks under shares that are zero at every even PoP (so
/// β = 0 between two of them), with every third PoP's ρ overflowing to ∞
/// (a β = 0 leg through one charges 0·∞ = NaN risk miles).
fn zero_beta_ratios(config: Config, fold: Fold) -> String {
    let mut out = String::new();
    network_cases(|network, risk, shares, _| {
        let n = network.pop_count();
        let overflow: Vec<f64> = (0..n)
            .map(|v| if v % 3 == 0 { 1e300 } else { risk[v] })
            .collect();
        let half_zero = (0..n)
            .map(|v| if v % 2 == 0 { 0.0 } else { shares.share(v) })
            .collect();
        let planner = config.apply(Planner::new(
            network,
            NodeRisk::new(overflow, vec![0.0; n]),
            PopShares::from_shares(half_zero),
            RiskWeights::new(1e10, 1e3),
        ));
        out += &ratios_of(&planner, fold);
    });
    out
}

/// The route cache's `(entries, bytes)`, read off the planner's `Debug`
/// rendering — the one public view of the cache.
fn cache_size(planner: &Planner) -> (usize, usize) {
    let text = format!("{planner:?}");
    let at = text
        .find("RouteTreeCache { entries: ")
        .expect("the planner renders its cache");
    let mut numbers = text[at..]
        .split(|c: char| !c.is_ascii_digit())
        .filter(|w| !w.is_empty())
        .map(|w| w.parse().expect("a count"));
    let entries = numbers.next().expect("entries");
    (entries, numbers.next().expect("bytes"))
}

/// The ratio memo: one report per cost state, read again after a
/// bitwise-equal forecast, recomputed after a ρ-changing forecast and
/// after new weights, and charged for its lists only.
fn ratio_memo(config: Config) -> String {
    let mut planner = telepak_planner(RiskWeights::PAPER, config);
    let n = planner.pop_count();
    let all: Vec<usize> = (0..n).collect();
    let mut reports = Vec::new();
    // A pass's report, SSSP runs and route-cache hits and misses.
    let mut pass = |planner: &Planner, sources: &[usize]| {
        let (report, c) = counted(|| planner.ratio_report_for(sources, &all));
        reports.push(report);
        let get = |name| get(&c, name);
        (
            get("risk_sssp_runs"),
            get("route_cache_hits"),
            get("route_cache_misses"),
        )
    };
    let (runs, _, _) = pass(&planner, &all);
    assert!(runs > 0);
    let cold = cache_size(&planner);
    assert_eq!(cold.0, usize::from(config.cache) * (n + 1), "{config:?}");

    // Resubmitting the active forecast bit for bit keeps the cost state:
    // with the cache, one memo hit and no search.
    planner.set_forecast(vec![0.0; n]);
    let (runs, hits, misses) = pass(&planner, &all);
    if config.cache {
        assert_eq!((runs, hits, misses), (0, 1, 0));
    } else {
        assert!(runs > 0 && hits + misses == 0);
    }
    // Other lists in the same cost state miss, and the state keeps its
    // one memo.
    pass(&planner, &all[1..]);
    assert_eq!(cache_size(&planner), cold, "{config:?}");

    // A ρ-changing forecast, then new weights: each a new cost state that
    // misses and adds one memo, charged for its two lists — never per pair.
    let memo_bytes = |before: (usize, usize), after: (usize, usize)| {
        assert_eq!(after.0, before.0 + usize::from(config.cache), "{config:?}");
        let grown = after.1 - before.1;
        if config.cache {
            assert!((16 * n..16 * n + 256).contains(&grown), "{grown} bytes");
        } else {
            assert_eq!(grown, 0);
        }
    };
    let before = cache_size(&planner);
    planner.set_forecast(override_forecast());
    let (runs, _, _) = pass(&planner, &all);
    assert!(runs > 0);
    memo_bytes(before, cache_size(&planner));
    let before = cache_size(&planner);
    planner.set_weights(RiskWeights::new(1e6, 1e4));
    let (runs, _, _) = pass(&planner, &all);
    assert!(runs > 0);
    memo_bytes(before, cache_size(&planner));
    let (runs, _, _) = pass(&planner, &all);
    assert_eq!(runs == 0, config.cache, "{config:?}");
    render(&reports)
}

fn greedy_picks(config: Config) -> String {
    let planner = telepak_planner(historical(), config);
    let picks = greedy_links(telepak(), &planner, 3);
    assert!(
        !picks.added.is_empty(),
        "fixture must actually choose links"
    );
    render(&picks)
}

fn greedy_cut_and_resume(config: Config) -> String {
    let net = telepak();
    let planner = telepak_planner(historical(), config);
    let budget = WorkBudget::unlimited().with_max_work(1);
    let cut = greedy_links_budgeted(net, &planner, 3, None, &budget, |_| {});
    let Budgeted::Partial { completed, stopped } = cut.clone() else {
        panic!("a 1-unit budget must stop a 3-link search ({config:?})");
    };
    assert_eq!(stopped, StopReason::WorkExhausted);
    let resumed = greedy_links_budgeted(
        net,
        &planner,
        3,
        Some(completed),
        &WorkBudget::unlimited(),
        |_| {},
    );
    assert!(
        matches!(resumed, Budgeted::Complete(_)),
        "unlimited resume never stops"
    );
    render(&(cut, resumed))
}

/// Figure 11's peering scores for one regional network of a small merged
/// topology: a regional network, the networks it could peer with, and a
/// regional network it already reaches.
fn peering_scores(config: Config) -> String {
    let s = substrate();
    let networks: Vec<&Network> = ["Gridnet", "AT&T", "Sprint", "NTT", "Iris", "CoStreet"]
        .into_iter()
        .map(|name| s.corpus.network(name).expect("corpus network"))
        .collect();
    let fresh = InterdomainAnalysis::new(
        &networks,
        &s.corpus.peering,
        &s.population,
        &s.hazards,
        historical(),
    );
    let analysis = InterdomainAnalysis::from_parts(
        fresh.topology().clone(),
        config.apply(fresh.planner().clone()),
    );
    let topo = analysis.topology();
    let pops = |name: &str| topo.pops_of(name).expect("merged network");
    let dests: Vec<usize> = ["Gridnet", "Iris", "CoStreet"]
        .into_iter()
        .flat_map(pops)
        .collect();
    let scored = score_peerings(
        &analysis,
        networks[0],
        &networks[1..],
        &s.corpus.peering,
        DEFAULT_COLOCATION_MILES,
        &pops("Gridnet"),
        &dests,
    );
    assert!(scored.len() >= 2, "fixture needs rival peers: {scored:?}");
    render(&scored)
}

fn replay_ticks(weights: RiskWeights, config: Config) -> String {
    let planner = telepak_planner(weights, config);
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

/// A replay cut after `cut` ticks, then resumed: the cut lands on exactly
/// that tick boundary.
fn replay_cut_and_resume(weights: RiskWeights, cut: u64, config: Config) -> String {
    let net = telepak();
    let planner = telepak_planner(weights, config);
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
            |_| {},
        )
        .expect("replay")
    };
    let partial = run(Vec::new(), &WorkBudget::unlimited().with_max_work(cut));
    let Budgeted::Partial { completed, stopped } = partial.clone() else {
        panic!("a {cut}-tick budget must stop the replay ({config:?})");
    };
    assert_eq!(stopped, StopReason::WorkExhausted);
    assert_eq!(
        completed.ticks.len() as u64,
        cut,
        "the cut must land on tick {cut} ({config:?})"
    );
    let resumed = run(completed.ticks, &WorkBudget::unlimited());
    assert!(
        matches!(resumed, Budgeted::Complete(_)),
        "unlimited resume never stops"
    );
    render(&(partial, resumed))
}

fn n1_sweep(config: Config) -> String {
    let planner = telepak_planner(RiskWeights::PAPER, config);
    let swept = run_sweep(&planner, telepak(), SweepMode::N1).expect("sweep");
    assert_eq!(
        swept.records.len(),
        telepak().pop_count() + telepak().link_count(),
        "N-1 must cover every node and every link"
    );
    render(&swept)
}

/// An N-1 sweep cut after 5 scenarios, then resumed: the cut is the
/// uninterrupted sweep's 5-record prefix and the resumed sweep is the
/// uninterrupted one.
fn n1_cut_and_resume(config: Config) -> String {
    let net = telepak();
    let planner = telepak_planner(historical(), config);
    let uninterrupted = run_sweep(&planner, net, SweepMode::N1).expect("sweep");
    let budget = WorkBudget::unlimited().with_max_work(5);
    let cut =
        run_sweep_budgeted(&planner, net, SweepMode::N1, None, &budget, |_| {}).expect("sweep");
    let Budgeted::Partial { completed, stopped } = cut.clone() else {
        panic!("a 5-scenario budget must cut the sweep ({config:?})");
    };
    assert_eq!(stopped, StopReason::WorkExhausted);
    assert_eq!(
        completed.records[..],
        uninterrupted.records[..5],
        "{config:?}"
    );
    let prior = SweepPrior {
        baseline: completed.baseline,
        records: completed.records,
    };
    let resumed = run_sweep_budgeted(
        &planner,
        net,
        SweepMode::N1,
        Some(prior),
        &WorkBudget::unlimited(),
        |_| {},
    )
    .expect("sweep");
    let (resumed, stopped) = resumed.into_parts();
    assert!(stopped.is_none(), "unlimited resume never stops");
    assert_eq!(resumed, uninterrupted, "{config:?}");
    render(&(cut, resumed))
}

/// Sampled N-2: every scenario a fork of a fork.
fn n2_sweep(config: Config) -> String {
    let planner = telepak_planner(historical(), config);
    let mode = SweepMode::N2 {
        samples: 12,
        seed: 7,
    };
    render(&run_sweep(&planner, telepak(), mode).expect("sweep"))
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
    let cut = run_sweep_budgeted(&planner, net, mode, None, &budget, |_| {}).expect("sweep");
    let Budgeted::Partial { completed, stopped } = cut.clone() else {
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
        |_| {},
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

/// List sweep (pair answers for both legs), full sweep over the same
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

/// A pair sweep's outcomes and stranded pairs from full-tree readers
/// only: one `risk_route` and one `shortest_route` per pair on a
/// cache-off clone of `planner`.
fn full_tree_answers(
    planner: &Planner,
    pairs: &[(usize, usize)],
) -> (Vec<PairOutcome>, Vec<(usize, usize)>) {
    let planner = planner.clone().with_route_cache(false);
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
}

/// Every ordered pair over `n` PoPs.
fn all_pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect()
}

/// The same answers from full-tree readers only.
fn pair_sweeps_oracle() -> String {
    let mut out = String::new();
    network_cases(|network, risk, shares, pairs| {
        let n = network.pop_count();
        let planner = random_planner(network, risk, vec![0.0; n], shares);
        out += &render(&(
            full_tree_answers(&planner, pairs),
            full_tree_answers(&planner, &all_pairs(n)),
            full_tree_answers(&planner, pairs),
        ));
    });
    out
}

/// The shortest legs' Σρ, read off distance trees that carry none, against
/// the oracle path's sum. Three ρ families per random network: its own
/// historical risk; that risk with every third PoP's ρ overflowing to ∞,
/// under shares that are zero at every even PoP (so β = 0 between two of
/// them, and a leg through an ∞ PoP charges 0·∞ = NaN risk miles); and
/// all-zero ρ. Each family's planner, cache off and on, answers
/// `shortest_route` for every ordered pair, `pair_sweep` over all pairs
/// and `pair_list_sweep` over the case's list, and its `base_exposure`
/// folds the same legs — and again after a forecast change, which keeps a
/// warm planner's distance trees.
#[test]
fn shortest_legs_sum_rho_along_the_oracle_path() {
    let mut legs = [0usize; 2];
    network_cases(|network, risk, shares, pairs| {
        let n = network.pop_count();
        let all: Vec<usize> = (0..n).collect();
        let overflow: Vec<f64> = (0..n)
            .map(|v| if v % 3 == 0 { 1e300 } else { risk[v] })
            .collect();
        let half_zero = (0..n)
            .map(|v| if v % 2 == 0 { 0.0 } else { shares.share(v) })
            .collect();
        let families = [
            (risk.to_vec(), RiskWeights::PAPER, shares.clone()),
            (
                overflow,
                RiskWeights::new(1e10, 1e3),
                PopShares::from_shares(half_zero),
            ),
            (vec![0.0; n], RiskWeights::PAPER, shares.clone()),
        ];
        let forecast: Vec<f64> = (0..n).map(|v| FORECAST_TERMS[v % 3]).collect();
        // The oracle's graph comes from the network's own links, not the
        // planner.
        let adj = Adjacency::from_links(n, network.links().iter().map(|l| (l.a, l.b, l.miles)));
        for (family, (risk, weights, shares)) in families.into_iter().enumerate() {
            for cache in [false, true] {
                let mut planner = Planner::new(
                    network,
                    NodeRisk::new(risk.clone(), vec![0.0; n]),
                    shares.clone(),
                    weights,
                )
                .with_route_cache(cache);
                let oracle: Vec<RiskTree> = (0..n).map(|s| risk_sssp(&adj, s, |_| 0.0)).collect();
                for state in ["now", "later"] {
                    if state == "later" {
                        planner.set_forecast(forecast.clone());
                    }
                    let rho: Vec<f64> = (0..n).map(|v| planner.risk().scaled(v, weights)).collect();
                    let mut check = |i: usize, j: usize, leg: &RoutedPath| {
                        let at = format!(
                            "{} family {family} cache {cache} {state} {i}→{j}",
                            network.name()
                        );
                        let expect = &oracle[i];
                        assert_eq!(Some(&leg.nodes), expect.path_to(j).as_ref(), "{at}: path");
                        assert_eq!(leg.bit_miles.to_bits(), expect.dist(j).to_bits(), "{at}");
                        let risk_miles = planner.impact(i, j) * path_rho_sum(expect, &rho, j);
                        assert_eq!(leg.risk_miles.to_bits(), risk_miles.to_bits(), "{at}");
                        assert_eq!(
                            leg.bit_risk_miles.to_bits(),
                            (expect.dist(j) + risk_miles).to_bits(),
                            "{at}"
                        );
                        legs[usize::from(risk_miles.is_nan())] += 1;
                    };
                    for (i, j) in all_pairs(n).into_iter().filter(|(i, j)| i != j) {
                        match planner.shortest_route(i, j) {
                            Some(leg) => check(i, j, &leg),
                            None => assert!(!oracle[i].reachable(j)),
                        }
                    }
                    let sweep = planner.pair_sweep(&all, &all);
                    let list = planner.pair_list_sweep(pairs);
                    for o in sweep.outcomes.iter().chain(&list.outcomes) {
                        check(o.src, o.dst, &o.shortest);
                    }
                    // Scenario exposure reads the same sums, folded over
                    // i < j in order.
                    let (mut total, mut routable) = (0.0, 0);
                    for (i, j) in all_pairs(n).into_iter().filter(|(i, j)| i < j) {
                        if oracle[i].reachable(j) {
                            let beta = planner.impact(i, j);
                            total += oracle[i].dist(j) + beta * path_rho_sum(&oracle[i], &rho, j);
                            routable += 1;
                        }
                    }
                    let exposure = base_exposure(&planner);
                    assert_eq!(
                        (exposure.bit_risk_total.to_bits(), exposure.routable_pairs),
                        (total.to_bits(), routable),
                        "{} family {family} cache {cache} {state}: exposure",
                        network.name()
                    );
                }
            }
        }
    });
    let [finite, nan] = legs;
    assert!(finite > 1000, "only {finite} legs checked");
    assert!(nan > 0, "no leg charged 0·∞");
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
    [RiskWeights::PAPER, historical()]
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
fn pair_answers_never_reach_full_tree_readers() {
    let (network, _) = chain();
    let oracle = chain_planner(&network, false);
    let all: Vec<usize> = (0..8).collect();

    // A pair-list query to the nearest neighbour runs both legs (β and
    // β = 0) as early-exit queries rooted at 0 and caches nothing.
    let planner = chain_planner(&network, true);
    let (_, c) = counted(|| planner.pair_list_sweep(&[(0, 1)]));
    assert_eq!(get(&c, "risk_sssp_runs"), 2);
    assert_eq!(get(&c, "risk_sssp_early_exits"), 2);
    assert_eq!(get(&c, "route_cache_misses"), 2);

    // risk_route's tree: a miss, and a full run builds the tree.
    let (route, c) = counted(|| planner.risk_route(0, 7));
    assert!(route.is_some());
    assert_eq!(route, oracle.risk_route(0, 7));
    assert_eq!(get(&c, "route_cache_misses"), 1);
    assert_eq!(get(&c, "route_cache_hits"), 0);
    assert_eq!(get(&c, "risk_sssp_runs"), 1);
    assert_eq!(get(&c, "risk_sssp_early_exits"), 0);

    // A pair query to a new target runs one early-exit distance query;
    // the RiskRoute leg hits the complete tree just built.
    let (sweep, c) = counted(|| planner.pair_list_sweep(&[(0, 7)]));
    assert_eq!(sweep.outcomes, oracle.pair_list_sweep(&[(0, 7)]).outcomes);
    assert_eq!(get(&c, "route_cache_misses"), 1);
    assert_eq!(get(&c, "route_cache_hits"), 1);
    assert_eq!(get(&c, "risk_sssp_runs"), 1);
    assert_eq!(get(&c, "risk_sssp_early_exits"), 1);

    // The complete β tree answers any target; no β = 0 leg was cached, so
    // every one runs, repeated targets included.
    let (_, c) = counted(|| planner.pair_list_sweep(&[(0, 4), (0, 6), (0, 1), (0, 7)]));
    assert_eq!(get(&c, "route_cache_hits"), 4);
    assert_eq!(get(&c, "route_cache_misses"), 4);
    assert_eq!(get(&c, "risk_sssp_runs"), 4);
    assert_eq!(get(&c, "risk_sssp_tie_reruns"), 0);

    // Scenario-fork adoption takes distance trees only: a base that ran
    // pair queries alone has none. The delta cuts PoP 7 off, so the one
    // tree adopted (rooted at 0, reaching 7) is rebuilt without it, not
    // shared.
    let delta = ScenarioDelta::new().deactivate_link(6, 7);
    let partial_base = chain_planner(&network, true);
    partial_base.pair_list_sweep(&[(0, 1)]);
    let (fork, c) = counted(|| ScenarioFork::fork(&partial_base, delta.clone()));
    assert_eq!(get(&c, "scenario_trees_adopted"), 0);
    assert_eq!(get(&c, "scenario_trees_copied"), 0);
    let full_base = chain_planner(&network, true);
    full_base.shortest_route(0, 7);
    let (full_fork, c) = counted(|| ScenarioFork::fork(&full_base, delta.clone()));
    assert_eq!(
        get(&c, "scenario_trees_adopted"),
        1,
        "complete trees are adopted"
    );
    assert_eq!(
        get(&c, "scenario_trees_copied"),
        1,
        "a partitioned tree is copied"
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
    // of pair answers must not move its picks.
    let warm = chain_planner(&network, true);
    warm.pair_sweep(&all, &all);
    warm.pair_list_sweep(&[(0, 1), (3, 4), (7, 6)]);
    assert_eq!(
        greedy_links(&network, &warm, 2),
        greedy_links(&network, &oracle, 2)
    );
}

/// A forecast-only fork is a clone of its base: whether the override
/// changes ρ (the paper's weights) or cannot (λ_f = 0), it adopts no tree
/// and its exposure reads the warm base's distance trees, running no
/// search at all.
#[test]
fn forecast_forks_share_the_base_distance_trees() {
    for weights in fork_weights() {
        let base = telepak_planner(
            weights,
            Config {
                cache: true,
                workers: 1,
            },
        );
        let _ = base_exposure(&base);
        let (_, c) = counted(|| {
            let fork = ScenarioFork::fork(
                &base,
                ScenarioDelta::new().with_forecast(override_forecast()),
            );
            fork.exposure()
        });
        assert_eq!(get(&c, "forks_created"), 1);
        assert_eq!(get(&c, "forks_reused_cache"), 1);
        // Published as 0, not left out.
        assert_eq!(c.get("scenario_trees_adopted"), Some(&0), "{weights:?}");
        assert_eq!(c.get("scenario_trees_copied"), Some(&0), "{weights:?}");
        assert_eq!(get(&c, "risk_sssp_runs"), 0, "{weights:?}");
    }
}

/// A forecast change keeps every distance tree: after it the warm
/// planner's sweep runs only its 56 β > 0 pair queries (no distance tree,
/// no row), and answers as a planner built fresh at the new forecast does.
#[test]
fn distance_trees_survive_a_forecast_change() {
    let (network, _) = chain();
    let all: Vec<usize> = (0..8).collect();
    let mut planner = chain_planner(&network, true);
    let (_, c) = counted(|| planner.pair_sweep(&all, &all));
    assert_eq!(
        get(&c, "risk_sssp_runs"),
        8 + 8 + 56,
        "trees, rows, queries"
    );
    let forecast = vec![0.0, 0.3, 0.0, 0.1, 0.5, 0.0, 0.2, 0.0];
    planner.set_forecast(forecast.clone());
    let (sweep, c) = counted(|| planner.pair_sweep(&all, &all));
    assert_eq!(get(&c, "risk_sssp_runs"), 56);
    assert_eq!(get(&c, "lb_row_searches"), 0);
    assert_eq!(get(&c, "risk_sssp_tie_reruns"), 0);
    let (_, risk) = chain();
    let fresh = Planner::new(
        &network,
        NodeRisk::new(risk, forecast),
        PopShares::from_shares(vec![0.125; 8]),
        RiskWeights::PAPER,
    )
    .with_route_cache(false);
    assert_eq!(render(&sweep), render(&fresh.pair_sweep(&all, &all)));
}

/// Lower-bound rows are reused only where they still bound every path:
/// one row per target on first use; a later forecast and a removal-only
/// fork reuse every row; new λ weights, and the planner greedy provisioning
/// builds over an added link, start with none. Every sweep matches the
/// full-tree answers.
#[test]
fn lower_bound_rows_are_reused_only_where_they_still_bound() {
    let (network, _) = chain();
    let all: Vec<usize> = (0..8).collect();
    // Sweep under a fresh counter scope: the rows it built, checked
    // against the full-tree answers.
    let sweep_rows = |planner: &Planner| {
        let (sweep, c) = counted(|| planner.pair_sweep(&all, &all));
        assert_eq!(
            (sweep.outcomes, sweep.stranded),
            full_tree_answers(planner, &all_pairs(8))
        );
        assert_eq!(get(&c, "risk_sssp_tie_reruns"), 0);
        get(&c, "lb_row_searches")
    };
    let mut planner = chain_planner(&network, true);
    assert_eq!(sweep_rows(&planner), 8, "one row per target");
    assert_eq!(sweep_rows(&planner), 0, "a warm sweep reuses every row");
    planner.set_forecast(vec![0.0, 0.3, 0.0, 0.1, 0.5, 0.0, 0.2, 0.0]);
    assert_eq!(sweep_rows(&planner), 0, "rows serve every forecast");
    let fork = ScenarioFork::fork(&planner, ScenarioDelta::new().deactivate_link(2, 5));
    assert_eq!(
        sweep_rows(fork.planner()),
        0,
        "a removal-only fork shares them"
    );
    planner.set_weights(RiskWeights::historical_only(1e6));
    assert_eq!(sweep_rows(&planner), 8, "new weights drop them");
    let next = chain_planner(&with_extra_link(&network, 0, 7), true);
    assert_eq!(sweep_rows(&next), 8, "an added link starts with none");
}
