//! Robustness analysis: which new PoP-to-PoP links best reduce total
//! bit-risk miles (§6.3, Eq. 4).
//!
//! The candidate set `E_C` is "the collection of all links that currently do
//! not appear in the network", restricted by the paper's footnote 3 to
//! "links that would result in a >50 % reduction in bit-miles between the
//! two PoPs" — which removes impractical cross-country express links.
//!
//! Evaluating every candidate naively re-solves all-pairs RiskRoute per
//! candidate. We instead exploit the structure of the metric: for a pair
//! (i, j), a new link (a, b) can only improve the route via
//! `dist(i→a) + w(a→b) + dist(b→j)` (or the mirror), and
//! `dist(b→j) = dist(j→b) + β·(ρ(j) − ρ(b))` because reversing a path only
//! relocates the endpoint risk charges. Two SSSP trees per pair therefore
//! price *every* candidate in O(1) each.

use crate::budget::{Budgeted, WorkBudget};
use crate::intradomain::{unordered_pairs, Planner};
use riskroute_geo::distance::great_circle_miles;
use riskroute_topology::{Network, PopId};

/// The paper's footnote-3 shortcut threshold: a candidate link must cut the
/// bit-mile distance between its endpoints by more than this fraction.
pub const SHORTCUT_THRESHOLD: f64 = 0.5;

/// Relaxation ladder for [`greedy_links`]: when no candidate passes the
/// strict footnote-3 threshold (well-meshed maps have no stretch-2 pairs at
/// all), the search relaxes stepwise — the footnote's *intent* is to
/// exclude impractical cross-country links, which the milder thresholds
/// still do. The threshold actually used is recorded on every
/// [`CandidateLink`].
pub const THRESHOLD_LADDER: &[f64] = &[SHORTCUT_THRESHOLD, 0.35, 0.2];

/// A scored candidate link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateLink {
    /// One endpoint.
    pub a: PopId,
    /// The other endpoint.
    pub b: PopId,
    /// Great-circle length of the would-be link, miles.
    pub miles: f64,
    /// Total aggregated bit-risk miles of the network *with* this link.
    pub total_bit_risk: f64,
    /// The shortcut threshold the candidate passed (footnote 3 uses 0.5;
    /// [`greedy_links`] may relax along [`THRESHOLD_LADDER`]).
    pub shortcut_threshold: f64,
}

/// Result of a greedy link-addition run.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyLinks {
    /// Total aggregated bit-risk miles of the original network.
    pub original_bit_risk: f64,
    /// The links chosen, in greedy order, with the total after each
    /// addition.
    pub added: Vec<CandidateLink>,
}

impl GreedyLinks {
    /// Fraction of the original bit-risk miles remaining after each added
    /// link — the y-axis of Figure 10.
    pub fn fraction_series(&self) -> Vec<f64> {
        self.added
            .iter()
            .map(|c| c.total_bit_risk / self.original_bit_risk)
            .collect()
    }
}

/// Enumerate the candidate links of `network`: non-edges whose direct
/// distance is under `(1 − SHORTCUT_THRESHOLD)` of the current bit-mile
/// shortest-path distance between the endpoints (footnote 3).
pub fn candidate_links(network: &Network, planner: &Planner) -> Vec<(PopId, PopId, f64)> {
    candidate_links_with_threshold(network, planner, SHORTCUT_THRESHOLD)
}

/// [`candidate_links`] with an explicit shortcut threshold in `(0, 1)`.
///
/// # Panics
/// Panics when `threshold` is outside `(0, 1)`.
pub fn candidate_links_with_threshold(
    network: &Network,
    planner: &Planner,
    threshold: f64,
) -> Vec<(PopId, PopId, f64)> {
    assert!(
        threshold.is_finite() && threshold > 0.0 && threshold < 1.0,
        "threshold must be in (0, 1)"
    );
    let n = network.pop_count();
    let sources: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    riskroute_par::par_fold(
        planner.parallelism(),
        &sources,
        &mut out,
        Vec::new,
        |&i, out: &mut Vec<(PopId, PopId, f64)>| {
            // Pure-distance tree from i (β = 0 ⇒ entry costs vanish).
            let tree = planner.risk_tree_distance(i);
            for j in (i + 1)..n {
                if network.has_link(i, j) {
                    continue;
                }
                let direct = great_circle_miles(network.location(i), network.location(j));
                let current = tree.dist(j);
                // Disconnected pairs always qualify: any new link is an
                // infinite improvement.
                if !current.is_finite() || direct < (1.0 - threshold) * current {
                    out.push((i, j, direct));
                }
            }
        },
        Vec::extend,
    );
    out
}

/// Candidates at the strictest rung of [`THRESHOLD_LADDER`] that admits
/// any, plus the threshold used. Empty only when even the mildest rung has
/// no candidates.
pub fn candidate_links_adaptive(
    network: &Network,
    planner: &Planner,
) -> (Vec<(PopId, PopId, f64)>, f64) {
    for &t in THRESHOLD_LADDER {
        let c = candidate_links_with_threshold(network, planner, t);
        if !c.is_empty() {
            return (c, t);
        }
    }
    let mildest = THRESHOLD_LADDER
        .last()
        .copied()
        .unwrap_or(SHORTCUT_THRESHOLD);
    (Vec::new(), mildest)
}

/// Score every candidate link: the network's total aggregated bit-risk
/// miles if that single link were added (Eq. 4's objective). Candidates are
/// returned sorted best (lowest total) first.
pub fn score_candidates(
    network: &Network,
    planner: &Planner,
    candidates: &[(PopId, PopId, f64)],
) -> Vec<CandidateLink> {
    score_candidates_budgeted(network, planner, candidates, &WorkBudget::unlimited())
}

/// [`score_candidates`], charging one unit of work per candidate evaluated
/// to `budget`. The sweep itself is one clean stage: it always completes
/// once started (pricing is O(1) per candidate after the per-pair SSSP
/// trees), and callers observe exhaustion at the next stage boundary.
pub fn score_candidates_budgeted(
    network: &Network,
    planner: &Planner,
    candidates: &[(PopId, PopId, f64)],
    budget: &WorkBudget,
) -> Vec<CandidateLink> {
    let _obs = budget.scope().enter();
    budget.charge(candidates.len() as u64);
    riskroute_obs::counter_add("provision_candidates_scored", candidates.len() as u64);
    let rho = planner.rho();
    // Totals accumulate pair-major in lexicographic pair order at any
    // worker count, because float addition is non-associative and the
    // totals feed a total-ordered argmax; `-0.0` is the exact identity a
    // pooled per-pair part starts from.
    let mut totals = vec![0.0_f64; candidates.len()];
    riskroute_par::par_fold(
        planner.parallelism(),
        &unordered_pairs(network.pop_count()),
        &mut totals,
        || vec![-0.0; candidates.len()],
        |&(i, j), totals: &mut Vec<f64>| {
            let beta = planner.impact(i, j);
            let tree_i = planner.risk_tree(i, beta);
            let tree_j = planner.risk_tree(j, beta);
            let pricer = ViaPricer::new(&tree_i, &tree_j, rho, beta, j);
            let old = tree_i.dist(j);
            for (total, &(a, b, miles)) in totals.iter_mut().zip(candidates) {
                let new = old.min(pricer.best_via(a, b, miles));
                // Unreachable pairs stay unreachable only if the candidate
                // does not bridge them; skip still-infinite contributions
                // so totals remain comparable (all candidates see the same
                // pair set).
                if new.is_finite() {
                    *total += new;
                }
            }
        },
        |totals, part| {
            for (total, p) in totals.iter_mut().zip(part) {
                *total += p;
            }
        },
    );

    let mut scored: Vec<CandidateLink> = candidates
        .iter()
        .zip(&totals)
        .map(|(&(a, b, miles), &total_bit_risk)| CandidateLink {
            a,
            b,
            miles,
            total_bit_risk,
            shortcut_threshold: SHORTCUT_THRESHOLD,
        })
        .collect();
    // Tie-break audit: the greedy argmax picks `scored[0]`, so the ranking
    // key must be total regardless of input order or NaN totals. `total_cmp`
    // is a total order over f64 (NaN sorts after every finite total, so a
    // poisoned candidate can never win), and exact ties — symmetric
    // topologies produce bit-identical totals — fall through to the
    // deterministic `(a, b)` endpoint key. Equivalent to the issue's
    // `(gain, src, dst)` key since gain = original − total with original
    // fixed across candidates.
    scored.sort_by(|x, y| {
        x.total_bit_risk
            .total_cmp(&y.total_bit_risk)
            .then(x.a.cmp(&y.a))
            .then(x.b.cmp(&y.b))
    });
    scored
}

/// Prices "route i→j forced through new link (a, b)" in O(1) per candidate
/// from one (i, j) pair's two SSSP trees. Carries everything β-dependent
/// precomputed so the per-candidate call takes only the candidate itself.
///
/// NaN audit: tree distances are never NaN (the engine sanitizes costs),
/// and `rev` maps unreachable to `+∞`, so the `min` in
/// [`ViaPricer::best_via`] is safe — a NaN could only enter via a
/// non-finite `miles`, which the candidate enumerators never produce
/// (great-circle distances are finite).
pub(crate) struct ViaPricer<'a> {
    tree_i: &'a crate::routing::RiskTree,
    tree_j: &'a crate::routing::RiskTree,
    rho: &'a [f64],
    beta: f64,
    /// β·ρ(j), fixed across candidates for the pair.
    rho_j: f64,
}

impl<'a> ViaPricer<'a> {
    pub(crate) fn new(
        tree_i: &'a crate::routing::RiskTree,
        tree_j: &'a crate::routing::RiskTree,
        rho: &'a [f64],
        beta: f64,
        j: usize,
    ) -> Self {
        let rho_j = beta * rho[j];
        ViaPricer {
            tree_i,
            tree_j,
            rho,
            beta,
            rho_j,
        }
    }

    /// β·ρ(v): the pair-scaled entry cost of PoP v.
    #[inline]
    fn rho_at(&self, v: usize) -> f64 {
        self.beta * self.rho[v]
    }

    /// dist(x→j) = dist(j→x) + β(ρ(j) − ρ(x)): reversing a path relocates
    /// the uncharged-endpoint from j to x.
    #[inline]
    fn rev(&self, x: usize) -> f64 {
        let d = self.tree_j.dist(x);
        if d.is_finite() {
            d + self.rho_j - self.rho_at(x)
        } else {
            f64::INFINITY
        }
    }

    /// Best bit-risk route i→j forced through new link (a, b), in either
    /// orientation.
    pub(crate) fn best_via(&self, a: usize, b: usize, miles: f64) -> f64 {
        let via_ab = self.tree_i.dist(a) + miles + self.rho_at(b) + self.rev(b);
        let via_ba = self.tree_i.dist(b) + miles + self.rho_at(a) + self.rev(a);
        via_ab.min(via_ba)
    }
}

/// Eq. 4: the single best additional link, or `None` when no candidate
/// passes the footnote-3 filter.
pub fn best_additional_link(network: &Network, planner: &Planner) -> Option<CandidateLink> {
    let cands = candidate_links(network, planner);
    if cands.is_empty() {
        return None;
    }
    score_candidates(network, planner, &cands)
        .into_iter()
        .next()
}

/// [`best_additional_link`] with threshold relaxation along
/// [`THRESHOLD_LADDER`], charging candidate evaluations to `budget`; the
/// returned link records the threshold it passed.
pub fn best_additional_link_adaptive_budgeted(
    network: &Network,
    planner: &Planner,
    budget: &WorkBudget,
) -> Option<CandidateLink> {
    let (cands, threshold) = candidate_links_adaptive(network, planner);
    if cands.is_empty() {
        return None;
    }
    score_candidates_budgeted(network, planner, &cands, budget)
        .into_iter()
        .next()
        .map(|c| CandidateLink {
            shortcut_threshold: threshold,
            ..c
        })
}

/// Greedy k-link augmentation (§6.3): repeatedly add the best candidate and
/// re-evaluate. Returns fewer than `k` links when candidates run out.
///
/// `rebuild` must construct a fresh planner for an augmented copy of the
/// network (risk vectors and shares are position-stable because PoPs never
/// change, so callers normally reuse them).
pub fn greedy_links(
    network: &Network,
    planner: &Planner,
    k: usize,
    rebuild: impl FnMut(&Network) -> Planner,
) -> GreedyLinks {
    let (links, _) = greedy_links_budgeted(
        network,
        planner,
        k,
        rebuild,
        None,
        &WorkBudget::unlimited(),
        |_| {},
    )
    .into_parts();
    links
}

/// [`greedy_links`] under a [`WorkBudget`], continuing from `prior` when
/// given (a completed prefix, e.g. one loaded from a checkpoint snapshot).
///
/// `network`/`planner` are the **unaugmented** inputs of the run; the
/// prior links are reapplied first. The budget is checked before every
/// greedy iteration (a clean stage boundary), and candidate evaluations
/// inside [`score_candidates_budgeted`] are charged as work. When the
/// budget runs out the call returns [`Budgeted::Partial`] with the links
/// chosen so far — a consistent prefix of the uninterrupted run — instead
/// of being killed mid-flight. Because every greedy iteration is a
/// deterministic function of the augmented network, a resumed run produces
/// bit-identical output to an uninterrupted one — the crash-consistency
/// invariant the root package's `tests/chaos.rs` kill/resume test enforces.
///
/// `on_iteration` fires after every completed iteration with the links so
/// far; callers use it to write crash-safe checkpoints
/// ([`crate::checkpoint::save_snapshot`]) or to flip the budget's cancel
/// flag (the kill/resume test's seeded kill switch).
pub fn greedy_links_budgeted(
    network: &Network,
    planner: &Planner,
    k: usize,
    mut rebuild: impl FnMut(&Network) -> Planner,
    prior: Option<GreedyLinks>,
    budget: &WorkBudget,
    mut on_iteration: impl FnMut(&GreedyLinks),
) -> Budgeted<GreedyLinks> {
    // Attribute the whole run to the budget owner's trace, wherever this
    // driver actually executes (serve worker threads included).
    let _obs = budget.scope().enter();
    let prior = prior.unwrap_or_else(|| GreedyLinks {
        original_bit_risk: planner.aggregate_bit_risk(),
        added: Vec::new(),
    });
    let mut current_net = network.clone();
    for link in &prior.added {
        current_net = with_extra_link(&current_net, link.a, link.b);
    }
    // Rebuilt planners inherit the base planner's parallelism and
    // route-cache knobs: `rebuild` closures predate both and construct
    // default planners, and neither knob ever changes results — only
    // wall-clock.
    let mut current_planner = if prior.added.is_empty() {
        planner.clone()
    } else {
        rebuild(&current_net)
            .with_parallelism(planner.parallelism())
            .with_route_cache(planner.route_cache())
    };
    let mut result = prior;
    while result.added.len() < k {
        riskroute_obs::counter_add("provision_budget_checks", 1);
        if let Some(stopped) = budget.exhausted() {
            riskroute_obs::counter_add("provision_budget_stops", 1);
            return Budgeted::Partial {
                completed: result,
                stopped,
            };
        }
        let round = result.added.len();
        let mut round_span = riskroute_obs::span!("provision_round", round = round);
        let prev_total = result
            .added
            .last()
            .map_or(result.original_bit_risk, |l| l.total_bit_risk);
        let Some(best) =
            best_additional_link_adaptive_budgeted(&current_net, &current_planner, budget)
        else {
            break;
        };
        current_net = with_extra_link(&current_net, best.a, best.b);
        let mut next_planner = rebuild(&current_net)
            .with_parallelism(planner.parallelism())
            .with_route_cache(planner.route_cache());
        // Trees the new link provably cannot improve survive into the next
        // round's cache (strict edge-addition test; see
        // `Planner::adopt_route_cache`), so re-measuring the augmented
        // network — and the next round's scoring — skips most SSSP re-runs.
        next_planner.adopt_route_cache(&current_planner, best.a, best.b);
        current_planner = next_planner;
        // Re-measure exactly (the sweep's total is exact already, but
        // recomputing guards the invariant under the rebuilt planner).
        let total = current_planner.aggregate_bit_risk();
        if round_span.is_active() {
            let gain = prev_total - total;
            round_span.field("gain_bit_risk_miles", gain);
            round_span.field("total_bit_risk_miles", total);
            riskroute_obs::counter_add("provision_rounds", 1);
            riskroute_obs::gauge_set("provision_best_gain", gain);
            riskroute_obs::gauge_set("provision_total_bit_risk_miles", total);
        }
        result.added.push(CandidateLink {
            total_bit_risk: total,
            ..best
        });
        on_iteration(&result);
    }
    Budgeted::Complete(result)
}

/// A copy of `network` with one extra link. Asking for a link that already
/// exists (or a self-link / out-of-range endpoint) returns the network
/// unchanged — the augmentation is a no-op, not an abort.
pub fn with_extra_link(network: &Network, a: PopId, b: PopId) -> Network {
    let mut links: Vec<(PopId, PopId)> = network.links().iter().map(|l| (l.a, l.b)).collect();
    links.push((a, b));
    match Network::new(
        network.name(),
        network.kind(),
        network.pops().to_vec(),
        links,
    ) {
        Ok(net) => net,
        Err(_) => network.clone(),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::metric::{NodeRisk, RiskWeights};
    use riskroute_geo::GeoPoint;
    use riskroute_par::Parallelism;
    use riskroute_population::PopShares;
    use riskroute_topology::{NetworkKind, Pop};

    fn pop(name: &str, lat: f64, lon: f64) -> Pop {
        Pop {
            name: name.into(),
            location: GeoPoint::new(lat, lon).unwrap(),
        }
    }

    /// A 5-PoP path graph along a line, with a risky middle PoP 2. The only
    /// way around the risk is a new link.
    ///
    /// `0 — 1 — 2(risky) — 3 — 4`
    fn line_network() -> (Network, Planner) {
        let net = Network::new(
            "line",
            NetworkKind::Regional,
            vec![
                pop("P0", 35.0, -100.0),
                pop("P1", 35.0, -98.0),
                pop("P2", 35.0, -96.0),
                pop("P3", 35.0, -94.0),
                pop("P4", 35.0, -92.0),
            ],
            vec![(0, 1), (1, 2), (2, 3), (3, 4)],
        )
        .unwrap();
        let risk = NodeRisk::new(vec![0.0, 0.0, 5e-3, 0.0, 0.0], vec![0.0; 5]);
        let shares = PopShares::from_shares(vec![0.2; 5]);
        let planner = Planner::new(&net, risk, shares, RiskWeights::historical_only(1e5));
        (net, planner)
    }

    #[test]
    fn candidates_respect_shortcut_filter() {
        let (net, planner) = line_network();
        let cands = candidate_links(&net, &planner);
        // (1,3) halves 1→3 (2 hops of ~113 mi → direct ~226 mi: NOT >50%).
        // (0,2), (2,4): direct equals current path → excluded.
        // (0,3): direct 339 vs path 339 → excluded. (0,4): 451 vs 451 → excluded.
        // On a straight line *no* chord shortens anything, so the filter
        // must reject everything.
        assert!(
            cands.is_empty(),
            "straight-line chords are not shortcuts: {cands:?}"
        );
    }

    #[test]
    fn bent_topology_admits_shortcut_candidates() {
        // A horseshoe: 0-1-2 go east, then 3-4 come back west just north.
        let net = Network::new(
            "horseshoe",
            NetworkKind::Regional,
            vec![
                pop("P0", 35.0, -100.0),
                pop("P1", 35.0, -97.0),
                pop("P2", 35.0, -94.0),
                pop("P3", 35.8, -94.0),
                pop("P4", 35.8, -100.0),
            ],
            vec![(0, 1), (1, 2), (2, 3), (3, 4)],
        )
        .unwrap();
        let risk = NodeRisk::new(vec![0.0; 5], vec![0.0; 5]);
        let shares = PopShares::from_shares(vec![0.2; 5]);
        let planner = Planner::new(&net, risk, shares, RiskWeights::historical_only(1e5));
        let cands = candidate_links(&net, &planner);
        // 0↔4 are ~55 miles apart but ~560 miles around the horseshoe.
        assert!(cands.iter().any(|&(a, b, _)| (a, b) == (0, 4)), "{cands:?}");
        let best = best_additional_link(&net, &planner).unwrap();
        assert_eq!((best.a, best.b), (0, 4));
    }

    #[test]
    fn disconnected_pairs_always_qualify() {
        let net = Network::new(
            "islands",
            NetworkKind::Regional,
            vec![
                pop("A", 35.0, -100.0),
                pop("B", 35.0, -99.0),
                pop("C", 40.0, -90.0),
            ],
            vec![(0, 1)],
        )
        .unwrap();
        let risk = NodeRisk::new(vec![0.0; 3], vec![0.0; 3]);
        let shares = PopShares::from_shares(vec![1.0 / 3.0; 3]);
        let planner = Planner::new(&net, risk, shares, RiskWeights::PAPER);
        let cands = candidate_links(&net, &planner);
        assert!(cands.iter().any(|&(_, b, _)| b == 2));
    }

    #[test]
    fn scored_totals_match_exact_recomputation() {
        let (net, planner) = line_network();
        // Hand the scorer an artificial candidate (the filter rejects chords
        // on a line, but scoring must still be exact for any given set).
        let direct = great_circle_miles(net.location(1), net.location(3));
        let cands = vec![(1usize, 3usize, direct)];
        let scored = score_candidates(&net, &planner, &cands);
        assert_eq!(scored.len(), 1);
        let augmented = with_extra_link(&net, 1, 3);
        let re_planner = Planner::new(
            &augmented,
            planner.risk().clone(),
            PopShares::from_shares(planner.shares().shares().to_vec()),
            planner.weights(),
        );
        let exact = re_planner.aggregate_bit_risk();
        assert!(
            (scored[0].total_bit_risk - exact).abs() < 1e-6,
            "sweep {} vs exact {}",
            scored[0].total_bit_risk,
            exact
        );
    }

    #[test]
    fn adding_the_bypass_link_cuts_bit_risk() {
        let (net, planner) = line_network();
        let before = planner.aggregate_bit_risk();
        // The 1–3 chord bypasses risky PoP 2.
        let augmented = with_extra_link(&net, 1, 3);
        let re_planner = Planner::new(
            &augmented,
            planner.risk().clone(),
            PopShares::from_shares(planner.shares().shares().to_vec()),
            planner.weights(),
        );
        assert!(re_planner.aggregate_bit_risk() < before);
    }

    #[test]
    fn greedy_series_is_monotone_nonincreasing() {
        // Use the horseshoe, which has real candidates.
        let net = Network::new(
            "horseshoe",
            NetworkKind::Regional,
            vec![
                pop("P0", 35.0, -100.0),
                pop("P1", 35.0, -97.0),
                pop("P2", 35.0, -94.0),
                pop("P3", 35.8, -94.0),
                pop("P4", 35.8, -100.0),
                pop("P5", 35.8, -97.0),
            ],
            vec![(0, 1), (1, 2), (2, 3), (3, 5), (5, 4)],
        )
        .unwrap();
        let risk = NodeRisk::new(vec![0.0, 0.0, 2e-3, 0.0, 0.0, 0.0], vec![0.0; 6]);
        let shares = PopShares::from_shares(vec![1.0 / 6.0; 6]);
        let planner = Planner::new(
            &net,
            risk.clone(),
            shares.clone(),
            RiskWeights::historical_only(1e5),
        );
        let result = greedy_links(&net, &planner, 3, |n| {
            Planner::new(
                n,
                risk.clone(),
                shares.clone(),
                RiskWeights::historical_only(1e5),
            )
        });
        assert!(!result.added.is_empty());
        let series = result.fraction_series();
        assert!(series[0] <= 1.0 + 1e-12);
        for w in series.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "greedy total increased: {series:?}");
        }
    }

    #[test]
    fn greedy_stops_when_no_candidates() {
        let (net, planner) = line_network();
        let result = greedy_links(&net, &planner, 5, |n| {
            Planner::new(
                n,
                planner.risk().clone(),
                PopShares::from_shares(planner.shares().shares().to_vec()),
                planner.weights(),
            )
        });
        assert!(result.added.is_empty());
        assert!(result.fraction_series().is_empty());
    }

    /// The horseshoe-with-chord map used by the greedy tests: rich enough
    /// to admit several rounds of candidates.
    fn greedy_fixture() -> (Network, Planner) {
        let net = Network::new(
            "horseshoe",
            NetworkKind::Regional,
            vec![
                pop("P0", 35.0, -100.0),
                pop("P1", 35.0, -97.0),
                pop("P2", 35.0, -94.0),
                pop("P3", 35.8, -94.0),
                pop("P4", 35.8, -100.0),
                pop("P5", 35.8, -97.0),
            ],
            vec![(0, 1), (1, 2), (2, 3), (3, 5), (5, 4)],
        )
        .unwrap();
        let risk = NodeRisk::new(vec![0.0, 0.0, 2e-3, 0.0, 0.0, 0.0], vec![0.0; 6]);
        let shares = PopShares::from_shares(vec![1.0 / 6.0; 6]);
        let planner = Planner::new(&net, risk, shares, RiskWeights::historical_only(1e5));
        (net, planner)
    }

    fn fixture_rebuild(planner: &Planner) -> impl FnMut(&Network) -> Planner {
        let risk = planner.risk().clone();
        let shares = PopShares::from_shares(planner.shares().shares().to_vec());
        let weights = planner.weights();
        move |n: &Network| Planner::new(n, risk.clone(), shares.clone(), weights)
    }

    #[test]
    fn exhausted_budget_returns_a_partial_prefix() {
        use crate::budget::{Budgeted, StopReason, WorkBudget};
        let (net, planner) = greedy_fixture();
        let budget = WorkBudget::unlimited().with_max_work(0);
        let run = greedy_links_budgeted(
            &net,
            &planner,
            3,
            fixture_rebuild(&planner),
            None,
            &budget,
            |_| {},
        );
        let Budgeted::Partial { completed, stopped } = run else {
            panic!("zero budget must stop before the first iteration");
        };
        assert!(completed.added.is_empty());
        assert_eq!(stopped, StopReason::WorkExhausted);
        assert!(completed.original_bit_risk.is_finite());
    }

    #[test]
    fn cancelled_run_resumes_to_the_identical_result() {
        use crate::budget::{Budgeted, StopReason, WorkBudget};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let (net, planner) = greedy_fixture();
        let uninterrupted = greedy_links(&net, &planner, 3, fixture_rebuild(&planner));
        assert!(
            uninterrupted.added.len() >= 2,
            "fixture must admit at least two greedy links"
        );
        // Kill after the first iteration via the cooperative cancel flag.
        let cancel = Arc::new(AtomicBool::new(false));
        let budget = WorkBudget::unlimited().with_cancel(Arc::clone(&cancel));
        let run = greedy_links_budgeted(
            &net,
            &planner,
            3,
            fixture_rebuild(&planner),
            None,
            &budget,
            |links| {
                if links.added.len() == 1 {
                    cancel.store(true, Ordering::Relaxed);
                }
            },
        );
        let Budgeted::Partial { completed, stopped } = run else {
            panic!("cancel flag must interrupt the run");
        };
        assert_eq!(stopped, StopReason::Cancelled);
        assert_eq!(completed.added.len(), 1);
        // Resume with a fresh budget: the final result is bit-identical.
        let resumed = greedy_links_budgeted(
            &net,
            &planner,
            3,
            fixture_rebuild(&planner),
            Some(completed),
            &WorkBudget::unlimited(),
            |_| {},
        );
        let Budgeted::Complete(resumed) = resumed else {
            panic!("unlimited resume must complete");
        };
        assert_eq!(resumed, uninterrupted, "resume must be bit-identical");
    }

    #[test]
    fn score_charges_one_unit_per_candidate() {
        use crate::budget::WorkBudget;
        let (net, planner) = greedy_fixture();
        let cands = candidate_links_adaptive(&net, &planner).0;
        assert!(!cands.is_empty());
        let budget = WorkBudget::unlimited();
        let _ = score_candidates_budgeted(&net, &planner, &cands, &budget);
        assert_eq!(budget.work_done(), cands.len() as u64);
    }

    #[test]
    fn exactly_tied_candidates_rank_deterministically() {
        let (net, planner) = line_network();
        // Duplicating an existing link can never improve any route, so both
        // candidates score exactly Σ old — bitwise-identical totals that
        // force the argmax onto the (a, b) tie-break key.
        let m01 = great_circle_miles(net.location(0), net.location(1));
        let m34 = great_circle_miles(net.location(3), net.location(4));
        let fwd = vec![(0usize, 1usize, m01), (3usize, 4usize, m34)];
        let rev: Vec<_> = fwd.iter().rev().copied().collect();
        let s_fwd = score_candidates(&net, &planner, &fwd);
        let s_rev = score_candidates(&net, &planner, &rev);
        assert_eq!(
            s_fwd[0].total_bit_risk.to_bits(),
            s_fwd[1].total_bit_risk.to_bits(),
            "fixture must tie exactly"
        );
        assert_eq!(
            (s_fwd[0].a, s_fwd[0].b),
            (0, 1),
            "ties must break on the (a, b) endpoint key"
        );
        assert_eq!(s_fwd, s_rev, "ranking must not depend on input order");
        // The tie-break is also thread-count invariant.
        let par_planner = planner.clone().with_parallelism(Parallelism::Threads(2));
        assert_eq!(score_candidates(&net, &par_planner, &rev), s_fwd);
    }

    #[test]
    fn with_extra_link_preserves_everything_else() {
        let (net, _) = line_network();
        let augmented = with_extra_link(&net, 0, 4);
        assert_eq!(augmented.pop_count(), net.pop_count());
        assert_eq!(augmented.link_count(), net.link_count() + 1);
        assert!(augmented.has_link(0, 4));
        assert_eq!(augmented.name(), net.name());
    }
}
