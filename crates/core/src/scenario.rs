//! Scenario forks and deterministic resilience sweeps.
//!
//! RiskRoute's premise is reasoning about outage threats, so the natural
//! question is counterfactual: *what if this PoP (or link, or pair of
//! them, or this storm track) actually fails?* This module answers it at
//! scale:
//!
//! - [`ScenarioFork`] is a cheap copy-on-write view of a base
//!   [`Planner`]: the base CSR snapshot masked by a [`ScenarioDelta`]
//!   (deactivated nodes/links, optional forecast override), under a fresh
//!   cost-state stamp and a private route-tree cache so forks can never
//!   poison the base cache. Forks never mutate the base and compose —
//!   fork-of-fork expresses N-2.
//! - An **empty** or **forecast-only** delta is a plain clone of the base
//!   planner sharing its topology stamp *and* cache, so fork(∅) is
//!   byte-identical to the un-forked engine, cache hits included, and a
//!   hazard-ensemble member reads the base's distance trees as they are.
//! - Structural forks **adopt** still-valid base distance trees instead of
//!   recomputing them: a base tree survives a delta when every node in
//!   the root's surviving component keeps its base predecessor edge
//!   (see [`ScenarioFork::fork`] for why the adopted tree is bit-exact).
//! - [`run_sweep_budgeted`] drives full N-1 (every node, every link),
//!   seeded sampled N-2, and seeded Monte-Carlo hazard ensembles over
//!   `riskroute-par` with byte-identical output at any worker count,
//!   cooperative [`WorkBudget`] deadlines, and checkpoint callbacks at
//!   fork boundaries (see [`crate::checkpoint::Snapshot`]).
//!
//! Scenario impact is measured by the β = 0 **distance-tree exposure**
//! ([`base_exposure`]): for every unordered pair the shortest-path
//! bit-risk miles `dist(i,j) + β(i,j)·Σρ` (one SSSP and one O(n) Σρ
//! pass per source, O(1) per destination), with partition-stranded pairs
//! counted instead of erroring — the same degraded-mode accounting as
//! [`Planner::pair_sweep`].

use crate::budget::{budgeted_waves, Budgeted, WorkBudget};
use crate::error::{Error, Result};
use crate::intradomain::{same_bits, Planner};
use crate::routing::{RhoSums, RiskTree, NO_PRED};
use riskroute_geo::distance::great_circle_miles;
use riskroute_hazard::events::sample_member_events;
use riskroute_hazard::EventKind;
use riskroute_topology::Network;
use std::collections::VecDeque;
use std::sync::Arc;

/// How many synthetic storm tracks one ensemble member draws.
const ENSEMBLE_EVENTS_PER_MEMBER: usize = 3;

/// A failure delta applied to a base planner by [`ScenarioFork::fork`]:
/// nodes to deactivate (they keep their indices but lose every edge),
/// undirected links to deactivate, and an optional forecast-risk override.
///
/// Deltas are normalized on construction — node lists sorted and deduped,
/// link endpoints ordered `a < b` — so structurally equal scenarios
/// compare equal regardless of build order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioDelta {
    nodes: Vec<usize>,
    links: Vec<(usize, usize)>,
    forecast: Option<Vec<f64>>,
}

impl ScenarioDelta {
    /// The empty delta (forks to a byte-identical alias of the base).
    pub fn new() -> Self {
        ScenarioDelta::default()
    }

    /// Deactivate node `v`: every edge touching it is dropped, so its
    /// pairs become stranded (degraded-mode accounting, never an error).
    #[must_use]
    pub fn deactivate_node(mut self, v: usize) -> Self {
        if let Err(at) = self.nodes.binary_search(&v) {
            self.nodes.insert(at, v);
        }
        self
    }

    /// Deactivate the undirected link `(a, b)` (both directions).
    #[must_use]
    pub fn deactivate_link(mut self, a: usize, b: usize) -> Self {
        let key = (a.min(b), a.max(b));
        if let Err(at) = self.links.binary_search(&key) {
            self.links.insert(at, key);
        }
        self
    }

    /// Override the forecast-risk vector (hazard-ensemble members). An
    /// override bitwise-equal to the base forecast leaves the fork an
    /// alias of the base.
    #[must_use]
    pub fn with_forecast(mut self, forecast: Vec<f64>) -> Self {
        self.forecast = Some(forecast);
        self
    }

    /// Whether this delta changes nothing *structurally* (no nodes, no
    /// links, no forecast override recorded).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.links.is_empty() && self.forecast.is_none()
    }

    /// Union of two deltas (fork-of-fork composition); `other`'s forecast
    /// override, when present, wins.
    #[must_use]
    pub fn merged(&self, other: &ScenarioDelta) -> ScenarioDelta {
        let mut out = self.clone();
        for &v in &other.nodes {
            out = out.deactivate_node(v);
        }
        for &(a, b) in &other.links {
            out = out.deactivate_link(a, b);
        }
        if other.forecast.is_some() {
            out.forecast = other.forecast.clone();
        }
        out
    }

    /// Deactivated nodes (sorted, deduped).
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// Deactivated links (endpoints ordered, sorted, deduped).
    pub fn links(&self) -> &[(usize, usize)] {
        &self.links
    }

    /// The forecast override, if any.
    pub fn forecast(&self) -> Option<&[f64]> {
        self.forecast.as_deref()
    }

    /// Whether the undirected link `(u, v)` is deactivated.
    fn drops_link(&self, u: usize, v: usize) -> bool {
        self.links.binary_search(&(u.min(v), u.max(v))).is_ok()
    }
}

/// Aggregate shortest-path exposure of one planner state: total bit-risk
/// miles over routable unordered pairs, plus degraded-mode stranded-pair
/// accounting. The per-scenario unit every sweep ranks by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExposureReport {
    /// `Σ_{i<j} dist(i,j) + β(i,j)·Σρ` over routable pairs.
    pub bit_risk_total: f64,
    /// Unordered pairs with a connecting path.
    pub routable_pairs: usize,
    /// Unordered pairs stranded by a partition (or a deactivated
    /// endpoint).
    pub stranded_pairs: usize,
}

/// Distance-tree exposure of `planner` as-is (no failure mask): one β = 0
/// SSSP per source and its Σρ to every later node summed once
/// (`RhoSums`), then O(1) per destination, folded in strict
/// lexicographic pair order so the total is reproducible bit-for-bit.
pub fn base_exposure(planner: &Planner) -> ExposureReport {
    exposure_masked(planner, &vec![false; planner.pop_count()])
}

/// Exposure with deactivated-node accounting: pairs touching an `off`
/// node are stranded without consulting a tree (their trees would report
/// exactly that — the node is isolated in the masked graph).
fn exposure_masked(planner: &Planner, node_off: &[bool]) -> ExposureReport {
    let n = planner.pop_count();
    let mut total = 0.0;
    let mut routable = 0usize;
    let mut stranded = 0usize;
    let mut rho_sums = RhoSums::default();
    for i in 0..n.saturating_sub(1) {
        if node_off[i] {
            stranded += n - 1 - i;
            continue;
        }
        let tree = planner.risk_tree_distance(i);
        let sums = rho_sums.sum(&tree, planner.rho(), i + 1);
        for (j, &off) in node_off.iter().enumerate().skip(i + 1) {
            if off {
                stranded += 1;
                continue;
            }
            if tree.reachable(j) {
                let beta = planner.impact(i, j);
                total += tree.dist(j) + beta * sums[j];
                routable += 1;
            } else {
                stranded += 1;
            }
        }
    }
    ExposureReport {
        bit_risk_total: total,
        routable_pairs: routable,
        stranded_pairs: stranded,
    }
}

/// A copy-on-write failure fork of a base [`Planner`].
///
/// Construction is cheap relative to rebuilding a planner: a forecast-only
/// fork is a clone, and a structural fork's masked CSR graph is an
/// order-preserving filter of the base graph, with shares and risk shared
/// by `Arc` and still-valid base distance trees *adopted* into its private
/// cache instead of recomputed.
#[derive(Debug, Clone)]
pub struct ScenarioFork {
    planner: Planner,
    delta: ScenarioDelta,
    node_off: Vec<bool>,
    base_alias: bool,
}

impl ScenarioFork {
    /// Fork `base` under `delta`.
    ///
    /// **Stamp minting rules.** A delta that deactivates nothing returns a
    /// clone of the base planner — same CSR `Arc`, same topology stamp,
    /// same shared route-tree cache — with any forecast override applied
    /// through [`Planner::set_forecast`]. Distance trees read no ρ, so the
    /// clone reads the base's as they are. An *effectively empty* delta (no
    /// override, or one that leaves ρ bitwise unchanged, e.g. `λ_f = 0`)
    /// also keeps the cost stamp, so fork(∅) is byte-identical to the
    /// un-forked engine including its cache hits; a ρ-changing override
    /// mints only a cost stamp. Every other delta masks the snapshot and
    /// mints fresh topology and cost stamps plus a **private** cache: the
    /// stamps guarantee no fork tree is ever returned to the base (or vice
    /// versa), and the private cache keeps fork churn from evicting base
    /// entries at capacity.
    ///
    /// **Tree adoption.** A base β = 0 tree rooted at `r` is adopted when
    /// every node in `r`'s surviving component keeps its base predecessor
    /// edge under the delta. That check is sufficient for bit-exactness:
    /// by induction up the predecessor chain every in-component base path
    /// survives intact (so distances are still optimal — the masked graph
    /// is a subgraph), and because the masked snapshot preserves edge
    /// order, a fresh Dijkstra replays the base relaxation sequence
    /// restricted to kept edges — the *first* relaxation to reach a
    /// node's final value is the same one, so predecessors (and every
    /// tie-break) match bit-for-bit. Out-of-component nodes project to
    /// unreachable; a tree that reaches none is shared as the same `Arc`.
    /// A forecast override on a structural delta changes nothing here:
    /// distance trees read no ρ.
    ///
    /// # Panics
    /// Panics when the delta names out-of-range nodes/links or carries a
    /// malformed forecast override (wrong length, non-finite values).
    pub fn fork(base: &Planner, delta: ScenarioDelta) -> ScenarioFork {
        let n = base.pop_count();
        assert!(
            delta.nodes.iter().all(|&v| v < n)
                && delta.links.iter().all(|&(a, b)| a < n && b < n && a != b),
            "scenario delta names out-of-range or degenerate elements"
        );
        let forecast = delta.forecast();
        if let Some(f) = forecast {
            assert_eq!(f.len(), n, "forecast override must cover every PoP");
        }
        if delta.nodes.is_empty() && delta.links.is_empty() {
            // Empty or forecast-only delta: a clone of the base, sharing its
            // topology stamp and cache (and its cost stamp whenever the
            // override leaves ρ bitwise unchanged).
            let mut planner = base.clone();
            if let Some(f) = forecast {
                planner.set_forecast(f.to_vec());
            }
            if riskroute_obs::is_enabled() {
                riskroute_obs::counter_add("forks_created", 1);
                riskroute_obs::counter_add("forks_reused_cache", 1);
            }
            let base_alias = forecast.is_none_or(|f| same_bits(f, base.risk().forecast_slice()));
            return ScenarioFork {
                planner,
                delta,
                node_off: vec![false; n],
                base_alias,
            };
        }

        let mut node_off = vec![false; n];
        for &v in &delta.nodes {
            node_off[v] = true;
        }
        let keep = |u: usize, v: usize| !node_off[u] && !node_off[v] && !delta.drops_link(u, v);
        let planner = base.fork_masked(&keep, forecast);

        let comp = components(&planner, &node_off);
        // Still one component: every base tree reaches only its own.
        let connected = comp.iter().all(|&c| c == 0);
        let mut adopted: u64 = 0;
        for (root, &off) in node_off.iter().enumerate() {
            if off {
                continue;
            }
            let Some(tree) = base.cached_distance_tree(root) else {
                continue;
            };
            if let Some(t) = project_tree(&tree, &comp, root, &delta, connected) {
                planner.seed_distance_tree(root, t);
                adopted += 1;
            }
        }
        if riskroute_obs::is_enabled() {
            riskroute_obs::counter_add("forks_created", 1);
            if adopted > 0 {
                riskroute_obs::counter_add("forks_reused_cache", 1);
            }
            riskroute_obs::counter_add("scenario_trees_adopted", adopted);
        }
        ScenarioFork {
            planner,
            delta,
            node_off,
            base_alias: false,
        }
    }

    /// Fork this fork (N-2 composition): the child planner masks this
    /// fork's snapshot by `delta`, and the recorded delta is the union of
    /// both. Adoption probes this fork's cache, so trees the parent
    /// adopted (or computed) carry forward when still valid.
    #[must_use]
    pub fn fork_from(&self, delta: &ScenarioDelta) -> ScenarioFork {
        let mut child = ScenarioFork::fork(&self.planner, delta.clone());
        child.delta = self.delta.merged(delta);
        for (slot, &off) in child.node_off.iter_mut().zip(&self.node_off) {
            *slot = *slot || off;
        }
        child
    }

    /// The fork's planner view (masked topology, fork cost state).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// The cumulative delta relative to the original base.
    pub fn delta(&self) -> &ScenarioDelta {
        &self.delta
    }

    /// Whether the fork is a byte-identical alias of its base (empty
    /// effective delta: shared stamp and cache).
    pub fn is_base_alias(&self) -> bool {
        self.base_alias
    }

    /// Distance-tree exposure of this fork (see [`base_exposure`]), with
    /// deactivated-node pairs counted stranded.
    pub fn exposure(&self) -> ExposureReport {
        exposure_masked(&self.planner, &self.node_off)
    }
}

/// Connected-component labels of the masked graph, by BFS from the
/// lowest-indexed unvisited node — deterministic labels, deactivated
/// nodes left unlabeled (`u32::MAX`).
fn components(planner: &Planner, node_off: &[bool]) -> Vec<u32> {
    const UNLABELED: u32 = u32::MAX;
    let n = node_off.len();
    let mut comp = vec![UNLABELED; n];
    let mut next = 0u32;
    let mut queue = VecDeque::new();
    for s in 0..n {
        if node_off[s] || comp[s] != UNLABELED {
            continue;
        }
        comp[s] = next;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for (v, _) in planner.csr().neighbors(u) {
                if comp[v] == UNLABELED {
                    comp[v] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Project a base β = 0 tree onto the masked graph, or `None` when some
/// in-component node's base predecessor edge was dropped — it enters the
/// node from an off node, or is one of the deactivated `links` (the base
/// path used a failed element, so the tree must be recomputed). No other
/// in-component node can lack its predecessor: the masked graph is a
/// subgraph of the tree's, so the tree reached the root's whole component.
/// A tree that reaches nothing outside that component (every tree, when
/// the masked graph is still `connected`) is shared as is.
fn project_tree(
    tree: &Arc<RiskTree>,
    comp: &[u32],
    root: usize,
    delta: &ScenarioDelta,
    connected: bool,
) -> Option<Arc<RiskTree>> {
    let rc = comp[root];
    let in_comp = |x: usize| comp[x] == rc;
    let pred = tree.pred_slice();
    let cut = |a: usize, b: usize| in_comp(b) && pred[b] == a as u32;
    let off_parent = |v: usize| (0..comp.len()).any(|x| cut(v, x));
    if delta.nodes.iter().any(|&v| off_parent(v))
        || delta.links.iter().any(|&(a, b)| cut(a, b) || cut(b, a))
    {
        return None;
    }
    if connected || (0..comp.len()).all(|x| in_comp(x) || !tree.reachable(x)) {
        return Some(Arc::clone(tree));
    }
    let dist = (tree.dist_slice().iter().enumerate())
        .map(|(x, &d)| if in_comp(x) { d } else { f64::INFINITY })
        .collect();
    let pred = (pred.iter().enumerate())
        .map(|(x, &p)| if in_comp(x) { p } else { NO_PRED })
        .collect();
    Some(Arc::new(RiskTree::from_parts(tree.source(), dist, pred)))
}

/// One failing element of an N-1/N-2 scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailElement {
    /// A PoP failure (the node keeps its index but loses every edge).
    Node(usize),
    /// An undirected link failure (endpoints ordered `a < b` in canonical
    /// specs).
    Link(usize, usize),
}

/// One scenario of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioSpec {
    /// Single-element failure (N-1).
    One(FailElement),
    /// Two-element failure (sampled N-2, evaluated as fork-of-fork).
    Two(FailElement, FailElement),
    /// One Monte-Carlo hazard-ensemble member: a forecast override built
    /// from the `index`-th seeded storm-track draw under `seed`.
    Member {
        /// Member index within the ensemble.
        index: usize,
        /// The ensemble master seed (each member derives its own).
        seed: u64,
    },
}

/// Which sweep [`run_sweep_budgeted`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// Full N-1: every node, then every link, in canonical order.
    N1,
    /// Sampled N-2: seeded draws of distinct element pairs.
    N2 {
        /// Number of sampled scenarios.
        samples: usize,
        /// Sampling seed.
        seed: u64,
    },
    /// Seeded Monte-Carlo hazard ensemble (hurricane storm tracks turned
    /// into forecast overrides).
    Ensemble {
        /// Number of ensemble members.
        samples: usize,
        /// Ensemble master seed.
        seed: u64,
    },
}

impl SweepMode {
    /// The CLI/snapshot label: `"n1"`, `"n2"`, or `"ensemble"`.
    pub fn label(&self) -> &'static str {
        match self {
            SweepMode::N1 => "n1",
            SweepMode::N2 { .. } => "n2",
            SweepMode::Ensemble { .. } => "ensemble",
        }
    }

    /// Sample count (0 for N-1, which is exhaustive).
    pub fn samples(&self) -> usize {
        match *self {
            SweepMode::N1 => 0,
            SweepMode::N2 { samples, .. } | SweepMode::Ensemble { samples, .. } => samples,
        }
    }

    /// Sampling seed (0 for N-1, which draws nothing).
    pub fn seed(&self) -> u64 {
        match *self {
            SweepMode::N1 => 0,
            SweepMode::N2 { seed, .. } | SweepMode::Ensemble { seed, .. } => seed,
        }
    }

    /// Rebuild a mode from its snapshot parts; `None` on an unknown
    /// label.
    pub fn from_parts(label: &str, samples: usize, seed: u64) -> Option<SweepMode> {
        match label {
            "n1" => Some(SweepMode::N1),
            "n2" => Some(SweepMode::N2 { samples, seed }),
            "ensemble" => Some(SweepMode::Ensemble { samples, seed }),
            _ => None,
        }
    }
}

/// One evaluated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// What failed.
    pub spec: ScenarioSpec,
    /// Human-readable scenario label (PoP names resolved).
    pub label: String,
    /// The fork's exposure.
    pub exposure: ExposureReport,
}

/// A completed (or partial) sweep: the baseline exposure plus one record
/// per evaluated scenario, in canonical scenario order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Network the sweep ran on.
    pub network: String,
    /// Which sweep.
    pub mode: SweepMode,
    /// Exposure of the unfailed base (Δs are measured against it).
    pub baseline: ExposureReport,
    /// Evaluated scenarios, in canonical order.
    pub records: Vec<SweepRecord>,
}

impl SweepOutcome {
    /// Δ bit-risk miles of one record against the baseline.
    pub fn delta_bit_risk(&self, rec: &SweepRecord) -> f64 {
        rec.exposure.bit_risk_total - self.baseline.bit_risk_total
    }

    /// Δ stranded pairs of one record against the baseline.
    pub fn delta_stranded(&self, rec: &SweepRecord) -> i64 {
        rec.exposure.stranded_pairs as i64 - self.baseline.stranded_pairs as i64
    }

    /// Records ranked most-critical first: by Δ stranded pairs
    /// descending, then Δ bit-risk miles descending (total order), then
    /// canonical scenario index ascending — a deterministic total order.
    /// Each entry carries the record's canonical index.
    pub fn ranked(&self) -> Vec<(usize, &SweepRecord)> {
        let mut idx: Vec<usize> = (0..self.records.len()).collect();
        idx.sort_by(|&a, &b| {
            let (ra, rb) = (&self.records[a], &self.records[b]);
            rb.exposure
                .stranded_pairs
                .cmp(&ra.exposure.stranded_pairs)
                .then_with(|| self.delta_bit_risk(rb).total_cmp(&self.delta_bit_risk(ra)))
                .then_with(|| a.cmp(&b))
        });
        idx.into_iter().map(|i| (i, &self.records[i])).collect()
    }

    /// Nearest-rank p5/p50/p95 of per-record total bit-risk miles (the
    /// ensemble risk bands); `None` when no records exist.
    pub fn risk_bands(&self) -> Option<(f64, f64, f64)> {
        if self.records.is_empty() {
            return None;
        }
        let mut vals: Vec<f64> = self
            .records
            .iter()
            .map(|r| r.exposure.bit_risk_total)
            .collect();
        vals.sort_by(f64::total_cmp);
        let pick = |p: f64| {
            let rank = (p / 100.0 * vals.len() as f64).ceil() as usize;
            vals[rank.clamp(1, vals.len()) - 1]
        };
        Some((pick(5.0), pick(50.0), pick(95.0)))
    }

    /// Worst-case fork per failing element: for every element appearing
    /// in any record, the (Δ stranded, Δ bit-risk) of its worst scenario,
    /// ordered most-critical first under the [`Self::ranked`] order.
    /// Ensemble members contribute nothing (they fail no element).
    pub fn worst_per_element(&self) -> Vec<(FailElement, f64, i64)> {
        let mut worst: Vec<(FailElement, f64, i64, usize)> = Vec::new();
        for (pos, rec) in self.records.iter().enumerate() {
            let dbr = self.delta_bit_risk(rec);
            let dst = self.delta_stranded(rec);
            let elems = match &rec.spec {
                ScenarioSpec::One(e) => vec![*e],
                ScenarioSpec::Two(a, b) => vec![*a, *b],
                ScenarioSpec::Member { .. } => Vec::new(),
            };
            for e in elems {
                match worst.iter_mut().find(|(w, _, _, _)| *w == e) {
                    None => worst.push((e, dbr, dst, pos)),
                    Some(slot) => {
                        if dst > slot.2 || (dst == slot.2 && dbr > slot.1) {
                            *slot = (e, dbr, dst, slot.3);
                        }
                    }
                }
            }
        }
        worst.sort_by(|a, b| {
            b.2.cmp(&a.2)
                .then_with(|| b.1.total_cmp(&a.1))
                .then_with(|| a.3.cmp(&b.3))
        });
        worst
            .into_iter()
            .map(|(e, dbr, dst, _)| (e, dbr, dst))
            .collect()
    }
}

/// The already-computed prefix handed back to [`run_sweep_budgeted`] on
/// resume (decoded from a checkpoint snapshot).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPrior {
    /// The baseline exposure computed before the cut.
    pub baseline: ExposureReport,
    /// Records completed before the cut, in canonical order.
    pub records: Vec<SweepRecord>,
}

/// SplitMix64 — the deterministic, dependency-free stream behind N-2
/// sampling.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The canonical failable-element list of a network: nodes `0..n` in
/// index order, then links in `Network::links` order with endpoints
/// normalized `a < b`.
fn fail_elements(network: &Network) -> Vec<FailElement> {
    let mut elems: Vec<FailElement> = (0..network.pop_count()).map(FailElement::Node).collect();
    elems.extend(
        network
            .links()
            .iter()
            .map(|l| FailElement::Link(l.a.min(l.b), l.a.max(l.b))),
    );
    elems
}

/// The deterministic scenario list of one sweep — the order every run,
/// at any worker count and across any kill/resume boundary, evaluates.
///
/// - N-1: one [`ScenarioSpec::One`] per canonical element (every node,
///   then every link).
/// - N-2: `samples` seeded draws of distinct element pairs (SplitMix64;
///   repeats across draws are possible and kept — the list, not a set,
///   is the contract). Empty when the network has fewer than two
///   elements.
/// - Ensemble: members `0..samples`, each carrying the master seed.
pub fn scenario_specs(network: &Network, mode: SweepMode) -> Vec<ScenarioSpec> {
    match mode {
        SweepMode::N1 => fail_elements(network)
            .into_iter()
            .map(ScenarioSpec::One)
            .collect(),
        SweepMode::N2 { samples, seed } => {
            let elems = fail_elements(network);
            let m = elems.len();
            if m < 2 {
                return Vec::new();
            }
            let mut state = seed ^ 0x51c7_a9b3_6e2d_f041;
            (0..samples)
                .map(|_| {
                    let a = (splitmix64(&mut state) % m as u64) as usize;
                    let mut b = (splitmix64(&mut state) % (m as u64 - 1)) as usize;
                    if b >= a {
                        b += 1;
                    }
                    let (lo, hi) = (a.min(b), a.max(b));
                    ScenarioSpec::Two(elems[lo], elems[hi])
                })
                .collect()
        }
        SweepMode::Ensemble { samples, seed } => (0..samples)
            .map(|index| ScenarioSpec::Member { index, seed })
            .collect(),
    }
}

/// Human-readable label of one failing element, PoP names resolved.
fn element_label(network: &Network, e: &FailElement) -> String {
    let pops = network.pops();
    match *e {
        FailElement::Node(v) => format!("node {v} ({})", pops[v].name),
        FailElement::Link(a, b) => {
            format!("link {a}-{b} ({} - {})", pops[a].name, pops[b].name)
        }
    }
}

/// The forecast override of ensemble member `index`: seeded hurricane
/// tracks (member-derived seed, see
/// [`sample_member_events`]), each contributing
/// `1 - d/r` forecast risk to every PoP within its damage radius `r`.
fn member_forecast(network: &Network, master_seed: u64, index: usize) -> Vec<f64> {
    let events = sample_member_events(
        EventKind::FemaHurricane,
        ENSEMBLE_EVENTS_PER_MEMBER,
        master_seed,
        index,
    );
    network
        .pops()
        .iter()
        .map(|p| {
            let mut risk = 0.0;
            for e in &events {
                let radius = e.kind.damage_radius_miles();
                let d = great_circle_miles(p.location, e.location);
                if d < radius {
                    risk += 1.0 - d / radius;
                }
            }
            risk
        })
        .collect()
}

/// Evaluate one scenario: fork (fork-of-fork for N-2), measure exposure,
/// label. A pure function of `(base, network, spec)` — the property that
/// makes the sweep order-insensitive and resumable.
fn evaluate_spec(base: &Planner, network: &Network, spec: &ScenarioSpec) -> SweepRecord {
    let mut span = riskroute_obs::span!("scenario_fork");
    let (fork, label) = match spec {
        ScenarioSpec::One(e) => (
            ScenarioFork::fork(base, delta_for(e)),
            element_label(network, e),
        ),
        ScenarioSpec::Two(e1, e2) => {
            let first = ScenarioFork::fork(base, delta_for(e1));
            let second = first.fork_from(&delta_for(e2));
            (
                second,
                format!(
                    "{} + {}",
                    element_label(network, e1),
                    element_label(network, e2)
                ),
            )
        }
        ScenarioSpec::Member { index, seed } => {
            let forecast = member_forecast(network, *seed, *index);
            (
                ScenarioFork::fork(base, ScenarioDelta::new().with_forecast(forecast)),
                format!("member {index}"),
            )
        }
    };
    let exposure = fork.exposure();
    if span.is_active() {
        span.field("stranded_pairs", exposure.stranded_pairs);
        span.field("bit_risk_total", exposure.bit_risk_total);
        riskroute_obs::counter_add("sweep_scenarios", 1);
    }
    SweepRecord {
        spec: spec.clone(),
        label,
        exposure,
    }
}

/// The delta of one failing element.
fn delta_for(e: &FailElement) -> ScenarioDelta {
    match *e {
        FailElement::Node(v) => ScenarioDelta::new().deactivate_node(v),
        FailElement::Link(a, b) => ScenarioDelta::new().deactivate_link(a, b),
    }
}

/// Run a full sweep to completion (unlimited budget, no checkpoints).
///
/// # Errors
/// Same contract as [`run_sweep_budgeted`].
pub fn run_sweep(base: &Planner, network: &Network, mode: SweepMode) -> Result<SweepOutcome> {
    let run = run_sweep_budgeted(base, network, mode, None, &WorkBudget::unlimited(), |_| {})?;
    let (outcome, _) = run.into_parts();
    Ok(outcome)
}

/// Budget-aware scenario sweep, resumable at any fork boundary.
///
/// Scenarios are evaluated in the canonical [`scenario_specs`] order.
/// Each is an independent function of the base planner and one spec, so
/// output is **byte-identical at any worker count** (records land in
/// canonical order regardless of completion order) and across any
/// kill/resume boundary: pass the partial outcome's baseline and records
/// back as `prior` and the sweep picks up at `prior.records.len()`.
///
/// The baseline exposure is computed first (when no prior carries it) —
/// it both anchors the Δ metrics and warms the base route-tree cache the
/// forks adopt from. The budget is checked before each wave of scenarios
/// (every scenario with one worker) and charged one unit per scenario
/// evaluated (the baseline is free);
/// `on_batch` fires with the outcome-so-far after every
/// [`crate::replay::CHECKPOINT_BATCH`] newly evaluated scenarios.
///
/// # Errors
/// [`Error::InvalidArgument`] when `network` does not match the
/// planner's PoP count, a sampled mode requests zero samples, or `prior`
/// holds more records than the sweep has scenarios.
pub fn run_sweep_budgeted(
    base: &Planner,
    network: &Network,
    mode: SweepMode,
    prior: Option<SweepPrior>,
    budget: &WorkBudget,
    on_batch: impl FnMut(&SweepOutcome),
) -> Result<Budgeted<SweepOutcome>> {
    // Attribute the whole sweep to the budget owner's trace.
    let _obs = budget.scope().enter();
    if network.pop_count() != base.pop_count() {
        return Err(Error::InvalidArgument {
            context: "network".into(),
            message: format!(
                "network has {} PoPs but the planner covers {}",
                network.pop_count(),
                base.pop_count()
            ),
        });
    }
    if mode.samples() == 0 && !matches!(mode, SweepMode::N1) {
        return Err(Error::InvalidArgument {
            context: "samples".into(),
            message: "sampled sweep modes need at least one sample".into(),
        });
    }
    let specs = scenario_specs(network, mode);
    let (baseline, prior_records) = match prior {
        Some(p) => {
            if p.records.len() > specs.len() {
                return Err(Error::InvalidArgument {
                    context: "prior records".into(),
                    message: format!(
                        "resume state has {} records but the sweep has only {} scenarios",
                        p.records.len(),
                        specs.len()
                    ),
                });
            }
            (p.baseline, p.records)
        }
        None => (base_exposure(base), Vec::new()),
    };
    let mut outcome = SweepOutcome {
        network: network.name().to_string(),
        mode,
        baseline,
        records: prior_records,
    };
    let stop = budgeted_waves(
        base.parallelism(),
        &specs,
        &mut outcome,
        |o| &mut o.records,
        budget,
        |_, spec| evaluate_spec(base, network, spec),
        on_batch,
    )?;
    Ok(Budgeted::new(outcome, stop))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::budget::StopReason;
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

    /// A diamond with a risky southern PoP plus a stub hanging off the
    /// east — enough structure for detours, partitions, and stubs.
    ///
    /// ```text
    ///        1
    ///      /   \
    ///    0       3 --- 4 (stub)
    ///      \   /
    ///        2 (risky)
    /// ```
    fn fixture() -> (Network, Planner) {
        let net = Network::new(
            "forknet",
            NetworkKind::Regional,
            vec![
                pop("West", 35.0, -100.0),
                pop("North", 37.5, -97.0),
                pop("South", 35.0, -97.0),
                pop("East", 35.0, -94.0),
                pop("Stub", 35.5, -92.0),
            ],
            vec![(0, 1), (1, 3), (0, 2), (2, 3), (3, 4)],
        )
        .unwrap();
        let risk = NodeRisk::new(vec![0.0, 0.0, 5e-3, 0.0, 1e-3], vec![0.0; 5]);
        let shares = PopShares::from_shares(vec![0.2; 5]);
        let planner = Planner::new(&net, risk, shares, RiskWeights::PAPER);
        (net, planner)
    }

    /// The naive baseline: a fresh planner over the masked network (same
    /// risk state), never sharing anything with the base.
    fn rebuilt_for(net: &Network, base: &Planner, delta: &ScenarioDelta) -> Planner {
        let mut node_off = vec![false; net.pop_count()];
        for &v in delta.nodes() {
            node_off[v] = true;
        }
        let keep_pairs: Vec<(usize, usize)> = net
            .links()
            .iter()
            .filter(|l| !node_off[l.a] && !node_off[l.b] && !delta.drops_link(l.a, l.b))
            .map(|l| (l.a, l.b))
            .collect();
        let masked = Network::new(net.name(), net.kind(), net.pops().to_vec(), keep_pairs).unwrap();
        let mut risk = base.risk().clone();
        if let Some(f) = delta.forecast() {
            risk.set_forecast(f.to_vec());
        }
        Planner::new(
            &masked,
            risk,
            PopShares::from_shares(base.shares().shares().to_vec()),
            base.weights(),
        )
    }

    fn bits(e: &ExposureReport) -> (u64, usize, usize) {
        (
            e.bit_risk_total.to_bits(),
            e.routable_pairs,
            e.stranded_pairs,
        )
    }

    #[test]
    fn deltas_normalize_and_merge() {
        let d = ScenarioDelta::new()
            .deactivate_link(3, 1)
            .deactivate_node(2)
            .deactivate_node(2)
            .deactivate_link(1, 3)
            .deactivate_node(0);
        assert_eq!(d.nodes(), &[0, 2]);
        assert_eq!(d.links(), &[(1, 3)]);
        assert!(!d.is_empty());
        assert!(ScenarioDelta::new().is_empty());
        let e = ScenarioDelta::new()
            .deactivate_node(2)
            .deactivate_link(0, 1);
        let m = d.merged(&e);
        assert_eq!(m.nodes(), &[0, 2]);
        assert_eq!(m.links(), &[(0, 1), (1, 3)]);
    }

    #[test]
    fn empty_delta_fork_is_a_base_alias_sharing_the_stamp() {
        let (_, planner) = fixture();
        let base_exp = base_exposure(&planner);
        let fork = ScenarioFork::fork(&planner, ScenarioDelta::new());
        assert!(fork.is_base_alias());
        assert_eq!(fork.planner().cost_stamp(), planner.cost_stamp());
        assert_eq!(bits(&fork.exposure()), bits(&base_exp));
    }

    #[test]
    fn bitwise_equal_forecast_override_is_still_an_alias() {
        let (_, planner) = fixture();
        let same = planner.risk().forecast_slice().to_vec();
        let fork = ScenarioFork::fork(&planner, ScenarioDelta::new().with_forecast(same));
        assert!(fork.is_base_alias());
        assert_eq!(fork.planner().cost_stamp(), planner.cost_stamp());
    }

    #[test]
    fn real_deltas_mint_a_fresh_stamp() {
        let (_, planner) = fixture();
        let fork = ScenarioFork::fork(&planner, ScenarioDelta::new().deactivate_node(4));
        assert!(!fork.is_base_alias());
        assert_ne!(fork.planner().cost_stamp(), planner.cost_stamp());
    }

    #[test]
    fn every_n1_fork_matches_a_rebuilt_planner_bit_for_bit() {
        let (net, planner) = fixture();
        // Warm the base cache so the adoption path is actually exercised.
        let _ = base_exposure(&planner);
        for spec in scenario_specs(&net, SweepMode::N1) {
            let ScenarioSpec::One(e) = &spec else {
                unreachable!()
            };
            let delta = delta_for(e);
            let fork = ScenarioFork::fork(&planner, delta.clone());
            let rebuilt = rebuilt_for(&net, &planner, &delta);
            assert_eq!(
                bits(&fork.exposure()),
                bits(&base_exposure(&rebuilt)),
                "fork diverged from rebuild for {spec:?}"
            );
        }
    }

    #[test]
    fn forecast_override_fork_matches_a_rebuilt_planner_bit_for_bit() {
        let (net, planner) = fixture();
        let _ = base_exposure(&planner);
        let forecast = vec![0.0, 2.5, 0.0, 1.25, 0.0];
        let delta = ScenarioDelta::new().with_forecast(forecast);
        let fork = ScenarioFork::fork(&planner, delta.clone());
        assert!(!fork.is_base_alias());
        let rebuilt = rebuilt_for(&net, &planner, &delta);
        assert_eq!(bits(&fork.exposure()), bits(&base_exposure(&rebuilt)));
    }

    #[test]
    fn forecast_only_forks_are_clones_sharing_distance_trees() {
        let (_, planner) = fixture();
        let _ = base_exposure(&planner);
        let forecast = vec![0.0, 2.5, 0.0, 1.25, 0.0];
        let fork = ScenarioFork::fork(&planner, ScenarioDelta::new().with_forecast(forecast));
        assert_ne!(fork.planner().cost_stamp(), planner.cost_stamp());
        // base_exposure builds a distance tree for every root but the last.
        for root in 0..4 {
            let base_tree = planner.cached_distance_tree(root).unwrap();
            let fork_tree = fork.planner().cached_distance_tree(root).unwrap();
            assert!(Arc::ptr_eq(&base_tree, &fork_tree), "root {root}");
        }
    }

    #[test]
    fn fork_of_fork_composes_deltas_and_matches_a_rebuild() {
        let (net, planner) = fixture();
        let _ = base_exposure(&planner);
        let d1 = ScenarioDelta::new().deactivate_node(1);
        let d2 = ScenarioDelta::new().deactivate_link(2, 3);
        let child = ScenarioFork::fork(&planner, d1.clone()).fork_from(&d2);
        assert_eq!(child.delta(), &d1.merged(&d2));
        let rebuilt = rebuilt_for(&net, &planner, &d1.merged(&d2));
        assert_eq!(bits(&child.exposure()), bits(&base_exposure(&rebuilt)));
        // Dropping both diamond paths into 3 cuts {0,1,2} from {3,4}:
        // node 1 off strands its 4 pairs; the (2,3) cut strands 2×2 more.
        assert_eq!(child.exposure().stranded_pairs, 8);
    }

    #[test]
    fn all_nodes_deactivated_strands_every_pair_without_panicking() {
        let (net, planner) = fixture();
        let n = net.pop_count();
        let delta = (0..n).fold(ScenarioDelta::new(), |d, v| d.deactivate_node(v));
        let exp = ScenarioFork::fork(&planner, delta).exposure();
        assert_eq!(exp.routable_pairs, 0);
        assert_eq!(exp.stranded_pairs, n * (n - 1) / 2);
        assert_eq!(exp.bit_risk_total, 0.0);
    }

    #[test]
    fn n1_specs_cover_every_node_then_every_link() {
        let (net, _) = fixture();
        let specs = scenario_specs(&net, SweepMode::N1);
        assert_eq!(specs.len(), net.pop_count() + net.link_count());
        assert_eq!(specs[0], ScenarioSpec::One(FailElement::Node(0)));
        assert_eq!(
            specs[net.pop_count()],
            ScenarioSpec::One(FailElement::Link(0, 1))
        );
    }

    #[test]
    fn n2_specs_are_seeded_deterministic_pairs_of_distinct_elements() {
        let (net, _) = fixture();
        let mode = SweepMode::N2 {
            samples: 16,
            seed: 7,
        };
        let a = scenario_specs(&net, mode);
        let b = scenario_specs(&net, mode);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        for spec in &a {
            let ScenarioSpec::Two(x, y) = spec else {
                panic!("N-2 specs must be pairs")
            };
            assert_ne!(x, y, "N-2 never fails the same element twice");
        }
        let other = scenario_specs(
            &net,
            SweepMode::N2 {
                samples: 16,
                seed: 8,
            },
        );
        assert_ne!(a, other, "different seeds draw different scenarios");
    }

    #[test]
    fn ensemble_member_forecasts_depend_only_on_seed_and_index() {
        let (net, _) = fixture();
        let f1 = member_forecast(&net, 42, 3);
        let f2 = member_forecast(&net, 42, 3);
        assert_eq!(f1, f2);
        assert_eq!(f1.len(), net.pop_count());
        assert!(f1.iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn sweep_output_is_identical_at_any_worker_count() {
        let (net, planner) = fixture();
        let seq = run_sweep(&planner, &net, SweepMode::N1).unwrap();
        for workers in [2, 8] {
            let par = planner
                .clone()
                .with_parallelism(Parallelism::Threads(workers));
            let got = run_sweep(&par, &net, SweepMode::N1).unwrap();
            assert_eq!(got, seq, "N-1 sweep diverged at {workers} workers");
        }
    }

    #[test]
    fn budget_cut_and_resume_is_bit_identical() {
        let (net, planner) = fixture();
        let clean = run_sweep(&planner, &net, SweepMode::N1).unwrap();
        let budget = WorkBudget::unlimited().with_max_work(3);
        let run = run_sweep_budgeted(&planner, &net, SweepMode::N1, None, &budget, |_| {}).unwrap();
        let Budgeted::Partial { completed, stopped } = run else {
            panic!("expected a budget cut")
        };
        assert_eq!(stopped, StopReason::WorkExhausted);
        assert_eq!(completed.records.len(), 3);
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
            |_| {},
        )
        .unwrap();
        let Budgeted::Complete(resumed) = resumed else {
            panic!("resume must complete")
        };
        assert_eq!(resumed, clean);
    }

    #[test]
    fn batch_callback_fires_on_checkpoint_boundaries() {
        let (net, planner) = fixture();
        let mut marks = Vec::new();
        let run = run_sweep_budgeted(
            &planner,
            &net,
            SweepMode::N1,
            None,
            &WorkBudget::unlimited(),
            |outcome| marks.push(outcome.records.len()),
        )
        .unwrap();
        assert!(matches!(run, Budgeted::Complete(_)));
        // 10 scenarios (5 nodes + 5 links) → one full batch of 8.
        assert_eq!(marks, vec![8]);
    }

    #[test]
    fn sampled_modes_reject_zero_samples_and_mismatched_networks() {
        let (net, planner) = fixture();
        let err = run_sweep(
            &planner,
            &net,
            SweepMode::N2 {
                samples: 0,
                seed: 1,
            },
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidArgument { ref context, .. } if context == "samples"));
        let small = Network::new(
            "tiny",
            NetworkKind::Regional,
            vec![pop("A", 35.0, -100.0)],
            vec![],
        )
        .unwrap();
        let err = run_sweep(&planner, &small, SweepMode::N1).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument { ref context, .. } if context == "network"));
    }

    #[test]
    fn ensemble_sweep_is_deterministic_and_reports_bands() {
        let (net, planner) = fixture();
        let mode = SweepMode::Ensemble {
            samples: 5,
            seed: 42,
        };
        let a = run_sweep(&planner, &net, mode).unwrap();
        let b = run_sweep(&planner, &net, mode).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.records.len(), 5);
        let (p5, p50, p95) = a.risk_bands().unwrap();
        assert!(p5 <= p50 && p50 <= p95);
    }

    #[test]
    fn ranking_orders_by_stranded_then_risk_then_index() {
        let (net, planner) = fixture();
        let outcome = run_sweep(&planner, &net, SweepMode::N1).unwrap();
        let ranked = outcome.ranked();
        assert_eq!(ranked.len(), outcome.records.len());
        for pair in ranked.windows(2) {
            let (ia, a) = &pair[0];
            let (ib, b) = &pair[1];
            let (sa, sb) = (outcome.delta_stranded(a), outcome.delta_stranded(b));
            let (ra, rb) = (outcome.delta_bit_risk(a), outcome.delta_bit_risk(b));
            let in_order = sa > sb
                || (sa == sb
                    && match ra.total_cmp(&rb) {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Equal => ia < ib,
                        std::cmp::Ordering::Less => false,
                    });
            assert!(in_order, "ranking out of order between {ia} and {ib}");
        }
        // Node 3 is the cut vertex to the stub: it strands its own 4
        // pairs plus stub-side pairs — strictly more than any other
        // element. It must rank first.
        assert_eq!(
            ranked[0].1.spec,
            ScenarioSpec::One(FailElement::Node(3)),
            "the articulation point must top the criticality report"
        );
    }

    #[test]
    fn worst_per_element_takes_the_worst_fork() {
        let (net, planner) = fixture();
        let mode = SweepMode::N2 {
            samples: 12,
            seed: 3,
        };
        let outcome = run_sweep(&planner, &net, mode).unwrap();
        let worst = outcome.worst_per_element();
        assert!(!worst.is_empty());
        for (elem, dbr, dst) in &worst {
            // Every reported element appears in some record, and its
            // reported deltas match that record's.
            let found = outcome.records.iter().any(|r| match &r.spec {
                ScenarioSpec::Two(a, b) => {
                    (a == elem || b == elem)
                        && outcome.delta_stranded(r) == *dst
                        && outcome.delta_bit_risk(r).to_bits() == dbr.to_bits()
                }
                _ => false,
            });
            assert!(found, "worst entry for {elem:?} has no backing record");
        }
    }
}
