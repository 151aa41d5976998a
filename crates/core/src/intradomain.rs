//! Intradomain RiskRoute (§6.1): minimum bit-risk-mile routing within one
//! provider and the aggregate trade-off against shortest-path routing.

use crate::engine::{self, Bound, Chords, CsrGraph, LbRow, LbRows, Rho, RouteTreeCache, TreeKey};
use crate::error::Error;
use crate::metric::{NodeRisk, RiskWeights};
use crate::ratios::{PairOutcome, RatioReport};
use crate::routing::{
    evaluate_path, path_miles, path_rho_sum, Adjacency, PairAnswer, RhoSums, RiskTree, RoutedPath,
};
use riskroute_geo::GeoPoint;
use riskroute_hazard::HistoricalRisk;
use riskroute_par::Parallelism;
use riskroute_population::{PopShares, PopulationModel};
use riskroute_topology::Network;
use std::sync::Arc;

/// The `i < j` pair list in lexicographic order — the canonical reduction
/// order of every pair-sum sweep, at any worker count.
pub(crate) fn unordered_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            pairs.push((i, j));
        }
    }
    pairs
}

/// Precompute the λ-combined per-PoP risk `ρ(v) = λ_h·o_h(v) + λ_f·o_f(v)`
/// for one cost state. Every β·ρ(v) the crate charges reads this vector
/// ([`Planner::rho`]); nothing re-derives it from the risk channels.
fn compute_rho(risk: &NodeRisk, weights: RiskWeights) -> Rho {
    Rho::new((0..risk.len()).map(|v| risk.scaled(v, weights)).collect())
}

/// An empty set of lower-bound rows over `csr` under the historical half
/// `λ_h·o_h` of ρ — the same first product `compute_rho` adds the forecast
/// term to, so ρ ≥ it bit for bit under every forecast.
fn lb_rows(csr: &Arc<CsrGraph>, risk: &NodeRisk, weights: RiskWeights) -> Arc<LbRows> {
    let rho_h = (0..risk.len())
        .map(|v| weights.lambda_h * risk.historical(v))
        .collect();
    Arc::new(LbRows::new(Arc::clone(csr), rho_h))
}

/// Whether two vectors are equal bit for bit (so `-0.0 ≠ 0.0`): the test
/// for "same cost state" wherever a stamp or a cached tree is kept.
pub(crate) fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The result of a degraded-mode pair sweep: the outcomes that routed plus
/// the (src, dst) pairs stranded by a partition.
#[derive(Debug, Clone, Default)]
pub struct PairSweep {
    /// Pairs that routed in both metrics.
    pub outcomes: Vec<PairOutcome>,
    /// Pairs with no connecting path (cross-component under a partition).
    pub stranded: Vec<(usize, usize)>,
}

/// One routed pair of a sweep, as [`Planner::sweep_source`] hands it to a
/// [`PairSink`]: the pair, its β, the source's distance tree (which reaches
/// `dst`) and the Σρ of that tree's path to `dst`.
struct SweepPair<'a> {
    src: usize,
    dst: usize,
    beta: f64,
    tree: &'a RiskTree,
    rho_sum: f64,
}

impl SweepPair<'_> {
    /// The shortest leg's `[bit-miles, bit-risk miles]`: the tree distance
    /// *is* the path's bit-miles, and its risk-miles are β times its Σρ —
    /// the sums [`shortest_from`] reports.
    fn shortest_miles(&self) -> [f64; 2] {
        let miles = self.tree.dist(self.dst);
        [miles, miles + self.beta * self.rho_sum]
    }
}

/// What a sweep keeps of each pair: [`PairSweep`] the outcomes with both
/// paths, [`TermSweep`] just the four Eq. 5/6 terms.
trait PairSink: Default + Send {
    /// Keep one pair whose shortest leg routed, or return `false` when its
    /// RiskRoute leg is unroutable.
    fn route(&mut self, planner: &Planner, pair: &SweepPair<'_>) -> bool;

    /// Record a pair with no connecting path.
    fn strand(&mut self, src: usize, dst: usize);

    /// Append `later`'s pairs after this sink's — the in-order merge of a
    /// pooled fold's per-item parts.
    fn append(&mut self, later: Self);
}

impl PairSink for PairSweep {
    fn route(&mut self, planner: &Planner, pair: &SweepPair<'_>) -> bool {
        let risk_route = planner
            .risk_leg(pair, |path| planner.route_along(path, pair.beta))
            .flatten();
        let (Some(risk_route), Some(nodes)) = (risk_route, pair.tree.path_to(pair.dst)) else {
            return false;
        };
        let [bit_miles, bit_risk_miles] = pair.shortest_miles();
        self.outcomes.push(PairOutcome {
            src: pair.src,
            dst: pair.dst,
            risk_route,
            shortest: RoutedPath {
                nodes,
                bit_miles,
                risk_miles: pair.beta * pair.rho_sum,
                bit_risk_miles,
            },
        });
        true
    }

    fn strand(&mut self, src: usize, dst: usize) {
        self.stranded.push((src, dst));
    }

    fn append(&mut self, later: PairSweep) {
        self.outcomes.extend(later.outcomes);
        self.stranded.extend(later.stranded);
    }
}

/// The term fold behind [`Planner::ratio_report_for`]: per routed pair,
/// `[risk bit-miles, risk bit-risk miles, shortest bit-miles, shortest
/// bit-risk miles]` ([`PairOutcome::terms`]) in pair order, and the count
/// of stranded pairs.
#[derive(Default)]
struct TermSweep {
    terms: Vec<[f64; 4]>,
    stranded: usize,
}

impl PairSink for TermSweep {
    fn route(&mut self, planner: &Planner, pair: &SweepPair<'_>) -> bool {
        let risk = planner
            .risk_leg(pair, |path| {
                path_miles(&planner.csr, path, pair.beta, &planner.rho).ok()
            })
            .flatten();
        let Some([bit_miles, risk_miles]) = risk else {
            return false;
        };
        let [sp_miles, sp_bit_risk] = pair.shortest_miles();
        self.terms
            .push([bit_miles, bit_miles + risk_miles, sp_miles, sp_bit_risk]);
        true
    }

    fn strand(&mut self, _: usize, _: usize) {
        self.stranded += 1;
    }

    fn append(&mut self, later: TermSweep) {
        self.terms.extend(later.terms);
        self.stranded += later.stranded;
    }
}

/// The intradomain routing engine for one network.
///
/// Holds the topology as one immutable CSR graph, the per-PoP risk
/// vectors, population shares, the λ weights and the ρ they combine into;
/// answers RiskRoute (Eq. 3) and shortest-path queries, and aggregates the
/// §7 ratio reports. Every per-PoP and per-link vector sits behind an
/// `Arc`, so a clone copies no vector: it shares them until a mutation
/// replaces one.
///
/// All SSSP goes through the [`crate::engine`] module: the CSR graph,
/// pooled scratch-arena Dijkstra, and an exact route cache shared by
/// clones of this planner. β = 0 distance trees
/// are keyed by a topology stamp, every other entry by a cost stamp minted
/// whenever risk or weights change, so a stale tree can never be observed
/// and a forecast change keeps every distance tree. The cache also
/// memoises one ratio report per cost state
/// ([`Self::ratio_report_for`]); it stores no per-pair answer.
/// [`Self::with_route_cache`] turns reuse off for debugging without
/// changing a single output bit. Pair
/// queries run goal-directed on lower-bound rows ([`Self::pair_sweep`]) or
/// the chord bound ([`Self::pair_list_sweep`]), with answers bit-identical
/// to plain Dijkstra's.
#[derive(Debug, Clone)]
pub struct Planner {
    csr: Arc<CsrGraph>,
    risk: Arc<NodeRisk>,
    shares: Arc<PopShares>,
    weights: RiskWeights,
    parallelism: Parallelism,
    /// Precomputed λ-combined per-PoP risk `ρ(v) = risk.scaled(v, weights)`
    /// under the current cost state (shared with clones; rebuilt on any
    /// risk/weight mutation).
    rho: Arc<Rho>,
    /// Topology stamp keying β = 0 trees: minted only with a new topology
    /// ([`Self::new`], [`Self::fork_masked`]), see [`engine::next_stamp`].
    topo_stamp: u64,
    /// Cost stamp naming the (topology, ρ) state that keys every other
    /// cache entry.
    stamp: u64,
    cache: Arc<RouteTreeCache>,
    route_cache: bool,
    /// Lower-bound rows for [`Self::pair_sweep`]'s queries, built per
    /// target on first use. Shared by clones and removal-only forks;
    /// replaced by [`Self::set_weights`].
    rows: Arc<LbRows>,
    /// The chord bound for queries without a row; `None` when some link
    /// is shorter than its chord.
    chords: Option<Arc<Chords>>,
}

impl Planner {
    /// Build a planner from prepared parts.
    ///
    /// # Panics
    /// Panics when vector lengths disagree with the network size.
    pub fn new(network: &Network, risk: NodeRisk, shares: PopShares, weights: RiskWeights) -> Self {
        assert_eq!(risk.len(), network.pop_count(), "risk must cover every PoP");
        assert_eq!(
            shares.shares().len(),
            network.pop_count(),
            "shares must cover every PoP"
        );
        let csr = Arc::new(CsrGraph::from_adjacency(&Adjacency::from_links(
            network.pop_count(),
            network.links().iter().map(|l| (l.a, l.b, l.miles)),
        )));
        let rho = Arc::new(compute_rho(&risk, weights));
        let cache = Arc::new(RouteTreeCache::new());
        let points: Vec<GeoPoint> = network.pops().iter().map(|p| p.location).collect();
        let chords = Chords::new(&points, &csr).map(Arc::new);
        Planner {
            rows: lb_rows(&csr, &risk, weights),
            csr,
            risk: Arc::new(risk),
            shares: Arc::new(shares),
            weights,
            parallelism: Parallelism::Sequential,
            rho,
            topo_stamp: engine::next_stamp(),
            stamp: engine::next_stamp(),
            cache,
            route_cache: true,
            chords,
        }
    }

    /// Set the parallelism knob for the planner's sweeps
    /// ([`pair_sweep`](Self::pair_sweep), [`aggregate_bit_risk`](Self::aggregate_bit_risk),
    /// and the provisioning scorer); returns the planner for chaining.
    ///
    /// Every setting produces **bit-identical** results — every worker
    /// count folds in input order (see `riskroute-par`) — so the knob only
    /// trades wall-clock for cores.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The active parallelism knob.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// A planner over `augmented` — this planner's network plus added
    /// links, PoPs unchanged — with this planner's risk, shares and
    /// weights (cloned, not recomputed) and its parallelism and
    /// route-cache knobs. Greedy provisioning builds each round's planner
    /// here.
    pub(crate) fn rebuilt_for(&self, augmented: &Network) -> Planner {
        Planner::new(
            augmented,
            (*self.risk).clone(),
            (*self.shares).clone(),
            self.weights,
        )
        .with_parallelism(self.parallelism)
        .with_route_cache(self.route_cache)
    }

    /// Build a planner with the standard §5 instantiation: population
    /// shares by nearest-neighbour census assignment and historical risk
    /// from the five-corpus hazard model (zero forecast risk).
    pub fn for_network(
        network: &Network,
        population: &PopulationModel,
        hazards: &HistoricalRisk,
        weights: RiskWeights,
    ) -> Self {
        let shares = {
            let _span = riskroute_obs::span!(
                "pop_shares",
                blocks = population.blocks().len(),
                pops = network.pop_count()
            );
            PopShares::assign(population, network, None)
        };
        let risk = NodeRisk::from_historical(network, hazards);
        Planner::new(network, risk, shares, weights)
    }

    /// Number of PoPs.
    pub fn pop_count(&self) -> usize {
        self.csr.node_count()
    }

    /// The topology graph.
    pub(crate) fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// The per-PoP risk vectors.
    pub fn risk(&self) -> &NodeRisk {
        &self.risk
    }

    /// Replace the forecast risk vector (replay updates it per advisory).
    ///
    /// A forecast bitwise-equal to the active one is a no-op — in
    /// particular the cost stamp is kept, so repeated quiet ticks
    /// (zero-forecast advisories before and after a storm) keep hitting the
    /// shared route-tree cache. Any actual change rebuilds ρ and mints a
    /// fresh cost stamp, retiring every cached β > 0 entry; distance trees
    /// read no ρ and are kept.
    ///
    /// # Panics
    /// Panics on length mismatch or invalid values.
    pub fn set_forecast(&mut self, forecast: Vec<f64>) {
        if self.risk.forecast_slice() == forecast.as_slice() {
            return;
        }
        Arc::make_mut(&mut self.risk).set_forecast(forecast);
        self.refresh_cost_state();
    }

    /// The population shares.
    pub fn shares(&self) -> &PopShares {
        &self.shares
    }

    /// The λ weights.
    pub fn weights(&self) -> RiskWeights {
        self.weights
    }

    /// Replace the λ weights. A changed value rebuilds ρ, retires every
    /// cached β > 0 entry and drops the lower-bound rows; distance trees are
    /// kept (unchanged values are a no-op).
    pub fn set_weights(&mut self, weights: RiskWeights) {
        if weights == self.weights {
            return;
        }
        self.weights = weights;
        self.rows = lb_rows(&self.csr, &self.risk, weights);
        self.refresh_cost_state();
    }

    /// Enable or disable the route-tree cache (the CLI's
    /// `--no-route-cache` debug flag). The cache is exact, so this knob —
    /// like [`Self::with_parallelism`] — never changes any output bit, only
    /// how often SSSP actually runs.
    #[must_use]
    pub fn with_route_cache(mut self, enabled: bool) -> Self {
        self.route_cache = enabled;
        self
    }

    /// Whether the route-tree cache is consulted.
    pub fn route_cache(&self) -> bool {
        self.route_cache
    }

    /// The precomputed λ-combined per-PoP risk vector ρ under the current
    /// cost state: `ρ(v) = risk().scaled(v, weights())` bit for bit, the
    /// one source of every β·ρ(v) charge (path evaluation, via-pricing,
    /// backup ranking, OSPF weights).
    pub(crate) fn rho(&self) -> &[f64] {
        &self.rho
    }

    /// Rebuild ρ after a risk or weight mutation and advance the cost
    /// state. A new ρ bitwise equal to the old one keeps the cost stamp, so
    /// every cached entry stays valid as-is (e.g. a forecast change under
    /// `λ_f = 0` invalidates nothing); any other change mints a fresh cost
    /// stamp, retiring every β > 0 entry. The topology stamp never moves
    /// here, so distance trees survive either way.
    fn refresh_cost_state(&mut self) {
        let new_rho = compute_rho(&self.risk, self.weights);
        if !same_bits(&self.rho, &new_rho) {
            self.rho = Arc::new(new_rho);
            self.stamp = engine::next_stamp();
        }
    }

    /// Outage impact β(i,j) = c_i + c_j (§5.1).
    pub fn impact(&self, i: usize, j: usize) -> f64 {
        self.shares.share(i) + self.shares.share(j)
    }

    /// Evaluate an explicit node sequence under the (i, j) pair's bit-risk
    /// metric (the path need not be optimal — backup planning evaluates
    /// Yen-ranked alternates this way).
    ///
    /// # Errors
    /// [`Error::NotAdjacent`] when consecutive nodes are not physically
    /// linked.
    pub fn evaluate(&self, i: usize, j: usize, nodes: &[usize]) -> Result<RoutedPath, Error> {
        evaluate_path(&self.csr, nodes, self.impact(i, j), &self.rho)
    }

    /// The RiskRoute path (Eq. 3): minimum bit-risk miles from `i` to `j`.
    /// `None` when unreachable.
    pub fn risk_route(&self, i: usize, j: usize) -> Option<RoutedPath> {
        let beta = self.impact(i, j);
        self.route_along(&self.risk_tree(i, beta).path_to(j)?, beta)
    }

    /// Evaluate a tree or pair-answer path under metric β.
    fn route_along(&self, path: &[usize], beta: f64) -> Option<RoutedPath> {
        // Tree and answer paths traverse real links by construction.
        evaluate_path(&self.csr, path, beta, &self.rho).ok()
    }

    /// [`risk_route`](Self::risk_route) as a typed result: unreachable pairs
    /// come back as [`Error::Unreachable`] carrying the pair, for callers
    /// (like the CLI) that must report *why* rather than silently skip.
    pub fn try_risk_route(&self, i: usize, j: usize) -> Result<RoutedPath, Error> {
        self.risk_route(i, j).ok_or_else(|| Error::Unreachable {
            network: String::new(),
            src: i,
            dst: j,
        })
    }

    /// The geographic shortest path from `i` to `j`, *evaluated under the
    /// bit-risk metric* of the (i, j) pair so it is directly comparable to
    /// [`risk_route`](Self::risk_route). `None` when unreachable.
    pub fn shortest_route(&self, i: usize, j: usize) -> Option<RoutedPath> {
        let answer = self.risk_tree_distance(i).pair_answer(j)?;
        Some(shortest_from(answer, self.impact(i, j), &self.rho))
    }

    /// Full SSSP under the (i, j) pair's bit-risk weighting, rooted at `root`
    /// (used by the provisioning sweep). Served from the route cache's
    /// complete trees when enabled; computed trees are shared behind an
    /// `Arc` with every clone of this planner in the same cost state (at
    /// β = 0, on the same topology).
    pub(crate) fn risk_tree(&self, root: usize, beta: f64) -> Arc<RiskTree> {
        let key = self.tree_key(root, beta);
        if self.route_cache {
            if let Some(tree) = self.cache.tree(&key) {
                return tree;
            }
        }
        let tree = Arc::new(engine::sssp(&self.csr, root, beta, &self.rho));
        if self.route_cache {
            self.cache
                .insert_tree(key, Arc::clone(&tree), self.live_stamps());
        }
        tree
    }

    /// The answer to a pair-list query from `root` to `target` under
    /// metric β (`None` when unreachable): read off a cached complete tree
    /// under `(root, β)`, else a run on the chord bound that stops once
    /// `target` settles. Nothing is cached per pair, since no list reads a
    /// pair twice.
    fn pair_answer(&self, root: usize, beta: f64, target: usize) -> Option<PairAnswer> {
        if self.route_cache {
            if let Some(tree) = self.cache.tree(&self.tree_key(root, beta)) {
                return tree.pair_answer(target);
            }
        }
        let bound = match &self.chords {
            Some(chords) => Bound::Chord(chords),
            None => Bound::Zero,
        };
        engine::sssp_to(&self.csr, root, beta, &self.rho, target, bound)
    }

    /// The RiskRoute leg of one sweep pair, handed to `read` as its path
    /// (source first); `None` when unroutable. A β = 0 pair reads the
    /// source's distance tree; any other runs on the target's lower-bound
    /// row (the chord bound past the row budget) and is read in place off
    /// the engine's arena.
    fn risk_leg<R>(&self, pair: &SweepPair<'_>, read: impl FnOnce(&[usize]) -> R) -> Option<R> {
        if pair.beta == 0.0 {
            return pair.tree.path_to(pair.dst).map(|path| read(&path));
        }
        let bound = match (self.lb_row(pair.dst), &self.chords) {
            (Some(row), _) => Bound::Row(row),
            (None, Some(chords)) => Bound::Chord(chords),
            (None, None) => Bound::Zero,
        };
        engine::sssp_to_with(
            &self.csr,
            pair.src,
            pair.beta,
            &self.rho,
            pair.dst,
            bound,
            |path, _| read(path),
        )
    }

    /// Target `t`'s lower-bound row, built on first request; `None` over
    /// the row budget. Its distance half is t's β = 0 tree over the rows'
    /// graph — this planner's own cached tree unless this planner is a
    /// fork of that graph.
    fn lb_row(&self, t: usize) -> Option<&LbRow> {
        self.rows.row(t, || {
            if Arc::ptr_eq(&self.csr, self.rows.csr()) {
                self.risk_tree_distance(t)
            } else {
                Arc::new(engine::sssp(self.rows.csr(), t, 0.0, &self.rho))
            }
        })
    }

    /// The cache key of the tree rooted at `root` under metric β: under
    /// the topology stamp at β = 0, else under the current cost stamp.
    fn tree_key(&self, root: usize, beta: f64) -> TreeKey {
        TreeKey {
            root: root as u32,
            beta_bits: beta.to_bits(),
            stamp: if beta == 0.0 {
                self.topo_stamp
            } else {
                self.stamp
            },
        }
    }

    /// Both stamps this planner's cache entries live under.
    fn live_stamps(&self) -> [u64; 2] {
        [self.topo_stamp, self.stamp]
    }

    /// Pure bit-mile SSSP tree from `root` (the shortest-path baseline and
    /// the provisioning candidate filter both use it). It reads no ρ, so
    /// one tree serves every forecast and weight state of this topology.
    pub(crate) fn risk_tree_distance(&self, root: usize) -> Arc<RiskTree> {
        self.risk_tree(root, 0.0)
    }

    /// Route one source against every destination into `out` — the
    /// per-source unit of every all-pairs sweep, and its one loop.
    ///
    /// The shortest-path leg reads the source's one distance tree: its
    /// path and miles are β-independent, and its Σρ is summed down the tree
    /// (bit for bit `path_rho_sum` of each path). The RiskRoute leg's β
    /// differs per destination, so it runs one pair query
    /// ([`Self::risk_leg`]).
    fn sweep_source<S: PairSink>(&self, src: usize, dests: &[usize], out: &mut S) {
        let tree = self.risk_tree_distance(src);
        let mut scratch = RhoSums::default();
        let sums = scratch.sum(&tree, &self.rho, 0);
        for &dst in dests {
            if src == dst {
                continue;
            }
            let pair = SweepPair {
                src,
                dst,
                beta: self.impact(src, dst),
                tree: &tree,
                rho_sum: sums[dst],
            };
            if !(tree.reachable(dst) && out.route(self, &pair)) {
                out.strand(src, dst);
            }
        }
    }

    /// Fold [`Self::sweep_source`] over `sources` into one sink, in source
    /// order at any worker count.
    fn sweep<S: PairSink>(&self, sources: &[usize], dests: &[usize], sink: &mut S) {
        riskroute_par::par_fold(
            self.parallelism,
            sources,
            sink,
            S::default,
            |&i, out| self.sweep_source(i, dests, out),
            S::append,
        );
    }

    /// Pair outcomes plus the pairs that could not be routed — the
    /// degraded-mode sweep. When a storm (or a chaos fault plan) partitions
    /// the topology, routing proceeds *within* each connected component and
    /// the cross-component pairs are surfaced as `stranded` instead of
    /// aborting the aggregation.
    ///
    /// For the ratios alone, [`Self::ratio_report_for`] runs the same pair
    /// queries without building any path.
    pub fn pair_sweep(&self, sources: &[usize], dests: &[usize]) -> PairSweep {
        let mut span = riskroute_obs::span!("pair_sweep");
        let mut sweep = PairSweep {
            outcomes: Vec::with_capacity(sources.len() * dests.len()),
            stranded: Vec::new(),
        };
        self.sweep(sources, dests, &mut sweep);
        if span.is_active() {
            let bit_risk = sweep.outcomes.iter().map(|o| o.risk_route.bit_risk_miles);
            publish_sweep(
                &mut span,
                sweep.outcomes.len(),
                sweep.stranded.len(),
                bit_risk,
            );
        }
        sweep
    }

    /// The §7 ratio report (Eqs. 5–6) over `sources` × `dests`: bit for bit
    /// `RatioReport::aggregate_with_stranded` of [`Self::pair_sweep`]'s
    /// outcomes, folded from four numbers per pair instead of two paths.
    /// Stranded pairs are counted on the report rather than aborting it.
    ///
    /// With the route cache on, the report is memoised under this
    /// planner's topology and cost stamps and the exact lists, so a repeat
    /// in the same cost state (a quiet replay tick, a served `ratio`) is
    /// one lookup, counted as one `route_cache_hits`.
    pub fn ratio_report_for(&self, sources: &[usize], dests: &[usize]) -> RatioReport {
        let live = self.live_stamps();
        if self.route_cache {
            if let Some(report) = self.cache.report(live, sources, dests) {
                return report;
            }
        }
        let mut span = riskroute_obs::span!("pair_sweep");
        let mut sweep = TermSweep {
            terms: Vec::with_capacity(sources.len() * dests.len()),
            stranded: 0,
        };
        self.sweep(sources, dests, &mut sweep);
        if span.is_active() {
            let bit_risk = sweep.terms.iter().map(|t| t[1]);
            publish_sweep(&mut span, sweep.terms.len(), sweep.stranded, bit_risk);
        }
        let report = RatioReport::from_terms(sweep.terms, sweep.stranded);
        if self.route_cache {
            self.cache.insert_report(live, sources, dests, report);
        }
        report
    }

    /// Route one explicit (i, j) pair: the shortest-path and RiskRoute legs
    /// of a [`PairOutcome`], or `None` when the pair is stranded. No tree
    /// is shared across a pair list's sources, so both legs read pair
    /// answers; at β = 0 the two legs are one query.
    fn route_pair(&self, i: usize, j: usize) -> Option<PairOutcome> {
        let beta = self.impact(i, j);
        let distance = self.pair_answer(i, 0.0, j)?;
        let risk_route = if beta == 0.0 {
            self.route_along(&distance.path, beta)
        } else {
            self.pair_answer(i, beta, j)
                .and_then(|a| self.route_along(&a.path, beta))
        }?;
        let shortest = shortest_from(distance, beta, &self.rho);
        Some(PairOutcome {
            src: i,
            dst: j,
            risk_route,
            shortest,
        })
    }

    /// Pair outcomes for an explicit `(src, dst)` pair list — the sampled
    /// sweep behind `ratio --sample` and the scale bench, where routing all
    /// n² pairs of a continental-scale network would be prohibitive.
    ///
    /// Outcomes and stranded pairs come back in pair-list order regardless
    /// of the parallelism knob (the fold merges per-pair parts in list
    /// order), so results are bit-identical at any worker count. Pairs with
    /// `src == dst` are skipped.
    pub fn pair_list_sweep(&self, pairs: &[(usize, usize)]) -> PairSweep {
        let mut span = riskroute_obs::span!("pair_list_sweep");
        let mut sweep = PairSweep {
            outcomes: Vec::with_capacity(pairs.len()),
            stranded: Vec::new(),
        };
        riskroute_par::par_fold(
            self.parallelism,
            pairs,
            &mut sweep,
            PairSweep::default,
            |&(i, j), out| {
                if i == j {
                    return;
                }
                match self.route_pair(i, j) {
                    Some(o) => out.outcomes.push(o),
                    None => out.stranded.push((i, j)),
                }
            },
            PairSweep::append,
        );
        if span.is_active() {
            publish_pair_counts(&mut span, sweep.outcomes.len(), sweep.stranded.len());
        }
        sweep
    }

    /// Pair outcomes for an explicit source × destination sweep (src ≠ dst,
    /// reachable pairs only). Distance trees are computed once per source.
    ///
    /// The interdomain analysis uses this with a regional network's PoPs as
    /// sources and all regional PoPs as destinations (§7).
    pub fn pair_outcomes(&self, sources: &[usize], dests: &[usize]) -> Vec<PairOutcome> {
        self.pair_sweep(sources, dests).outcomes
    }

    /// All informative pair outcomes over the whole network, for the
    /// Eq. 5/6 ratios.
    pub fn all_pair_outcomes(&self) -> Vec<PairOutcome> {
        let all: Vec<usize> = (0..self.pop_count()).collect();
        self.pair_outcomes(&all, &all)
    }

    /// The §7 ratio report over all PoP pairs (Eqs. 5–6):
    /// [`Self::ratio_report_for`] every PoP to every PoP.
    pub fn ratio_report(&self) -> RatioReport {
        let all: Vec<usize> = (0..self.pop_count()).collect();
        self.ratio_report_for(&all, &all)
    }

    /// Total aggregated bit-risk miles `Σ_{i<j} min_p r_{i,j}(p)` — the
    /// objective of the provisioning analysis (Eq. 4).
    pub fn aggregate_bit_risk(&self) -> f64 {
        let mut span = riskroute_obs::span!("aggregate_bit_risk");
        // Float addition is non-associative, so the fold adds in
        // lexicographic pair order at any worker count; `-0.0` is the
        // exact identity a pooled per-pair part starts from.
        let mut total = 0.0;
        riskroute_par::par_fold(
            self.parallelism,
            &unordered_pairs(self.pop_count()),
            &mut total,
            || -0.0,
            |&(i, j), acc: &mut f64| {
                if let Some(p) = self.risk_route(i, j) {
                    *acc += p.bit_risk_miles;
                }
            },
            |acc, part| *acc += part,
        );
        if span.is_active() {
            span.field("total_bit_risk_miles", total);
            riskroute_obs::counter_add("aggregate_bit_risk_runs", 1);
            riskroute_obs::gauge_set("aggregate_bit_risk_miles", total);
        }
        total
    }

    /// Copy-on-write fork of this planner for a failure scenario. The CSR
    /// graph is masked through `keep` (directed edges it rejects are
    /// dropped, order preserved), an optional
    /// forecast override replaces the forecast risk channel, and the fork
    /// mints **fresh** topology and cost stamps plus a **private**
    /// route-tree cache.
    ///
    /// The private cache matters: at capacity an insert into a
    /// [`RouteTreeCache`] purges every entry whose stamp is not one of the
    /// inserting planner's two, so
    /// a fork writing into the *base's* shared cache could evict the base
    /// trees mid-sweep. Keys alone already guarantee no fork tree is ever
    /// *returned* to the base; the private cache also keeps fork churn from
    /// evicting base state. Deactivated nodes keep their indices (they
    /// simply lose all edges), so shares, risk, and pair indexing stay
    /// aligned with the base network. The fork shares the base's
    /// lower-bound rows and chord bound: a masked graph only loses links,
    /// so every bound of the base still holds.
    ///
    /// # Panics
    /// Panics when a forecast override has the wrong length or invalid
    /// values (same contract as [`Self::set_forecast`]).
    pub(crate) fn fork_masked(
        &self,
        keep: &dyn Fn(usize, usize) -> bool,
        forecast_override: Option<&[f64]>,
    ) -> Planner {
        let csr = Arc::new(self.csr.masked(keep));
        let mut risk = Arc::clone(&self.risk);
        if let Some(f) = forecast_override {
            Arc::make_mut(&mut risk).set_forecast(f.to_vec());
        }
        let rho = Arc::new(compute_rho(&risk, self.weights));
        let cache = Arc::new(RouteTreeCache::new());
        Planner {
            csr,
            risk,
            shares: Arc::clone(&self.shares),
            weights: self.weights,
            parallelism: self.parallelism,
            rho,
            topo_stamp: engine::next_stamp(),
            stamp: engine::next_stamp(),
            cache,
            route_cache: self.route_cache,
            rows: Arc::clone(&self.rows),
            chords: self.chords.clone(),
        }
    }

    /// The cached β = 0 distance tree rooted at `root` on this planner's
    /// topology, if any (scenario forks probe the base cache for trees to
    /// adopt).
    pub(crate) fn cached_distance_tree(&self, root: usize) -> Option<Arc<RiskTree>> {
        if !self.route_cache {
            return None;
        }
        self.cache.tree(&self.tree_key(root, 0.0))
    }

    /// Seed a β = 0 tree into this planner's cache under its topology
    /// stamp (scenario forks store adopted base trees so the sweep never
    /// recomputes them).
    pub(crate) fn seed_distance_tree(&self, root: usize, tree: Arc<RiskTree>) {
        if !self.route_cache {
            return;
        }
        self.cache
            .insert_tree(self.tree_key(root, 0.0), tree, self.live_stamps());
    }

    /// Carry still-valid route trees from `prev` into this planner after
    /// greedy provisioning rebuilt it with one extra `(a, b)` link.
    ///
    /// A cached tree rooted at `r` under metric β provably survives the
    /// edge addition when the new link cannot improve *any* distance, i.e.
    /// (with `c(v) = β·ρ(v)` and `w` the new link's miles)
    ///
    /// ```text
    /// dist(r,a) + w + c(b) > dist(r,b)   and
    /// dist(r,b) + w + c(a) > dist(r,a)
    /// ```
    ///
    /// The inequalities are **strict** even though `≥` would preserve the
    /// distances: on an exact tie a fresh Dijkstra run could relax through
    /// the new link and flip the predecessor (and thus the printed path)
    /// without changing the distance, breaking the byte-identical
    /// cache-on/cache-off contract. Under strict inequality every
    /// improving relaxation of the fresh run is one the old run performed
    /// (the new link's relaxations are always strictly dominated later),
    /// so dist *and* pred come out bit-for-bit equal — surviving trees are
    /// simply re-keyed to this planner's stamps (β = 0 trees to its
    /// topology stamp, the rest to its cost stamp). An edge between two
    /// nodes unreachable from `r` also survives: it cannot create any new
    /// path from `r`.
    ///
    /// Only trees are carried: the new planner is a new cost state, so the
    /// previous one's ratio memo stays behind.
    ///
    /// Adoption is skipped entirely (correct, just slower) unless `prev`
    /// has bitwise-identical ρ and a graph equal to this one minus exactly
    /// the appended link — greedy's `with_extra_link` appends the
    /// new link last, which is also what keeps relaxation order (and so
    /// every tie-break) aligned between the old and new graphs.
    pub(crate) fn adopt_route_cache(&mut self, prev: &Planner, a: usize, b: usize) {
        if !(self.route_cache && prev.route_cache) {
            return;
        }
        let n = self.csr.node_count();
        if n != prev.csr.node_count() || !same_bits(&self.rho, &prev.rho) {
            return;
        }
        let identical = self.csr == prev.csr;
        let mut new_miles = f64::INFINITY;
        if !identical {
            if a >= n || b >= n || a == b {
                return;
            }
            for u in 0..n {
                let mut new_row = self.csr.neighbors(u);
                if u == a || u == b {
                    // u's old row, then one appended edge to the other end.
                    let expect = if u == a { b } else { a };
                    if !prev.csr.neighbors(u).all(|e| new_row.next() == Some(e)) {
                        return;
                    }
                    match (new_row.next(), new_row.next()) {
                        (Some((tail, miles)), None) if tail == expect => new_miles = miles,
                        _ => return,
                    }
                } else if !new_row.eq(prev.csr.neighbors(u)) {
                    return;
                }
            }
        }
        let mut kept: u64 = 0;
        let mut dropped: u64 = 0;
        for (key, tree) in prev.cache.trees_with_stamps(prev.live_stamps()) {
            let survives = if identical {
                true
            } else {
                let beta = f64::from_bits(key.beta_bits);
                let (ca, cb) = if beta == 0.0 {
                    // Distance trees use a literal zero entry cost.
                    (0.0, 0.0)
                } else {
                    (
                        engine::sanitize_cost(beta * self.rho[a]),
                        engine::sanitize_cost(beta * self.rho[b]),
                    )
                };
                let (da, db) = (tree.dist(a), tree.dist(b));
                (!da.is_finite() && !db.is_finite())
                    || (da + new_miles + cb > db && db + new_miles + ca > da)
            };
            if survives {
                let key = self.tree_key(key.root as usize, f64::from_bits(key.beta_bits));
                self.cache.insert_tree(key, tree, self.live_stamps());
                kept += 1;
            } else {
                dropped += 1;
            }
        }
        if riskroute_obs::is_enabled() {
            riskroute_obs::counter_add("route_cache_revalidated", kept);
            riskroute_obs::counter_add("route_cache_invalidated", dropped);
        }
    }
}

/// Publish a sweep's routed and stranded pair counts on its span and as
/// counters.
fn publish_pair_counts(span: &mut riskroute_obs::Span, routed: usize, stranded: usize) {
    span.field("pairs_routed", routed);
    span.field("pairs_stranded", stranded);
    riskroute_obs::counter_add("pairs_routed", routed as u64);
    riskroute_obs::counter_add("pairs_stranded", stranded as u64);
}

/// [`publish_pair_counts`] for an all-pairs sweep, plus the sum of its
/// RiskRoute legs' bit-risk miles (added in pair order) as the
/// `pair_sweep_bit_risk_miles` gauge.
fn publish_sweep(
    span: &mut riskroute_obs::Span,
    routed: usize,
    stranded: usize,
    bit_risk: impl Iterator<Item = f64>,
) {
    publish_pair_counts(span, routed, stranded);
    riskroute_obs::gauge_set("pair_sweep_bit_risk_miles", bit_risk.sum());
}

/// The shortest-path [`RoutedPath`] read off a β = 0 pair answer: its
/// `dist` *is* the path's bit-miles (each hop added `miles + 0.0` in path
/// order), and the pair's risk-miles are β times the path's
/// [`path_rho_sum`] under the current ρ.
fn shortest_from(answer: PairAnswer, beta: f64, rho: &[f64]) -> RoutedPath {
    let risk_miles = beta * path_rho_sum(&answer.path, rho);
    RoutedPath {
        nodes: answer.path,
        bit_miles: answer.dist,
        risk_miles,
        bit_risk_miles: answer.dist + risk_miles,
    }
}

/// A warm pool of engine handles keyed by `(network, λ_h, λ_f)`.
///
/// [`Planner`] construction pays for KDE-backed risk fitting, population
/// assignment, and the CSR snapshot; clones, by contrast, share the CSR and
/// the exact route-tree cache by `Arc`. A long-lived process (the
/// `riskroute serve` daemon) keeps one pool so every request against the
/// same network and weights reuses the warm engine — and because the cache
/// is stamp-keyed and exact, pooled answers stay byte-identical to a cold
/// one-shot run.
#[derive(Debug, Default)]
pub struct PlannerPool {
    inner: std::sync::Mutex<std::collections::HashMap<PoolKey, Planner>>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PoolKey {
    network: String,
    lambda_h_bits: u64,
    lambda_f_bits: u64,
}

impl PlannerPool {
    /// An empty pool.
    pub fn new() -> Self {
        PlannerPool::default()
    }

    /// Fetch the warm planner for `(network, weights)`, building it with
    /// `build` on first use. Returns a clone sharing the pooled planner's
    /// CSR snapshot and route-tree cache; per-call knobs
    /// ([`Planner::with_parallelism`], [`Planner::with_route_cache`]) apply
    /// to the clone without disturbing the pool.
    pub fn planner_for(
        &self,
        network: &str,
        weights: RiskWeights,
        build: impl FnOnce() -> Planner,
    ) -> Planner {
        let key = PoolKey {
            network: network.to_string(),
            lambda_h_bits: weights.lambda_h.to_bits(),
            lambda_f_bits: weights.lambda_f.to_bits(),
        };
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if riskroute_obs::is_enabled() {
            let name = if inner.contains_key(&key) {
                "planner_pool_hits"
            } else {
                "planner_pool_misses"
            };
            riskroute_obs::counter_add(name, 1);
        }
        inner.entry(key).or_insert_with(build).clone()
    }

    /// Number of distinct warm engines held.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use riskroute_geo::GeoPoint;
    use riskroute_topology::{NetworkKind, Pop};

    impl Planner {
        /// The current cost stamp (tests compare it to tell whether a fork
        /// kept its base's cost state).
        pub(crate) fn cost_stamp(&self) -> u64 {
            self.stamp
        }
    }

    fn pop(name: &str, lat: f64, lon: f64) -> Pop {
        Pop {
            name: name.into(),
            location: GeoPoint::new(lat, lon).unwrap(),
        }
    }

    /// A diamond where the northern detour avoids a risky middle PoP:
    ///
    /// ```text
    ///        1 (safe, north)
    ///      /   \
    ///    0       3
    ///      \   /
    ///        2 (risky, direct-ish)
    /// ```
    fn diamond() -> (Network, NodeRisk, PopShares) {
        let net = Network::new(
            "diamond",
            NetworkKind::Regional,
            vec![
                pop("West", 35.0, -100.0),
                pop("North", 37.5, -97.0),
                pop("South", 35.0, -97.0),
                pop("East", 35.0, -94.0),
            ],
            vec![(0, 1), (1, 3), (0, 2), (2, 3)],
        )
        .unwrap();
        // PoP 2's risk at β = 0.5, λ_h = 1e5 is worth 250 bit-miles — more
        // than the ~140-mile northern detour, so RiskRoute must divert.
        let risk = NodeRisk::new(vec![0.0, 0.0, 5e-3, 0.0], vec![0.0; 4]);
        // Uniform shares: β = 0.5 for every pair.
        let shares = PopShares::from_shares(vec![0.25; 4]);
        (net, risk, shares)
    }

    fn planner(lambda_h: f64) -> Planner {
        let (net, risk, shares) = diamond();
        Planner::new(&net, risk, shares, RiskWeights::historical_only(lambda_h))
    }

    #[test]
    fn shortest_route_takes_risky_southern_path() {
        let p = planner(1e5);
        let sp = p.shortest_route(0, 3).unwrap();
        assert_eq!(sp.nodes, vec![0, 2, 3], "south is geographically shorter");
        assert!(sp.risk_miles > 0.0, "and pays the risk of PoP 2");
    }

    #[test]
    fn risk_route_detours_north_when_lambda_large() {
        let p = planner(1e5);
        let rr = p.risk_route(0, 3).unwrap();
        assert_eq!(rr.nodes, vec![0, 1, 3]);
        assert_eq!(rr.risk_miles, 0.0);
        assert!(rr.bit_miles > p.shortest_route(0, 3).unwrap().bit_miles);
    }

    #[test]
    fn risk_route_matches_shortest_when_lambda_zero() {
        let p = planner(0.0);
        let rr = p.risk_route(0, 3).unwrap();
        let sp = p.shortest_route(0, 3).unwrap();
        assert_eq!(rr.nodes, sp.nodes);
        assert_eq!(rr.bit_risk_miles, sp.bit_risk_miles);
    }

    #[test]
    fn risk_route_never_exceeds_shortest_in_bit_risk() {
        let p = planner(1e5);
        for i in 0..4 {
            for j in 0..4 {
                if i == j {
                    continue;
                }
                let rr = p.risk_route(i, j).unwrap();
                let sp = p.shortest_route(i, j).unwrap();
                assert!(
                    rr.bit_risk_miles <= sp.bit_risk_miles + 1e-9,
                    "({i},{j}): rr {} > sp {}",
                    rr.bit_risk_miles,
                    sp.bit_risk_miles
                );
                assert!(
                    rr.bit_miles >= sp.bit_miles - 1e-9,
                    "RiskRoute can never be geographically shorter"
                );
            }
        }
    }

    #[test]
    fn ratio_report_reflects_the_detour() {
        let p = planner(1e5);
        let r = p.ratio_report();
        assert!(r.risk_reduction_ratio > 0.0);
        assert!(r.distance_increase_ratio > 0.0);
        assert_eq!(r.pairs, 12);
        let p0 = planner(0.0);
        let r0 = p0.ratio_report();
        assert!(r0.risk_reduction_ratio.abs() < 1e-12);
        assert!(r0.distance_increase_ratio.abs() < 1e-12);
    }

    #[test]
    fn larger_lambda_is_weakly_more_risk_averse() {
        let r5 = planner(1e5).ratio_report();
        let r6 = planner(1e6).ratio_report();
        assert!(r6.risk_reduction_ratio >= r5.risk_reduction_ratio - 1e-12);
        assert!(r6.distance_increase_ratio >= r5.distance_increase_ratio - 1e-12);
    }

    #[test]
    fn aggregate_bit_risk_sums_unordered_pairs() {
        let p = planner(1e5);
        let mut expect = 0.0;
        for i in 0..4 {
            for j in (i + 1)..4 {
                expect += p.risk_route(i, j).unwrap().bit_risk_miles;
            }
        }
        assert!((p.aggregate_bit_risk() - expect).abs() < 1e-9);
    }

    #[test]
    fn unreachable_pairs_return_none() {
        let net = Network::new(
            "split",
            NetworkKind::Regional,
            vec![
                pop("A", 35.0, -100.0),
                pop("B", 36.0, -100.0),
                pop("C", 40.0, -90.0),
            ],
            vec![(0, 1)],
        )
        .unwrap();
        let risk = NodeRisk::new(vec![0.0; 3], vec![0.0; 3]);
        let shares = PopShares::from_shares(vec![0.4, 0.4, 0.2]);
        let p = Planner::new(&net, risk, shares, RiskWeights::PAPER);
        assert!(p.risk_route(0, 2).is_none());
        assert!(p.shortest_route(0, 2).is_none());
        assert!(p.risk_route(0, 1).is_some());
    }

    #[test]
    #[should_panic(expected = "risk must cover every PoP")]
    fn mismatched_risk_length_panics() {
        let (net, _, shares) = diamond();
        let bad_risk = NodeRisk::new(vec![0.0], vec![0.0]);
        let _ = Planner::new(&net, bad_risk, shares, RiskWeights::PAPER);
    }

    #[test]
    fn sweeps_store_no_pair_answers_and_one_memo_per_cost_state() {
        // Uniform shares: β = 0.5 for every pair. A sweep caches the four
        // distance trees (its shortest legs and its targets' rows) and no
        // pair answer.
        let mut p = planner(1e5);
        let all: Vec<usize> = (0..4).collect();
        let sweep = p.pair_sweep(&all, &all);
        assert_eq!(sweep.outcomes.len(), 12);
        assert_eq!(p.cache.len(), 4);
        // The ratio fold adds one memo, which a repeat reads.
        let report = p.ratio_report();
        assert_eq!(
            report,
            RatioReport::aggregate_with_stranded(sweep.outcomes.iter(), 0)
        );
        assert_eq!(p.cache.len(), 5);
        assert_eq!(p.ratio_report(), report);
        assert_eq!(p.cache.len(), 5);
        // Other lists in the same cost state keep the first memo.
        let some = p.ratio_report_for(&all[..2], &all);
        assert_eq!(p.cache.len(), 5);
        assert_eq!(some.pairs, 6);
        // A pair-list query caches nothing.
        assert_eq!(p.pair_answer(0, 0.5, 2).unwrap().path, vec![0, 2]);
        assert_eq!(p.cache.len(), 5);

        // Greedy adoption carries trees only, never the memo.
        let (net, risk, shares) = diamond();
        let augmented = crate::provisioning::with_extra_link(&net, 1, 2);
        let mut next = Planner::new(&augmented, risk, shares, RiskWeights::historical_only(1e5));
        next.adopt_route_cache(&p, 1, 2);
        let adopted = next.cache.trees_with_stamps(next.live_stamps()).len();
        assert_eq!(next.cache.len(), adopted);

        // A full request runs a whole tree, which then answers pair-list
        // queries for every target.
        let full = p.risk_tree(0, 0.5);
        assert_eq!(full.path_to(3), Some(vec![0, 1, 3]));
        assert_eq!(p.cache.len(), 6);
        assert_eq!(p.pair_answer(0, 0.5, 3).unwrap().path, vec![0, 1, 3]);
        assert_eq!(p.cache.len(), 6, "a tree hit stores no pair answer");

        // New weights are a new cost state: the memo misses and a second
        // one joins it.
        p.set_weights(RiskWeights::historical_only(1e6));
        assert_ne!(p.ratio_report(), report);
        assert_eq!(p.cache.len(), 7);
    }

    #[test]
    fn distance_trees_survive_forecast_and_weight_changes() {
        let (net, risk, shares) = diamond();
        let mut p = Planner::new(&net, risk, shares, RiskWeights::PAPER);
        let tree = p.risk_tree_distance(0);
        let risky = p.risk_tree(0, 0.5);
        let stamp = p.cost_stamp();
        p.set_forecast(vec![0.0, 1.0, 0.0, 0.0]);
        assert_ne!(p.cost_stamp(), stamp, "ρ changed");
        let kept = p
            .cached_distance_tree(0)
            .expect("the distance tree survives");
        assert!(Arc::ptr_eq(&kept, &tree));
        assert!(!Arc::ptr_eq(&p.risk_tree(0, 0.5), &risky), "β > 0 retires");
        p.set_weights(RiskWeights::new(1e6, 1e3));
        let kept = p
            .cached_distance_tree(0)
            .expect("the distance tree survives");
        assert!(Arc::ptr_eq(&kept, &tree));
    }

    #[test]
    fn fork_masked_graph_is_the_masked_link_lists_graph() {
        let (net, risk, shares) = diamond();
        let p = Planner::new(&net, risk, shares, RiskWeights::PAPER);
        let check = |keep: &dyn Fn(usize, usize) -> bool| {
            let kept = net
                .links()
                .iter()
                .filter(|l| keep(l.a, l.b))
                .map(|l| (l.a, l.b, l.miles));
            let expect = CsrGraph::from_adjacency(&Adjacency::from_links(4, kept));
            assert_eq!(*p.fork_masked(keep, None).csr, expect);
        };
        // One failed link, then one failed node (every link touching it).
        check(&|u, v| (u.min(v), u.max(v)) != (0, 2));
        check(&|u, v| u != 1 && v != 1);
    }

    #[test]
    fn impact_uses_shares() {
        let p = planner(1e5);
        assert!((p.impact(0, 3) - 0.5).abs() < 1e-12);
    }
}
