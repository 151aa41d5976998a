//! The dedicated shortest-path engine behind [`crate::Planner`].
//!
//! Every RiskRoute quantity — Eq. 3 routes, Eq. 4 provisioning scores,
//! Eq. 5/6 ratios — bottoms out in β-scaled SSSP, so this module owns the
//! three layers that make those runs cheap without changing a single bit of
//! output:
//!
//! 1. **CSR snapshot** ([`CsrGraph`]): the planner's only graph, an
//!    immutable compressed-sparse-row topology — flat
//!    `offsets`/`targets`/`weights` arrays — so the Dijkstra inner loop
//!    walks two cache-friendly slices and a planner clone shares it by
//!    `Arc`. It is flattened once from the link list's [`Adjacency`], with
//!    edge order within each node preserved exactly, which keeps
//!    relaxation order (and therefore every tie-broken predecessor)
//!    identical to the reference [`risk_sssp`](crate::routing::risk_sssp)
//!    over that adjacency.
//!
//! 2. **Scratch-arena Dijkstra** (`SsspArena`): per-worker reusable
//!    dist/pred buffers and a monotone [`BucketQueue`] frontier, with
//!    generation-stamped lazy reset — a run bumps one `u32` generation
//!    instead of clearing its arrays, and a slot is live only when its
//!    stamp matches. Arenas are pooled through
//!    [`riskroute_par::ScratchPool`] so scoped pool workers reuse them
//!    across drains; steady-state runs allocate nothing but their output.
//!    Entry costs `sanitize(β·ρ(v))` are computed at relaxation and the
//!    bucket quantum comes from the mean ρ cached in [`Rho`], so a run does
//!    no O(n) set-up. One kernel serves both query shapes: a run is set up,
//!    searched, and then read by one of two extractors — the whole tree
//!    ([`sssp`]) or, for a pair query that stops once its target settles
//!    ([`sssp_to`]), just the target's path and distance ([`PairAnswer`]),
//!    in O(path length) instead of O(n). A β = 0 run never reads ρ, so a
//!    distance tree is a function of the topology alone; readers that need
//!    its Σρ sum it along the path (`routing::path_rho_sum`).
//!
//!    The kernel is generic over an A\* potential. Full trees run it with
//!    h ≡ 0. A pair query runs it on a lower bound of the cost still to
//!    pay to its target ([`Bound`]): a per-target row ([`LbRow`]) built
//!    from the target's distance tree and a Σρ search, or the great-circle
//!    chord ([`Chords`]). Any relaxation or stop state under which the
//!    goal-directed answer could differ from the plain one — a tie, a
//!    settled node offered its own distance again, an equal-key entry left
//!    at the stop — reruns the query with h ≡ 0, so every answer is the
//!    plain Dijkstra's bit for bit (DESIGN.md §"Goal-directed pair
//!    queries" has the proof).
//!
//! 3. **Exact route cache** (`RouteTreeCache`): complete trees keyed by
//!    `(root, β.to_bits(), stamp)` and pair answers keyed by
//!    `(root, β.to_bits(), stamp, target)`. A β = 0 key carries the
//!    planner's topology stamp, which only a new topology mints; every
//!    other key carries its cost stamp, which any risk/weight mutation also
//!    mints. A stale entry can never be *returned*, only evicted. A pair
//!    lookup is answered by its own entry or by a complete
//!    tree under its `(root, β, stamp)`; full-tree readers see trees only.
//!    After greedy provisioning adds a link `(a, b)` the planner
//!    re-keys still-valid trees into the new state via a strict
//!    edge-addition test (`Planner::adopt_route_cache`): a tree rooted at
//!    `r` survives when
//!    `dist(r,a) + w + c(b) > dist(r,b)` **and**
//!    `dist(r,b) + w + c(a) > dist(r,a)` (`c(v) = β·ρ(v)`). Strict
//!    inequality — not the `≥` that preserves distances alone — is what
//!    preserves the predecessor array bit-for-bit: on an exact tie a fresh
//!    run could route through the new link and flip the printed path even
//!    though the distance is unchanged. The cache is exact, never
//!    approximate: outputs are byte-identical with it on or off.

use crate::routing::{Adjacency, Entry, PairAnswer, RiskTree, NO_PRED};
use riskroute_geo::{GeoPoint, EARTH_RADIUS_MILES};
use riskroute_graph::queue::{inv_quantum_for_mean, BucketQueue};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Process-global source of planner stamps (see [`next_stamp`]).
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// Mint a fresh, process-unique stamp naming one immutable planner state
/// (a topology, or a topology under one cost function). Two planner values
/// share a stamp only when their trees are interchangeable bit-for-bit.
pub(crate) fn next_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// Sanitize one β-scaled entry cost exactly like the reference SSSP:
/// non-finite or negative costs make the node unroutable.
pub(crate) fn sanitize_cost(c: f64) -> f64 {
    if c.is_finite() && c >= 0.0 {
        c
    } else {
        f64::INFINITY
    }
}

/// One cost state's λ-combined per-PoP risk ρ, with the mean the bucket
/// quantum reads cached beside it (a run's quantum is
/// `mean link miles + β·mean ρ`). Dereferences to the ρ slice.
#[derive(Debug)]
pub struct Rho {
    values: Vec<f64>,
    /// Sum of the finite non-negative entries over the entry count (0.0
    /// when empty). Any positive quantum keys costs monotonically, so this
    /// only tunes bucket occupancy, never a pop.
    mean: f64,
}

impl Rho {
    /// Wrap a ρ vector and cache its mean.
    pub fn new(values: Vec<f64>) -> Self {
        let sum: f64 = values.iter().filter(|r| r.is_finite() && **r >= 0.0).sum();
        let mean = sum / values.len().max(1) as f64;
        Rho { values, mean }
    }
}

impl std::ops::Deref for Rho {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.values
    }
}

/// Immutable compressed-sparse-row topology.
///
/// `targets[offsets[u]..offsets[u+1]]` lists u's neighbors in the exact
/// order the nested-Vec [`Adjacency`] it was built from stores them
/// (link-list order: `from_links` appends both directions of each link),
/// with `weights` holding the matching link miles.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    /// Mean of the positive finite edge weights (0.0 when none): the edge
    /// component of the mean relaxation step a run's bucket quantum is
    /// chosen from. Byte-identity of the bucket path never depends on the
    /// derived factor — any positive factor keys costs monotonically — it
    /// only tunes bucket occupancy.
    mean_weight: f64,
}

/// Mean of the positive finite values in `weights` (0.0 when none).
fn mean_positive(weights: &[f64]) -> f64 {
    let mut sum = 0.0f64;
    let mut n = 0u64;
    for &w in weights {
        if w.is_finite() && w > 0.0 {
            sum += w;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

impl CsrGraph {
    /// Flatten an adjacency into CSR form, preserving per-node edge order.
    ///
    /// # Panics
    /// Panics when node or edge counts exceed the packed `u32` index range.
    pub fn from_adjacency(adj: &Adjacency) -> Self {
        let n = adj.node_count();
        let m: usize = (0..n).map(|u| adj.neighbors(u).len()).sum();
        assert!(
            n < u32::MAX as usize && m < u32::MAX as usize,
            "graph exceeds the packed CSR index range"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(m);
        let mut weights = Vec::with_capacity(m);
        offsets.push(0u32);
        for u in 0..n {
            for &(v, miles) in adj.neighbors(u) {
                targets.push(v as u32);
                weights.push(miles);
            }
            offsets.push(targets.len() as u32);
        }
        let mean_weight = mean_positive(&weights);
        CsrGraph {
            offsets,
            targets,
            weights,
            mean_weight,
        }
    }

    /// A masked copy of this snapshot: directed edges `(u, v)` for which
    /// `keep(u, v)` returns `false` are dropped, and every surviving edge
    /// keeps its position relative to the others — the snapshot of the link
    /// list with those edges left out. A scenario fork's Dijkstra therefore
    /// replays the base relaxation order restricted to kept edges, the
    /// property that keeps fork tie-breaks bit-exact.
    pub(crate) fn masked(&self, keep: impl Fn(usize, usize) -> bool) -> CsrGraph {
        let n = self.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(self.targets.len());
        let mut weights = Vec::with_capacity(self.weights.len());
        offsets.push(0u32);
        for u in 0..n {
            for e in self.edge_range(u) {
                let v = self.targets[e] as usize;
                if keep(u, v) {
                    targets.push(self.targets[e]);
                    weights.push(self.weights[e]);
                }
            }
            offsets.push(targets.len() as u32);
        }
        let mean_weight = mean_positive(&weights);
        CsrGraph {
            offsets,
            targets,
            weights,
            mean_weight,
        }
    }

    /// The same topology with every edge `(u, v)` weighing `exit(u)` — a
    /// finite non-negative `exit(u)`, or 0.0 — instead of its miles. A
    /// search from `t` over it sums the exit costs of every node a path
    /// leaves on its way out of `t`: read backwards, those are exactly the
    /// nodes a path *enters* on its way into `t` (the Σρ of an [`LbRow`]).
    fn with_exit_costs(&self, exit: &[f64]) -> CsrGraph {
        let weights: Vec<f64> = (0..self.node_count())
            .flat_map(|u| {
                let x = if exit[u].is_finite() && exit[u] >= 0.0 {
                    exit[u]
                } else {
                    0.0
                };
                self.edge_range(u).map(move |_| x)
            })
            .collect();
        let mean_weight = mean_positive(&weights);
        CsrGraph {
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
            weights,
            mean_weight,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges (twice the undirected link count).
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// u's out-edges `(v, miles)` in row order — link-list order.
    pub(crate) fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.edge_range(u)
            .map(|e| (self.targets[e] as usize, self.weights[e]))
    }

    #[inline]
    fn edge_range(&self, u: usize) -> std::ops::Range<usize> {
        self.offsets[u] as usize..self.offsets[u + 1] as usize
    }
}

/// Reusable per-worker Dijkstra scratch state with generation-stamped lazy
/// reset: `dist`/`pred` slots are live only when `touched[v] == gen`, and a
/// node is settled only when `settled[v] == gen`, so "resetting" for the
/// next run is a single generation bump. A full clear happens only when the
/// `u32` generation wraps (once per ~4 billion runs).
pub(crate) struct SsspArena {
    dist: Vec<f64>,
    pred: Vec<u32>,
    touched: Vec<u32>,
    settled: Vec<u32>,
    gen: u32,
    bucket: BucketQueue,
}

impl SsspArena {
    pub(crate) fn new() -> Self {
        SsspArena {
            dist: Vec::new(),
            pred: Vec::new(),
            touched: Vec::new(),
            settled: Vec::new(),
            gen: 0,
            bucket: BucketQueue::new(),
        }
    }

    /// Open a new run over `n` nodes: grow buffers if the graph outgrew the
    /// arena, bump the generation (full clear on wrap).
    fn begin(&mut self, n: usize) {
        if self.touched.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.pred.resize(n, NO_PRED);
            self.touched.resize(n, 0);
            self.settled.resize(n, 0);
        }
        if self.gen == u32::MAX {
            self.touched.fill(0);
            self.settled.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
    }

    #[inline]
    fn dist_of(&self, v: usize) -> f64 {
        if self.touched[v] == self.gen {
            self.dist[v]
        } else {
            f64::INFINITY
        }
    }

    /// The settled distance of every node of a drained run over `n` nodes
    /// (∞ where unreachable).
    fn settled_dist(&self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|v| {
                if self.settled[v] == self.gen {
                    self.dist[v]
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    /// The whole tree of a drained run over `n` nodes. A drained run
    /// settles every node it touched (touched ⇒ finite dist ⇒ pushed ⇒
    /// popped), so the settled nodes are exactly the reachable ones; every
    /// other slot reads as unreachable.
    fn tree(&self, source: usize, n: usize) -> RiskTree {
        let gen = self.gen;
        let dist = self.settled_dist(n);
        let pred = (0..n)
            .map(|v| {
                if self.settled[v] == gen {
                    self.pred[v]
                } else {
                    NO_PRED
                }
            })
            .collect();
        RiskTree::from_parts(source, dist, pred)
    }

    /// The answer for `target` of a run that stopped once it settled (or
    /// drained without reaching it): the settled predecessor chain walked
    /// back to the source, whose nodes all settled before the target.
    fn pair_answer(&self, target: usize) -> Option<PairAnswer> {
        if self.settled[target] != self.gen {
            return None;
        }
        let mut path = vec![target];
        let mut cur = target;
        while self.pred[cur] != NO_PRED {
            cur = self.pred[cur] as usize;
            path.push(cur);
        }
        path.reverse();
        Some(PairAnswer {
            path,
            dist: self.dist[target],
        })
    }
}

/// The process-wide arena pool: scoped pool workers (and the sequential
/// path) check arenas out per run and return them for the next, so
/// steady-state SSSP allocates nothing but the output tree.
static ARENAS: riskroute_par::ScratchPool<SsspArena> =
    riskroute_par::ScratchPool::named("sssp_arena");

/// What a run charges on entering a node.
#[derive(Clone, Copy)]
struct Metric<'a> {
    beta: f64,
    rho: &'a Rho,
}

impl Metric<'_> {
    /// The entry cost of `v`. β = 0 is the distance metric: the reference
    /// path used a literal zero entry cost (never touching ρ, so a NaN ρ
    /// leaves the node routable); otherwise the reference's sanitized
    /// `β·ρ(v)`, computed at relaxation with the same bits a per-run fill
    /// would hold.
    #[inline]
    fn entry(&self, v: usize) -> f64 {
        if self.beta == 0.0 {
            0.0
        } else {
            sanitize_cost(self.beta * self.rho[v])
        }
    }

    /// Bucket-queue quantization factor. The frontier advances by edge
    /// weight *plus* the entry cost, so the quantum comes from the mean of
    /// that full step — quantizing on edge weights alone piles the whole
    /// frontier into a handful of buckets whenever entry costs dominate
    /// (λ-scaled risk makes them ~10× the edge miles on the paper's
    /// weights). Pop order is byte-identical for any positive factor; this
    /// only tunes bucket occupancy.
    fn inv_quantum(&self, csr: &CsrGraph) -> f64 {
        let entry = if self.beta == 0.0 {
            0.0
        } else {
            self.beta * self.rho.mean
        };
        inv_quantum_for_mean(csr.mean_weight + entry)
    }
}

/// The factor every lower bound is shrunk by before it keys the frontier:
/// the slack that absorbs the rounding of the bound's own sums and of the
/// path sums it bounds (DESIGN.md §"Goal-directed pair queries").
const SHRINK: f64 = 1.0 - 1e-9;

/// Graphs above this many nodes run pair queries with h ≡ 0: [`SHRINK`]'s
/// slack covers the relative rounding of a sum of at most this many terms
/// ((n + 4)·2⁻⁵³ ≈ 4.7·10⁻¹⁰ < 10⁻⁹).
const MAX_GOAL_NODES: usize = 1 << 22;

/// An A\* potential: a lower bound on the cost still to pay from a node to
/// the stop node, zero at the stop node. `at(v)` is `+∞` only when `v`
/// cannot reach the stop node at all (then `v` is never entered).
trait Potential {
    /// The zero potential, under which the kernel is plain Dijkstra and
    /// needs no rerun checks.
    const ZERO: bool = false;

    fn at(&self, v: usize) -> f64;
}

/// h ≡ 0: plain Dijkstra (every full tree, every rerun).
struct Zero;

impl Potential for Zero {
    const ZERO: bool = true;

    #[inline]
    fn at(&self, _: usize) -> f64 {
        0.0
    }
}

/// `(d0(v,t) + β·R(v,t))·SHRINK`, read off the target's [`LbRow`].
struct RowPotential<'a> {
    bounds: &'a [[f64; 2]],
    beta: f64,
}

impl Potential for RowPotential<'_> {
    #[inline]
    fn at(&self, v: usize) -> f64 {
        let [d0, r] = self.bounds[v];
        if d0 == f64::INFINITY {
            return f64::INFINITY;
        }
        let h = if self.beta == 0.0 {
            d0
        } else {
            d0 + self.beta * r
        };
        // β·R overflowing (or a NaN β) keeps the miles half of the bound.
        (if h.is_finite() { h } else { d0 }) * SHRINK
    }
}

/// `R_earth·|x_v − x_t|·SHRINK`: the great-circle chord to the target.
struct ChordPotential<'a> {
    units: &'a [[f64; 3]],
    to: [f64; 3],
}

impl Potential for ChordPotential<'_> {
    #[inline]
    fn at(&self, v: usize) -> f64 {
        chord_miles(self.units[v], self.to) * SHRINK
    }
}

/// The lower bound a pair query ([`sssp_to`]) keys its frontier on.
#[derive(Debug, Clone, Copy)]
pub enum Bound<'a> {
    /// None: a plain early-exit Dijkstra.
    Zero,
    /// The target's lower-bound row.
    Row(&'a LbRow),
    /// The great-circle chord to the target.
    Chord(&'a Chords),
}

/// Hot-loop tallies of one search, published to the collector by the
/// caller.
struct SearchStats {
    pops: u64,
    relaxations: u64,
    peak: usize,
    settles: u64,
    skipped: u64,
    /// The run broke at its stop node instead of draining the frontier.
    stopped: bool,
    /// A goal-directed run met a state under which its answer could differ
    /// from the plain run's; the query must rerun with h ≡ 0.
    rerun: bool,
}

/// β-scaled SSSP from `source` over the CSR snapshot, using a pooled
/// scratch arena. Bit-for-bit equivalent to
/// [`crate::routing::risk_sssp`] with entry cost
/// `v ↦ β·ρ(v)` — same relaxation order, same tie-breaks (the bucket queue
/// pops in the reference heap's exact `(cost, node)` order), same
/// sanitization. At `beta == 0` it never reads ρ: the distance tree
/// depends on the topology alone.
///
/// # Panics
/// Panics when `source` is out of range.
pub fn sssp(csr: &CsrGraph, source: usize, beta: f64, rho: &Rho) -> RiskTree {
    let metric = Metric { beta, rho };
    ARENAS.with(SsspArena::new, |arena| {
        run(arena, csr, source, metric, None, &Zero);
        arena.tree(source, csr.node_count())
    })
}

/// [`sssp`] for a pair query: an A\* on `bound` that stops right after
/// `target` settles and returns the target's [`PairAnswer`], read straight
/// off the arena in O(path length) — `None` when `target` is unreachable.
/// The answer — the target's distance and its whole tree path — is
/// bit-for-bit the full run's: a run that meets a tie (or any other
/// state under which that could fail) reruns with h ≡ 0, counted as
/// `risk_sssp_tie_reruns`.
///
/// # Panics
/// Panics when `source` or `target` is out of range, or when `bound` is a
/// row built for another target.
pub fn sssp_to(
    csr: &CsrGraph,
    source: usize,
    beta: f64,
    rho: &Rho,
    target: usize,
    bound: Bound<'_>,
) -> Option<PairAnswer> {
    let n = csr.node_count();
    assert!(target < n, "target {target} out of range");
    let metric = Metric { beta, rho };
    let stop = Some(target);
    ARENAS.with(SsspArena::new, |arena| {
        let exact = match bound {
            _ if n > MAX_GOAL_NODES => run(arena, csr, source, metric, stop, &Zero),
            Bound::Zero => run(arena, csr, source, metric, stop, &Zero),
            Bound::Row(row) => {
                assert_eq!(row.target, target, "a row answers its own target only");
                let pot = RowPotential {
                    bounds: &row.bounds,
                    beta,
                };
                run(arena, csr, source, metric, stop, &pot)
            }
            Bound::Chord(chords) => {
                let pot = ChordPotential {
                    units: &chords.units,
                    to: chords.units[target],
                };
                run(arena, csr, source, metric, stop, &pot)
            }
        };
        // Published on every pair query, so a clean run reports 0.
        riskroute_obs::counter_add("risk_sssp_tie_reruns", u64::from(!exact));
        if !exact {
            run(arena, csr, source, metric, stop, &Zero);
        }
        arena.pair_answer(target)
    })
}

/// Set the arena up for one run from `source` and search it to
/// completion, or until `stop` settles; publishes the run's counters. The
/// result stays in the arena for an extractor to read. Returns `false`
/// when a goal-directed run must be rerun with h ≡ 0.
fn run<P: Potential>(
    arena: &mut SsspArena,
    csr: &CsrGraph,
    source: usize,
    metric: Metric<'_>,
    stop: Option<usize>,
    pot: &P,
) -> bool {
    let n = csr.node_count();
    assert!(source < n, "source {source} out of range ({n} nodes)");
    arena.begin(n);
    let gen = arena.gen;
    arena.touched[source] = gen;
    arena.dist[source] = 0.0;
    arena.pred[source] = NO_PRED;
    // The frontier is moved out of the arena for the duration of the search
    // so the loop can borrow the arena's flat buffers mutably alongside it
    // (a plain field borrow would alias).
    let mut q = std::mem::take(&mut arena.bucket);
    q.reset(metric.inv_quantum(csr));
    let h = pot.at(source);
    // A source that cannot reach the stop node settles nothing.
    if h < f64::INFINITY {
        q.push(Entry {
            cost: h,
            node: source,
        });
    }
    let stats = search(arena, csr, metric, stop, pot, &mut q);
    arena.bucket = q;
    if riskroute_obs::is_enabled() {
        riskroute_obs::counter_add("risk_sssp_runs", 1);
        riskroute_obs::counter_add("risk_sssp_pops", stats.pops);
        riskroute_obs::counter_add("risk_sssp_relaxations", stats.relaxations);
        riskroute_obs::gauge_max("risk_sssp_heap_peak", stats.peak as f64);
        if stats.stopped {
            riskroute_obs::counter_add("risk_sssp_early_exits", 1);
        }
        riskroute_obs::counter_add("bucket_queue_settles", stats.settles);
        riskroute_obs::counter_add("bucket_relaxations_skipped", stats.skipped);
    }
    !stats.rerun
}

/// How far above the stop node's key the frontier is drained for entries
/// the rounding of a goal-directed run could have kept behind it: n + 3
/// units in the last place of the key (DESIGN.md §"Goal-directed pair
/// queries"). Far below any real cost gap, so only true ties land in it.
fn stop_margin(key: f64, n: usize) -> f64 {
    (n as f64 + 3.0) * (key * f64::EPSILON + f64::from_bits(1))
}

/// The Dijkstra hot loop, keyed on `g + h` with relaxation on the settled
/// `dist` (never on the popped key); under h ≡ 0 the body is byte-for-byte
/// the arithmetic of the reference SSSP. With a `stop` node the loop
/// breaks right after that node settles (before relaxing its edges):
/// everything settled so far is final.
///
/// Under a non-zero potential the search gives up (`rerun`) on any state
/// under which its answer could differ from the plain run's: a relaxation
/// that ties a touched node's distance, one that reaches a settled node at
/// or below its distance, a key that overflows, or an unsettled entry
/// within [`stop_margin`] of the stop node's key once it settles.
fn search<P: Potential>(
    arena: &mut SsspArena,
    csr: &CsrGraph,
    metric: Metric<'_>,
    stop: Option<usize>,
    pot: &P,
    q: &mut BucketQueue,
) -> SearchStats {
    let gen = arena.gen;
    let mut stats = SearchStats {
        pops: 0,
        relaxations: 0,
        peak: q.len(),
        settles: 0,
        skipped: 0,
        stopped: false,
        rerun: false,
    };
    while let Some(Entry { cost: key, node }) = q.pop() {
        stats.pops += 1;
        if arena.settled[node] == gen {
            continue;
        }
        arena.settled[node] = gen;
        stats.settles += 1;
        if stop == Some(node) {
            stats.stopped = true;
            if !P::ZERO {
                let limit = key + stop_margin(key, csr.node_count());
                while let Some(e) = q.pop() {
                    stats.pops += 1;
                    if e.cost > limit {
                        break;
                    }
                    if arena.settled[e.node] != gen {
                        stats.rerun = true;
                        break;
                    }
                }
            }
            break;
        }
        let g = arena.dist[node];
        for e in csr.edge_range(node) {
            let v = csr.targets[e] as usize;
            if arena.settled[v] == gen {
                stats.skipped += 1;
                if !P::ZERO && g + csr.weights[e] + metric.entry(v) <= arena.dist[v] {
                    stats.rerun = true;
                    return stats;
                }
                continue;
            }
            let next = g + csr.weights[e] + metric.entry(v);
            let dv = arena.dist_of(v);
            if next < dv {
                let key = if P::ZERO {
                    next
                } else {
                    let h = pot.at(v);
                    if h == f64::INFINITY {
                        continue;
                    }
                    let key = next + h;
                    if key == f64::INFINITY {
                        stats.rerun = true;
                        return stats;
                    }
                    key
                };
                arena.touched[v] = gen;
                arena.dist[v] = next;
                arena.pred[v] = node as u32;
                stats.relaxations += 1;
                q.push(Entry { cost: key, node: v });
                stats.peak = stats.peak.max(q.len());
            } else if !P::ZERO && next == dv && next < f64::INFINITY {
                stats.rerun = true;
                return stats;
            }
        }
    }
    stats
}

/// The great-circle chord between two unit vectors, in miles.
#[inline]
fn chord_miles(a: [f64; 3], b: [f64; 3]) -> f64 {
    let (dx, dy, dz) = (a[0] - b[0], a[1] - b[1], a[2] - b[2]);
    EARTH_RADIUS_MILES * (dx * dx + dy * dy + dz * dz).sqrt()
}

/// Every PoP's unit 3-vector, for the great-circle chord bound of pair
/// queries that have no [`LbRow`]. A chord is never longer than the arc
/// over the same two points, so when every link is at least as long as its
/// chord, the chord to the target bounds every path's miles (the triangle
/// inequality in 3-space) — with no trig per read.
#[derive(Debug)]
pub struct Chords {
    units: Vec<[f64; 3]>,
}

impl Chords {
    /// The chord bound over `points`, or `None` when some edge of `csr`
    /// is shorter than the chord between its endpoints (link miles that
    /// are not the great-circle distance): the bound would not hold there.
    ///
    /// # Panics
    /// Panics when `points` and `csr` disagree on the node count.
    pub fn new(points: &[GeoPoint], csr: &CsrGraph) -> Option<Chords> {
        assert_eq!(points.len(), csr.node_count(), "one point per node");
        let units: Vec<[f64; 3]> = points
            .iter()
            .map(|p| {
                let (lat, lon) = (p.lat_rad(), p.lon_rad());
                [lat.cos() * lon.cos(), lat.cos() * lon.sin(), lat.sin()]
            })
            .collect();
        let fits = (0..csr.node_count()).all(|u| {
            csr.edge_range(u)
                .all(|e| csr.weights[e] >= chord_miles(units[u], units[csr.targets[e] as usize]))
        });
        fits.then_some(Chords { units })
    }
}

/// One target's lower-bound row: for every node v, `d0(v,t)`, the least
/// link miles from v to t, and `R(v,t)`, the least Σ of historical
/// `λ_h·o_h` over the nodes a path from v enters on its way to t. Every
/// path's bit-risk miles are at least `d0 + β·R`, under every forecast
/// (DESIGN.md §"Goal-directed pair queries").
#[derive(Debug)]
pub struct LbRow {
    target: usize,
    bounds: Vec<[f64; 2]>,
}

impl LbRow {
    /// Target `t`'s row over `csr` under historical ρ `rho_h` (one entry
    /// per node), built from scratch: t's distance tree and its Σρ search.
    ///
    /// # Panics
    /// Panics when `t` is out of range or `rho_h` does not cover every
    /// node.
    pub fn new(csr: &CsrGraph, rho_h: &[f64], t: usize) -> LbRow {
        assert_eq!(rho_h.len(), csr.node_count(), "one ρ per node");
        let zeros = Rho::new(vec![0.0; csr.node_count()]);
        LbRow::build(&csr.with_exit_costs(rho_h), &sssp(csr, t, 0.0, &zeros))
    }

    /// Build `d0_tree.source()`'s row: `d0` is that β = 0 tree's distance
    /// row (links are undirected, so the distance from t is the distance
    /// to t), and `R` one search from t over `exit`, the graph's
    /// [exit-cost snapshot](CsrGraph::with_exit_costs) under historical ρ.
    /// Counted as `lb_row_searches`.
    fn build(exit: &CsrGraph, d0_tree: &RiskTree) -> LbRow {
        let target = d0_tree.source();
        let n = exit.node_count();
        let none = Rho::new(Vec::new());
        let metric = Metric {
            beta: 0.0,
            rho: &none,
        };
        let sigma = ARENAS.with(SsspArena::new, |arena| {
            run(arena, exit, target, metric, None, &Zero);
            arena.settled_dist(n)
        });
        riskroute_obs::counter_add("lb_row_searches", 1);
        let bounds = d0_tree.dist_slice()[..n]
            .iter()
            .zip(sigma)
            .map(|(&d0, r)| [d0, r])
            .collect();
        LbRow { target, bounds }
    }
}

/// The most memory the lower-bound rows of every live planner may hold
/// together; targets past it fall back to the chord bound.
const LB_ROW_BUDGET_BYTES: usize = 32 << 20;

/// Bytes held by the rows of every live [`LbRows`] in the process. A
/// budget tally that publishes no data (each row is published by its
/// `OnceLock`), so its updates are `Relaxed`.
static LB_ROW_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The lower-bound rows of one (topology, historical ρ) state: built per
/// target on first use, and shared by every planner whose graph is this
/// one or a subgraph of it (clones, forecast changes and removal-only
/// scenario forks: removing links only raises true costs, so the rows stay
/// lower bounds). A changed `λ_h` or an added link needs a new set.
pub(crate) struct LbRows {
    /// The graph the rows are exact for.
    csr: Arc<CsrGraph>,
    /// Historical `λ_h·o_h` per node (the exit costs of the Σρ searches).
    rho_h: Vec<f64>,
    exit: OnceLock<CsrGraph>,
    rows: OnceLock<Box<[OnceLock<LbRow>]>>,
    /// This set's share of [`LB_ROW_BYTES`].
    bytes: AtomicUsize,
}

impl LbRows {
    /// An empty set over `csr` under historical ρ `rho_h`.
    pub(crate) fn new(csr: Arc<CsrGraph>, rho_h: Vec<f64>) -> Self {
        LbRows {
            csr,
            rho_h,
            exit: OnceLock::new(),
            rows: OnceLock::new(),
            bytes: AtomicUsize::new(0),
        }
    }

    /// The graph the rows are built over.
    pub(crate) fn csr(&self) -> &Arc<CsrGraph> {
        &self.csr
    }

    /// Target `t`'s row, built on first request from `d0` (t's β = 0 tree
    /// over [`Self::csr`]); `None` once the process-wide row budget is
    /// spent.
    pub(crate) fn row(&self, t: usize, d0: impl FnOnce() -> Arc<RiskTree>) -> Option<&LbRow> {
        let n = self.csr.node_count();
        let slot = &self
            .rows
            .get_or_init(|| (0..n).map(|_| OnceLock::new()).collect())[t];
        if let Some(row) = slot.get() {
            return Some(row);
        }
        // What the row is charged against the budget: its header and bounds.
        let cost = std::mem::size_of::<LbRow>() + n * std::mem::size_of::<[f64; 2]>();
        let fits = |total: usize| (total + cost <= LB_ROW_BUDGET_BYTES).then_some(total + cost);
        let total = LB_ROW_BYTES
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, fits)
            .ok()?
            + cost;
        let mut built = false;
        let row = slot.get_or_init(|| {
            built = true;
            let exit = self
                .exit
                .get_or_init(|| self.csr.with_exit_costs(&self.rho_h));
            LbRow::build(exit, &d0())
        });
        if built {
            self.bytes.fetch_add(cost, Ordering::Relaxed);
            riskroute_obs::gauge_set("lb_row_bytes", total as f64);
        } else {
            // Another worker built it first; hand the reservation back.
            LB_ROW_BYTES.fetch_sub(cost, Ordering::Relaxed);
        }
        Some(row)
    }
}

impl Drop for LbRows {
    fn drop(&mut self) {
        LB_ROW_BYTES.fetch_sub(*self.bytes.get_mut(), Ordering::Relaxed);
    }
}

impl std::fmt::Debug for LbRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LbRows")
            .field("bytes", &self.bytes.load(Ordering::Relaxed))
            .finish()
    }
}

/// Key of one cached route tree: the SSSP root, the exact β bits (the cost
/// function is linear in β, so distinct bit patterns are distinct
/// metrics), and the planner stamp the tree was computed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TreeKey {
    /// SSSP root node.
    pub(crate) root: u32,
    /// `β.to_bits()` of the pair metric.
    pub(crate) beta_bits: u64,
    /// Topology stamp at β = 0, cost stamp otherwise.
    pub(crate) stamp: u64,
}

/// Key of one cached pair answer: the key its run's whole tree would have,
/// plus the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PairKey {
    tree: TreeKey,
    target: u32,
}

/// A cached pair answer: `None` records an unreachable target.
type CachedAnswer = Option<Arc<PairAnswer>>;

/// How much memory the cache may pin before it starts refusing inserts.
/// Every entry is charged [`tree_bytes`] or [`pair_bytes`] when it is
/// inserted.
pub(crate) const CACHE_BUDGET_BYTES: usize = 256 << 20;

/// Entry-count cap on top of the byte budget, bounding the maps themselves
/// on tiny graphs whose entries cost only a few hundred bytes.
const CACHE_MAX_ENTRIES: usize = 1 << 20;

/// Fixed per-tree overhead: the map slot, the tree header, and the `Arc`
/// reference counts.
const TREE_OVERHEAD_BYTES: usize = std::mem::size_of::<(TreeKey, Arc<RiskTree>)>()
    + std::mem::size_of::<RiskTree>()
    + 2 * std::mem::size_of::<usize>();

/// Fixed per-answer overhead: the map slot, the answer header, and the
/// `Arc` reference counts.
const PAIR_OVERHEAD_BYTES: usize = std::mem::size_of::<(PairKey, CachedAnswer)>()
    + std::mem::size_of::<PairAnswer>()
    + 2 * std::mem::size_of::<usize>();

/// What one cached tree is charged against [`CACHE_BUDGET_BYTES`]: the
/// bytes its vectors hold plus the fixed overhead. A tree shared by several
/// keys is charged once per key.
fn tree_bytes(tree: &RiskTree) -> usize {
    TREE_OVERHEAD_BYTES + tree.heap_bytes()
}

/// What one cached pair answer is charged: its path plus the fixed
/// overhead — O(path length), never O(n).
fn pair_bytes(answer: &CachedAnswer) -> usize {
    PAIR_OVERHEAD_BYTES + answer.as_ref().map_or(0, |a| a.heap_bytes())
}

/// Entries and bytes held by every live cache in the process.
static TOTALS: Mutex<(usize, usize)> = Mutex::new((0, 0));

/// Move one cache's share of [`TOTALS`] from its old `(entries, bytes)` to
/// its new ones; returns the new totals.
fn retally(before: (usize, usize), after: (usize, usize)) -> (usize, usize) {
    let mut totals = TOTALS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    totals.0 = totals.0 - before.0 + after.0;
    totals.1 = totals.1 - before.1 + after.1;
    *totals
}

/// Publish the process-wide totals as the `route_cache_entries` and
/// `route_cache_bytes` gauges. Inserts and purges publish; dropping a
/// cache takes its share out of the totals without publishing, so a
/// finished run's metrics still show the size its caches reached.
fn publish((entries, bytes): (usize, usize)) {
    if riskroute_obs::is_enabled() {
        riskroute_obs::gauge_set("route_cache_entries", entries as f64);
        riskroute_obs::gauge_set("route_cache_bytes", bytes as f64);
    }
}

struct CacheInner {
    trees: HashMap<TreeKey, Arc<RiskTree>>,
    pairs: HashMap<PairKey, CachedAnswer>,
    /// Sum of [`tree_bytes`] and [`pair_bytes`] over both maps.
    bytes: usize,
    /// Live stamps for which the cache already proved full after purging
    /// every other stamp — inserts under them are skipped without
    /// rescanning.
    full_stamps: [u64; 2],
}

impl CacheInner {
    fn len(&self) -> usize {
        self.trees.len() + self.pairs.len()
    }

    /// Make room for one entry of `cost` bytes from a planner whose live
    /// stamps are `live`, and charge it, or refuse. When the entry would
    /// overrun the byte budget, every entry under another stamp is purged
    /// once per change of `live`, so the inserting planner keeps both its
    /// distance trees and its cost-state entries; if its own entries alone
    /// fill the cache, further inserts are refused (counted as
    /// `route_cache_insert_skips`) — correctness is unaffected, those
    /// answers are simply recomputed on demand.
    fn admit(&mut self, live: [u64; 2], cost: usize) -> bool {
        let before = (self.len(), self.bytes);
        let fits = |inner: &CacheInner| {
            inner.bytes + cost <= CACHE_BUDGET_BYTES && inner.len() < CACHE_MAX_ENTRIES
        };
        if !fits(self) {
            if self.full_stamps != live {
                self.trees.retain(|k, _| live.contains(&k.stamp));
                self.pairs.retain(|k, _| live.contains(&k.tree.stamp));
                self.bytes = self.trees.values().map(|t| tree_bytes(t)).sum::<usize>()
                    + self.pairs.values().map(pair_bytes).sum::<usize>();
            }
            if !fits(self) {
                self.full_stamps = live;
                publish(retally(before, (self.len(), self.bytes)));
                riskroute_obs::counter_add("route_cache_insert_skips", 1);
                return false;
            }
        }
        self.bytes += cost;
        publish(retally(before, (self.len() + 1, self.bytes)));
        true
    }
}

/// Count one cache lookup as a hit or a miss.
fn count_lookup(hit: bool) {
    if riskroute_obs::is_enabled() {
        let counter = if hit {
            "route_cache_hits"
        } else {
            "route_cache_misses"
        };
        riskroute_obs::counter_add(counter, 1);
    }
}

/// Exact, shared route cache (see the module docs). Clones of a planner
/// share one cache through an `Arc`; the per-entry stamp keeps divergent
/// clones from ever observing each other's entries.
///
/// It holds two kinds of entry: complete trees under `(root, β, stamp)`,
/// and pair answers under `(root, β, stamp, target)`. A pair lookup
/// ([`Self::pair`]) is answered by either; every full-tree reader —
/// [`Self::tree`] and [`Self::trees_with_stamps`] — sees trees only.
pub(crate) struct RouteTreeCache {
    inner: Mutex<CacheInner>,
}

impl RouteTreeCache {
    /// An empty cache holding at most [`CACHE_BUDGET_BYTES`] of entries.
    pub(crate) fn new() -> Self {
        RouteTreeCache {
            inner: Mutex::new(CacheInner {
                trees: HashMap::new(),
                pairs: HashMap::new(),
                bytes: 0,
                full_stamps: [0, 0],
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        // Nothing inside the critical sections can panic; recover from
        // poisoning defensively rather than propagating an unwrap.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Look up the complete tree under `key`, counting one hit or miss.
    pub(crate) fn tree(&self, key: &TreeKey) -> Option<Arc<RiskTree>> {
        let found = self.lock().trees.get(key).map(Arc::clone);
        count_lookup(found.is_some());
        found
    }

    /// Look up the answer to a pair query for `target` (`Some(None)`: the
    /// target is unreachable): its own pair entry, else read off the
    /// complete tree under `key` once the lock is released. Counts one hit
    /// or miss.
    pub(crate) fn pair(&self, key: &TreeKey, target: usize) -> Option<CachedAnswer> {
        let pair_key = PairKey {
            tree: *key,
            target: target as u32,
        };
        let (answer, tree) = {
            let inner = self.lock();
            (
                inner.pairs.get(&pair_key).cloned(),
                inner.trees.get(key).cloned(),
            )
        };
        let found = answer.or_else(|| tree.map(|t| t.pair_answer(target).map(Arc::new)));
        count_lookup(found.is_some());
        found
    }

    /// Insert a freshly computed (or revalidated) complete tree from a
    /// planner whose live stamps are `live`. An occupied key keeps its tree
    /// — concurrent duplicate computes are identical by construction.
    pub(crate) fn insert_tree(&self, key: TreeKey, tree: Arc<RiskTree>, live: [u64; 2]) {
        let cost = tree_bytes(&tree);
        let mut inner = self.lock();
        if !inner.trees.contains_key(&key) && inner.admit(live, cost) {
            inner.trees.insert(key, tree);
        }
    }

    /// Insert the answer of a pair query for `target` under `key`'s
    /// `(root, β, stamp)`. An occupied key keeps its answer.
    pub(crate) fn insert_pair(
        &self,
        key: TreeKey,
        target: usize,
        answer: CachedAnswer,
        live: [u64; 2],
    ) {
        let key = PairKey {
            tree: key,
            target: target as u32,
        };
        let cost = pair_bytes(&answer);
        let mut inner = self.lock();
        if !inner.pairs.contains_key(&key) && inner.admit(live, cost) {
            inner.pairs.insert(key, answer);
        }
    }

    /// Snapshot every complete tree computed under either of `live`'s
    /// stamps (the adoption walk after greedy adds a link).
    pub(crate) fn trees_with_stamps(&self, live: [u64; 2]) -> Vec<(TreeKey, Arc<RiskTree>)> {
        self.lock()
            .trees
            .iter()
            .filter(|(k, _)| live.contains(&k.stamp))
            .map(|(k, t)| (*k, Arc::clone(t)))
            .collect()
    }

    /// Number of cached trees and pair answers (all stamps).
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// Bytes charged for the cached entries (all stamps).
    pub(crate) fn bytes(&self) -> usize {
        self.lock().bytes
    }
}

impl Drop for RouteTreeCache {
    fn drop(&mut self) {
        let inner = self
            .inner
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        retally((inner.len(), inner.bytes), (0, 0));
    }
}

impl std::fmt::Debug for RouteTreeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteTreeCache")
            .field("entries", &self.len())
            .field("bytes", &self.bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn square() -> Adjacency {
        Adjacency::from_links(
            4,
            vec![(0, 1, 10.0), (1, 2, 10.0), (2, 3, 10.0), (3, 0, 10.0)],
        )
    }

    #[test]
    fn csr_preserves_edge_order_and_counts() {
        let adj = Adjacency::from_links(3, vec![(0, 1, 5.0), (0, 2, 7.0), (0, 1, 3.0)]);
        let csr = CsrGraph::from_adjacency(&adj);
        assert_eq!(csr.node_count(), 3);
        assert_eq!(csr.edge_count(), 6);
        let edges: Vec<(u32, f64)> = csr
            .edge_range(0)
            .map(|e| (csr.targets[e], csr.weights[e]))
            .collect();
        assert_eq!(edges, vec![(1, 5.0), (2, 7.0), (1, 3.0)]);
    }

    #[test]
    fn engine_handles_unreachable_and_poisoned_nodes() {
        let adj = Adjacency::from_links(4, vec![(0, 1, 5.0), (1, 2, 5.0)]);
        let csr = CsrGraph::from_adjacency(&adj);
        // ρ(2) scaled by β overflows to +inf → node 2 unroutable; node 3
        // has no links at all.
        let rho = Rho::new(vec![0.0, 0.0, f64::MAX, 0.0]);
        let tree = sssp(&csr, 0, f64::MAX, &rho);
        assert!(!tree.reachable(2));
        assert!(!tree.reachable(3));
        assert!(tree.reachable(1));
        // β = 0 keeps the distance tree oblivious to ρ, as the reference
        // zero-cost closure was.
        let dist_tree = sssp(&csr, 0, 0.0, &rho);
        assert!(dist_tree.reachable(2));
        assert_eq!(dist_tree.dist(2), 10.0);
    }

    #[test]
    fn rows_hold_least_miles_and_least_entered_risk() {
        // A 0-1-2-3 line of 10-mile links plus a 100-mile 0-3 shortcut.
        let adj = Adjacency::from_links(
            4,
            vec![(0, 1, 10.0), (1, 2, 10.0), (2, 3, 10.0), (0, 3, 100.0)],
        );
        let csr = CsrGraph::from_adjacency(&adj);
        // R counts the nodes a path enters, the target included: from 1
        // the detour 1→0→3 (1 + 8) beats 1→2→3 (4 + 8), though the line
        // holds the least miles.
        let row = LbRow::new(&csr, &[1.0, 2.0, 4.0, 8.0], 3);
        assert_eq!(row.target, 3);
        assert_eq!(
            row.bounds,
            vec![[30.0, 8.0], [20.0, 9.0], [10.0, 8.0], [0.0, 0.0]]
        );
        // Non-finite and negative historical risk counts as zero.
        let row = LbRow::new(&csr, &[1.0, f64::NAN, -3.0, 8.0], 3);
        assert_eq!(
            row.bounds,
            vec![[30.0, 8.0], [20.0, 8.0], [10.0, 8.0], [0.0, 0.0]]
        );
        assert_eq!(Rho::new(vec![1.0, f64::NAN, -1.0, 3.0]).mean, 1.0);
    }

    #[test]
    fn distance_trees_read_rho_sums_in_path_order() {
        let adj = square();
        let rho = Rho::new(vec![1.0, 100.0, 7.0, 3.0]);
        let csr = CsrGraph::from_adjacency(&adj);
        let tree = sssp(&csr, 0, 0.0, &rho);
        // A distance tree reads no ρ.
        let other = sssp(&csr, 0, 0.0, &Rho::new(vec![f64::NAN; 4]));
        assert_eq!(tree.pred_slice(), other.pred_slice());
        // 0→2 ties (via 1 or via 3); the (cost, node) tie-break settles the
        // smaller node first, so the path goes via 1: ρ-sum = ρ(1) + ρ(2).
        let path = tree.path_to(2).unwrap();
        assert_eq!(path, [0, 1, 2]);
        assert_eq!(crate::routing::path_rho_sum(&path, &rho), 107.0);
        assert_eq!(crate::routing::path_rho_sum(&[0], &rho), 0.0);
        // One scratch sums whole trees: each reachable node's sum from
        // `from` on is its path sum, bit for bit, whatever ρ holds (node 4
        // is isolated).
        let adj = Adjacency::from_links(5, (0..3).map(|u| (u, u + 1, 1.0)).chain([(0, 3, 1.0)]));
        let csr = CsrGraph::from_adjacency(&adj);
        let mut scratch = crate::routing::RhoSums::default();
        for root in [1, 3] {
            let tree = sssp(&csr, root, 0.0, &Rho::new(vec![0.0; 5]));
            for rho in [
                vec![0.1, 0.2, 0.3, 0.7, 9.0],
                vec![1.0, f64::NAN, 2.0, 3.0, 0.0],
                vec![f64::INFINITY, 0.0, -0.0, 1e-300, 0.0],
                vec![-1.0, 0.5, -0.0, f64::NAN, 0.0],
            ] {
                for from in [0, 2] {
                    let sums = scratch.sum(&tree, &rho, from);
                    for (v, sum) in sums.iter().enumerate().take(4).skip(from) {
                        let path = tree.path_to(v).unwrap();
                        let expect = crate::routing::path_rho_sum(&path, &rho);
                        assert_eq!(sum.to_bits(), expect.to_bits(), "{rho:?} {root}→{v}");
                    }
                }
            }
        }
    }

    #[test]
    fn arena_generations_isolate_consecutive_runs() {
        let adj = square();
        let rho = Rho::new(vec![0.0; 4]);
        let csr = CsrGraph::from_adjacency(&adj);
        // Repeated runs from different sources through the pooled arenas
        // must not leak state between generations.
        for _ in 0..3 {
            for s in 0..4 {
                let tree = sssp(&csr, s, 0.0, &rho);
                assert_eq!(tree.dist(s), 0.0);
                assert_eq!(tree.source(), s);
                for t in 0..4 {
                    let hops = tree.path_to(t).unwrap().len() - 1;
                    assert_eq!(tree.dist(t), 10.0 * hops as f64);
                }
            }
        }
    }

    /// Run `f` under a fresh trace scope; its result and the route-cache
    /// hits and misses attributed to that trace alone.
    fn lookups<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
        riskroute_obs::enable();
        let scope = riskroute_obs::ObsScope::begin("engine-cache");
        let out = {
            let _guard = scope.enter();
            f()
        };
        let counters = riskroute_obs::trace_counters(scope.trace_id());
        let get = |name: &str| counters.get(name).copied().unwrap_or(0);
        (out, get("route_cache_hits"), get("route_cache_misses"))
    }

    #[test]
    fn cache_isolates_stamps_and_counts_hits() {
        let cache = RouteTreeCache::new();
        let adj = square();
        let csr = CsrGraph::from_adjacency(&adj);
        let tree = Arc::new(sssp(&csr, 0, 0.0, &Rho::new(vec![0.0; 4])));
        let live = [next_stamp(), next_stamp()];
        let key = TreeKey {
            root: 0,
            beta_bits: 0,
            stamp: live[0],
        };
        let other_stamp = TreeKey {
            stamp: next_stamp(),
            ..key
        };
        let (_, hits, misses) = lookups(|| {
            assert!(cache.tree(&key).is_none());
            cache.insert_tree(key, Arc::clone(&tree), live);
            assert!(cache.tree(&key).is_some());
            assert!(cache.tree(&other_stamp).is_none(), "stamps never alias");
            assert!(cache.pair(&other_stamp, 2).is_none(), "stamps never alias");
        });
        assert_eq!((hits, misses), (1, 3));
        assert_eq!(cache.trees_with_stamps(live).len(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn pair_entries_answer_their_own_target_and_trees_answer_any() {
        // Line 0-…-7 plus an isolated PoP 8.
        let adj = Adjacency::from_links(9, (0..7).map(|u| (u, u + 1, 10.0)));
        let csr = CsrGraph::from_adjacency(&adj);
        let rho = Rho::new(vec![0.0; 9]);
        let cache = RouteTreeCache::new();
        let live = [next_stamp(), next_stamp()];
        let key = TreeKey {
            root: 0,
            beta_bits: 1.0f64.to_bits(),
            stamp: live[1],
        };
        let full = Arc::new(sssp(&csr, 0, 1.0, &rho));
        let (_, hits, misses) = lookups(|| {
            assert!(cache.pair(&key, 5).is_none());
            cache.insert_pair(
                key,
                5,
                sssp_to(&csr, 0, 1.0, &rho, 5, Bound::Zero).map(Arc::new),
                live,
            );
            assert!(matches!(
                cache.pair(&key, 5),
                Some(Some(a)) if a.path == [0, 1, 2, 3, 4, 5] && a.dist == 50.0
            ));
            // Node 2 settled in that run, but the entry answers 5 only.
            assert!(cache.pair(&key, 2).is_none());
            assert!(cache.pair(&key, 7).is_none());
            // Full-tree readers never see a pair entry.
            assert!(cache.tree(&key).is_none());
            // An unreachable target is cached as such.
            let none = sssp_to(&csr, 0, 1.0, &rho, 8, Bound::Zero).map(Arc::new);
            assert!(none.is_none());
            cache.insert_pair(key, 8, none, live);
            assert!(matches!(cache.pair(&key, 8), Some(None)));
            // A complete tree answers every target.
            cache.insert_tree(key, Arc::clone(&full), live);
            for t in 0..9 {
                let answer = cache.pair(&key, t).expect("a complete tree answers");
                let expect = full.pair_answer(t).map(|a| a.path);
                assert_eq!(answer.map(|a| a.path.clone()), expect, "target {t}");
            }
            assert!(cache.tree(&key).is_some());
        });
        // One hit or one miss per lookup: 16 lookups.
        assert_eq!((hits, misses), (12, 4));
        assert!(cache.trees_with_stamps(live).len() == 1);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn cache_charges_pair_answers_by_path_length_and_trees_by_n() {
        // A 10k-node line at β = 0: a tree is charged its dist + pred
        // vectors (12 bytes a node), a pair answer its path only.
        let n = 10_000;
        let adj = Adjacency::from_links(n, (1..n).map(|u| (u - 1, u, 1.0)));
        let csr = CsrGraph::from_adjacency(&adj);
        let rho = Rho::new(vec![0.5; n]);
        let tree = Arc::new(sssp(&csr, 0, 0.0, &rho));
        let per_tree = tree_bytes(&tree);
        assert_eq!(per_tree, 12 * n + TREE_OVERHEAD_BYTES);
        let cache = RouteTreeCache::new();
        let live = [next_stamp(), next_stamp()];
        let key = |root| TreeKey {
            root,
            beta_bits: 0,
            stamp: live[0],
        };
        for (target, hops) in [(3, 4), (99, 100)] {
            let answer = sssp_to(&csr, 0, 0.0, &rho, target, Bound::Zero).map(Arc::new);
            let a = answer.as_ref().unwrap();
            assert_eq!(a.path.len(), hops);
            assert_eq!(
                pair_bytes(&answer),
                PAIR_OVERHEAD_BYTES + 8 * a.path.capacity()
            );
            assert!(a.path.capacity() < 2 * hops);
            let before = cache.bytes();
            cache.insert_pair(key(0), target, answer.clone(), live);
            assert_eq!(cache.bytes() - before, pair_bytes(&answer));
        }
        assert!(cache.bytes() < 4096, "pair entries never cost O(n)");
        assert_eq!(pair_bytes(&None), PAIR_OVERHEAD_BYTES);
        // Trees fill the budget and the running total never crosses it. A
        // pair answer that does not fit is refused; one that fits is not.
        let cache = RouteTreeCache::new();
        let fit = CACHE_BUDGET_BYTES / per_tree;
        for root in 0..(fit as u32 + 16) {
            cache.insert_tree(key(root), Arc::clone(&tree), live);
            assert!(cache.bytes() <= CACHE_BUDGET_BYTES);
        }
        assert_eq!(cache.len(), fit);
        let room = CACHE_BUDGET_BYTES - cache.bytes();
        let far = sssp_to(&csr, 0, 0.0, &rho, n - 1, Bound::Zero).map(Arc::new);
        assert!(pair_bytes(&far) > room);
        cache.insert_pair(key(0), n - 1, far, live);
        assert_eq!(cache.len(), fit);
        let near = sssp_to(&csr, 0, 0.0, &rho, 3, Bound::Zero).map(Arc::new);
        cache.insert_pair(key(0), 3, near.clone(), live);
        assert_eq!(cache.len(), fit + 1);
        assert_eq!(cache.bytes(), fit * per_tree + pair_bytes(&near));
    }

    #[test]
    fn a_full_cache_purges_all_but_the_inserting_planners_two_stamps() {
        let n = 10_000;
        let adj = Adjacency::from_links(n, (1..n).map(|u| (u - 1, u, 1.0)));
        let csr = CsrGraph::from_adjacency(&adj);
        let rho = Rho::new(vec![0.5; n]);
        let tree = Arc::new(sssp(&csr, 0, 0.0, &rho));
        let fit = CACHE_BUDGET_BYTES / tree_bytes(&tree);
        let cache = RouteTreeCache::new();
        // [topology, cost] stamps; after a forecast change: the same
        // topology, a new cost state.
        let old = [next_stamp(), next_stamp()];
        let live = [old[0], next_stamp()];
        let key = |root, beta: f64, stamps: [u64; 2]| TreeKey {
            root,
            beta_bits: beta.to_bits(),
            stamp: stamps[usize::from(beta != 0.0)],
        };
        cache.insert_tree(key(0, 0.0, old), Arc::clone(&tree), old);
        cache.insert_tree(key(0, 1.0, old), Arc::clone(&tree), old);
        cache.insert_tree(key(0, 1.0, live), Arc::clone(&tree), live);
        for root in 1..fit as u32 - 2 {
            let other = [next_stamp(), next_stamp()];
            cache.insert_tree(key(root, 2.0, other), Arc::clone(&tree), old);
        }
        assert_eq!(cache.len(), fit);
        // The next insert purges every stamp but `live`'s two: the stale
        // cost state and the other planners' entries go, the shared
        // distance tree and the live cost-state tree stay.
        cache.insert_tree(key(1, 1.0, live), Arc::clone(&tree), live);
        let mut kept: Vec<_> = cache
            .trees_with_stamps(live)
            .into_iter()
            .map(|(k, _)| (k.root, k.beta_bits))
            .collect();
        kept.sort_unstable();
        assert_eq!(kept, [(0, 0), (0, 1.0f64.to_bits()), (1, 1.0f64.to_bits())]);
        assert_eq!(cache.len(), 3);
    }
}
