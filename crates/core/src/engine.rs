//! The dedicated shortest-path engine behind [`crate::Planner`].
//!
//! Every RiskRoute quantity — Eq. 3 routes, Eq. 4 provisioning scores,
//! Eq. 5/6 ratios — bottoms out in β-scaled SSSP, so this module owns the
//! three layers that make those runs cheap without changing a single bit of
//! output:
//!
//! 1. **CSR snapshot** ([`CsrGraph`]): an immutable compressed-sparse-row
//!    image of [`Adjacency`] — flat `offsets`/`targets`/`weights` arrays —
//!    so the Dijkstra inner loop walks two cache-friendly slices instead of
//!    chasing `Vec<Vec<(usize, f64)>>` pointers. Edge order within each
//!    node is preserved exactly, which keeps relaxation order (and
//!    therefore every tie-broken predecessor) identical to the reference
//!    [`risk_sssp`](crate::routing::risk_sssp).
//!
//! 2. **Scratch-arena Dijkstra** ([`SsspArena`]): per-worker reusable
//!    dist/pred/cost buffers and a monotone [`BucketQueue`] frontier, with
//!    generation-stamped lazy reset — a run bumps one `u32` generation
//!    instead of clearing four arrays, and a slot is live only when its
//!    stamp matches. Arenas are pooled through
//!    [`riskroute_par::ScratchPool`] so scoped pool workers reuse them
//!    across drains; steady-state runs allocate nothing but their output.
//!    One kernel serves both query shapes: a run is set up, searched, and
//!    then read by one of two extractors — the whole tree ([`sssp`]) or,
//!    for a pair query that stops once its target settles ([`sssp_to`]),
//!    just the target's path, distance and ρ-sum ([`PairAnswer`]), in
//!    O(path length) instead of O(n).
//!
//! 3. **Exact route cache** ([`RouteTreeCache`]): complete trees keyed by
//!    `(root, β.to_bits(), stamp)` and pair answers keyed by
//!    `(root, β.to_bits(), stamp, target)`, where the stamp names one
//!    immutable (topology, cost-function) state — any risk/weight mutation
//!    mints a fresh stamp, so a stale entry can never be *returned*, only
//!    evicted. A pair lookup is answered by its own entry or by a complete
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
use riskroute_graph::queue::{inv_quantum_for_mean, BucketQueue};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Process-global source of cost-state stamps (see [`next_stamp`]).
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// Mint a fresh, process-unique stamp naming one immutable
/// (topology, cost-function) planner state. Two planner values share a
/// stamp only when their trees are interchangeable bit-for-bit.
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

/// Immutable compressed-sparse-row snapshot of an [`Adjacency`].
///
/// `targets[offsets[u]..offsets[u+1]]` lists u's neighbors in the exact
/// order the nested-Vec adjacency stores them (append order of
/// `from_links`), with `weights` holding the matching link miles.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    /// Mean of the positive finite edge weights (0.0 when none): the edge
    /// component of the mean relaxation step in [`run_inv_quantum`], the
    /// per-run bucket-queue quantization choice. Byte-identity of the
    /// bucket path never depends on the derived factor — any positive
    /// factor keys costs monotonically — it only tunes bucket occupancy.
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
    /// keeps its position relative to the others. Identical by construction
    /// to `from_adjacency` of the equivalently masked [`Adjacency`], so a
    /// scenario fork's Dijkstra replays the base relaxation order restricted
    /// to kept edges — the property that keeps fork tie-breaks bit-exact.
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

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges (twice the undirected link count).
    pub fn edge_count(&self) -> usize {
        self.targets.len()
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
    costs: Vec<f64>,
    rho_sum: Vec<f64>,
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
            costs: Vec::new(),
            rho_sum: Vec::new(),
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
            self.costs.resize(n, 0.0);
            self.rho_sum.resize(n, 0.0);
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

    /// The whole tree of a drained run over `n` nodes. A drained run
    /// settles every node it touched (touched ⇒ finite dist ⇒ pushed ⇒
    /// popped), so the settled nodes are exactly the reachable ones; every
    /// other slot reads as unreachable.
    fn tree(&self, source: usize, n: usize, track_rho: bool) -> RiskTree {
        let gen = self.gen;
        let mut dist = Vec::with_capacity(n);
        let mut pred = Vec::with_capacity(n);
        for v in 0..n {
            if self.settled[v] == gen {
                dist.push(self.dist[v]);
                pred.push(self.pred[v]);
            } else {
                dist.push(f64::INFINITY);
                pred.push(NO_PRED);
            }
        }
        let rho_sum = if track_rho {
            (0..n)
                .map(|v| {
                    if self.settled[v] == gen {
                        self.rho_sum[v]
                    } else {
                        f64::INFINITY
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        RiskTree::from_parts(source, dist, pred, rho_sum)
    }

    /// The answer for `target` of a run that stopped once it settled (or
    /// drained without reaching it): the settled predecessor chain walked
    /// back to the source, whose nodes all settled before the target.
    fn pair_answer(&self, target: usize, track_rho: bool) -> Option<PairAnswer> {
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
            rho_sum: if track_rho {
                self.rho_sum[target]
            } else {
                f64::NAN
            },
        })
    }
}

/// The process-wide arena pool: scoped pool workers (and the sequential
/// path) check arenas out per run and return them for the next, so
/// steady-state SSSP allocates nothing but the output tree.
static ARENAS: riskroute_par::ScratchPool<SsspArena> =
    riskroute_par::ScratchPool::named("sssp_arena");

/// Per-run bucket-queue quantization factor. The frontier advances by
/// edge weight *plus* the target's entry cost, so the quantum must come
/// from the mean of that full step — quantizing on edge weights alone
/// piles the whole frontier into a handful of buckets whenever entry
/// costs dominate (λ-scaled risk makes them ~10× the edge miles on the
/// paper's weights), and the per-pop bucket min-scan degrades. Entry costs of ∞ (sanitized unreachable markers) carry
/// no step information and are skipped. Pop order is byte-identical for
/// any positive factor; this only tunes bucket occupancy.
fn run_inv_quantum(csr: &CsrGraph, entry_costs: &[f64]) -> f64 {
    let mut sum = 0.0f64;
    for &c in entry_costs {
        if c.is_finite() {
            sum += c;
        }
    }
    let mean_entry = sum / entry_costs.len().max(1) as f64;
    inv_quantum_for_mean(csr.mean_weight + mean_entry)
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
}

/// β-scaled SSSP from `source` over the CSR snapshot, using a pooled
/// scratch arena. Bit-for-bit equivalent to
/// [`crate::routing::risk_sssp`] with entry cost
/// `v ↦ β·ρ(v)` — same relaxation order, same tie-breaks (the bucket queue
/// pops in the reference heap's exact `(cost, node)` order), same
/// sanitization — and additionally records β-independent ρ-sums down the
/// tree when `beta == 0` (one distance tree then serves every pair metric
/// in O(1), see `Planner::sweep_source`).
///
/// # Panics
/// Panics when `source` is out of range.
pub fn sssp(csr: &CsrGraph, source: usize, beta: f64, rho: &[f64]) -> RiskTree {
    ARENAS.with(SsspArena::new, |arena| {
        run(arena, csr, source, beta, rho, None);
        arena.tree(source, csr.node_count(), beta == 0.0)
    })
}

/// [`sssp`] for a pair query: the run stops right after `target` settles
/// and returns the target's [`PairAnswer`], read straight off the arena in
/// O(path length) — `None` when `target` is unreachable (the frontier
/// drained first). Pops happen in the same `(cost, node)` order as the
/// full run, and a node's dist/pred/ρ-sum are final once it settles, so
/// the answer — the target and its whole tree path — is bit-for-bit the
/// full run's.
///
/// # Panics
/// Panics when `source` or `target` is out of range.
pub fn sssp_to(
    csr: &CsrGraph,
    source: usize,
    beta: f64,
    rho: &[f64],
    target: usize,
) -> Option<PairAnswer> {
    assert!(target < csr.node_count(), "target {target} out of range");
    ARENAS.with(SsspArena::new, |arena| {
        run(arena, csr, source, beta, rho, Some(target));
        arena.pair_answer(target, beta == 0.0)
    })
}

/// Set the arena up for one run from `source` and search it to
/// completion, or until `stop` settles; publishes the run's counters. The
/// result stays in the arena for an extractor to read.
fn run(
    arena: &mut SsspArena,
    csr: &CsrGraph,
    source: usize,
    beta: f64,
    rho: &[f64],
    stop: Option<usize>,
) {
    let n = csr.node_count();
    assert!(source < n, "source {source} out of range ({n} nodes)");
    arena.begin(n);
    // β = 0 is the distance tree: the reference path used a literal zero
    // entry cost (never touching ρ), and that is also the tree for which
    // the β-independent ρ-sum channel is recorded.
    let track_rho = beta == 0.0;
    if track_rho {
        arena.costs[..n].fill(0.0);
    } else {
        for (slot, &r) in arena.costs[..n].iter_mut().zip(rho) {
            *slot = sanitize_cost(beta * r);
        }
    }

    let gen = arena.gen;
    arena.touched[source] = gen;
    arena.dist[source] = 0.0;
    arena.pred[source] = NO_PRED;
    // The frontier is moved out of the arena for the duration of the search
    // so the loop can borrow the arena's flat buffers mutably alongside it
    // (a plain field borrow would alias).
    let mut q = std::mem::take(&mut arena.bucket);
    q.reset(run_inv_quantum(csr, &arena.costs[..n]));
    q.push(Entry {
        cost: 0.0,
        node: source,
    });
    let stats = search(arena, csr, source, track_rho, rho, stop, &mut q);
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
}

/// The Dijkstra hot loop; the body is byte-for-byte the arithmetic of the
/// reference SSSP. With a `stop` node the loop breaks right after that
/// node settles (before relaxing its edges): everything settled so far is
/// final.
fn search(
    arena: &mut SsspArena,
    csr: &CsrGraph,
    source: usize,
    track_rho: bool,
    rho: &[f64],
    stop: Option<usize>,
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
    };
    while let Some(Entry { cost, node }) = q.pop() {
        stats.pops += 1;
        if arena.settled[node] == gen {
            continue;
        }
        arena.settled[node] = gen;
        stats.settles += 1;
        if track_rho {
            // pred[node] is final once the node settles, so the ρ-sum can
            // accumulate in path order (matching evaluate_path's order).
            arena.rho_sum[node] = if node == source {
                0.0
            } else {
                arena.rho_sum[arena.pred[node] as usize] + rho[node]
            };
        }
        if stop == Some(node) {
            stats.stopped = true;
            break;
        }
        for e in csr.edge_range(node) {
            let v = csr.targets[e] as usize;
            if arena.settled[v] == gen {
                stats.skipped += 1;
                continue;
            }
            let next = cost + csr.weights[e] + arena.costs[v];
            if next < arena.dist_of(v) {
                arena.touched[v] = gen;
                arena.dist[v] = next;
                arena.pred[v] = node as u32;
                stats.relaxations += 1;
                q.push(Entry {
                    cost: next,
                    node: v,
                });
                stats.peak = stats.peak.max(q.len());
            }
        }
    }
    stats
}

/// Key of one cached route tree: the SSSP root, the exact β bits (the cost
/// function is linear in β, so distinct bit patterns are distinct
/// metrics), and the planner cost-state stamp the tree was computed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TreeKey {
    /// SSSP root node.
    pub(crate) root: u32,
    /// `β.to_bits()` of the pair metric.
    pub(crate) beta_bits: u64,
    /// Cost-state stamp (see [`next_stamp`]).
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
/// bytes its vectors hold (the ρ-sum channel of a β = 0 tree included)
/// plus the fixed overhead. A tree shared by several keys is charged once
/// per key.
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
    let mut totals = TOTALS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
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
    /// Stamp for which the cache already proved full after purging stale
    /// generations — inserts under it are skipped without rescanning.
    full_stamp: u64,
}

impl CacheInner {
    fn len(&self) -> usize {
        self.trees.len() + self.pairs.len()
    }

    /// Make room for one entry of `cost` bytes under `stamp` and charge
    /// it, or refuse. When the entry would overrun the byte budget, stale
    /// stamps are purged once per stamp transition; if the current stamp
    /// alone fills the cache, further inserts under it are refused
    /// (counted as `route_cache_insert_skips`) — correctness is
    /// unaffected, those answers are simply recomputed on demand.
    fn admit(&mut self, stamp: u64, cost: usize) -> bool {
        let before = (self.len(), self.bytes);
        let fits = |inner: &CacheInner| {
            inner.bytes + cost <= CACHE_BUDGET_BYTES && inner.len() < CACHE_MAX_ENTRIES
        };
        if !fits(self) {
            if self.full_stamp != stamp {
                self.trees.retain(|k, _| k.stamp == stamp);
                self.pairs.retain(|k, _| k.tree.stamp == stamp);
                self.bytes = self.trees.values().map(|t| tree_bytes(t)).sum::<usize>()
                    + self.pairs.values().map(pair_bytes).sum::<usize>();
            }
            if !fits(self) {
                self.full_stamp = stamp;
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
/// [`Self::tree`] and [`Self::trees_with_stamp`] — sees trees only.
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
                full_stamp: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        // Nothing inside the critical sections can panic; recover from
        // poisoning defensively rather than propagating an unwrap.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
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
            (inner.pairs.get(&pair_key).cloned(), inner.trees.get(key).cloned())
        };
        let found = answer.or_else(|| tree.map(|t| t.pair_answer(target).map(Arc::new)));
        count_lookup(found.is_some());
        found
    }

    /// Insert a freshly computed (or revalidated) complete tree. An
    /// occupied key keeps its tree — concurrent duplicate computes are
    /// identical by construction.
    pub(crate) fn insert_tree(&self, key: TreeKey, tree: Arc<RiskTree>) {
        let cost = tree_bytes(&tree);
        let mut inner = self.lock();
        if !inner.trees.contains_key(&key) && inner.admit(key.stamp, cost) {
            inner.trees.insert(key, tree);
        }
    }

    /// Insert the answer of a pair query for `target` under `key`'s
    /// `(root, β, stamp)`. An occupied key keeps its answer.
    pub(crate) fn insert_pair(&self, key: TreeKey, target: usize, answer: CachedAnswer) {
        let key = PairKey {
            tree: key,
            target: target as u32,
        };
        let cost = pair_bytes(&answer);
        let mut inner = self.lock();
        if !inner.pairs.contains_key(&key) && inner.admit(key.tree.stamp, cost) {
            inner.pairs.insert(key, answer);
        }
    }

    /// Snapshot every complete tree computed under `stamp` (the adoption
    /// walk after greedy adds a link).
    pub(crate) fn trees_with_stamp(&self, stamp: u64) -> Vec<(TreeKey, Arc<RiskTree>)> {
        self.lock()
            .trees
            .iter()
            .filter(|(k, _)| k.stamp == stamp)
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
        let rho = [0.0, 0.0, f64::MAX, 0.0];
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
    fn rho_sums_accumulate_in_path_order() {
        let adj = square();
        let rho = [1.0, 100.0, 7.0, 3.0];
        let csr = CsrGraph::from_adjacency(&adj);
        let tree = sssp(&csr, 0, 0.0, &rho);
        // 0→2 ties (via 1 or via 3); the (cost, node) tie-break settles the
        // smaller node first, so the path goes via 1: ρ-sum = ρ(1) + ρ(2).
        let path = tree.path_to(2).unwrap();
        let expect: f64 = path.iter().skip(1).map(|&v| rho[v]).sum();
        assert_eq!(tree.path_rho_sum(2), expect);
        assert_eq!(tree.path_rho_sum(0), 0.0);
    }

    #[test]
    fn arena_generations_isolate_consecutive_runs() {
        let adj = square();
        let rho = [0.0; 4];
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
        let tree = Arc::new(sssp(&csr, 0, 0.0, &[0.0; 4]));
        let key = TreeKey {
            root: 0,
            beta_bits: 0,
            stamp: next_stamp(),
        };
        let other_stamp = TreeKey {
            stamp: next_stamp(),
            ..key
        };
        let (_, hits, misses) = lookups(|| {
            assert!(cache.tree(&key).is_none());
            cache.insert_tree(key, Arc::clone(&tree));
            assert!(cache.tree(&key).is_some());
            assert!(cache.tree(&other_stamp).is_none(), "stamps never alias");
            assert!(cache.pair(&other_stamp, 2).is_none(), "stamps never alias");
        });
        assert_eq!((hits, misses), (1, 3));
        assert_eq!(cache.trees_with_stamp(key.stamp).len(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn pair_entries_answer_their_own_target_and_trees_answer_any() {
        // Line 0-…-7 plus an isolated PoP 8.
        let adj = Adjacency::from_links(9, (0..7).map(|u| (u, u + 1, 10.0)));
        let csr = CsrGraph::from_adjacency(&adj);
        let rho = [0.0; 9];
        let cache = RouteTreeCache::new();
        let key = TreeKey {
            root: 0,
            beta_bits: 1.0f64.to_bits(),
            stamp: next_stamp(),
        };
        let full = Arc::new(sssp(&csr, 0, 1.0, &rho));
        let (_, hits, misses) = lookups(|| {
            assert!(cache.pair(&key, 5).is_none());
            cache.insert_pair(key, 5, sssp_to(&csr, 0, 1.0, &rho, 5).map(Arc::new));
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
            let none = sssp_to(&csr, 0, 1.0, &rho, 8).map(Arc::new);
            assert!(none.is_none());
            cache.insert_pair(key, 8, none);
            assert!(matches!(cache.pair(&key, 8), Some(None)));
            // A complete tree answers every target.
            cache.insert_tree(key, Arc::clone(&full));
            for t in 0..9 {
                let answer = cache.pair(&key, t).expect("a complete tree answers");
                let expect = full.pair_answer(t).map(|a| a.path);
                assert_eq!(answer.map(|a| a.path.clone()), expect, "target {t}");
            }
            assert!(cache.tree(&key).is_some());
        });
        // One hit or one miss per lookup: 16 lookups.
        assert_eq!((hits, misses), (12, 4));
        assert!(cache.trees_with_stamp(key.stamp).len() == 1);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn cache_charges_pair_answers_by_path_length_and_trees_by_n() {
        // A 10k-node line at β = 0: a tree is charged its dist + pred +
        // ρ-sum vectors (20 bytes a node), a pair answer its path only.
        let n = 10_000;
        let adj = Adjacency::from_links(n, (1..n).map(|u| (u - 1, u, 1.0)));
        let csr = CsrGraph::from_adjacency(&adj);
        let rho = vec![0.5; n];
        let tree = Arc::new(sssp(&csr, 0, 0.0, &rho));
        let per_tree = tree_bytes(&tree);
        assert!(per_tree >= 20 * n + TREE_OVERHEAD_BYTES);
        let cache = RouteTreeCache::new();
        let stamp = next_stamp();
        let key = |root| TreeKey {
            root,
            beta_bits: 0,
            stamp,
        };
        for (target, hops) in [(3, 4), (99, 100)] {
            let answer = sssp_to(&csr, 0, 0.0, &rho, target).map(Arc::new);
            let a = answer.as_ref().unwrap();
            assert_eq!(a.path.len(), hops);
            assert_eq!(a.rho_sum, 0.5 * (hops - 1) as f64);
            assert_eq!(pair_bytes(&answer), PAIR_OVERHEAD_BYTES + 8 * a.path.capacity());
            assert!(a.path.capacity() < 2 * hops);
            let before = cache.bytes();
            cache.insert_pair(key(0), target, answer.clone());
            assert_eq!(cache.bytes() - before, pair_bytes(&answer));
        }
        assert!(cache.bytes() < 4096, "pair entries never cost O(n)");
        assert_eq!(pair_bytes(&None), PAIR_OVERHEAD_BYTES);
        // Trees fill the budget and the running total never crosses it. A
        // pair answer that does not fit is refused; one that fits is not.
        let cache = RouteTreeCache::new();
        let fit = CACHE_BUDGET_BYTES / per_tree;
        for root in 0..(fit as u32 + 16) {
            cache.insert_tree(key(root), Arc::clone(&tree));
            assert!(cache.bytes() <= CACHE_BUDGET_BYTES);
        }
        assert_eq!(cache.len(), fit);
        let room = CACHE_BUDGET_BYTES - cache.bytes();
        let far = sssp_to(&csr, 0, 0.0, &rho, n - 1).map(Arc::new);
        assert!(pair_bytes(&far) > room);
        cache.insert_pair(key(0), n - 1, far);
        assert_eq!(cache.len(), fit);
        let near = sssp_to(&csr, 0, 0.0, &rho, 3).map(Arc::new);
        cache.insert_pair(key(0), 3, near.clone());
        assert_eq!(cache.len(), fit + 1);
        assert_eq!(cache.bytes(), fit * per_tree + pair_bytes(&near));
    }
}
