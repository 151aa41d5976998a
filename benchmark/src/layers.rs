//! The traced pass: spans and timings around calls into each layer.
//!
//! Spans are recorded from benchmark code around the public functions of
//! each layer, into the engine's own `riskroute-obs` collector, so the
//! exported trace is the repository's JSONL format and carries the engine's
//! counters beside the benchmark's spans.

use riskroute::{NodeRisk, Planner, RiskWeights};
use riskroute_cli::CliContext;
use riskroute_population::PopShares;
use riskroute_topology::Network;
use std::collections::BTreeMap;
use std::time::Instant;

/// Engine counters the per-layer metrics read, by collector name.
pub const ENGINE_COUNTERS: &[&str] = &[
    "risk_sssp_runs",
    "risk_sssp_pops",
    "risk_sssp_relaxations",
    "risk_sssp_repair_settles",
    "route_cache_hits",
    "route_cache_misses",
    "sssp_repairs",
    "trees_survived_delta",
    "pairs_routed",
];

/// Calibrated time spent in each layer, summed over the traced pass.
#[derive(Debug)]
pub struct LayerClock {
    totals: BTreeMap<&'static str, (f64, u64)>,
    /// Calibration factor applied to the wall times measured now (see
    /// [`crate::calib`]).
    pub factor: f64,
}

impl Default for LayerClock {
    fn default() -> Self {
        LayerClock {
            totals: BTreeMap::new(),
            factor: 1.0,
        }
    }
}

impl LayerClock {
    /// Run `work` as one call into `layer`: a span named after the layer in
    /// the obs trace, and its calibrated time added to the layer's total.
    pub fn time<T>(&mut self, layer: &'static str, work: impl FnOnce() -> T) -> T {
        let span = riskroute_obs::Span::enter(layer);
        let start = Instant::now();
        let out = work();
        let ms = start.elapsed().as_secs_f64() * 1e3 * self.factor;
        drop(span);
        let entry = self.totals.entry(layer).or_default();
        entry.0 += ms;
        entry.1 += 1;
        out
    }

    /// Mean milliseconds per call into `layer`; 0 when never called.
    pub fn mean_ms(&self, layer: &str) -> f64 {
        self.totals
            .get(layer)
            .map_or(0.0, |&(ms, calls)| ms / calls as f64)
    }

    /// Milliseconds spent in `layers` per unit of work, over `units` units.
    pub fn per_unit_ms(&self, layers: &[&str], units: usize) -> f64 {
        let total: f64 = layers
            .iter()
            .filter_map(|l| self.totals.get(l))
            .map(|&(ms, _)| ms)
            .sum();
        total / units.max(1) as f64
    }
}

/// `Planner::for_network` split into its three layers (the CLI's planner
/// pool builds exactly this, with the same default knobs).
pub fn build_planner(
    clock: &mut LayerClock,
    ctx: &CliContext,
    net: &Network,
    weights: RiskWeights,
) -> Planner {
    let risk = clock.time("planner.node_risk", || {
        NodeRisk::from_historical(net, &ctx.hazards)
    });
    let shares = clock.time("planner.shares", || {
        PopShares::assign(&ctx.population, net, None)
    });
    clock.time("planner.csr", || Planner::new(net, risk, shares, weights))
}

/// The engine counters in this process's collector. The collector is
/// reset before a traced run and enabled only around its traced work, so
/// they count exactly that work.
pub fn engine_counters() -> BTreeMap<&'static str, f64> {
    ENGINE_COUNTERS
        .iter()
        .map(|&name| (name, riskroute_obs::counter_value(name) as f64))
        .collect()
}

/// Engine per-layer metrics from the counters of a traced pass of `units`
/// units that routed `routes` pairs outside the pair sweeps.
pub fn engine_metrics(
    counters: &BTreeMap<&'static str, f64>,
    units: usize,
    routes: usize,
) -> Vec<(&'static str, f64)> {
    let d = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let per_unit = |name: &str| d(name) / units.max(1) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let pairs = d("pairs_routed") + routes as f64;
    vec![
        ("engine.sssp_runs", per_unit("risk_sssp_runs")),
        ("engine.settles", per_unit("risk_sssp_pops")),
        ("engine.relaxations", per_unit("risk_sssp_relaxations")),
        ("engine.settles_per_pair", ratio(d("risk_sssp_pops"), pairs)),
        (
            "engine.cache_hit_ratio",
            ratio(
                d("route_cache_hits"),
                d("route_cache_hits") + d("route_cache_misses"),
            ),
        ),
        (
            "engine.repair_share",
            ratio(d("sssp_repairs"), d("sssp_repairs") + d("risk_sssp_runs")),
        ),
        (
            "engine.repair_settles",
            per_unit("risk_sssp_repair_settles"),
        ),
        ("engine.trees_survived", per_unit("trees_survived_delta")),
    ]
}
