//! A bitwise-identical `set_forecast` must be *free*: ρ is bitwise
//! unchanged, so the cost stamp survives, every cached route tree stays
//! valid, and a warm query pass runs zero SSSPs — on the planner itself, on
//! clones, and on the warm engines handed out by a [`PlannerPool`] (the
//! `riskroute serve` path).
//!
//! This file holds exactly one `#[test]`: the obs collector is
//! process-global, and a sibling test running in parallel would pollute
//! the counter deltas this regression pins down.

use riskroute::prelude::*;
use riskroute::{NodeRisk, PlannerPool};
use riskroute_geo::GeoPoint;
use riskroute_population::PopShares;
use riskroute_topology::{Network, NetworkKind, Pop};

fn fixture() -> (Network, Vec<f64>, Planner) {
    let pop = |name: &str, lat: f64, lon: f64| Pop {
        name: name.into(),
        location: GeoPoint::new(lat, lon).unwrap(),
    };
    let net = Network::new(
        "noop-net",
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
    // A non-trivial active forecast: the bitwise resubmission below must
    // leave these exact bits (and the stamp minted for them) in place.
    let forecast = vec![0.0, 2e-3, 0.0, 1e-3, 0.0];
    let risk = NodeRisk::new(vec![0.0, 0.0, 5e-3, 0.0, 1e-3], forecast.clone());
    let shares = PopShares::from_shares(vec![0.2; 5]);
    let planner = Planner::new(&net, risk, shares, RiskWeights::PAPER);
    (net, forecast, planner)
}

fn counter(snap: &riskroute_obs::MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Run one measured pass under the collector and return its snapshot plus
/// the ratio report it produced.
fn measured(
    planner: &mut Planner,
    forecast: &[f64],
) -> (riskroute_obs::MetricsSnapshot, RatioReport) {
    riskroute_obs::reset();
    riskroute_obs::enable();
    planner.set_forecast(forecast.to_vec());
    let report = planner.ratio_report();
    riskroute_obs::disable();
    (riskroute_obs::snapshot(), report)
}

fn assert_free(snap: &riskroute_obs::MetricsSnapshot, what: &str) {
    for name in ["risk_sssp_runs", "route_cache_invalidated"] {
        assert_eq!(
            counter(snap, name),
            0,
            "{what}: bitwise-equal set_forecast must not touch `{name}`"
        );
    }
    assert!(
        counter(snap, "route_cache_hits") > 0,
        "{what}: the warm pass must be served from the route-tree cache"
    );
}

#[test]
fn bitwise_equal_forecast_resubmission_is_free() {
    let (net, forecast, planner) = fixture();
    // Cold pass: warms the route-tree cache under the active forecast.
    let cold = planner.ratio_report();

    // Resubmitting the same bits on the planner itself must keep the stamp
    // and serve everything from cache.
    let mut direct = planner.clone();
    let (snap, report) = measured(&mut direct, &forecast);
    assert_eq!(report, cold, "resubmission changed the ratio report");
    assert_free(&snap, "planner");

    // A clone shares the cache by Arc; the resubmission must be just as
    // free there.
    let mut clone = planner.clone().with_parallelism(Parallelism::Threads(4));
    let (snap, report) = measured(&mut clone, &forecast);
    assert_eq!(report, cold, "clone resubmission changed the ratio report");
    assert_free(&snap, "clone");

    // The serve path: a pool hands out warm clones sharing the pooled
    // engine's cache. A bitwise-equal forecast on the served clone must hit
    // the pool AND stay free.
    let pool = PlannerPool::new();
    let build = || planner.clone();
    let _warm = pool.planner_for(net.name(), RiskWeights::PAPER, build);
    riskroute_obs::reset();
    riskroute_obs::enable();
    let mut served = pool.planner_for(net.name(), RiskWeights::PAPER, || planner.clone());
    served.set_forecast(forecast.clone());
    let report = served.ratio_report();
    riskroute_obs::disable();
    let snap = riskroute_obs::snapshot();
    assert_eq!(report, cold, "served resubmission changed the ratio report");
    assert_eq!(counter(&snap, "planner_pool_hits"), 1);
    assert_eq!(counter(&snap, "planner_pool_misses"), 0);
    assert_free(&snap, "pool");
}
