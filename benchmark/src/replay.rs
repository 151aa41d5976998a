//! replay-storms: `ReplaySession::tick` over every advisory of the
//! Figure 13 storm cases, in-process.
//!
//! In-process because `replay --stream` answers only at end of input, so a
//! tick's latency is invisible at the process boundary.

use crate::calib::{self, Calibrator, Samples, Slices};
use crate::layers::{self, LayerClock};
use crate::{inputs, sys, Measured, Run, Tally, Traced};
use riskroute::replay::{
    raw_advisories, replay_raw_advisories, RawAdvisory, ReplaySession, ReplayTick,
};
use riskroute::{Planner, RatioReport};
use riskroute_cli::CliContext;
use riskroute_forecast::{ForecastRisk, Storm};
use riskroute_geo::GeoPoint;
use std::time::Instant;

/// The (storm, regional network) pairs of Figure 13: every regional network
/// with more than 20% of its PoPs in the storm's scope.
const CASES: [(Storm, &str); 14] = [
    (Storm::Irene, "British Telecom"),
    (Storm::Irene, "CoStreet"),
    (Storm::Irene, "Digex"),
    (Storm::Irene, "Hibernia"),
    (Storm::Irene, "USA Network"),
    (Storm::Katrina, "Telepak"),
    (Storm::Katrina, "USA Network"),
    (Storm::Sandy, "ANS"),
    (Storm::Sandy, "British Telecom"),
    (Storm::Sandy, "CoStreet"),
    (Storm::Sandy, "Digex"),
    (Storm::Sandy, "Gridnet"),
    (Storm::Sandy, "Hibernia"),
    (Storm::Sandy, "USA Network"),
];

/// One storm case: the network's warm planner and the storm's advisories.
struct Case {
    planner: Planner,
    locations: Vec<GeoPoint>,
    raws: Vec<RawAdvisory>,
}

/// Build every case's planner on the CLI substrate and render its storm's
/// advisories (every advisory: stride 1).
fn build() -> Result<Vec<Case>, String> {
    let weights = crate::cli_weights();
    let ctx = CliContext::build(&[]).map_err(|e| e.to_string())?;
    CASES
        .iter()
        .map(|&(storm, name)| {
            let net = ctx.network(name).map_err(|e| e.to_string())?;
            Ok(Case {
                planner: ctx.planner(net, weights),
                locations: net.pops().iter().map(|p| p.location).collect(),
                raws: raw_advisories(storm, 1).map_err(|e| e.to_string())?,
            })
        })
        .collect()
}

/// Each case's tick series from the batch replay, the reference every
/// streamed pass must reproduce.
fn references(cases: &[Case]) -> Result<Vec<Vec<ReplayTick>>, String> {
    cases
        .iter()
        .zip(CASES)
        .map(|(case, (storm, name))| {
            let all: Vec<usize> = (0..case.planner.pop_count()).collect();
            replay_raw_advisories(
                &case.planner,
                name,
                &case.locations,
                storm.name(),
                &case.raws,
                &all,
                &all,
            )
            .map(|r| r.ticks)
            .map_err(|e| e.to_string())
        })
        .collect()
}

/// Stream one case's advisories through a fresh session, checking each
/// tick against the batch replay.
fn pass<F: FnMut() -> Result<f64, String>>(
    case: &Case,
    reference: &[ReplayTick],
    slices: &mut Slices<F>,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut session =
        ReplaySession::all_pairs(&case.planner, &case.locations).map_err(|e| e.to_string())?;
    for (raw, expected) in case.raws.iter().zip(reference) {
        slices.next()?;
        let t = Instant::now();
        let tick = session.tick(raw);
        slices.push(t.elapsed().as_secs_f64() * 1e3);
        tally.check(&tick == expected, || {
            format!(
                "tick for advisory {} differs from the batch replay",
                raw.number
            )
        });
    }
    Ok(())
}

/// Warm every case's caches with one pass each, in case order. The
/// readings are discarded, so the slices are not calibrated.
fn warm(cases: &[Case], refs: &[Vec<ReplayTick>]) -> Result<(), String> {
    let mut slices = Slices::start(f64::INFINITY, || Ok(1.0))?;
    let mut tally = Tally::default();
    for (case, reference) in cases.iter().zip(refs) {
        pass(case, reference, &mut slices, &mut tally)?;
    }
    Ok(())
}

/// Tracing off: `setup_s` is the context plus the case planners, latency
/// one tick. The timed phase runs whole rounds until `--seconds` have
/// passed, so every run times the same mix of ticks. Memory is this
/// process's peak once set-up, the batch references and one warm-up round
/// have run: every tick caches trees under a fresh cost stamp, so memory
/// grows with the ticks run, and reading it after a fixed amount of work
/// keeps it independent of speed.
pub fn measure(run: &Run) -> Result<Measured, String> {
    calib::pin_to_first()?;
    let mut cal = Calibrator::default();
    let (cases, setup_s) =
        crate::repeat_setup(|| calib::timed(|| Ok(cal.factor()), build), |_| Ok(()))?;
    let refs = references(&cases)?;
    warm(&cases, &refs)?;
    let peak_rss_mib = sys::vm_hwm_mib(None)?;
    let mut tally = Tally::default();
    let mut slices = Slices::start(calib::SLICE_S, || Ok(cal.factor()))?;
    let start = Instant::now();
    let mut round = 0;
    while start.elapsed().as_secs_f64() < run.seconds {
        for c in inputs::case_order(run.seed, round, cases.len()) {
            pass(&cases[c], &refs[c], &mut slices, &mut tally)?;
        }
        round += 1;
    }
    let (units, phase_s) = slices.finish()?;
    Ok(Measured {
        setup_s,
        units,
        phase_s,
        peak_rss_mib,
        tally,
        notes: vec![("rounds", round as f64, "count")],
    })
}

/// The traced pass: one round in which every case is streamed untraced and
/// then, right after, replayed with each tick split into its layers
/// (forecast field, `set_forecast`, pair sweep, ratio aggregation) on a
/// replica of the session's tick, so the two see the same host.
pub fn trace(run: &Run) -> Result<Traced, String> {
    calib::pin_to_first()?;
    let mut cal = Calibrator::default();
    let cases = build()?;
    let refs = references(&cases)?;
    warm(&cases, &refs)?;

    let mut tally = Tally::default();
    let mut clock = LayerClock::default();
    let (mut untraced, mut traced) = (Samples::default(), Samples::default());
    for c in inputs::case_order(run.seed, 0, cases.len()) {
        let (case, reference) = (&cases[c], &refs[c]);
        let mut slices = Slices::start(calib::SLICE_S, || Ok(cal.factor()))?;
        pass(case, reference, &mut slices, &mut tally)?;
        untraced.extend(slices.finish()?.0);

        riskroute_obs::enable();
        let scope = riskroute_obs::ObsScope::begin(CASES[c].1);
        let obs = scope.enter();
        let mut planner = case.planner.clone();
        let all: Vec<usize> = (0..planner.pop_count()).collect();
        let mut slices = Slices::start(calib::SLICE_S, || Ok(cal.factor()))?;
        for (raw, expected) in case.raws.iter().zip(reference) {
            slices.next()?;
            clock.factor = slices.factor();
            let t = Instant::now();
            let tick = replica_tick(&mut clock, &mut planner, raw, &case.locations, &all);
            slices.push(t.elapsed().as_secs_f64() * 1e3);
            tally.check(&tick == expected, || {
                format!("replica tick for advisory {} differs", raw.number)
            });
        }
        drop(obs);
        riskroute_obs::disable();
        traced.extend(slices.finish()?.0);
    }
    let counters = layers::engine_counters();

    let ticks = traced.len();
    let tick_layers = [
        "forecast.field",
        "intradomain.set_forecast",
        "intradomain.pair_sweep",
        "ratios.aggregate",
    ];
    let mut metrics = vec![
        ("forecast.field_ms", clock.mean_ms("forecast.field")),
        (
            "intradomain.set_forecast_ms",
            clock.mean_ms("intradomain.set_forecast"),
        ),
        (
            "intradomain.pair_sweep_ms",
            clock.mean_ms("intradomain.pair_sweep"),
        ),
        ("ratios.aggregate_ms", clock.mean_ms("ratios.aggregate")),
    ];
    metrics.extend(layers::engine_metrics(&counters, ticks, 0));
    Ok(Traced {
        untraced_ms: untraced.calibrated(),
        traced_ms: traced.calibrated(),
        attributed_ms: clock.per_unit_ms(&tick_layers, ticks),
        layers: metrics,
        tally,
    })
}

/// `ReplaySession::tick` rebuilt from the public calls it makes, each timed
/// as its layer.
fn replica_tick(
    clock: &mut LayerClock,
    planner: &mut Planner,
    raw: &RawAdvisory,
    locations: &[GeoPoint],
    all: &[usize],
) -> ReplayTick {
    let (forecast, pops_in_scope, pops_in_hurricane_winds, degraded) = clock.time(
        "forecast.field",
        || match ForecastRisk::from_advisory_text(&raw.text) {
            Ok(field) => (
                locations.iter().map(|&p| field.risk(p)).collect(),
                locations.iter().filter(|&&p| field.in_scope(p)).count(),
                locations
                    .iter()
                    .filter(|&&p| field.in_hurricane_winds(p))
                    .count(),
                false,
            ),
            Err(_) => (vec![0.0; locations.len()], 0, 0, true),
        },
    );
    clock.time("intradomain.set_forecast", || {
        planner.set_forecast(forecast)
    });
    let sweep = clock.time("intradomain.pair_sweep", || planner.pair_sweep(all, all));
    let report = clock.time("ratios.aggregate", || {
        RatioReport::aggregate_with_stranded(sweep.outcomes.iter(), sweep.stranded.len())
    });
    ReplayTick {
        advisory: raw.number,
        label: raw.label.clone(),
        pops_in_scope,
        pops_in_hurricane_winds,
        report,
        degraded,
    }
}
