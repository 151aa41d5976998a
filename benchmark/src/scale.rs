//! scale-10k: sampled pair sweeps on a seeded 10,000-PoP synthetic network,
//! in-process.

use crate::calib::{self, Calibrator, Samples, Slices};
use crate::layers::{self, LayerClock};
use crate::{inputs, sys, Measured, Run, Tally, Traced};
use riskroute::intradomain::PairSweep;
use riskroute::Planner;
use riskroute_cli::CliContext;
use riskroute_topology::scale::synth_network;
use std::time::Instant;

/// PoPs of the synthetic network.
const POPS: usize = 10_000;

/// Fresh seeded pairs per timed `pair_list_sweep` call: few enough that a
/// run completes the ≥100 units a p90 needs.
const PAIRS_PER_UNIT: usize = 16;

/// Synthesize the network and build its planner on the CLI substrate.
fn build(run: &Run) -> Result<Planner, String> {
    let ctx = CliContext::build(&[]).map_err(|e| e.to_string())?;
    let net = synth_network(POPS, run.seed).map_err(|e| e.to_string())?;
    Ok(ctx.planner(&net, crate::cli_weights()))
}

/// The pairs of unit `index` of input stream `stream`.
fn unit_pairs(run: &Run, stream: &str, index: usize) -> Vec<(usize, usize)> {
    inputs::pairs(
        &mut inputs::rng(run.seed, stream, index as u64),
        POPS,
        PAIRS_PER_UNIT,
    )
}

/// Sweep `pairs`; the sweep and its latency.
fn sweep(planner: &Planner, pairs: &[(usize, usize)]) -> (PairSweep, f64) {
    let start = Instant::now();
    let sweep = planner.pair_list_sweep(pairs);
    (sweep, start.elapsed().as_secs_f64() * 1e3)
}

/// Every pair of a connected network routes: one outcome per pair.
fn complete(pairs: &[(usize, usize)], sweep: &PairSweep) -> bool {
    sweep.outcomes.len() == pairs.len() && sweep.stranded.is_empty()
}

/// Run sweeps on fresh pairs for `seconds`, in calibrated slices. With a
/// `clock`, each sweep is followed by a traced one on pairs of its own
/// (the collector on only around it), so the two kinds take turns on the
/// same host. Every sweep is checked, and afterwards the first against a
/// cache-off planner. The samples (alternating when traced) and the
/// phase's calibrated time.
fn sweep_for(
    planner: &Planner,
    run: &Run,
    seconds: f64,
    cal: &mut Calibrator,
    mut clock: Option<&mut LayerClock>,
    tally: &mut Tally,
) -> Result<(Samples, f64), String> {
    let mut slices = Slices::start(calib::SLICE_S, || Ok(cal.factor()))?;
    let mut first = None;
    let start = Instant::now();
    let mut index = 0;
    while start.elapsed().as_secs_f64() < seconds {
        slices.next()?;
        let pairs = unit_pairs(run, "scale-pairs", index);
        let (swept, ms) = sweep(planner, &pairs);
        slices.push(ms);
        tally.check(complete(&pairs, &swept), || {
            format!("pairs {pairs:?} did not all route")
        });
        if let Some(clock) = clock.as_deref_mut() {
            let pairs = unit_pairs(run, "scale-pairs-traced", index);
            clock.factor = slices.factor();
            riskroute_obs::enable();
            let t = Instant::now();
            let swept = clock.time("intradomain.pair_sweep", || planner.pair_list_sweep(&pairs));
            slices.push(t.elapsed().as_secs_f64() * 1e3);
            riskroute_obs::disable();
            tally.check(complete(&pairs, &swept), || {
                format!("pairs {pairs:?} did not all route")
            });
        }
        first.get_or_insert((pairs, swept));
        index += 1;
    }
    let (units, phase_s) = slices.finish()?;
    if let Some((pairs, swept)) = first {
        let uncached = planner
            .clone()
            .with_route_cache(false)
            .pair_list_sweep(&pairs);
        tally.check(
            uncached.outcomes == swept.outcomes && uncached.stranded == swept.stranded,
            || "the first sweep differs from a cache-off planner's".into(),
        );
    }
    Ok((units, phase_s))
}

/// Tracing off: `setup_s` is synthesis plus planner build, latency one
/// sweep, memory this process's peak during the timed phase.
pub fn measure(run: &Run) -> Result<Measured, String> {
    calib::pin_to_first()?;
    let mut cal = Calibrator::default();
    let (planner, setup_s) = crate::repeat_setup(
        || calib::timed(|| Ok(cal.factor()), || build(run)),
        |_| Ok(()),
    )?;
    crate::warm_up(|i| {
        sweep(&planner, &unit_pairs(run, "scale-warm-up", i));
        Ok(())
    })?;
    sys::reset_peak_rss()?;
    let mut tally = Tally::default();
    let (units, phase_s) = sweep_for(&planner, run, run.seconds, &mut cal, None, &mut tally)?;
    let peak_rss_mib = sys::vm_hwm_mib(None)?;
    Ok(Measured {
        setup_s,
        units,
        phase_s,
        peak_rss_mib,
        tally,
        notes: vec![("pairs_per_unit", PAIRS_PER_UNIT as f64, "count")],
    })
}

/// The traced pass: set-up split into its layers, then untraced and
/// traced sweeps taking turns.
pub fn trace(run: &Run) -> Result<Traced, String> {
    calib::pin_to_first()?;
    let mut cal = Calibrator::default();
    riskroute_obs::enable();
    let mut clock = LayerClock::default();
    clock.factor = cal.factor();
    let ctx = clock
        .time("context.build", || CliContext::build(&[]))
        .map_err(|e| e.to_string())?;
    let net = clock
        .time("topology.synth", || synth_network(POPS, run.seed))
        .map_err(|e| e.to_string())?;
    let planner = layers::build_planner(&mut clock, &ctx, &net, crate::cli_weights());
    riskroute_obs::disable();

    crate::warm_up(|i| {
        sweep(&planner, &unit_pairs(run, "scale-warm-up", i));
        Ok(())
    })?;
    let mut tally = Tally::default();
    let (both, _) = sweep_for(
        &planner,
        run,
        run.seconds,
        &mut cal,
        Some(&mut clock),
        &mut tally,
    )?;
    let [untraced, traced]: [Samples; 2] = both.deal(2).try_into().expect("two sets");
    let counters = layers::engine_counters();

    let units = traced.len();
    let mut metrics = vec![
        ("context.build_ms", clock.mean_ms("context.build")),
        ("topology.synth_ms", clock.mean_ms("topology.synth")),
        ("planner.node_risk_ms", clock.mean_ms("planner.node_risk")),
        ("planner.shares_ms", clock.mean_ms("planner.shares")),
        ("planner.csr_ms", clock.mean_ms("planner.csr")),
        (
            "intradomain.pair_sweep_ms",
            clock.mean_ms("intradomain.pair_sweep"),
        ),
    ];
    metrics.extend(layers::engine_metrics(&counters, units, 0));
    Ok(Traced {
        untraced_ms: untraced.calibrated(),
        traced_ms: traced.calibrated(),
        attributed_ms: clock.per_unit_ms(&["intradomain.pair_sweep"], units),
        layers: metrics,
        tally,
    })
}
