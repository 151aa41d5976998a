//! oneshot-route and oneshot-ratio: sequential `riskroute` child processes
//! on Level3, each timed from spawn to its last stdout byte.

use crate::calib::{self, Calibrator, Samples, Slices};
use crate::layers::{self, LayerClock};
use crate::{inputs, sys, Measured, Run, Tally, Traced};
use riskroute::{RatioReport, RiskWeights, RoutedPath};
use riskroute_cli::{commands, CliContext, CLI_SEED};
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The paper's largest Tier-1 network (233 PoPs), whose all-pairs ratio is
/// the Eq. 5/6 sweep of §7.
const NETWORK: &str = "Level3";

/// Seeded route pairs one run cycles through.
const ROUTE_POOL: usize = 100;

/// Invocations whose memory [`measure`] probes, after its timed phase.
const RSS_PROBES: usize = 3;

/// Which command the workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Route,
    Ratio,
}

/// One invocation: its arguments and the exact bytes it must print.
struct Unit {
    argv: Vec<String>,
    expected: String,
}

/// What set-up leaves behind: the in-process context and planner every
/// invocation rebuilds, and the expected output of each unit.
struct Reference {
    ctx: CliContext,
    weights: RiskWeights,
    units: Vec<Unit>,
}

/// Build the substrate one invocation builds (context and Level3 planner)
/// in-process, repeatedly, then the expected output of every unit from the
/// in-process commands `main.rs` wraps.
fn setup(kind: Kind, run: &Run, cal: &mut Calibrator) -> Result<(Vec<f64>, Reference), String> {
    let weights = crate::cli_weights();
    let build = || {
        let built = CliContext::build(&[]).map_err(|e| e.to_string())?;
        let net = built.network(NETWORK).map_err(|e| e.to_string())?;
        std::hint::black_box(built.planner(net, weights));
        Ok(built)
    };
    let (ctx, times) =
        crate::repeat_setup(|| calib::timed(|| Ok(cal.factor()), build), |_| Ok(()))?;
    let stdout = |out: String| format!("{}\n", out.trim_end());
    let units = match kind {
        Kind::Route => {
            let n = ctx.network(NETWORK).map_err(|e| e.to_string())?.pop_count();
            inputs::pairs(&mut inputs::rng(run.seed, "route-pairs", 0), n, ROUTE_POOL)
                .into_iter()
                .map(|(s, d)| {
                    let (s, d) = (s.to_string(), d.to_string());
                    let out = commands::route(&ctx, NETWORK, &s, &d, weights)
                        .map_err(|e| e.to_string())?;
                    Ok(Unit {
                        argv: vec!["route".into(), NETWORK.into(), s, d],
                        expected: stdout(out),
                    })
                })
                .collect::<Result<_, String>>()?
        }
        Kind::Ratio => {
            let out = commands::ratio(&ctx, NETWORK, weights, None, CLI_SEED)
                .map_err(|e| e.to_string())?;
            vec![Unit {
                argv: vec!["ratio".into(), NETWORK.into()],
                expected: stdout(out),
            }]
        }
    };
    Ok((
        times,
        Reference {
            ctx,
            weights,
            units,
        },
    ))
}

/// Run `riskroute <global> <unit>` to completion: milliseconds from spawn
/// to the end of its stdout, and whether it exited 0 printing exactly the
/// expected bytes.
fn invoke(bin: &Path, global: &[String], unit: &Unit) -> Result<(f64, bool), String> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(global)
        .args(&unit.argv)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut out = Vec::new();
    let read = match child.stdout.take() {
        Some(mut stdout) => stdout.read_to_end(&mut out).map(|_| ()),
        None => Ok(()),
    };
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let status = child
        .wait()
        .map_err(|e| format!("cannot wait for riskroute: {e}"))?;
    read.map_err(|e| format!("cannot read riskroute's output: {e}"))?;
    Ok((ms, status.success() && out == unit.expected.as_bytes()))
}

/// Run one invocation untimed, reading its own `VmHWM` every millisecond
/// until it exits: its peak resident memory in MiB, and whether its output
/// was right. (The kernel's rusage for children would also count the
/// benchmark's own memory, which a spawned child shares until it execs.)
fn peak_rss(bin: &Path, unit: &Unit) -> Result<(f64, bool), String> {
    let mut child = Command::new(bin)
        .args(&unit.argv)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut out = Vec::new();
        stdout.read_to_end(&mut out).map(|_| out)
    });
    let mut peak: f64 = 0.0;
    let status = loop {
        if let Ok(mib) = sys::vm_hwm_mib(Some(child.id())) {
            peak = peak.max(mib);
        }
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => return Err(format!("cannot wait for riskroute: {e}")),
        }
    };
    let out = reader
        .join()
        .map_err(|_| "the output reader panicked".to_string())?
        .map_err(|e| format!("cannot read riskroute's output: {e}"))?;
    Ok((peak, status.success() && out == unit.expected.as_bytes()))
}

/// Invoke units in pool order for `seconds`, calibrating between
/// invocations and checking each output.
fn invoke_for(
    run: &Run,
    units: &[Unit],
    seconds: f64,
    cal: &mut Calibrator,
    tally: &mut Tally,
) -> Result<Samples, String> {
    let mut slices = Slices::start(0.0, || Ok(cal.factor()))?;
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds {
        slices.next()?;
        let unit = &units[i % units.len()];
        let (ms, ok) = invoke(&run.riskroute, &[], unit)?;
        tally.check(ok, || {
            format!("`riskroute {}` printed other bytes", unit.argv.join(" "))
        });
        slices.push(ms);
        i += 1;
    }
    Ok(slices.finish()?.0)
}

/// Tracing off: `setup_s` is the in-process substrate build, latency one
/// invocation, memory the largest peak among [`RSS_PROBES`] invocations.
/// The benchmark and its children share one core, the one the calibration
/// loop runs on.
pub fn measure(kind: Kind, run: &Run) -> Result<Measured, String> {
    calib::pin_to_first()?;
    let mut cal = Calibrator::default();
    let (setup_s, reference) = setup(kind, run, &mut cal)?;
    let units = &reference.units;
    crate::warm_up(|i| invoke(&run.riskroute, &[], &units[i % units.len()]).map(|_| ()))?;
    let mut tally = Tally::default();
    let timed = invoke_for(run, units, run.seconds, &mut cal, &mut tally)?;
    let mut peak_rss_mib: f64 = 0.0;
    for unit in units.iter().cycle().take(RSS_PROBES) {
        let (mib, ok) = peak_rss(&run.riskroute, unit)?;
        tally.check(ok, || {
            format!("`riskroute {}` printed other bytes", unit.argv.join(" "))
        });
        peak_rss_mib = peak_rss_mib.max(mib);
    }
    Ok(Measured {
        setup_s,
        // Invocations run back to back: the phase is their sum.
        phase_s: timed.calibrated().iter().sum::<f64>() / 1e3,
        units: timed,
        peak_rss_mib,
        tally,
        notes: Vec::new(),
    })
}

/// The traced pass. A child process cannot be split from outside, so the
/// layers are timed on an in-process replica of each invocation: context
/// build, the three planner layers, then the command's engine calls. The
/// untraced and traced latencies are child invocations without and with
/// `--trace-out`, the program's own collector. Each unit runs as all three
/// in turn, so they see the same host.
pub fn trace(kind: Kind, run: &Run) -> Result<Traced, String> {
    calib::pin_to_first()?;
    let mut cal = Calibrator::default();
    let (_, reference) = setup(kind, run, &mut cal)?;
    let units = &reference.units;
    crate::warm_up(|i| invoke(&run.riskroute, &[], &units[i % units.len()]).map(|_| ()))?;
    let expected = engine_results(kind, &reference)?;
    let child_trace = run.out.join("child-trace.jsonl");
    let traced_args = ["--trace-out".to_string(), child_trace.display().to_string()];
    let mut tally = Tally::default();
    let mut clock = LayerClock::default();
    let mut slices = Slices::start(0.0, || Ok(cal.factor()))?;
    let start = Instant::now();
    let mut replicas = 0;
    while replicas < 2 || start.elapsed().as_secs_f64() < run.seconds {
        let i = replicas % units.len();
        for global in [&[][..], &traced_args[..]] {
            slices.next()?;
            let (ms, ok) = invoke(&run.riskroute, global, &units[i])?;
            tally.check(ok, || {
                format!(
                    "`riskroute {}` printed other bytes",
                    units[i].argv.join(" ")
                )
            });
            slices.push(ms);
        }
        slices.close()?;
        clock.factor = slices.factor();
        riskroute_obs::enable();
        let scope = riskroute_obs::ObsScope::begin(match kind {
            Kind::Route => "oneshot-route",
            Kind::Ratio => "oneshot-ratio",
        });
        let obs = scope.enter();
        let got = replica(kind, &reference, &units[i], &mut clock)?;
        drop(obs);
        riskroute_obs::disable();
        tally.check(got == expected[i], || {
            "an in-process replica disagreed with the command's planner".into()
        });
        replicas += 1;
    }
    let [untraced, traced]: [Samples; 2] = slices.finish()?.0.deal(2).try_into().expect("two sets");
    std::fs::remove_file(&child_trace)
        .map_err(|e| format!("cannot remove {}: {e}", child_trace.display()))?;
    let counters = layers::engine_counters();

    let mut metrics = vec![
        ("context.build_ms", clock.mean_ms("context.build")),
        ("planner.node_risk_ms", clock.mean_ms("planner.node_risk")),
        ("planner.shares_ms", clock.mean_ms("planner.shares")),
        ("planner.csr_ms", clock.mean_ms("planner.csr")),
        (
            "intradomain.route_us",
            clock.mean_ms("intradomain.route") * 1e3,
        ),
        (
            "intradomain.pair_sweep_ms",
            clock.mean_ms("intradomain.pair_sweep"),
        ),
        ("ratios.aggregate_ms", clock.mean_ms("ratios.aggregate")),
    ];
    let routes = if kind == Kind::Route { replicas } else { 0 };
    metrics.extend(layers::engine_metrics(&counters, replicas, routes));
    let attributed_ms = clock.per_unit_ms(
        &[
            "context.build",
            "planner.node_risk",
            "planner.shares",
            "planner.csr",
            "intradomain.route",
            "intradomain.pair_sweep",
            "ratios.aggregate",
        ],
        replicas,
    );
    Ok(Traced {
        untraced_ms: untraced.calibrated(),
        traced_ms: traced.calibrated(),
        attributed_ms,
        layers: metrics,
        tally,
    })
}

/// What an invocation's engine calls return: the two routes of `route`, or
/// the report of `ratio`.
#[derive(Debug, PartialEq)]
enum EngineResult {
    Route(Option<RoutedPath>, Option<RoutedPath>),
    Ratio(RatioReport),
}

/// A unit's `route` source and destination.
fn route_pair(unit: &Unit) -> Result<(usize, usize), String> {
    let parse = |i: usize| unit.argv[i].parse::<usize>().map_err(|e| e.to_string());
    Ok((parse(2)?, parse(3)?))
}

/// Each unit's engine result on the set-up's planner, the command's own.
fn engine_results(kind: Kind, reference: &Reference) -> Result<Vec<EngineResult>, String> {
    let net = reference.ctx.network(NETWORK).map_err(|e| e.to_string())?;
    let planner = reference.ctx.planner(net, reference.weights);
    reference
        .units
        .iter()
        .map(|unit| {
            Ok(match kind {
                Kind::Route => {
                    let (s, d) = route_pair(unit)?;
                    EngineResult::Route(planner.shortest_route(s, d), planner.risk_route(s, d))
                }
                Kind::Ratio => EngineResult::Ratio(planner.ratio_report()),
            })
        })
        .collect()
}

/// One invocation rebuilt in-process with every layer timed.
fn replica(
    kind: Kind,
    reference: &Reference,
    unit: &Unit,
    clock: &mut LayerClock,
) -> Result<EngineResult, String> {
    let ctx = clock
        .time("context.build", || CliContext::build(&[]))
        .map_err(|e| e.to_string())?;
    let net = ctx.network(NETWORK).map_err(|e| e.to_string())?;
    let planner = layers::build_planner(clock, &ctx, net, reference.weights);
    Ok(match kind {
        Kind::Route => {
            let (s, d) = route_pair(unit)?;
            clock.time("intradomain.route", || {
                EngineResult::Route(planner.shortest_route(s, d), planner.risk_route(s, d))
            })
        }
        Kind::Ratio => {
            let all: Vec<usize> = (0..planner.pop_count()).collect();
            let sweep = clock.time("intradomain.pair_sweep", || planner.pair_sweep(&all, &all));
            EngineResult::Ratio(clock.time("ratios.aggregate", || {
                RatioReport::aggregate_with_stranded(sweep.outcomes.iter(), sweep.stranded.len())
            }))
        }
    })
}
