//! Thread-scaling curve for the all-pairs risk-SSSP sweep.
//!
//! Runs `ratio_report` (every ordered PoP pair of the largest corpus
//! network) at 1, 2, 4, and 8 workers and reports the median wall time of
//! [`REPEATS`] runs plus the speedup relative to one worker. Every run —
//! the untimed warm-up included — gets a freshly built planner, so no run
//! reads route trees a previous one cached and each row times the same
//! cold sweep. The report is asserted identical at every worker count
//! before the timing is trusted, and the run fails if any speedup exceeds
//! the host's core count (an impossible reading means the measurement is
//! broken, not the pool fast).

use std::time::Instant;

use riskroute::prelude::*;
use crate::{emit, ExperimentContext, TextTable};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Timed runs per row; the row reports their median.
const REPEATS: usize = 3;

/// Regenerate the scaling table; returns the rendered rows so the harness
/// can append the curve to `results/timings.txt`.
///
/// # Panics
/// Panics when a worker count's report differs from the one-worker report
/// or a speedup exceeds the host's core count.
pub fn run(ctx: &ExperimentContext) -> String {
    // The largest network gives the longest per-source tasks and therefore
    // the most honest parallel-efficiency numbers.
    let net = ctx
        .corpus
        .all_networks()
        .max_by_key(|n| n.pop_count())
        .unwrap_or_else(|| unreachable!("the standard corpus is never empty"));
    let weights = RiskWeights::historical_only(1e5);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // One cold sweep on a fresh planner: (wall µs, report).
    let sweep = |par: Parallelism| {
        let planner = ctx.planner_for(net, weights).with_parallelism(par);
        let start = Instant::now();
        let report = planner.ratio_report();
        let wall_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        (wall_us, report)
    };

    let mut t = TextTable::new(&["threads", "median_ms", "min_ms", "max_ms", "speedup"]);
    let mut base_report: Option<RatioReport> = None;
    let mut base_us: Option<u64> = None;
    for workers in WORKER_COUNTS {
        let par = Parallelism::from_worker_count(workers);
        let _warm_up = sweep(par);
        let mut walls = Vec::with_capacity(REPEATS);
        for _ in 0..REPEATS {
            let (wall_us, report) = sweep(par);
            let base = *base_report.get_or_insert(report);
            assert_eq!(
                base, report,
                "{workers}-worker sweep diverged from the one-worker report"
            );
            walls.push(wall_us);
        }
        walls.sort_unstable();
        let median_us = walls[REPEATS / 2];
        let base_us = *base_us.get_or_insert(median_us);
        let speedup = base_us as f64 / median_us.max(1) as f64;
        assert!(
            speedup <= cores as f64,
            "{par}: speedup {speedup:.2}x exceeds the host's {cores} core(s); \
             the measurement is broken, not the pool fast"
        );
        t.row(&[
            format!("{par}"),
            format!("{:.1}", median_us as f64 / 1e3),
            format!("{:.1}", walls[0] as f64 / 1e3),
            format!("{:.1}", walls[REPEATS - 1] as f64 / 1e3),
            format!("{speedup:.2}x"),
        ]);
    }

    let mut out = String::new();
    out.push_str(&format!(
        "All-pairs risk-SSSP sweep on {} ({} PoPs), host has {} core(s);\n\
         median of {REPEATS} cold runs (fresh planner each, after one warm-up) per row;\n\
         report verified byte-identical at every worker count.\n\n",
        net.name(),
        net.pop_count(),
        cores
    ));
    out.push_str(&t.render());
    emit("thread_scaling", &out);
    out
}
