//! The table/figure regeneration harness.
//!
//! ```text
//! cargo run --release -p riskroute-bench --bin experiments -- all
//! cargo run --release -p riskroute-bench --bin experiments -- table2 fig7
//! ```
//!
//! Outputs are echoed and written under `results/`. Every experiment is
//! deterministic under the harness master seed. Per-experiment wall time
//! and the hot-path counters the run generated (shortest-path runs, heap
//! pops, relaxations, peak heap size) come from the `riskroute-obs`
//! collector and land in `results/timings.txt`.

use riskroute_bench::experiments::*;
use riskroute_bench::{emit, ExperimentContext, TextTable};

const USAGE: &str = "\
usage: experiments <id>...

ids:
  table1      Table 1  - trained KDE bandwidths
  table2      Table 2  - Tier-1 risk/distance ratios
  table3      Table 3  - characteristic regression (R^2)
  fig1        Figure 1 - network data sets
  fig2        Figure 2 - AS connectivity
  fig3        Figure 3 - population density + NN assignment
  fig4        Figure 4 - KDE risk surfaces
  fig5        Figure 5 - Irene forecast snapshots
  fig6        Figure 6 - storm swaths
  fig7        Figure 7 - Level3 Houston->Boston routes
  fig8        Figure 8 - regional interdomain scatter
  fig9        Figure 9 - ten best additional links
  fig10       Figure 10 - bit-risk decay with added links
  fig11       Figure 11 - best new peering per regional network
  fig12       Figure 12 - Tier-1 hurricane replay
  fig13       Figure 13 - regional hurricane replay
  ablation1   impact-scaling ablation
  ablation2   risk-component ablation
  ablation3   shortcut-threshold ablation
  ablation4   forecast lead-time ablation (proactive vs reactive)
  ablation5   risk-aware OSPF weights vs exact RiskRoute
  tables      table1 table2 table3
  figures     fig1..fig13
  ablations   ablation1..ablation5
  all         everything above
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "-h" || a == "--help") {
        eprint!("{USAGE}");
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let mut ids: Vec<&str> = Vec::new();
    for a in &args {
        match a.as_str() {
            "tables" => ids.extend(["table1", "table2", "table3"]),
            "figures" => ids.extend([
                "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                "fig11", "fig12", "fig13",
            ]),
            "ablations" => ids.extend([
                "ablation1",
                "ablation2",
                "ablation3",
                "ablation4",
                "ablation5",
            ]),
            "all" => ids.extend([
                "table1",
                "table2",
                "table3",
                "fig1",
                "fig2",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "fig12",
                "fig13",
                "ablation1",
                "ablation2",
                "ablation3",
                "ablation4",
                "ablation5",
            ]),
            other => ids.push(other),
        }
    }

    riskroute_obs::enable();
    riskroute_obs::reset();
    eprintln!("building experiment context (corpus, census, hazards)…");
    let ctx = {
        let _span = riskroute_obs::Span::enter("context_build");
        ExperimentContext::standard()
    };
    let span_us = |snap: &riskroute_obs::MetricsSnapshot, name: &str| {
        snap.span_stats.get(name).map_or(0, |s| s.total_us)
    };
    let context_us = span_us(&riskroute_obs::snapshot(), "context_build");
    eprintln!("context ready in {:.1} ms", context_us as f64 / 1e3);

    let mut timings = TextTable::new(&[
        "experiment",
        "wall_ms",
        "sssp_runs",
        "pops",
        "relaxations",
        "heap_peak",
        "prov_rounds",
        "replay_ticks",
    ]);
    let mut total_us = context_us;
    for id in ids {
        // A fresh registry per experiment makes every row a self-contained
        // delta; the experiment id names the enclosing span.
        riskroute_obs::reset();
        let span = riskroute_obs::Span::enter(id.to_string());
        match id {
            "table1" => table1_bandwidths::run(&ctx),
            "table2" => table2_tier1::run(&ctx),
            "table3" => table3_regression::run(&ctx),
            "fig1" => figs_maps::run_fig1(&ctx),
            "fig2" => figs_maps::run_fig2(&ctx),
            "fig3" => figs_maps::run_fig3(&ctx),
            "fig4" => figs_maps::run_fig4(&ctx),
            "fig5" => figs_forecast::run_fig5(&ctx),
            "fig6" => figs_forecast::run_fig6(&ctx),
            "fig7" => fig07_routes::run(&ctx),
            "fig8" => fig08_regional_scatter::run(&ctx),
            "fig9" => figs_provisioning::run_fig9(&ctx),
            "fig10" => figs_provisioning::run_fig10(&ctx),
            "fig11" => fig11_peering::run(&ctx),
            "fig12" => fig12_tier1_replay::run(&ctx),
            "fig13" => fig13_regional_replay::run(&ctx),
            "ablation1" => ablations::run_impact(&ctx),
            "ablation2" => ablations::run_forecast_components(&ctx),
            "ablation3" => ablations::run_filter_threshold(&ctx),
            "ablation4" => ablation_leadtime::run(&ctx),
            "ablation5" => ablation_ospf::run(&ctx),
            unknown => {
                eprintln!("unknown experiment id {unknown:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
        drop(span);
        let snap = riskroute_obs::snapshot();
        let counter = |n: &str| snap.counters.get(n).copied().unwrap_or(0);
        let wall_us = span_us(&snap, id);
        total_us += wall_us;
        let heap_peak = snap
            .gauges
            .get("dijkstra_heap_peak")
            .copied()
            .unwrap_or(0.0)
            .max(
                snap.gauges
                    .get("risk_sssp_heap_peak")
                    .copied()
                    .unwrap_or(0.0),
            );
        timings.row(&[
            id.to_string(),
            format!("{:.1}", wall_us as f64 / 1e3),
            (counter("dijkstra_runs") + counter("risk_sssp_runs")).to_string(),
            (counter("dijkstra_pops") + counter("risk_sssp_pops")).to_string(),
            (counter("dijkstra_relaxations") + counter("risk_sssp_relaxations")).to_string(),
            format!("{heap_peak:.0}"),
            counter("provision_rounds").to_string(),
            counter("replay_ticks").to_string(),
        ]);
        eprintln!("[{id}] finished in {:.1} ms", wall_us as f64 / 1e3);
    }
    // Merge instead of clobber: partial runs (`experiments fig7`) update
    // their own rows and leave every other experiment's row intact.
    let previous = std::fs::read_to_string(
        std::path::Path::new(riskroute_bench::RESULTS_DIR).join("timings.txt"),
    )
    .unwrap_or_default();
    emit(
        "timings",
        &riskroute_bench::merge_timings(&previous, &timings.render()),
    );
    eprintln!("total: {:.1} ms", total_us as f64 / 1e3);
}
