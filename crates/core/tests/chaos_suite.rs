//! Acceptance test for the chaos-injection harness: the full pipeline must
//! complete under at least 8 distinct seeded fault plans with zero panics
//! and a defined-degradation report for each.
//!
//! "Completing" IS the no-panic invariant: every plan drives the real
//! pipeline (topology faulting, advisory corruption, hazard deletion,
//! share zeroing, cost poisoning) end to end, so a panic anywhere in
//! graph/geo/forecast/core aborts this test.

use riskroute::chaos::{run_chaos, run_chaos_suite, violations, FaultPlan};

#[test]
fn eight_plan_suite_completes_with_defined_degradation() {
    let reports = run_chaos_suite(0, 8).expect("every plan completes");
    assert_eq!(reports.len(), 8);
    for r in &reports {
        // Defined degradation, not vacuous success: the report must account
        // for the whole replay and keep every ratio finite.
        assert!(r.total_ticks > 0, "seed {}: no ticks", r.seed);
        assert!(r.finite_ratios, "seed {}: non-finite ratio", r.seed);
        assert!(
            r.degraded_ticks <= r.total_ticks,
            "seed {}: more degraded ticks than ticks",
            r.seed
        );
        let v = violations(r);
        assert!(v.is_empty(), "seed {}: {v:?}", r.seed);
        // The summary line is what the CLI prints; it must carry the seed.
        assert!(r.summary_line().contains(&format!("seed {:>4}", r.seed)));
    }
    // The 8 plans are genuinely distinct fault bundles, not one plan rerun.
    let plans = FaultPlan::suite(0, 8);
    for (i, a) in plans.iter().enumerate() {
        for b in &plans[i + 1..] {
            assert_ne!(a, b, "plans {} and {} coincide", a.seed, b.seed);
        }
    }
}

#[test]
fn suite_is_deterministic_across_runs() {
    let a = run_chaos_suite(50, 2).expect("suite completes");
    let b = run_chaos_suite(50, 2).expect("suite completes");
    assert_eq!(a, b, "same base seed must reproduce identical reports");
}

#[test]
fn harness_exercises_every_degradation_path_somewhere() {
    // Across a spread of seeds the suite must actually hit the degraded
    // replay path, strand pairs or isolate PoPs, and corrupt advisories —
    // otherwise the invariants above pass vacuously.
    let reports: Vec<_> = (0..10)
        .map(|s| run_chaos(&FaultPlan::from_seed(s)).expect("plan completes"))
        .collect();
    assert!(
        reports.iter().any(|r| r.degraded_ticks > 0),
        "no seed produced a degraded tick"
    );
    assert!(
        reports
            .iter()
            .any(|r| r.stranded_pairs > 0 || r.isolated_pops > 0),
        "no seed partitioned or isolated anything"
    );
    assert!(
        reports.iter().all(|r| r.corrupted_advisories > 0),
        "a plan failed to corrupt any advisory"
    );
    assert!(
        reports.iter().all(|r| r.dropped_links > 0),
        "a plan failed to drop any link"
    );
}

#[test]
fn ci_fault_plans_hold_every_invariant() {
    // The fault plans CI has always run (seeds 42..49).
    let reports = run_chaos_suite(42, 8).expect("every plan completes");
    assert_eq!(reports.len(), 8);
    for r in &reports {
        let v = violations(r);
        assert!(v.is_empty(), "seed {}: {v:?}", r.seed);
    }
}
