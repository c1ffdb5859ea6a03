//! Determinism suite for the fault-injection layer.
//!
//! Two contracts from the fault module's design:
//!
//! 1. **Empty plan ⇒ no effect.** Running under a plan with no events
//!    must leave every simulation byte-identical to a run with no plan at
//!    all — no class bit is set and no hot path ever consults the
//!    schedule. Checked against the Figure 11 scenario, which exercises
//!    the DRAM controller the DRAM fault hooks live in.
//! 2. **Same plan + seed ⇒ same figure.** The `fig_fault` JSON must be
//!    byte-identical across `PARD_THREADS` settings and across repeated
//!    runs: every injection decision derives from the plan, the seed,
//!    and simulated time — never from wall-clock or scheduling order.
//!
//! Each machine carries its own plan, so the contracts are separate
//! tests; the second owns its `PARD_THREADS` matrix.

use std::sync::Arc;

use pard_bench::fig11_scenario;
use pard_bench::fig_fault_scenario::{default_plan, run_pair, summary_json, Timeline, PLAN_SEED};
use pard_bench::json::JsonValue;
use pard_sim::fault::FaultPlan;
use pard_sim::RunConfig;

fn faulted(plan: FaultPlan) -> RunConfig {
    RunConfig {
        faults: Some(Arc::new(plan)),
        ..RunConfig::default()
    }
}

#[test]
fn an_empty_fault_plan_is_free() {
    let fig11 = |run: &RunConfig| {
        let (base, pard) = fig11_scenario::run_pair_with(0.55, 2_000, run);
        fig11_scenario::summary_json(0.55, &base, &pard).to_string_pretty()
    };
    let unfaulted = fig11(&RunConfig::default());
    let empty_plan = fig11(&faulted(FaultPlan::new(PLAN_SEED)));
    assert_eq!(
        unfaulted, empty_plan,
        "an empty fault plan must not perturb fig11 output"
    );
}

#[test]
fn fault_plans_are_deterministic_across_thread_counts_and_replays() {
    let tl = Timeline::at_scale(0.25);
    let fig_fault = || {
        let (base, rec) = run_pair(tl, &faulted(default_plan(tl)));
        summary_json(tl, &base, &rec).to_string_pretty()
    };

    std::env::set_var("PARD_THREADS", "1");
    let serial = fig_fault();
    std::env::set_var("PARD_THREADS", "4");
    let parallel = fig_fault();
    std::env::remove_var("PARD_THREADS");
    let replay = fig_fault();

    assert_eq!(
        serial, parallel,
        "fig_fault JSON must not depend on PARD_THREADS"
    );
    assert_eq!(serial, replay, "same plan + seed must replay exactly");

    // The figure's headline claim holds even at the scaled-down test
    // timeline: with the recovery trigger armed, the high-priority
    // LDom's p95 returns to within 10% of its pre-fault value.
    let root = JsonValue::parse(&serial).expect("fig_fault JSON parses");
    let acceptance = root.get("acceptance").expect("acceptance block");
    match acceptance.get("recovered_within_10pct") {
        Some(JsonValue::Bool(true)) => {}
        other => panic!("recovery acceptance not met: {other:?}"),
    }
}
