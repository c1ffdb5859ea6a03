//! `fig_fault` — fault injection and trigger-driven recovery (beyond the
//! paper's figures; the resilience face of "trigger ⇒ action", §5).
//!
//! At `t_fault` a deterministic [`FaultPlan`](pard_sim::fault::FaultPlan)
//! degrades DRAM, the
//! crossbar, the IDE quota engine, and the NIC link, and keeps the
//! faults active to the end of the run. A latency-degradation trigger on
//! the high-priority LDom's memory statistics dispatches the shipped
//! recovery pardscript (re-prioritise DRAM, widen the LLC way mask,
//! raise the IDE quota); the same machine with the trigger bound to a
//! no-op shows what absorbing the fault costs.
//!
//! With `PARD_FAULT_PLAN=/path/to/plan.json` the built-in plan is
//! replaced by the spec file (see [`pard_bench::fault_spec`] for the
//! grammar); the phase boundaries stay at the scenario's timeline.
//!
//! Emits `fig_fault.json` (a committed, CI-gated golden).

use std::sync::Arc;

use pard_bench::fig_fault_scenario::{default_plan, run_pair, summary_json, Timeline};
use pard_bench::output::save_json;
use pard_bench::{duration_scale, fault_spec};
use pard_sim::RunConfig;

fn main() {
    let tl = Timeline::at_scale(duration_scale());
    let spec = match fault_spec::plan_from_env() {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let overridden = spec.is_some();
    let run = RunConfig {
        faults: Some(Arc::new(spec.unwrap_or_else(|| default_plan(tl)))),
        ..RunConfig::from_env()
    };

    let (base, rec) = run_pair(tl, &run);
    let doc = summary_json(tl, &base, &rec);

    println!("Fault injection & trigger-driven recovery\n");
    let plan_src = if overridden {
        "PARD_FAULT_PLAN override"
    } else {
        "built-in default plan"
    };
    println!(
        "plan: {plan_src}; faults strike at {:.1} ms and persist to {:.1} ms",
        tl.t_fault.as_ms(),
        tl.total.as_ms()
    );
    for (name, r) in [("no_recovery", &base), ("recovery", &rec)] {
        println!("\n[{name}]");
        for (ds, phases) in [("hi", &r.hi), ("lo", &r.lo)] {
            for (phase, p) in ["pre", "fault", "recovered"].iter().zip(phases.iter()) {
                println!(
                    "  {ds:>2} {phase:>9}: p95 {:>10.1} ns  mean {:>9.1} ns  ({} reqs)",
                    p.p95_ns, p.mean_ns, p.samples
                );
            }
        }
        println!(
            "  ide drops={} bytes={}  nic delivered={} dropped={}  hi prio={} waymask={:#06x}",
            r.ide_drops,
            r.ide_bytes,
            r.nic_frames,
            r.nic_dropped,
            r.hi_priority_after,
            r.hi_waymask_after
        );
    }
    let over = |r: &pard_bench::fig_fault_scenario::RunOutput| {
        (r.hi[2].p95_ns / r.hi[0].p95_ns.max(1e-9) - 1.0) * 100.0
    };
    println!(
        "\nhi p95 over healthy baseline: {:+.1}% with recovery, {:+.1}% without",
        over(&rec),
        over(&base)
    );

    save_json("fig_fault.json", &doc);
}
