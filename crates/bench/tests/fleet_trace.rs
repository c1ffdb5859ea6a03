//! A traced, fault-injected fleet replays byte for byte at every
//! `PARD_THREADS` setting.
//!
//! `run_fleet` steps its machines in parallel each epoch, so each slice
//! of a machine's epoch runs on whichever `par_slices` worker picks it
//! up. Each machine's trace
//! sample countdowns and fault decisions travel with it (the lent run
//! state), so the fleet's outcome and the *set* of trace lines it keeps
//! are the same at 1 and 4 workers, and at the ambient setting (CI runs
//! this file under `PARD_THREADS=2`). Lines from different machines
//! interleave in the sink in thread order, so the comparison is on the
//! sorted lines.
//!
//! One test owns the whole matrix because `PARD_THREADS` is
//! process-global state.

use std::sync::Arc;

use pard_bench::replay::stream_trace_lines;
use pard_fleet::{run_fleet, FleetConfig, FleetOutcome};
use pard_sim::fault::{FaultKind, FaultPlan};
use pard_sim::trace::{TraceCat, TraceConfig, Tracer};
use pard_sim::{RunConfig, Time};

/// Outcome debug text plus the sorted trace lines of one fleet run, its
/// machines and manager tracing into one fresh tracer whose scratch file
/// is named after `run`.
fn traced_fleet(cfg: &FleetConfig, run: &str) -> (String, Vec<String>) {
    let path = std::env::temp_dir().join(format!(
        "pard-fleet-trace-{}-{run}.jsonl",
        std::process::id()
    ));
    let tracer = Arc::new(
        Tracer::new(TraceConfig {
            // The kernel category kept 1-in-7: a per-process countdown
            // would keep a thread-timing-dependent subset.
            sample: vec![
                (TraceCat::Kernel, 7),
                (TraceCat::Dram, 5),
                (TraceCat::Llc, 3),
            ],
            ..TraceConfig::to_file(&path)
        })
        .expect("create tracer"),
    );
    let cfg = FleetConfig {
        run: RunConfig {
            tracer: Some(tracer.clone()),
            ..cfg.run.clone()
        },
        ..cfg.clone()
    };
    let out: FleetOutcome = run_fleet(&cfg);
    let emitted = tracer.lines_emitted();
    tracer.disable();
    let mut lines = Vec::new();
    stream_trace_lines(path.to_str().unwrap(), 0, &mut |_, line| {
        lines.push(line.to_string());
        Ok(())
    })
    .unwrap_or_else(|errs| panic!("{errs:?}"));
    std::fs::remove_file(&path).ok();
    assert_eq!(
        lines.len() as u64,
        emitted,
        "the file holds every kept event"
    );
    lines.sort_unstable();
    (format!("{out:?}"), lines)
}

#[test]
fn traced_faulted_fleet_is_identical_across_thread_counts() {
    let mut cfg = FleetConfig {
        epochs: 3,
        warmup_epochs: 1,
        flash_from_epoch: 1,
        armed: true,
        ..FleetConfig::default_scale()
    }
    .scaled(0.1);
    // Every fault class, from the first epoch to past the end, on every
    // machine.
    let (start, end) = (Time::from_us(50), cfg.total_span() + Time::from_us(1));
    let plan = FaultPlan::new(5)
        .with(
            start,
            end,
            FaultKind::DramSlow {
                banks: None,
                extra: Time::from_ns(10),
            },
        )
        .with(
            start,
            end,
            FaultKind::XbarBackpressure {
                port: None,
                extra: Time::from_ns(5),
            },
        )
        .with(start, end, FaultKind::NicFlap { loss_pct: 30 })
        .with(
            start,
            end,
            FaultKind::IdeDegrade {
                quota_pct: 50,
                drop_one_in: 4,
            },
        );
    cfg.run = RunConfig {
        faults: Some(Arc::new(plan)),
        ..RunConfig::default()
    };

    let ambient = std::env::var("PARD_THREADS").ok();
    let at_ambient = traced_fleet(&cfg, "ambient");
    std::env::set_var("PARD_THREADS", "1");
    let one = traced_fleet(&cfg, "t1");
    std::env::set_var("PARD_THREADS", "4");
    let four = traced_fleet(&cfg, "t4");
    match ambient {
        Some(v) => std::env::set_var("PARD_THREADS", v),
        None => std::env::remove_var("PARD_THREADS"),
    }

    let kernel = one
        .1
        .iter()
        .filter(|l| l.contains("\"cat\":\"kernel\""))
        .count();
    assert!(
        kernel > 100,
        "the kernel category must be sampled: {kernel} lines"
    );
    assert_eq!(
        one.0, four.0,
        "fleet outcome must not depend on PARD_THREADS"
    );
    assert!(
        one.1 == four.1,
        "kept trace lines must not depend on PARD_THREADS"
    );
    assert_eq!(one.0, at_ambient.0, "outcome at the ambient PARD_THREADS");
    assert!(one.1 == at_ambient.1, "trace at the ambient PARD_THREADS");
}
