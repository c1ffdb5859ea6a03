//! `PARD_THREADS` byte-identity matrix over the figure scenarios, with
//! tracing and strict auditing live for the whole run.
//!
//! fig09 and fig10 are single timelines; fig11 and the fault figure fan
//! their runs across the `par_map` worker pool, so this pins that pool's
//! placement under trace and audit. All four must render the same bytes
//! at every thread setting. One test owns the whole matrix because
//! `PARD_THREADS` is process-global state.

use std::sync::Arc;

use pard_bench::fig11_scenario;
use pard_bench::fig_fault_scenario::{self, Timeline};
use pard_bench::{fig09_scenario, fig10_scenario};
use pard_sim::audit::{AuditConfig, Auditor};
use pard_sim::trace::{TraceConfig, Tracer};
use pard_sim::RunConfig;

#[test]
fn figure_outputs_are_byte_identical_across_thread_counts() {
    // All categories into a scratch binary store (default sampling), and
    // panic on the first conservation violation: a run that loses or
    // duplicates a packet must fail here, not drift a figure.
    let path =
        std::env::temp_dir().join(format!("pard-thread-identity-{}.ptr", std::process::id()));
    let tracer = Arc::new(Tracer::new(TraceConfig::to_file(&path)).unwrap());
    let auditor = Arc::new(Auditor::new(AuditConfig::strict()).unwrap());
    let run = RunConfig {
        tracer: Some(tracer.clone()),
        auditor: Some(auditor.clone()),
        ..RunConfig::default()
    };

    let render = || {
        let f9 = fig09_scenario::run_timeline(0.25, &run);
        // A shortened fig10 span: the quota echo still lands mid-run, but
        // the disk copies only cover a quarter of the default timeline.
        let f10 = fig10_scenario::run_span(
            2,
            pard_sim::Time::from_ms(200),
            pard_sim::Time::from_ms(100),
            &run,
        );
        let (b11, p11) = fig11_scenario::run_pair_with(0.55, 4_000, &run);
        let tl = Timeline::at_scale(0.25);
        let (bf, rf) = fig_fault_scenario::run_pair(tl, &run);
        format!(
            "{:?}\n{:?}\n{}\n{}",
            (f9.total, f9.stream_start, f9.fired_at, f9.series),
            (f10.total, f10.echo_at, f10.shares),
            fig11_scenario::summary_json(0.55, &b11, &p11).to_string_pretty(),
            fig_fault_scenario::summary_json(tl, &bf, &rf).to_string_pretty(),
        )
    };

    std::env::set_var("PARD_THREADS", "1");
    let one = render();
    std::env::set_var("PARD_THREADS", "4");
    let four = render();
    std::env::remove_var("PARD_THREADS");

    assert_eq!(auditor.violations_total(), 0, "strict audit stayed clean");
    assert!(tracer.lines_emitted() > 0, "the runs were traced");
    tracer.disable();
    std::fs::remove_file(&path).ok();

    assert_eq!(one, four, "figure bytes must not depend on PARD_THREADS");
}
