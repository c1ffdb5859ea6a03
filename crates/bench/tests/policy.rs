//! Policy-layer equivalence suite: the built-in policy programs ARE the
//! previously hardcoded behaviors.
//!
//! Every figure scenario is rendered twice — once running on the
//! built-in default programs, and once with those same program texts
//! explicitly installed through [`ControlPlane::install_policy`] (the
//! operator path: fresh epoch, generation bump, `policy_installed()`
//! true). The bytes must not move: an installed program whose text
//! matches the built-in is indistinguishable from the hardcoded default.
//!
//! The matrix also crosses `PARD_THREADS` 1 vs 4 under strict auditing,
//! in one test because `PARD_THREADS` is process-global state.

use std::sync::Arc;

use pard::PardServer;
use pard_bench::fig_fault_scenario::{self, Timeline};
use pard_bench::{fig09_scenario, fig10_scenario, fig11_scenario};
use pard_cp::ControlPlane;
use pard_sim::audit::{AuditConfig, Auditor};
use pard_sim::{RunConfig, Time};

/// Reinstalls each plane's active built-in program as an explicitly
/// installed policy, byte-for-byte.
fn reinstall_builtin(cp: &mut ControlPlane) {
    let src = cp.policy_source().to_string();
    if src.is_empty() {
        // This plane's data path is not policy-driven (e.g. the LLC,
        // whose waymasks stay plain parameters).
        return;
    }
    cp.install_policy(&src)
        .expect("built-in program text recompiles against its own plane");
    assert!(cp.policy_installed(), "install must shadow the default");
}

fn reinstall_all_builtins(server: &mut PardServer) {
    for cp in [
        server.llc_cp(),
        server.mem_cp(),
        server.bridge_cp(),
        server.ide_cp(),
        server.nic_cp(),
    ] {
        reinstall_builtin(&mut cp.lock());
    }
}

/// Renders shortened fig09/fig10/fig11/fig_fault timelines, run under
/// `run`, to one string.
fn render(explicit: bool, run: &RunConfig) -> String {
    let setup = move |server: &mut PardServer| {
        if explicit {
            reinstall_all_builtins(server);
        }
    };
    let cp_setup = move |cp: &mut ControlPlane| {
        if explicit {
            reinstall_builtin(cp);
        }
    };

    let f9 = fig09_scenario::run_span_with(Time::from_ms(80), run, setup);
    let f10 = fig10_scenario::run_span_with(2, Time::from_ms(200), Time::from_ms(100), run, setup);
    let b11 = fig11_scenario::run_with(0.55, false, 4_000, run, cp_setup);
    let p11 = fig11_scenario::run_with(0.55, true, 4_000, run, cp_setup);
    let tl = Timeline::at_scale(0.25);
    let bf = fig_fault_scenario::run_with(false, tl, run, setup);
    let rf = fig_fault_scenario::run_with(true, tl, run, setup);
    format!(
        "{:?}\n{:?}\n{}\n{}",
        (f9.total, f9.stream_start, f9.fired_at, f9.series),
        (f10.total, f10.echo_at, f10.shares),
        fig11_scenario::summary_json(0.55, &b11, &p11).to_string_pretty(),
        fig_fault_scenario::summary_json(tl, &bf, &rf).to_string_pretty(),
    )
}

#[test]
fn installed_builtin_text_is_byte_identical_to_the_default_path() {
    let auditor = Arc::new(Auditor::new(AuditConfig::strict()).unwrap());
    let run = RunConfig {
        auditor: Some(auditor.clone()),
        ..RunConfig::default()
    };

    let mut renders = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("PARD_THREADS", threads);
        let builtin = render(false, &run);
        let explicit = render(true, &run);
        assert_eq!(
            builtin, explicit,
            "installing the built-in program text must not move figure \
             bytes (PARD_THREADS={threads})"
        );
        renders.push(builtin);
    }
    std::env::remove_var("PARD_THREADS");

    assert_eq!(auditor.violations_total(), 0, "strict audit stayed clean");

    assert_eq!(
        renders[0], renders[1],
        "figure bytes must not depend on PARD_THREADS"
    );
}
