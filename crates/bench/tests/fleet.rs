//! Fleet-layer acceptance: the `fig_fleet` consolidation cells are
//! byte-identical across `PARD_THREADS` settings and across reruns with
//! strict auditing live, the armed manager's reaction ladder actually
//! recovers the best-effort tier at the highest consolidation ratio, and
//! a full re-shard → drain → retire → migrate episode completes with
//! every conservation ledger clean.
//!
//! One test owns the whole matrix because `PARD_THREADS` is
//! process-global state (same convention as `tests/thread_identity.rs`).

use std::sync::Arc;

use pard_bench::fig_fleet_scenario::{sweep_json, FleetCell};
use pard_fleet::{run_consolidation, FleetConfig};
use pard_sim::audit::{AuditConfig, Auditor};
use pard_sim::RunConfig;

/// The default-scale ratio-4 pair (disarmed, then armed) — the cell of
/// the figure where consolidation hurts and the manager's reaction is
/// supposed to help.
fn ratio4_pair(base: &FleetConfig) -> Vec<FleetCell> {
    [false, true]
        .into_iter()
        .map(|armed| FleetCell {
            ratio: 4,
            armed,
            outcome: run_consolidation(base, 4, armed),
        })
        .collect()
}

#[test]
fn fleet_runs_replay_byte_identically_and_reactions_recover_the_slo() {
    // Panic-free strict accounting for every run in this test: a fleet
    // reaction that loses or duplicates a request (or a cache line, or a
    // byte of LDom memory) must fail here, not drift a percentile.
    let auditor = Arc::new(Auditor::new(AuditConfig::strict()).unwrap());
    let run = RunConfig {
        auditor: Some(auditor.clone()),
        ..RunConfig::default()
    };
    let base = FleetConfig {
        run: run.clone(),
        ..FleetConfig::default_scale()
    };

    std::env::set_var("PARD_THREADS", "1");
    let one = sweep_json(&base, &ratio4_pair(&base)).to_string_pretty();
    // Three machines on two workers: epoch slices move between threads.
    std::env::set_var("PARD_THREADS", "2");
    let two = sweep_json(&base, &ratio4_pair(&base)).to_string_pretty();
    std::env::set_var("PARD_THREADS", "4");
    let cells = ratio4_pair(&base);
    let four = sweep_json(&base, &cells).to_string_pretty();
    let again = sweep_json(&base, &ratio4_pair(&base)).to_string_pretty();
    std::env::remove_var("PARD_THREADS");

    assert_eq!(one, two, "fleet bytes must not depend on PARD_THREADS");
    assert_eq!(one, four, "fleet bytes must not depend on PARD_THREADS");
    assert_eq!(four, again, "a fleet rerun must replay bit-for-bit");

    // The consolidation story the figure tells: at ratio 4 the disarmed
    // fleet breaks the best-effort SLO, the armed manager re-shards and
    // strictly improves both the attainment and the tail itself.
    let (disarmed, armed) = (&cells[0].outcome, &cells[1].outcome);
    assert!(
        disarmed.best_effort.attain_p95 < 1.0,
        "ratio 4 disarmed should violate the best-effort p95 SLO, got {:.3}",
        disarmed.best_effort.attain_p95
    );
    assert!(armed.reshards >= 1, "the armed manager should re-shard");
    assert!(
        armed.best_effort.attain_p95 > disarmed.best_effort.attain_p95,
        "re-sharding should recover best-effort p95 attainment \
         (armed {:.3} vs disarmed {:.3})",
        armed.best_effort.attain_p95,
        disarmed.best_effort.attain_p95
    );
    assert!(
        armed.best_effort.p99 < disarmed.best_effort.p99,
        "re-sharding should shorten the best-effort p99 tail \
         (armed {:?} vs disarmed {:?})",
        armed.best_effort.p99,
        disarmed.best_effort.p99
    );
    assert_eq!(
        armed.guaranteed.attain_p99, 1.0,
        "the guaranteed tier must stay whole while the manager reacts"
    );

    // Migration acceptance: at ratio 1 with quick epochs the flash-crowd
    // tenant escalates with headroom everywhere, so the ladder runs to its
    // end — re-shard, repeat escalation, drain, retire, migrate — and the
    // SLOs hold right through the churn.
    let quick = base.clone().scaled(0.25);
    let moved = run_consolidation(&quick, 1, true);
    assert!(
        moved.migrations >= 1,
        "the flash tenant should migrate, got {} migrations after {} reshards",
        moved.migrations,
        moved.reshards
    );
    assert_eq!(
        moved.best_effort.attain_p95, 1.0,
        "an uncontended fleet must hold the best-effort SLO through a migration"
    );
    assert_eq!(
        moved.guaranteed.attain_p95, 1.0,
        "an uncontended fleet must hold the guaranteed SLO through a migration"
    );

    assert_eq!(
        auditor.violations_total(),
        0,
        "every conservation ledger must balance across re-shard and migration"
    );
    assert!(auditor.deliveries_observed() > 0, "the fleets were audited");
}
