//! Golden-value determinism test for the Figure 11 scenario.
//!
//! The whole point of the first-party RNG stack is that a fixed seed
//! reproduces a figure exactly, on any host, with no network access. This
//! test replays a scaled-down Figure 11 (4 000 requests instead of
//! 200 000) and pins the exact numbers it produced when the hermetic RNG
//! landed. If these ever drift, either the RNG stream or the memory
//! controller's arbitration changed — both are things a reviewer must see.
//!
//! The same contract one level down: a machine's delivered schedule must
//! not depend on how its caller slices the run into `run_for` calls.

use pard::{DsId, PardServer, Time};
use pard_bench::fig11_scenario::{run, run_pair, summary_json};
use pard_bench::{install_llc_trigger, install_llc_trigger_scenario};

const RATE: f64 = 0.55;
const REQUESTS: u64 = 4_000;

#[test]
fn fig11_golden_values_reproduce() {
    let base = run(RATE, false, REQUESTS);
    let pard = run(RATE, true, REQUESTS);

    // Means in memory cycles. Exact equality on purpose: every quantity
    // derives from integer simulated-time units, so there is no
    // platform-dependent float path to excuse drift.
    assert_eq!(base.mean_all, 14.2, "baseline mean queueing delay");
    assert_eq!(pard.mean_high, 2.0, "high-priority mean queueing delay");
    assert_eq!(pard.mean_low, 14.8, "low-priority mean queueing delay");

    assert_eq!(base.cdf_low.len(), 323, "baseline CDF sample count");
    assert_eq!(pard.cdf_high.last().copied(), Some((28.6, 1.0)));

    // The headline relationship the figure exists to show.
    assert!(pard.mean_high < base.mean_all);
    assert!(pard.mean_low >= base.mean_all);
}

#[test]
fn fig11_runs_are_identical() {
    let a = run(RATE, true, 1_000);
    let b = run(RATE, true, 1_000);
    assert_eq!(a.mean_high, b.mean_high);
    assert_eq!(a.mean_low, b.mean_low);
    assert_eq!(a.cdf_high, b.cdf_high);
    assert_eq!(a.cdf_low, b.cdf_low);
}

/// The parallel runner must not affect results: the fig11 JSON rendered
/// from a `par_map`-driven pair is byte-identical whether the pool has
/// one worker or eight. Both thread counts run inside a single test
/// (env vars are process-global, so splitting this across tests would
/// race under the parallel test harness).
#[test]
fn fig11_json_is_byte_identical_across_thread_counts() {
    let render = || {
        let (base, pard) = run_pair(RATE, REQUESTS);
        summary_json(RATE, &base, &pard).to_string_pretty()
    };

    std::env::set_var("PARD_THREADS", "1");
    let serial = render();
    std::env::set_var("PARD_THREADS", "8");
    let parallel = render();
    std::env::remove_var("PARD_THREADS");

    assert_eq!(
        serial, parallel,
        "fig11 JSON must not depend on PARD_THREADS"
    );
}

/// Byte-identity pin for the lock-free statistics path. Every per-access
/// statistic feeding this figure is now recorded through the sharded
/// atomic cells (`StatsHandle::add`) instead of under the control-plane
/// mutex; the rendered summary JSON must still match the committed
/// golden byte for byte. Regenerate with `PARD_BLESS=1` after an
/// *intentional* scenario change — never to paper over drift.
#[test]
fn fig11_summary_matches_committed_golden() {
    let (base, pard) = run_pair(RATE, REQUESTS);
    let json = summary_json(RATE, &base, &pard).to_string_pretty();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/goldens/fig11_summary.json"
    );
    if std::env::var_os("PARD_BLESS").is_some() {
        std::fs::write(path, &json).unwrap();
    }
    let golden = std::fs::read_to_string(path)
        .expect("committed fig11 golden (PARD_BLESS=1 regenerates it)");
    assert_eq!(
        json, golden,
        "fig11 summary drifted from the committed golden"
    );
}

/// The observables of the fig09 machine — memcached plus three STREAM
/// LDoms launched, the LLC trigger armed — after `slices` equal
/// `run_for` calls covering `total`: events delivered, DRAM requests
/// served, per-DS LLC `(hits, misses)` and per-core operation counts.
fn sliced_fig09_machine(total: Time, slices: u64) -> (u64, u64, Vec<(u64, u64)>, Vec<u64>) {
    let (mut server, mc): (PardServer, DsId) =
        install_llc_trigger_scenario(20_000.0, &pard_sim::RunConfig::default());
    install_llc_trigger(&mut server, mc);
    for ds in 0..=3u16 {
        server.launch(DsId::new(ds)).expect("launch");
    }
    for _ in 0..slices {
        server.run_for(total / slices);
    }
    assert_eq!(server.now(), total);
    let llc = (0..=3u16)
        .map(|ds| server.llc_counts(DsId::new(ds)))
        .collect();
    let ops = (0..server.core_count())
        .map(|core| server.core_stats(core).ops)
        .collect();
    (
        server.events_processed(),
        server.mem_served_total(),
        llc,
        ops,
    )
}

/// One `run_for(10 µs)` and ten `run_for(1 µs)` calls must deliver the
/// same events: a kernel that holds events outside its queue between
/// calls (staged cross-domain batches, say) loses or reorders them at
/// every call boundary.
#[test]
fn fig09_machine_is_independent_of_run_call_boundaries() {
    let total = Time::from_us(10);
    let whole = sliced_fig09_machine(total, 1);
    let sliced = sliced_fig09_machine(total, 10);
    assert!(whole.0 > 1_000, "the span must be busy: {} events", whole.0);
    assert_eq!(whole, sliced, "(events, served, llc counts, core ops)");
}
