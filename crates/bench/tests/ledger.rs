//! Per-machine conservation ledgers under strict auditing.
//!
//! Every `Simulation` owns its audit ledger and lends it to whichever
//! thread runs it, for the length of the call. Audited machines must
//! therefore stay clean, and unperturbed, however they share threads:
//! interleaved call by call on one thread, or moved to a fresh thread
//! for every call. Both machines allocate packet ids from zero, so a
//! ledger keyed by thread would see the second machine's packets as
//! duplicate injections of the first's.

use std::sync::Arc;

use pard::{CoreStats, DsId, LDomSpec, PardServer, SystemConfig, Time};
use pard_sim::audit::{AuditConfig, Auditor};
use pard_sim::RunConfig;
use pard_workloads::{CacheFlush, DiskCopy, DiskCopyConfig};

/// Number of `run_for` calls per run, and the span of each.
const STEPS: u32 = 20;
const STEP: Time = Time::from_us(500);

/// A two-core machine driving every audited flow: cache traffic on core 0
/// (crossbar and LLC → DRAM), a disk copy on core 1 (core → bridge → IDE,
/// DMA into DRAM, completion interrupts). It reports to `auditor`.
fn machine(auditor: &Arc<Auditor>) -> PardServer {
    let mut server = PardServer::new(SystemConfig {
        run: RunConfig {
            auditor: Some(auditor.clone()),
            ..RunConfig::default()
        },
        ..SystemConfig::small_test()
    });
    for (i, name) in ["mem-ldom", "disk-ldom"].iter().enumerate() {
        server
            .create_ldom(LDomSpec::new(*name, vec![i], 16 << 20))
            .expect("create ldom");
    }
    server.install_engine(0, Box::new(CacheFlush::new(0x10_0000, 1 << 20)));
    server.install_engine(
        1,
        Box::new(DiskCopy::new(DiskCopyConfig {
            disk: 0,
            block_bytes: 256 * 1024,
            count: 4,
            ..DiskCopyConfig::default()
        })),
    );
    server.launch(DsId::new(0)).expect("launch mem-ldom");
    server.launch(DsId::new(1)).expect("launch disk-ldom");
    server
}

/// What a harness would record from a finished run.
#[derive(Debug, PartialEq)]
struct Outputs {
    now: Time,
    events: u64,
    served: u64,
    llc: (u64, u64),
    disk_bytes: u64,
    cores: Vec<CoreStats>,
}

fn outputs(server: &mut PardServer) -> Outputs {
    Outputs {
        now: server.now(),
        events: server.events_processed(),
        served: server.mem_served_total(),
        llc: server.llc_counts(DsId::new(0)),
        disk_bytes: server.disk_progress(DsId::new(1)).bytes_done,
        cores: (0..server.core_count())
            .map(|c| server.core_stats(c))
            .collect(),
    }
}

#[test]
fn audited_machines_keep_their_own_ledgers_across_threads() {
    let auditor = Arc::new(Auditor::new(AuditConfig::strict()).unwrap());
    let machine = || machine(&auditor);

    let mut solo = machine();
    for _ in 0..STEPS {
        solo.run_for(STEP);
    }
    let expected = outputs(&mut solo);
    assert!(
        expected.disk_bytes > 0 && expected.llc.0 + expected.llc.1 > 0,
        "{expected:?}"
    );

    // Two machines interleaved call by call on this thread.
    let (mut a, mut b) = (machine(), machine());
    for _ in 0..STEPS {
        a.run_for(STEP);
        b.run_for(STEP);
    }
    // A third moved to a fresh thread for every call.
    let mut c = machine();
    for _ in 0..STEPS {
        c = std::thread::spawn(move || {
            c.run_for(STEP);
            c
        })
        .join()
        .expect("step thread");
    }

    assert_eq!(
        auditor.violations_total(),
        0,
        "{:?}",
        auditor.first_violation()
    );
    assert!(
        auditor.deliveries_observed() > 0,
        "the machines were audited"
    );
    assert_eq!(outputs(&mut a), expected, "interleaved machine A");
    assert_eq!(outputs(&mut b), expected, "interleaved machine B");
    assert_eq!(outputs(&mut c), expected, "migrating machine C");
}
