//! Invariant-auditor integration tests.
//!
//! Three properties the audit subsystem must uphold, each with an
//! auditor of its own:
//!
//! 1. **Observer purity** — an audited fig11 run renders byte-identical
//!    figure JSON to an unaudited run, with zero violations reported;
//!    a strict-audited fig_wfq pair gives the unaudited shares and
//!    audits clean.
//! 2. **DS-id preservation** — a full-machine run with cache and disk
//!    LDoms completes with zero `ds_preservation` (and every other)
//!    violations while every instrumented domain saw traffic.
//! 3. **Fault detection** — a deliberately misrouted packet (a memory
//!    request posted at the NIC) is caught and reported as a conservation
//!    violation instead of being silently dropped.

use std::path::PathBuf;
use std::sync::Arc;

use pard::{DsId, LDomSpec, PardServer, SystemConfig, Time};
use pard_bench::fig11_scenario::{run_pair, run_pair_with, summary_json};
use pard_bench::fig_wfq_scenario;
use pard_icn::{LAddr, MemKind, MemPacket, PacketId, PardEvent};
use pard_sim::audit::{AuditConfig, AuditKind, Auditor};
use pard_sim::RunConfig;
use pard_workloads::{CacheFlush, DiskCopy, DiskCopyConfig};

/// A report-mode auditor writing its violations to `path`, if given.
fn auditor(path: Option<PathBuf>) -> Arc<Auditor> {
    Arc::new(
        Auditor::new(AuditConfig {
            path,
            ..AuditConfig::report()
        })
        .expect("create auditor"),
    )
}

fn audited(auditor: &Arc<Auditor>) -> RunConfig {
    RunConfig {
        auditor: Some(auditor.clone()),
        ..RunConfig::default()
    }
}

/// A small test machine reporting to `auditor`.
fn machine(auditor: &Arc<Auditor>) -> PardServer {
    PardServer::new(SystemConfig {
        run: audited(auditor),
        ..SystemConfig::small_test()
    })
}

/// A scratch directory of this test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pard-audit-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir tempdir");
    dir
}

#[test]
fn audit_is_a_pure_observer_of_fig11() {
    let render = |run: &RunConfig| {
        let (base, pard) = run_pair_with(0.55, 1_000, run);
        summary_json(0.55, &base, &pard).to_string_pretty()
    };
    let unaudited = render(&RunConfig::default());
    assert_eq!(
        unaudited,
        {
            let (base, pard) = run_pair(0.55, 1_000);
            summary_json(0.55, &base, &pard).to_string_pretty()
        },
        "run_pair is the unobserved run"
    );

    let dir = scratch("pure");
    let a = auditor(Some(dir.join("audit.jsonl")));
    let audited = render(&audited(&a));
    assert_eq!(
        unaudited, audited,
        "auditing must be a pure observer: figure JSON changed"
    );
    assert_eq!(
        a.violations_total(),
        0,
        "fig11 must audit clean: {:?}",
        a.first_violation()
    );
    assert!(a.deliveries_observed() > 0, "both runs were audited");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig_wfq_audits_clean_under_strict_audit() {
    // The `fig_wfq` binary hands `RunConfig::from_env()` to both runs, so
    // CI's `PARD_AUDIT=strict` step audits them: a short pair here, with
    // a strict auditor of its own, must deliver events and find nothing.
    let a = Arc::new(Auditor::new(AuditConfig::strict()).expect("create auditor"));
    let (base, wfq) = fig_wfq_scenario::run_pair_with(3.0, 2_000, &audited(&a));
    assert_eq!(
        (base, wfq),
        fig_wfq_scenario::run_pair(3.0, 2_000),
        "auditing must be a pure observer of fig_wfq"
    );
    assert_eq!(a.violations_total(), 0, "{:?}", a.first_violation());
    assert!(a.deliveries_observed() > 0, "both runs were audited");
}

#[test]
fn a_full_machine_preserves_ds_tags() {
    // A cache-heavy LDom and a disk LDom drive every instrumented packet
    // domain: xbar (core -> LLC), mem (LLC -> DRAM), disk (core -> IDE),
    // dma (IDE -> bridge -> DRAM), and IDE completion interrupts.
    let a = auditor(None);
    let mut server = machine(&a);
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
    server.run_for(Time::from_ms(40));

    assert!(
        a.deliveries_observed() > 0,
        "the audit hook must observe kernel deliveries"
    );
    let disk = server.disk_progress(DsId::new(1));
    assert_eq!(disk.bytes_done, 4 * 256 * 1024, "DiskCopy must finish");
    let (hits, misses) = server.llc_counts(DsId::new(0));
    assert!(hits + misses > 0, "CacheFlush must reach the LLC");
    for kind in AuditKind::ALL {
        assert_eq!(
            a.violations_by_kind(kind),
            0,
            "zero {} violations expected: {:?}",
            kind.name(),
            a.first_violation()
        );
    }
}

#[test]
fn a_misrouted_packet_is_a_conservation_violation() {
    // Misroute a plain (non-DMA) memory request to the NIC: release
    // builds used to swallow it in a `debug_assert!(false)` arm.
    let dir = scratch("misrouted");
    let report = dir.join("audit.jsonl");
    let a = auditor(Some(report.clone()));
    {
        let mut server = machine(&a);
        let nic = server.nic_id();
        let before = a.violations_by_kind(AuditKind::Conservation);
        server.post(
            nic,
            Time::ZERO,
            PardEvent::MemReq(MemPacket {
                id: PacketId(777),
                ds: DsId::new(3),
                addr: LAddr::new(0x40),
                kind: MemKind::Read,
                size: 64,
                reply_to: nic,
                issued_at: Time::ZERO,
                dma: false,
            }),
        );
        server.run_for(Time::from_us(10));
        assert_eq!(
            a.violations_by_kind(AuditKind::Conservation),
            before + 1,
            "the misrouted packet must surface as a conservation violation"
        );
        assert_eq!(server.sim_mut().unexpected_events(), 1);
        let first = a.first_violation().expect("a recorded violation");
        assert!(
            first.contains("\"check\":\"unexpected_event\"") && first.contains("\"nic\""),
            "unexpected violation record: {first}"
        );
    }

    // Dropping the server appended its summary line to the sink.
    let content = std::fs::read_to_string(&report).expect("read audit report");
    assert!(
        content.contains("unexpected_event"),
        "the sink must hold the seeded violation: {content:?}"
    );
    assert!(content.contains("\"kind\":\"summary\""), "{content:?}");
    std::fs::remove_dir_all(&dir).ok();
}
