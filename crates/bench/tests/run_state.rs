//! Per-machine run state: fault decisions and trace sampling belong to
//! the simulated machine, not to the thread that runs it.
//!
//! Every `Simulation` lends its run state (audit ledger, trace sample
//! countdowns, fault decision state) to whichever thread runs it, for the
//! length of the call. A machine's NIC frame losses and IDE request drops
//! therefore replay its solo run however machines share threads, and one
//! machine's sampled trace is exactly the subset the documented rule
//! picks out of its full trace: DS-id filter first, then the first and
//! every N-th event of each category.
//!
//! Fault plans and the tracer are process-global configuration, so the
//! tests in this file take turns through [`GLOBALS`].

use std::sync::Mutex;

use pard::{CoreStats, DsId, LDomSpec, PardServer, SystemConfig, Time};
use pard_icn::{NetFrame, PardEvent};
use pard_sim::fault::{self, FaultKind, FaultPlan};
use pard_sim::trace::{self, TraceCat, TraceConfig};
use pard_workloads::{CacheFlush, DiskCopy, DiskCopyConfig};

static GLOBALS: Mutex<()> = Mutex::new(());

/// Number of `run_for` calls per run, and the span of each.
const STEPS: u32 = 20;
const STEP: Time = Time::from_us(400);

const MAC: [u8; 6] = [0x02, 0, 0, 0, 0, 0x07];

/// A two-core machine with NIC and IDE traffic: cache traffic on core 0,
/// whose LDom owns the v-NIC that receives a frame every 5 µs; a disk
/// copy on core 1.
fn machine() -> PardServer {
    machine_with(SystemConfig::small_test())
}

fn machine_with(cfg: SystemConfig) -> PardServer {
    let mut server = PardServer::new(cfg);
    server
        .create_ldom(LDomSpec::new("net-ldom", vec![0], 16 << 20).with_mac(MAC))
        .expect("create net-ldom");
    server
        .create_ldom(LDomSpec::new("disk-ldom", vec![1], 16 << 20).disk_quota(100))
        .expect("create disk-ldom");
    server.install_engine(0, Box::new(CacheFlush::new(0x10_0000, 1 << 20)));
    server.install_engine(
        1,
        Box::new(DiskCopy::new(DiskCopyConfig {
            disk: 0,
            block_bytes: 64 * 1024,
            count: 1 << 20,
            ..DiskCopyConfig::default()
        })),
    );
    let nic = server.nic_id();
    let gap = Time::from_us(5);
    let mut at = gap;
    while at < STEP * u64::from(STEPS) {
        server.post(
            nic,
            at,
            PardEvent::NetFrame(NetFrame {
                dst_mac: MAC,
                bytes: 1500,
                arrived_at: at,
            }),
        );
        at = at + gap;
    }
    server.launch(DsId::new(0)).expect("launch net-ldom");
    server.launch(DsId::new(1)).expect("launch disk-ldom");
    server
}

/// What a harness would record from a finished run.
#[derive(Debug, PartialEq)]
struct Outputs {
    events: u64,
    served: u64,
    nic_frames: u64,
    nic_dropped: u64,
    ide_drops: u64,
    ide_bytes: u64,
    cores: Vec<CoreStats>,
}

fn outputs(server: &mut PardServer) -> Outputs {
    let stat = |cp: &pard_cp::CpHandle, ds: u16, name: &str| {
        cp.lock().stat(DsId::new(ds), name).expect("stat column")
    };
    let nic = server.nic_id();
    Outputs {
        events: server.events_processed(),
        served: server.mem_served_total(),
        nic_frames: stat(server.nic_cp(), 0, "frames"),
        nic_dropped: server
            .sim_mut()
            .with_component::<pard_io::Nic, _, _>(nic, |n| n.dropped()),
        ide_drops: stat(server.ide_cp(), 1, "drops"),
        ide_bytes: stat(server.ide_cp(), 1, "bytes"),
        cores: (0..server.core_count())
            .map(|c| server.core_stats(c))
            .collect(),
    }
}

#[test]
fn faulted_machines_keep_their_own_decisions_across_threads() {
    let _globals = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    // Both stateful fault classes strike for most of the run: 40 % frame
    // loss drawn from the plan-seeded stream, and every 3rd queued IDE
    // request considered under the degraded quota aborted.
    let start = Time::from_us(600);
    let end = Time::from_us(7_000);
    fault::install(
        FaultPlan::new(11)
            .with(start, end, FaultKind::NicFlap { loss_pct: 40 })
            .with(
                start,
                end,
                FaultKind::IdeDegrade {
                    quota_pct: 50,
                    drop_one_in: 3,
                },
            ),
    );

    let mut solo = machine();
    for _ in 0..STEPS {
        solo.run_for(STEP);
    }
    let expected = outputs(&mut solo);

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
    let (a, b, c) = (outputs(&mut a), outputs(&mut b), outputs(&mut c));

    fault::disable();
    let mut unfaulted = machine();
    for _ in 0..STEPS {
        unfaulted.run_for(STEP);
    }
    let unfaulted = outputs(&mut unfaulted);

    assert!(
        expected.nic_dropped > unfaulted.nic_dropped && expected.nic_frames > 0,
        "the flap must lose some frames and pass others: {expected:?} vs {unfaulted:?}"
    );
    assert!(
        expected.ide_drops > 0 && unfaulted.ide_drops == 0,
        "the degraded quota engine must abort requests: {expected:?}"
    );
    assert_eq!(a, expected, "interleaved machine A");
    assert_eq!(b, expected, "interleaved machine B");
    assert_eq!(c, expected, "migrating machine C");
}

/// The trace lines of one machine run for 200 µs, in two calls, under
/// `config`. Its IDE grants a quantum every 5 µs, so the control-path
/// categories see traffic in so short a span too.
fn traced_run(config: TraceConfig) -> Vec<String> {
    trace::install(TraceConfig {
        ring_capacity: 1 << 20,
        ..config
    })
    .expect("install tracer");
    let mut cfg = SystemConfig::small_test();
    cfg.ide.quantum = Time::from_us(5);
    let mut server = machine_with(cfg);
    for _ in 0..2 {
        server.run_for(Time::from_us(100));
    }
    let lines = trace::recent_lines();
    assert_eq!(
        lines.len() as u64,
        trace::lines_emitted(),
        "ring overflowed"
    );
    trace::disable();
    lines
}

/// `(category, DS-id)` of a rendered trace line.
fn cat_ds(line: &str) -> (TraceCat, u16) {
    let field = |key: &str| {
        let at = line.find(key).expect("key present") + key.len();
        line[at..]
            .split([',', '}'])
            .next()
            .expect("value")
            .trim_matches('"')
            .to_string()
    };
    let cat = TraceCat::parse(&field("\"cat\":")).expect("category");
    (cat, field("\"ds\":").parse().expect("ds"))
}

/// The documented sampling rule applied to a full trace: drop categories
/// that are off and DS-ids their filter excludes, then keep the first
/// and every `n`-th remaining event of each category.
fn reference_subset(full: &[String], config: &TraceConfig) -> Vec<String> {
    let default_div = |cat: TraceCat| match cat {
        TraceCat::Kernel => 1024,
        TraceCat::Llc | TraceCat::Dram => 256,
        _ => 1,
    };
    let mut seen = [0u32; TraceCat::ALL.len()];
    full.iter()
        .filter(|line| {
            let (cat, ds) = cat_ds(line);
            let terms: Vec<Option<u16>> = config
                .filter
                .iter()
                .filter(|(c, _)| *c == cat)
                .map(|(_, d)| *d)
                .collect();
            let admitted = if config.filter.is_empty() {
                true
            } else if terms.is_empty() {
                false
            } else {
                let allow: Vec<u16> = terms.iter().flatten().copied().collect();
                allow.is_empty() || allow.contains(&ds)
            };
            if !admitted {
                return false;
            }
            let div = config
                .sample
                .iter()
                .rev()
                .find(|(c, _)| *c == cat)
                .map_or(default_div(cat), |(_, d)| *d);
            let n = &mut seen[cat as usize];
            *n += 1;
            (*n - 1) % div == 0
        })
        .cloned()
        .collect()
}

#[test]
fn one_machine_keeps_the_documented_trace_subset() {
    let _globals = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let full = traced_run(TraceConfig {
        sample: TraceCat::ALL.iter().map(|&c| (c, 1)).collect(),
        ..TraceConfig::default()
    });
    for cat in [
        TraceCat::Kernel,
        TraceCat::Llc,
        TraceCat::Dram,
        TraceCat::Ide,
    ] {
        let n = full.iter().filter(|l| cat_ds(l).0 == cat).count();
        assert!(n > 20, "the run must exercise {cat:?}: {n} events");
    }

    let configs = [
        // Defaults: kernel 1/1024, llc and dram 1/256, the rest all.
        TraceConfig::default(),
        // Sample overrides only: the kernel samples its own category.
        TraceConfig {
            sample: vec![
                (TraceCat::Kernel, 64),
                (TraceCat::Llc, 16),
                (TraceCat::Dram, 4),
                (TraceCat::Ide, 3),
            ],
            ..TraceConfig::default()
        },
        // DS-restricted categories, sampled after their filter — the
        // kernel category included.
        TraceConfig {
            filter: vec![
                (TraceCat::Kernel, Some(1)),
                (TraceCat::Llc, Some(0)),
                (TraceCat::Dram, None),
                (TraceCat::Ide, Some(1)),
                (TraceCat::Io, None),
            ],
            sample: vec![
                (TraceCat::Kernel, 3),
                (TraceCat::Llc, 5),
                (TraceCat::Dram, 7),
                (TraceCat::Io, 2),
            ],
            ..TraceConfig::default()
        },
    ];
    for config in configs {
        let expected = reference_subset(&full, &config);
        let label = format!("{:?} / {:?}", config.filter, config.sample);
        let kept = traced_run(config);
        assert!(kept.len() > 20, "{label}: too few lines to compare");
        assert_eq!(kept, expected, "{label}");
    }
}
