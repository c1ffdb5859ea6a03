//! The `fig_fault` resilience scenario, shared by the `fig_fault` binary
//! and the fault-determinism tests.
//!
//! A PARD server is partitioned into three LDoms — `hi` (latency-critical,
//! but launched at **Normal** DRAM priority), `lo` (streaming bulk work)
//! and `io` (disk copy) — plus background NIC receive traffic for `hi`.
//! At `t_fault` a [`FaultPlan`] degrades every shared resource at once
//! (DRAM bank slowdown, crossbar backpressure, IDE quota cut + request
//! drops, NIC link flap) and keeps the faults active to the end of the
//! run.
//!
//! The reaction side is pure PARD "trigger ⇒ action": a
//! [`TriggerMode::DegradationPct`] trigger on `hi`'s `avg_qlat` memory
//! statistic detects the latency degradation, and its bound action — the
//! shipped [`pard_prm::recovery`] composite pardscript — re-prioritises
//! `hi`'s DRAM queue, reassigns LLC ways from the bulk LDom to `hi`, and
//! raises `hi`'s IDE quota, all through the `/sys` device-file tree. The
//! experiment runs the machine twice: once with the trigger bound to a
//! no-op monitor (`no_recovery`) and once bound to the recovery script
//! (`recovery`). The measured latency is each core's L1-miss service
//! latency — what the workload itself experiences — and `hi`'s p95
//! recovers only in the second run: with its working set refitted into
//! the LLC, `hi`'s requests stop reaching the faulted DRAM at all, while
//! `lo` absorbs the degradation in both runs.
//!
//! Everything is deterministic: the fault plan's RNG streams are seeded,
//! the machine itself is event-driven, and the two runs are fanned over
//! [`par_map`] the same way the Figure 11 pair is — so `fig_fault.json`
//! is byte-identical at any `PARD_THREADS`.
//!
//! [`TriggerMode::DegradationPct`]: pard::TriggerMode::DegradationPct

use pard::{Action, CmpOp, DsId, LDomSpec, PardServer, SystemConfig, Time, TriggerMode};
use pard_icn::{NetFrame, PardEvent};
use pard_prm::recovery;
use pard_sim::fault::{FaultKind, FaultPlan};
use pard_sim::par::par_map;
use pard_sim::RunConfig;
use pard_workloads::{DiskCopy, DiskCopyConfig, LbmProxy, Leslie3dProxy};

use crate::json::JsonValue;

/// DS-id of the latency-critical LDom.
pub const DS_HI: u16 = 0;
/// DS-id of the streaming bulk LDom.
pub const DS_LO: u16 = 1;
/// DS-id of the disk-copy LDom.
pub const DS_IO: u16 = 2;

/// MAC address of `hi`'s v-NIC (receives the background frame stream).
pub const MAC_HI: [u8; 6] = [0x02, 0x00, 0x00, 0x00, 0x00, 0x01];

/// Seed of the default fault plan's RNG streams.
pub const PLAN_SEED: u64 = 0xFA17;

/// Trigger action id bound on `hi`'s memory-CP row.
const ACTION_ID: u64 = 7;

/// Crossbar port the backpressure fault strikes: `lo`'s core. The
/// crossbar serialises per requesting component, so this is `lo`'s core
/// component id — deterministic for the asplos15 machine and asserted
/// against the live machine in [`run`].
pub const XBAR_FAULT_PORT: u32 = 8;

/// Scenario timeline (all boundaries scale with `--quick` / `--full`).
#[derive(Debug, Clone, Copy)]
pub struct Timeline {
    /// Warm-up span; its queueing samples are drained and discarded.
    pub warmup: Time,
    /// Fault-injection start == end of the healthy "pre" phase.
    pub t_fault: Time,
    /// End of the "fault" probe phase (covers injection + detection).
    pub fault_probe_end: Time,
    /// End of the run == end of the "recovered" phase. Fault windows run
    /// to this point, so the no-recovery machine never heals on its own.
    pub total: Time,
}

impl Timeline {
    /// The timeline at a `--quick`/`--full` duration scale (1.0 default).
    pub fn at_scale(scale: f64) -> Timeline {
        let ms = |x: f64| Time::from_us((x * scale * 1_000.0).max(100.0) as u64);
        Timeline {
            warmup: ms(2.0),
            t_fault: ms(8.0),
            fault_probe_end: ms(10.0),
            total: ms(24.0),
        }
    }
}

/// The built-in fault plan: all four fault classes strike at `t_fault`
/// and persist to the end of the run.
pub fn default_plan(tl: Timeline) -> FaultPlan {
    FaultPlan::new(PLAN_SEED)
        .with(
            tl.t_fault,
            tl.total,
            FaultKind::DramSlow {
                banks: None,
                extra: Time::from_ns(20),
            },
        )
        .with(
            tl.t_fault,
            tl.total,
            FaultKind::XbarBackpressure {
                port: Some(XBAR_FAULT_PORT),
                extra: Time::from_ns(50),
            },
        )
        .with(
            tl.t_fault,
            tl.total,
            FaultKind::IdeDegrade {
                quota_pct: 25,
                drop_one_in: 12,
            },
        )
        .with(tl.t_fault, tl.total, FaultKind::NicFlap { loss_pct: 25 })
}

/// Per-phase L1-miss service-latency statistics for one LDom's core.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStats {
    /// 95th-percentile miss service latency in nanoseconds.
    pub p95_ns: f64,
    /// Mean miss service latency in nanoseconds.
    pub mean_ns: f64,
    /// L1 misses sampled in the phase.
    pub samples: u64,
}

/// One machine run (either trigger binding).
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// `hi`'s pre / fault / recovered phase stats.
    pub hi: [PhaseStats; 3],
    /// `lo`'s pre / fault / recovered phase stats.
    pub lo: [PhaseStats; 3],
    /// `io`'s cumulative IDE `drops` statistic at end of run.
    pub ide_drops: u64,
    /// `io`'s cumulative IDE `bytes` statistic at end of run.
    pub ide_bytes: u64,
    /// `hi`'s v-NIC frames delivered.
    pub nic_frames: u64,
    /// Physical-NIC frames dropped (flap losses + unmatched MACs).
    pub nic_dropped: u64,
    /// `hi`'s DRAM `priority` parameter at end of run (1 after recovery).
    pub hi_priority_after: u64,
    /// `hi`'s LLC `waymask` parameter at end of run.
    pub hi_waymask_after: u64,
}

fn drain(server: &mut PardServer, core: usize) -> PhaseStats {
    let mut sample = server.with_core(core, |c| c.take_miss_latency());
    PhaseStats {
        p95_ns: sample.percentile(0.95).as_ns(),
        mean_ns: sample.mean().as_ns(),
        samples: sample.len() as u64,
    }
}

/// Runs the machine once. `recovery` selects the action the degradation
/// trigger is bound to: the shipped composite recovery script, or a no-op
/// monitor. The machine runs under `run`, fault plan included (the
/// caller picks it, so harnesses can run the scenario fault-free too).
pub fn run(recovery_enabled: bool, tl: Timeline, run: &RunConfig) -> RunOutput {
    run_with(recovery_enabled, tl, run, |_| {})
}

/// As [`run`], with a setup hook called on the launched server before the
/// warm-up phase (the policy equivalence suite installs the built-in
/// programs explicitly through it).
pub fn run_with(
    recovery_enabled: bool,
    tl: Timeline,
    run: &RunConfig,
    setup: impl FnOnce(&mut PardServer),
) -> RunOutput {
    let mut cfg = SystemConfig::asplos15();
    cfg.core.record_miss_latency = true;
    cfg.run = run.clone();
    let mut server = PardServer::new(cfg);
    assert_eq!(
        server.core_component_id(1).raw(),
        XBAR_FAULT_PORT,
        "XBAR_FAULT_PORT must be lo's crossbar port"
    );

    server
        .create_ldom(LDomSpec::new("hi", vec![0], 2 << 30).with_mac(MAC_HI))
        .expect("create hi");
    server
        .create_ldom(LDomSpec::new("lo", vec![1], 2 << 30))
        .expect("create lo");
    server
        .create_ldom(LDomSpec::new("io", vec![2], 2 << 30).disk_quota(100))
        .expect("create io");

    // `hi` is cache-sensitive (1.75 MB working set): healthy, its 4 LLC
    // ways leak a steady trickle of capacity misses to DRAM; faulted, the
    // degraded bus turns that trickle's queueing delay into the trigger
    // signal. `lo` streams flat out and is the bulk pressure.
    server.install_engine(0, Box::new(Leslie3dProxy::new(0x0400_0000)));
    server.install_engine(1, Box::new(LbmProxy::new(0x0400_0000)));
    server.install_engine(
        2,
        Box::new(DiskCopy::new(DiskCopyConfig {
            disk: 1,
            block_bytes: 256 << 10,
            count: 1 << 20, // never finishes: steady disk load all run
            ..DiskCopyConfig::default()
        })),
    );

    // Initial LLC partition (disjoint): `hi` gets 4 of 16 ways (1 MB —
    // less than its 1.75 MB working set, so it misses steadily), `lo`
    // gets 8, `io` gets 4. The recovery script reassigns ways 4–7 from
    // `lo` to `hi` (8 ways = 2 MB: the working set then fits).
    for cmd in [
        "echo 0x000F > /sys/cpa/cpa0/ldoms/ldom0/parameters/waymask",
        "echo 0x0FF0 > /sys/cpa/cpa0/ldoms/ldom1/parameters/waymask",
        "echo 0xF000 > /sys/cpa/cpa0/ldoms/ldom2/parameters/waymask",
    ] {
        server.shell(cmd).expect("initial waymask partition");
    }

    // Background NIC receive traffic for `hi`: one 1500-byte frame every
    // 20 µs, pre-posted for the whole run (open-loop, deterministic).
    let nic = server.nic_id();
    let gap = Time::from_us(20);
    let mut at = gap;
    while at < tl.total {
        server.post(
            nic,
            at,
            PardEvent::NetFrame(NetFrame {
                dst_mac: MAC_HI,
                bytes: 1500,
                arrived_at: at,
            }),
        );
        at = at + gap;
    }

    for ds in [DS_HI, DS_LO, DS_IO] {
        server.launch(DsId::new(ds)).expect("launch");
    }
    setup(&mut server);

    // Warm-up: run and discard the cold-start latency samples.
    server.run_for(tl.warmup);
    let _ = server.with_core(0, |c| c.take_miss_latency());
    let _ = server.with_core(1, |c| c.take_miss_latency());

    // The detection/reaction rule, armed only once the machine is at
    // steady state (an operator installs SLO rules on a warm system; a
    // cold-start ramp would otherwise seed the degradation baseline with
    // transient latencies). Both runs install the same trigger so their
    // trigger tables and trace streams are comparable; only the bound
    // action differs.
    {
        let fw = server.firmware().clone();
        let mut fw = fw.lock();
        recovery::install_composite(
            &mut fw,
            "fault_recovery",
            0x00F0,
            Some((u32::from(DS_LO), 0x0F00)),
            800,
        );
        fw.register_action("monitor", Action::Native(Box::new(|_, _| {})));
        // "hi's memory queueing has degraded ≥ 300 % over its healthy
        // baseline AND the smoothed window average has reached 100 memory
        // cycles" — the floor keeps the near-idle healthy signal (a few
        // cycles per window, where percent growth is noise) from firing.
        fw.pardtrigger_with_mode(
            1,
            DsId::new(DS_HI),
            ACTION_ID,
            "avg_qlat",
            CmpOp::Ge,
            300,
            TriggerMode::DegradationPct,
            100,
        )
        .expect("install degradation trigger");
        let action = if recovery_enabled {
            "fault_recovery"
        } else {
            "monitor"
        };
        fw.write("/sys/cpa/cpa1/ldoms/ldom0/triggers/7", action)
            .expect("bind trigger action");
    }

    // Healthy "pre" phase.
    server.run_for(tl.t_fault - tl.warmup);
    let pre = [drain(&mut server, 0), drain(&mut server, 1)];

    // "fault" probe phase: injection + detection (+ dispatch, in the
    // recovery run).
    server.run_for(tl.fault_probe_end - tl.t_fault);
    let fault = [drain(&mut server, 0), drain(&mut server, 1)];

    // "recovered" phase: faults still active; only the recovery run has
    // re-provisioned `hi`.
    server.run_for(tl.total - tl.fault_probe_end);
    let recovered = [drain(&mut server, 0), drain(&mut server, 1)];

    let ide_drops = server
        .ide_cp()
        .lock()
        .stat(DsId::new(DS_IO), "drops")
        .unwrap_or(0);
    let ide_bytes = server
        .ide_cp()
        .lock()
        .stat(DsId::new(DS_IO), "bytes")
        .unwrap_or(0);
    let nic_frames = server
        .nic_cp()
        .lock()
        .stat(DsId::new(DS_HI), "frames")
        .unwrap_or(0);
    let nic_dropped = server
        .sim_mut()
        .with_component::<pard_io::Nic, _, _>(nic, |n| n.dropped());
    let hi_priority_after = server
        .mem_cp()
        .lock()
        .param(DsId::new(DS_HI), "priority")
        .expect("hi DS-id is within the memory parameter table");
    let hi_waymask_after = server
        .llc_cp()
        .lock()
        .param(DsId::new(DS_HI), "waymask")
        .expect("hi DS-id is within the LLC parameter table");

    RunOutput {
        hi: [pre[0], fault[0], recovered[0]],
        lo: [pre[1], fault[1], recovered[1]],
        ide_drops,
        ide_bytes,
        nic_frames,
        nic_dropped,
        hi_priority_after,
        hi_waymask_after,
    }
}

/// Runs the `(no_recovery, recovery)` pair as two independent machines
/// fanned over the [`par_map`] worker pool — bit-identical to two serial
/// [`run`] calls at any `PARD_THREADS`.
pub fn run_pair(tl: Timeline, run_config: &RunConfig) -> (RunOutput, RunOutput) {
    let mut results = par_map(vec![false, true], |recovery| run(recovery, tl, run_config));
    let with_recovery = results.pop().expect("recovery run");
    let without = results.pop().expect("no-recovery run");
    (without, with_recovery)
}

fn phases_json(phases: &[PhaseStats; 3]) -> JsonValue {
    let mut arr = JsonValue::array();
    for (name, p) in ["pre", "fault", "recovered"].iter().zip(phases) {
        arr = arr.push(
            JsonValue::object()
                .field("phase", *name)
                .field("p95_ns", p.p95_ns)
                .field("mean_ns", p.mean_ns)
                .field("samples", p.samples),
        );
    }
    arr
}

fn run_json(r: &RunOutput) -> JsonValue {
    JsonValue::object()
        .field("hi_latency", phases_json(&r.hi))
        .field("lo_latency", phases_json(&r.lo))
        .field(
            "ide",
            JsonValue::object()
                .field("drops", r.ide_drops)
                .field("bytes", r.ide_bytes),
        )
        .field(
            "nic",
            JsonValue::object()
                .field("frames_delivered", r.nic_frames)
                .field("frames_dropped", r.nic_dropped),
        )
        .field("hi_priority_after", r.hi_priority_after)
        .field("hi_waymask_after", r.hi_waymask_after)
}

/// The `fig_fault.json` document for one run pair — shared by the
/// binary and the determinism tests.
pub fn summary_json(tl: Timeline, base: &RunOutput, rec: &RunOutput) -> JsonValue {
    // Recovery quality: how far the recovered-phase p95 sits above the
    // healthy pre-phase p95, in percent (0 = fully recovered).
    let over = |r: &RunOutput| (r.hi[2].p95_ns / r.hi[0].p95_ns.max(1e-9) - 1.0) * 100.0;
    JsonValue::object()
        .field("figure", "fault")
        .field("plan_seed", PLAN_SEED)
        .field(
            "timeline_ms",
            JsonValue::object()
                .field("t_fault", tl.t_fault.as_ms())
                .field("fault_probe_end", tl.fault_probe_end.as_ms())
                .field("total", tl.total.as_ms()),
        )
        .field("no_recovery", run_json(base))
        .field("recovery", run_json(rec))
        .field(
            "acceptance",
            JsonValue::object()
                .field("recovery_hi_p95_over_pre_pct", over(rec))
                .field("no_recovery_hi_p95_over_pre_pct", over(base))
                .field("recovered_within_10pct", over(rec) <= 10.0),
        )
}
