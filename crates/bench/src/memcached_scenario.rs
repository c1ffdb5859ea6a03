//! The memcached co-location scenario of Figures 8 and 9.
//!
//! Four LDoms on the Table 2 four-core server: LDom0 runs the
//! latency-critical memcached pair (server + load client sharing core 0,
//! exactly as in §7.1.2), LDom1–LDom3 run the STREAM triad. Three
//! configurations:
//!
//! * **Solo** — only LDom0 is launched (the paper's 25 %-utilisation
//!   baseline),
//! * **Shared** — all four LDoms run on a conventional server (PARD's
//!   differentiated mechanisms disabled),
//! * **SharedWithTrigger** — all four LDoms run under PARD with the
//!   Figure 9 rule installed: `LLC.MissRate > 30 % ⇒ grow LDom0's
//!   partition to half the LLC (and confine the STREAM LDoms to the other
//!   half)`.

use pard::{Action, CmpOp, DsId, LDomSpec, PardServer, SystemConfig, Time};
use pard_sim::RunConfig;
use pard_workloads::{Memcached, MemcachedConfig, Stream, StreamConfig};

/// Which of the three Figure 8 configurations to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemcachedMode {
    /// Only the memcached LDom runs.
    Solo,
    /// Co-location on a conventional (non-PARD) server.
    Shared,
    /// Co-location on PARD with the LLC trigger installed.
    SharedWithTrigger,
}

impl MemcachedMode {
    /// Display label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            MemcachedMode::Solo => "solo",
            MemcachedMode::Shared => "shared",
            MemcachedMode::SharedWithTrigger => "w/ LLC Trigger",
        }
    }
}

/// One experiment point.
#[derive(Debug, Clone)]
pub struct MemcachedScenario {
    /// Configuration.
    pub mode: MemcachedMode,
    /// Offered load in requests/second.
    pub rps: f64,
    /// Warm-up span (samples discarded).
    pub warmup: Time,
    /// Measurement span.
    pub measure: Time,
    /// Experiment seed.
    pub seed: u64,
    /// Optional PRM poll-interval override (sensitivity sweeps).
    pub prm_poll: Option<Time>,
    /// Triad compute cycles per 64 B block for the STREAM co-runners
    /// (lower = more aggressive; sensitivity sweeps).
    pub stream_compute_per_block: u64,
}

impl MemcachedScenario {
    /// A default point at the given mode and load.
    pub fn new(mode: MemcachedMode, rps: f64) -> Self {
        MemcachedScenario {
            mode,
            rps,
            warmup: Time::from_ms(30),
            measure: Time::from_ms(150),
            seed: 42,
            prm_poll: None,
            stream_compute_per_block: 64,
        }
    }
}

/// The measured outcome of one point.
#[derive(Debug, Clone)]
pub struct MemcachedPoint {
    /// Offered load.
    pub offered_rps: f64,
    /// Achieved throughput over the measured span.
    pub achieved_rps: f64,
    /// Mean response time in ms.
    pub mean_ms: f64,
    /// 95th-percentile response time in ms (the paper's metric).
    pub p95_ms: f64,
    /// 99th-percentile response time in ms.
    pub p99_ms: f64,
    /// Requests completed in the measured span.
    pub completed: u64,
    /// Whole-server CPU utilisation (1.0 = all four cores busy).
    pub cpu_utilization: f64,
    /// LDom0's LLC miss rate (percent) at the end of the run.
    pub final_miss_rate: u64,
    /// LDom0's waymask at the end (0xFF00 once the trigger has fired).
    pub final_waymask: u64,
}

/// Builds the scenario's server with LDoms created and engines installed
/// (but launches only what the mode requires). Returns the server and the
/// memcached LDom's DS-id.
pub fn build_memcached_server(s: &MemcachedScenario) -> (PardServer, DsId) {
    build_memcached_inner(
        s,
        s.mode != MemcachedMode::Solo,
        true,
        &RunConfig::from_env(),
    )
}

/// Like [`build_memcached_server`] but without installing the trigger
/// rule, so harnesses can install a variant (threshold sweeps).
pub fn build_memcached_server_no_rule(s: &MemcachedScenario) -> (PardServer, DsId) {
    build_memcached_inner(
        s,
        s.mode != MemcachedMode::Solo,
        false,
        &RunConfig::from_env(),
    )
}

/// Builds the Figure 9 scenario: PARD server with memcached launched and
/// the STREAM LDoms created *but not yet launched*; the trigger rule is
/// *not* yet installed either — the harness installs it once memcached
/// has warmed (so the rule reacts to interference, not to cold-start
/// misses) and then staggers the STREAM launches. The server is observed
/// as `run` says.
pub fn install_llc_trigger_scenario(rps: f64, run: &RunConfig) -> (PardServer, DsId) {
    let s = MemcachedScenario {
        warmup: Time::ZERO,
        ..MemcachedScenario::new(MemcachedMode::SharedWithTrigger, rps)
    };
    build_memcached_inner(&s, false, false, run)
}

fn build_memcached_inner(
    s: &MemcachedScenario,
    launch_streams: bool,
    install_rule: bool,
    run: &RunConfig,
) -> (PardServer, DsId) {
    let mut cfg = match s.mode {
        MemcachedMode::Shared => SystemConfig::asplos15().without_pard(),
        _ => SystemConfig::asplos15(),
    };
    cfg.run = run.clone();
    // Half-millisecond statistics windows: ~10 requests per window, so
    // the miss-rate column reflects behaviour rather than single-request
    // noise (the paper's counters integrate over similar spans).
    cfg.llc.window = Time::from_us(500);
    cfg.llc.window_min_accesses = 200;
    if let Some(poll) = s.prm_poll {
        cfg.prm_poll = poll;
    }
    let mut server = PardServer::new(cfg);

    // LDom0: memcached. Note: the paper's §7.1.2 experiment protects
    // memcached with the LLC trigger *only* — memory-priority DiffServ is
    // evaluated separately (Figure 11) — so the LDom stays normal
    // priority here and the recovery in Figures 8/9 is attributable to
    // the cache partition alone.
    let spec = LDomSpec::new("memcached", vec![0], 1 << 31);
    let mc = server.create_ldom(spec).expect("ldom0");
    server.install_engine(
        0,
        Box::new(Memcached::new(MemcachedConfig {
            rps: s.rps,
            warmup: s.warmup,
            seed: s.seed,
            ..MemcachedConfig::default()
        })),
    );

    // LDom1..3: STREAM.
    for core in 1..=3usize {
        let ds = server
            .create_ldom(LDomSpec::new(format!("stream{core}"), vec![core], 1 << 31))
            .expect("stream ldom");
        let _ = ds;
        server.install_engine(
            core,
            Box::new(Stream::new(StreamConfig {
                array_bytes: 16 * 1024 * 1024,
                base: 0x1000_0000,
                // Default ~64 cycles of triad arithmetic per 64 B block:
                // each STREAM instance demands ~1.5 GB/s, so the three of
                // them together pressure the DDR3 channel and continuously
                // turn the LLC over without starving the channel outright
                // — the paper's contention regime.
                compute_per_block: s.stream_compute_per_block,
            })),
        );
    }

    if s.mode == MemcachedMode::SharedWithTrigger && install_rule {
        install_llc_trigger(&mut server, mc);
    }

    server.launch(mc).expect("launch memcached");
    if launch_streams {
        for ds in 1..=3u16 {
            server.launch(DsId::new(ds)).expect("launch stream");
        }
    }
    (server, mc)
}

/// Installs the Figure 9 "trigger ⇒ action" rule: when LDom0's LLC miss
/// rate exceeds 30 %, dedicate half the LLC to it and confine the other
/// LDoms to the remaining half (the paper's three `echo waymask`
/// commands, executed by a pardscript handler).
pub fn install_llc_trigger(server: &mut PardServer, mc: DsId) {
    install_llc_trigger_with(server, mc, 30);
}

/// [`install_llc_trigger`] with a configurable miss-rate threshold.
pub fn install_llc_trigger_with(server: &mut PardServer, mc: DsId, threshold: u64) {
    let mut fw = server.firmware().lock();
    fw.pardtrigger(0, mc, 0, "miss_rate", CmpOp::Gt, threshold)
        .expect("pardtrigger");
    fw.register_action(
        "/cpa0_ldom0_t0.sh",
        Action::Script(
            r#"
log "llc miss-rate trigger fired for ldom $DS: growing partition"
echo 0xFF00 > /sys/cpa/cpa0/ldoms/ldom$DS/parameters/waymask
echo 0x00FF > /sys/cpa/cpa0/ldoms/ldom1/parameters/waymask
echo 0x00FF > /sys/cpa/cpa0/ldoms/ldom2/parameters/waymask
echo 0x00FF > /sys/cpa/cpa0/ldoms/ldom3/parameters/waymask
"#
            .to_string(),
        ),
    );
    fw.write(
        &format!("/sys/cpa/cpa0/ldoms/ldom{}/triggers/0", mc.raw()),
        "/cpa0_ldom0_t0.sh",
    )
    .expect("bind action");
}

/// Runs one point to completion and reports.
pub fn run_memcached_point(s: &MemcachedScenario) -> MemcachedPoint {
    let (mut server, mc) = build_memcached_server(s);
    server.run_for(s.warmup + s.measure);
    summarize(&mut server, mc, s)
}

/// Runs one point, sampling LDom0's LLC miss rate every `sample_every`.
/// Returns the point plus the `(ms, percent)` series (Figure 9).
pub fn run_memcached_sampled(
    s: &MemcachedScenario,
    sample_every: Time,
) -> (MemcachedPoint, Vec<(f64, f64)>) {
    let (mut server, mc) = build_memcached_server(s);
    let mut series = Vec::new();
    let total = s.warmup + s.measure;
    while server.now() < total {
        server.run_for(sample_every);
        let rate = server
            .llc_cp()
            .lock()
            .stat(mc, "miss_rate")
            .unwrap_or_default();
        series.push((server.now().as_ms(), rate as f64));
    }
    (summarize(&mut server, mc, s), series)
}

fn summarize(server: &mut PardServer, mc: DsId, s: &MemcachedScenario) -> MemcachedPoint {
    let report = server.with_engine::<Memcached, _>(0, |m| m.report());
    let cpu = server.cpu_utilization();
    let (final_miss_rate, final_waymask) = {
        let cp = server.llc_cp().lock();
        (
            cp.stat(mc, "miss_rate").unwrap_or_default(),
            cp.param(mc, "waymask")
                .expect("memcached DS-id is within the LLC parameter table"),
        )
    };
    MemcachedPoint {
        offered_rps: s.rps,
        achieved_rps: report.achieved_rps,
        mean_ms: report.mean.as_ms(),
        p95_ms: report.p95.as_ms(),
        p99_ms: report.p99.as_ms(),
        completed: report.completed,
        cpu_utilization: cpu,
        final_miss_rate,
        final_waymask,
    }
}
