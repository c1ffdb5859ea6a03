//! Figure 10 scenario — disk I/O performance isolation.
//!
//! Two LDoms each run `dd if=/dev/zero of=/dev/sdb bs=32M count=16`.
//! Initially they share the IDE controller equally; mid-run the operator
//! runs `echo 80 > /sys/cpa/cpa3/ldoms/ldom0/parameters/bandwidth`, and
//! LDom0's share rises to 80 %.
//!
//! A single simulation with a mid-run operator `echo` (each sample
//! depends on the last), so there is nothing to fan out across the
//! worker pool: the timeline runs on the one sequential kernel, and
//! `fig10.json` is byte-identical at every `PARD_THREADS` setting.

use pard::{DsId, LDomSpec, PardServer, SystemConfig, Time};
use pard_sim::RunConfig;
use pard_workloads::{DiskCopy, DiskCopyConfig};

/// One Figure 10 timeline: per-LDom bandwidth-share series plus the
/// markers the plot annotates.
pub struct Fig10Run {
    /// Total simulated span.
    pub total: Time,
    /// When the operator's `echo 80` quota change lands.
    pub echo_at: Time,
    /// Per-LDom `(ms, bandwidth share %)` samples.
    pub shares: Vec<Vec<(f64, f64)>>,
}

/// Runs the default-geometry timeline at the given `--quick`/`--full`
/// duration scale, observed as `run` says.
pub fn run_timeline(scale: f64, run: &RunConfig) -> Fig10Run {
    // Scaled from the paper's 512 MB per LDom so the default run spans
    // ~800 ms of simulated time like the figure's x-axis.
    let block = (8.0 * scale) as u64 * 1024 * 1024;
    run_span(block, Time::from_ms(800), Time::from_ms(400), run)
}

/// Runs one timeline with an explicit per-op block size, span, and quota
/// change time (tests shrink all three).
pub fn run_span(block: u64, total: Time, echo_at: Time, run: &RunConfig) -> Fig10Run {
    run_span_with(block, total, echo_at, run, |_| {})
}

/// As [`run_span`], with a setup hook called on the server before the
/// timeline starts. The policy equivalence suite uses it to
/// install the built-in programs explicitly and prove the figure bytes
/// do not move.
pub fn run_span_with(
    block: u64,
    total: Time,
    echo_at: Time,
    run: &RunConfig,
    setup: impl FnOnce(&mut PardServer),
) -> Fig10Run {
    let sample = Time::from_ms(10);

    let mut server = PardServer::new(SystemConfig {
        run: run.clone(),
        ..SystemConfig::asplos15()
    });
    for (i, name) in ["dd0", "dd1"].iter().enumerate() {
        server
            .create_ldom(LDomSpec::new(*name, vec![i], 1 << 30))
            .expect("ldom");
        server.install_engine(
            i,
            Box::new(DiskCopy::new(DiskCopyConfig {
                disk: i as u8,
                block_bytes: block.max(1 << 20),
                count: 64,
                ..DiskCopyConfig::default()
            })),
        );
        server.launch(DsId::new(i as u16)).expect("launch");
    }
    setup(&mut server);

    let mut shares: Vec<Vec<(f64, f64)>> = vec![Vec::new(); 2];
    let mut echoed = false;
    while server.now() < total {
        server.run_for(sample);
        if !echoed && server.now() >= echo_at {
            server
                .shell("echo 80 > /sys/cpa/cpa3/ldoms/ldom0/parameters/bandwidth")
                .expect("echo quota");
            echoed = true;
            eprintln!(
                "  t={:.0} ms: echo 80 > .../ldom0/parameters/bandwidth",
                server.now().as_ms()
            );
        }
        let bw: Vec<f64> = (0..2u16)
            .map(|ds| {
                server
                    .ide_cp()
                    .lock()
                    .stat(DsId::new(ds), "bandwidth")
                    .unwrap_or_default() as f64
            })
            .collect();
        let sum = (bw[0] + bw[1]).max(1.0);
        for (i, series) in shares.iter_mut().enumerate() {
            series.push((server.now().as_ms(), bw[i] / sum * 100.0));
        }
    }
    Fig10Run {
        total,
        echo_at,
        shares,
    }
}
