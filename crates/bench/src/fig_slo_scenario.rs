//! The SLO-admission policy-demo scenario — token-bucket DMA admission on
//! the I/O bridge, shared by the `fig_slo` binary and the policy
//! equivalence tests.
//!
//! Two LDoms each run `dd`-style disk copies through the shared IDE
//! controller and I/O bridge. LDom0 is the latency-critical tenant with a
//! contracted I/O service level; LDom1 is a batch tenant flooding the
//! bridge with DMA. Mid-run the operator loads an admission program
//! through the firmware shell:
//!
//! ```text
//! pardpolicy /dev/cpa2 install
//!     when ds == 1 && class == dma do charge size rate R burst B else drop ;
//!     when all do rank 0
//! ```
//!
//! capping the batch tenant's *admitted* DMA bandwidth at the bridge to
//! its contracted rate. The tenant's excess bursts are dropped at the
//! admission point (accounted drops — the conservation auditor stays
//! green), the memory system behind the bridge sees only contracted
//! traffic, and the victim's admitted bandwidth is untouched.
//!
//! One machine, one timeline: `fig_slo.json` is byte-identical at every
//! `PARD_THREADS` setting.

use pard::{DsId, LDomSpec, PardServer, SystemConfig, Time};
use pard_workloads::{DiskCopy, DiskCopyConfig};

/// The batch tenant's contracted admitted-DMA rate, in bytes/second.
pub const SLO_RATE_BYTES_PER_SEC: u64 = 80_000_000;

/// The admission bucket's burst capacity, in bytes.
pub const SLO_BURST_BYTES: u64 = 1 << 20;

/// One SLO-admission timeline: per-LDom admitted-DMA series plus the
/// markers the plot annotates.
pub struct FigSloRun {
    /// Total simulated span.
    pub total: Time,
    /// When the operator's `pardpolicy install` lands.
    pub policy_at: Time,
    /// Per-LDom `(ms, admitted DMA MB/s)` samples, measured at the bridge.
    pub admitted: Vec<Vec<(f64, f64)>>,
}

/// The program the operator loads mid-run (as one `pardpolicy` line,
/// rules separated by `;`).
pub fn slo_policy() -> String {
    format!(
        "when ds == 1 && class == dma do charge size rate {SLO_RATE_BYTES_PER_SEC} \
         burst {SLO_BURST_BYTES} else drop ; when all do rank 0"
    )
}

/// Runs the default-geometry timeline at the given `--quick`/`--full`
/// duration scale.
pub fn run_timeline(scale: f64) -> FigSloRun {
    let block = (8.0 * scale) as u64 * 1024 * 1024;
    run_span(block, Time::from_ms(800), Time::from_ms(400))
}

/// Runs one timeline with an explicit per-op block size, span, and policy
/// install time (tests shrink all three).
pub fn run_span(block: u64, total: Time, policy_at: Time) -> FigSloRun {
    let sample = Time::from_ms(10);

    let mut server = PardServer::new(SystemConfig::asplos15());
    for (i, name) in ["slo0", "batch1"].iter().enumerate() {
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

    let mut admitted: Vec<Vec<(f64, f64)>> = vec![Vec::new(); 2];
    let mut last_bytes = [0u64; 2];
    let mut installed = false;
    while server.now() < total {
        server.run_for(sample);
        if !installed && server.now() >= policy_at {
            server
                .shell(&format!("pardpolicy /dev/cpa2 install {}", slo_policy()))
                .expect("install admission policy");
            installed = true;
            eprintln!(
                "  t={:.0} ms: pardpolicy /dev/cpa2 install (rate {} MB/s)",
                server.now().as_ms(),
                SLO_RATE_BYTES_PER_SEC / 1_000_000
            );
        }
        for i in 0..2u16 {
            let bytes = server
                .bridge_cp()
                .lock()
                .stat(DsId::new(i), "dma_bytes")
                .unwrap_or_default();
            let rate_mbps = (bytes - last_bytes[i as usize]) as f64 / sample.as_secs() / 1e6;
            last_bytes[i as usize] = bytes;
            admitted[i as usize].push((server.now().as_ms(), rate_mbps));
        }
    }
    FigSloRun {
        total,
        policy_at,
        admitted,
    }
}
