//! Observability-layer integration tests.
//!
//! Two properties the PR 3 layer must uphold:
//!
//! 1. **Conservation** — the per-DS-id counters that the control planes
//!    publish through the PRM metrics snapshot must sum to the live
//!    kernel-level totals held by the components themselves. Statistics
//!    windows flush cumulative counters into the control-plane tables, so
//!    once traffic stops and at least one window rolls over, the two views
//!    must agree exactly, per resource.
//! 2. **Observer purity** — installing the tracer must not perturb the
//!    simulation: a traced run renders byte-identical figure JSON to an
//!    untraced run, while the trace file itself is schema-valid JSONL.

use std::sync::Arc;

use pard::{DsId, LDomSpec, PardServer, SystemConfig, Time};
use pard_bench::fig11_scenario::{run_pair_with, summary_json};
use pard_bench::json::JsonValue;
use pard_icn::LAddr;
use pard_sim::check;
use pard_sim::rng::Rng;
use pard_sim::trace::{TraceConfig, Tracer};
use pard_sim::RunConfig;
use pard_workloads::{DiskCopy, DiskCopyConfig, Op, WorkloadEngine};

/// A finite store burst: `remaining` write-allocate stores walking a
/// buffer, then [`Op::Halt`]. Unlike `CacheFlush` (which loops forever)
/// this lets the machine drain completely, so window rollovers after the
/// burst publish final cumulative statistics.
struct FiniteStores {
    base: u64,
    remaining: u64,
    cursor: u64,
    span_lines: u64,
}

impl WorkloadEngine for FiniteStores {
    fn name(&self) -> &str {
        "finite-stores"
    }

    fn next_op(&mut self, _now: Time) -> Op {
        if self.remaining == 0 {
            return Op::Halt;
        }
        self.remaining -= 1;
        let addr = LAddr::new(self.base + (self.cursor % self.span_lines) * 64);
        self.cursor += 1;
        Op::Store { addr }
    }

    pard_workloads::impl_engine_any!();
}

/// Per-DS-id counters summed across the LLC, memory, I/O-bridge, and IDE
/// control planes equal the kernel-level totals for a seeded finite run.
#[test]
fn per_ds_stats_conserve_across_control_planes() {
    check::cases("per_ds_stats_conserve_across_control_planes", 3, |rng| {
        let stores = rng.gen_range(2_000u64..10_000);
        let blocks = rng.gen_range(2u64..6);
        let block_bytes = 128 * 1024 * rng.gen_range(1u64..4);

        let mut server = PardServer::new(SystemConfig::small_test());
        for (i, name) in ["mem-ldom", "disk-ldom"].iter().enumerate() {
            server
                .create_ldom(LDomSpec::new(*name, vec![i], 16 << 20))
                .expect("create ldom");
        }
        server.install_engine(
            0,
            Box::new(FiniteStores {
                base: 0x10_0000,
                remaining: stores,
                cursor: 0,
                span_lines: 8192,
            }),
        );
        server.install_engine(
            1,
            Box::new(DiskCopy::new(DiskCopyConfig {
                disk: 0,
                block_bytes,
                count: blocks,
                ..DiskCopyConfig::default()
            })),
        );
        server.launch(DsId::new(0)).expect("launch mem-ldom");
        server.launch(DsId::new(1)).expect("launch disk-ldom");

        // Long enough for both finite workloads to drain, plus many idle
        // statistics windows (20 us .. 1 ms in the small_test platform) so
        // every control plane has flushed its final cumulative counters.
        server.run_for(Time::from_ms(40));

        let snap = server.metrics_snapshot();

        // LLC: control-plane hit/miss counts vs the tag array's own.
        let (mut hits, mut misses) = (0u64, 0u64);
        for ds in 0..2u16 {
            let (h, m) = server.llc_counts(DsId::new(ds));
            hits += h;
            misses += m;
        }
        assert_eq!(snap.column_total("CACHE_CP", "hit_cnt"), hits);
        assert_eq!(snap.column_total("CACHE_CP", "miss_cnt"), misses);
        assert!(misses > 0, "the store burst must reach the LLC");

        // Memory: per-DS served counts vs the controller's global total.
        assert_eq!(
            snap.column_total("MEMORY_CP", "serv_cnt"),
            server.mem_served_total()
        );
        assert!(server.mem_served_total() > 0);

        // Disk path: IDE-granted bytes == bridge-accounted DMA bytes ==
        // the live per-DS progress counters, and all equal the workload's
        // requested transfer size.
        let disk_bytes: u64 = (0..2u16)
            .map(|ds| server.disk_progress(DsId::new(ds)).bytes_done)
            .sum();
        assert_eq!(disk_bytes, block_bytes * blocks, "DiskCopy must finish");
        assert_eq!(snap.column_total("IDE_CP", "bytes"), disk_bytes);
        assert_eq!(snap.column_total("BRIDGE_CP", "dma_bytes"), disk_bytes);
    });
}

/// A traced run produces byte-identical figure output to an untraced run,
/// and the trace it writes is schema-valid JSONL.
#[test]
fn tracing_does_not_perturb_figure_output() {
    let render = |run: &RunConfig| {
        let (base, pard) = run_pair_with(0.55, 1_000, run);
        summary_json(0.55, &base, &pard).to_string_pretty()
    };

    let untraced = render(&RunConfig::default());

    let dir = std::env::temp_dir().join(format!("pard-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir tempdir");
    let path = dir.join("trace.jsonl");
    let tracer = Arc::new(Tracer::new(TraceConfig::to_file(&path)).expect("create tracer"));
    let traced = render(&RunConfig {
        tracer: Some(tracer.clone()),
        ..RunConfig::default()
    });
    tracer.flush();
    tracer.disable();

    assert_eq!(
        untraced, traced,
        "tracing must be a pure observer: figure JSON changed"
    );

    let content = std::fs::read_to_string(&path).expect("read trace");
    let mut events = 0u64;
    for (lineno, line) in content.lines().enumerate() {
        let v = JsonValue::parse(line).unwrap_or_else(|e| panic!("trace line {}: {e}", lineno + 1));
        assert!(v.get("time").and_then(JsonValue::as_f64).is_some());
        assert!(v.get("ds").and_then(JsonValue::as_u64).is_some());
        assert!(v.get("cat").and_then(JsonValue::as_str).is_some());
        assert!(v.get("event").and_then(JsonValue::as_str).is_some());
        events += 1;
    }
    assert!(events > 0, "the traced run must emit events");
    std::fs::remove_dir_all(&dir).ok();
}
