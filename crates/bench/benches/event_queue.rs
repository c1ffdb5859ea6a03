//! Event-queue microbenchmark and kernel perf recorder.
//!
//! The kernel's hot loop is one `EventQueue::push` + `pop` per simulated
//! hop, so queue throughput bounds every figure binary. This bench
//! compares the packed-key event queue (`pard_sim::EventQueue`: a sorted
//! run while few events are pending, a four-ary heap beyond) against
//! a plain `std` `BinaryHeap` of whole events on the event-horizon
//! patterns the experiments actually generate, times representative
//! figure workloads end to end, and records everything in
//! `BENCH_kernel.json` so the kernel's perf trajectory is tracked from
//! change to change.
//!
//! ```sh
//! cargo bench -p pard-bench --bench event_queue            # full
//! cargo bench -p pard-bench --bench event_queue -- --quick # CI smoke
//! ```

use std::collections::BinaryHeap;
use std::time::Instant;

use pard_bench::fig11_scenario;
use pard_bench::json::JsonValue;
use pard_bench::output::save_json;
use pard_bench::{run_memcached_point, MemcachedMode, MemcachedScenario};
use pard_cache::llc_control_plane;
use pard_dram::{MemCtrl, MemCtrlConfig};
use pard_icn::{DsId, LAddr, MemKind, MemPacket, PacketId, PardEvent};
use pard_sim::rng::{stream_rng, Rng};
use pard_sim::trace::{self, TraceCat, TraceConfig, TraceVal, Tracer};
use pard_sim::{ComponentId, EventQueue, RunConfig, RunState, ScheduledEvent, Simulation, Time};

/// The reference queue: one `std` binary heap of whole events, using
/// `ScheduledEvent`'s reversed `Ord` — the kernel's original layout.
/// Kept here as the measured baseline.
struct BaselineQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
}

impl<E> BaselineQueue<E> {
    fn new() -> Self {
        BaselineQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
    fn push(&mut self, time: Time, dst: ComponentId, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent {
            time,
            seq,
            dst,
            event,
        });
    }
    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop()
    }
}

/// One hold-k churn pattern: keep `k` events pending; each step pops the
/// earliest and schedules a replacement `delay()` after it. This is the
/// steady state of every component model. Each measurement is
/// best-of-`ROUNDS` — the minimum round time is the least-perturbed run
/// on a shared machine.
const ROUNDS: usize = 3;

/// Alternating kernel/reference rounds behind the kernel-rate gate,
/// which compares their median ratio: more than [`ROUNDS`], so a few
/// disturbed rounds cannot move the median past the gate's 5 % bound.
const KERNEL_ROUNDS: usize = 21;

macro_rules! churn {
    ($make_queue:expr, $k:expr, $steps:expr, $delay:expr) => {{
        let dst = ComponentId::from_raw(0);
        let mut best_secs = f64::INFINITY;
        for _ in 0..ROUNDS {
            let mut q = $make_queue();
            let mut now = 0u64;
            for i in 0..$k {
                q.push(Time::from_units($delay(i as u64)), dst, ());
            }
            let start = Instant::now();
            for i in 0..$steps {
                let ev = q.pop().unwrap();
                now = ev.time.units();
                q.push(Time::from_units(now + $delay(i)), dst, ());
            }
            let secs = start.elapsed().as_secs_f64();
            // Keep the queue alive through the timed region.
            assert_eq!(q.pop().unwrap().time.units() >= now, true);
            best_secs = best_secs.min(secs);
        }
        ($steps as f64 * 2.0) / best_secs // pushes + pops per second
    }};
}

struct PatternResult {
    name: &'static str,
    queue_ops_per_sec: f64,
    baseline_ops_per_sec: f64,
    /// Mean pending keys due before each pushed key, where recorded.
    keys_ahead: Option<f64>,
}

/// Mean number of pending keys due before each pushed key over `steps`
/// hold-`k` churn steps with delays `delay(i)`: how many keys a push
/// lands behind, which a sorted run shifts. Untimed; a sorted `Vec`
/// stands in for the queue.
fn mean_keys_ahead(k: u64, steps: u64, delay: impl Fn(u64) -> u64) -> f64 {
    let mut pending: Vec<(u64, u64)> = (0..k).map(|i| (delay(i), i)).collect();
    pending.sort_unstable();
    let mut ahead = 0u64;
    for i in 0..steps {
        let (now, _) = pending.remove(0);
        let key = (now + delay(i), k + i);
        let at = pending.partition_point(|&p| p < key);
        ahead += at as u64;
        pending.insert(at, key);
    }
    ahead as f64 / steps as f64
}

fn run_patterns(steps: u64) -> Vec<PatternResult> {
    let mut results = Vec::new();
    let mut rng = stream_rng(20, "bench.event_queue");

    // Dense short-delay traffic (cache/DRAM hops, a few ns apart) at
    // several backlog sizes, plus a mixed pattern with far timers
    // (statistics windows, poll intervals) layered on top.
    for &k in &[16usize, 256, 4096] {
        let name: &'static str = match k {
            16 => "short_delay_hold16",
            256 => "short_delay_hold256",
            _ => "short_delay_hold4096",
        };
        let deltas: Vec<u64> = (0..8192).map(|_| rng.gen_range(1..256u64)).collect();
        let short = |i: u64| deltas[(i % 8192) as usize];
        let queue = churn!(EventQueue::new, k, steps, short);
        let baseline = churn!(BaselineQueue::new, k, steps, short);
        results.push(PatternResult {
            name,
            queue_ops_per_sec: queue,
            baseline_ops_per_sec: baseline,
            keys_ahead: None,
        });
    }

    let deltas: Vec<u64> = (0..8192)
        .map(|i| {
            if i % 10 == 0 {
                rng.gen_range(200_000..2_000_000u64) // ~50 µs..500 µs timers
            } else {
                rng.gen_range(1..256u64)
            }
        })
        .collect();
    let mixed = |i: u64| deltas[(i % 8192) as usize];
    let queue = churn!(EventQueue::new, 256usize, steps, mixed);
    let baseline = churn!(BaselineQueue::new, 256usize, steps, mixed);
    results.push(PatternResult {
        name: "mixed_horizon_hold256",
        queue_ops_per_sec: queue,
        baseline_ops_per_sec: baseline,
        keys_ahead: None,
    });

    // The simulator's own traffic: its workloads hold a mean of 6.5–9.7
    // pending events, and a new key lands behind 1.3–2.6 of them, as
    // short hops pass the timers pending further out. Hold 8 with one
    // push in three a timer 256–4,095 units out and the rest hops of
    // 1–63 units has that shape; the recorded `keys_ahead` shows it.
    // Recorded, not gated.
    let deltas: Vec<u64> = (0..8192)
        .map(|i| {
            if i % 3 == 0 {
                rng.gen_range(256..4096u64)
            } else {
                rng.gen_range(1..64u64)
            }
        })
        .collect();
    let shaped = |i: u64| deltas[(i % 8192) as usize];
    let queue = churn!(EventQueue::new, 8usize, steps, shaped);
    let baseline = churn!(BaselineQueue::new, 8usize, steps, shaped);
    results.push(PatternResult {
        name: "traffic_shaped_hold8",
        queue_ops_per_sec: queue,
        baseline_ops_per_sec: baseline,
        keys_ahead: Some(mean_keys_ahead(8, steps.min(100_000), shaped)),
    });

    results
}

/// One timed round of kernel events through the full memory-controller
/// model (same scenario as `memory_system.rs`'s throughput bench):
/// `requests` reads posted 10 ns apart, run to completion. Returns
/// `(events, seconds)`.
fn kernel_round(requests: u64) -> (u64, f64) {
    let mut sim: Simulation<PardEvent> = Simulation::new();
    let (ctrl_model, _cp) = MemCtrl::new(MemCtrlConfig::default());
    let ctrl = sim.add_component(Box::new(ctrl_model));
    for i in 0..requests {
        sim.post(
            ctrl,
            Time::from_ns(i * 10),
            PardEvent::MemReq(MemPacket {
                id: PacketId(i),
                ds: DsId::new((i % 2 + 1) as u16),
                addr: LAddr::new((i * 4096) % (1 << 28)),
                kind: MemKind::Read,
                size: 64,
                reply_to: ctrl, // responses handled as no-ops
                issued_at: Time::ZERO,
                dma: false,
            }),
        );
    }
    let start = Instant::now();
    sim.run_until(Time::from_ms(10));
    (sim.events_processed(), start.elapsed().as_secs_f64())
}

/// One timed round of the fixed reference workload: `steps` hold-256
/// churn steps on the `BinaryHeap` queue above, which no change to the
/// simulator touches. Returns `(push+pop ops, seconds)`.
fn reference_round(steps: u64) -> (u64, f64) {
    let mut q = BaselineQueue::new();
    let dst = ComponentId::from_raw(0);
    let delay = |i: u64| 1 + (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56);
    for i in 0..256 {
        q.push(Time::from_units(delay(i)), dst, ());
    }
    let start = Instant::now();
    for i in 0..steps {
        let ev = q.pop().unwrap();
        q.push(Time::from_units(ev.time.units() + delay(i)), dst, ());
    }
    let secs = start.elapsed().as_secs_f64();
    assert!(q.pop().is_some());
    (steps * 2, secs)
}

/// The kernel's rate against the reference's, timed in `rounds`
/// alternating rounds in this process so each kernel round and the
/// reference round after it see the same host. Returns
/// `(best kernel_events_per_sec, best reference_ops_per_sec, median of
/// the per-round kernel/reference ratios)`; the gate compares the median
/// ratio across runs.
fn kernel_and_reference(requests: u64, reference_steps: u64, rounds: usize) -> (f64, f64, f64) {
    let (mut kernel, mut reference) = (0.0f64, 0.0f64);
    let mut ratios = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let (events, secs) = kernel_round(requests);
        let k = events as f64 / secs;
        let (ops, secs) = reference_round(reference_steps);
        let r = ops as f64 / secs;
        kernel = kernel.max(k);
        reference = reference.max(r);
        ratios.push(k / r);
    }
    ratios.sort_by(f64::total_cmp);
    (kernel, reference, ratios[rounds / 2])
}

/// Throughput of the lock-free statistics record path (`StatsHandle::add`
/// straight into the sharded cells), in million records per second —
/// the per-access cost every component model now pays per hit/miss/DMA.
fn stats_record_mops(records: u64) -> f64 {
    let cp = llc_control_plane(256, 64);
    let stats = cp.stats_handle();
    let hit = stats.key("hit_cnt").unwrap();
    let mut best_secs = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for i in 0..records {
            stats.add(DsId::new((i % 32) as u16), hit, 1).unwrap();
        }
        best_secs = best_secs.min(start.elapsed().as_secs_f64());
    }
    assert!(stats.get(DsId::new(0), hit).unwrap() > 0);
    records as f64 / best_secs / 1e6
}

/// Trace-sink write throughput through the full tracer pipeline
/// (category filter, sampling divider, render/encode, buffered file
/// writes, final flush): `events` synthetic DRAM events into the sink at
/// `file`, whose extension picks the format — `.ptr` exercises the paged
/// binary store, anything else the debug JSONL stream. Returns
/// `(events_per_sec, bytes_per_event)`.
fn trace_write_throughput(events: u64, file: &str) -> (f64, f64) {
    let path = std::env::temp_dir().join(format!("pard-eq-{}-{file}", std::process::id()));
    let mut best_secs = f64::INFINITY;
    for _ in 0..ROUNDS {
        let tracer = std::sync::Arc::new(
            Tracer::new(TraceConfig {
                path: path.clone(),
                filter: vec![(TraceCat::Dram, None)],
                sample: vec![(TraceCat::Dram, 1)],
            })
            .unwrap(),
        );
        let mut run = RunState::new(RunConfig {
            tracer: Some(tracer.clone()),
            ..RunConfig::default()
        });
        let lend = run.lend();
        let start = Instant::now();
        for i in 0..events {
            trace::emit(
                TraceCat::Dram,
                Time::from_ns(i * 10),
                (i % 32) as u16,
                "rd",
                &[
                    ("addr", TraceVal::U((i * 4096) % (1 << 28))),
                    ("bank", TraceVal::U(i % 8)),
                    ("lat", TraceVal::F(45.0 + (i % 7) as f64)),
                    ("hit", TraceVal::B(i % 3 == 0)),
                ],
            );
        }
        tracer.disable(); // the timed region includes the final flush
        drop(lend);
        best_secs = best_secs.min(start.elapsed().as_secs_f64());
    }
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    std::fs::remove_file(&path).ok();
    (events as f64 / best_secs, bytes as f64 / events as f64)
}

/// Wall-clock + events/sec of a scaled-down figure workload through the
/// real kernel (fig11's DDR3 injection pair).
fn time_fig11(requests: u64) -> (f64, f64) {
    let start = Instant::now();
    let (base, pard) = fig11_scenario::run_pair(0.55, requests);
    let secs = start.elapsed().as_secs_f64();
    assert!(base.mean_all > 0.0 && pard.mean_high > 0.0);
    (secs * 1e3, requests as f64 * 2.0 / secs)
}

/// Wall-clock of one quick fig08-style memcached co-location point.
fn time_fig08_point() -> f64 {
    let start = Instant::now();
    let mut s = MemcachedScenario::new(MemcachedMode::SharedWithTrigger, 20_000.0);
    s.warmup = Time::from_ms(5);
    s.measure = Time::from_ms(20);
    let p = run_memcached_point(&s);
    assert!(p.completed > 0);
    start.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let check = std::env::args().any(|a| a == "--check");
    let steps: u64 = if quick { 200_000 } else { 2_000_000 };

    println!("event queue microbench ({steps} push+pop steps per pattern)\n");
    let patterns = run_patterns(steps);
    let mut json_patterns = JsonValue::object();
    for p in &patterns {
        let ratio = p.queue_ops_per_sec / p.baseline_ops_per_sec;
        let ahead = p.keys_ahead.map_or(String::new(), |a| {
            format!("   each push lands behind {a:.2} keys")
        });
        println!(
            "{:<24} event-queue {:>7.1} M ops/s   binary-heap {:>7.1} M ops/s   ({ratio:.2}x){ahead}",
            p.name,
            p.queue_ops_per_sec / 1e6,
            p.baseline_ops_per_sec / 1e6,
        );
        let mut record = JsonValue::object()
            .field("queue_mops", p.queue_ops_per_sec / 1e6)
            .field("binary_heap_mops", p.baseline_ops_per_sec / 1e6)
            .field("speedup", ratio);
        if let Some(ahead) = p.keys_ahead {
            record = record.field("keys_ahead", ahead);
        }
        json_patterns = json_patterns.field(p.name, record);
    }

    let stat_records: u64 = if quick { 2_000_000 } else { 20_000_000 };
    let stats_mops = stats_record_mops(stat_records);
    println!("\nstats cells ({stat_records} records): {stats_mops:.1} M records/s");

    let trace_events: u64 = if quick { 100_000 } else { 1_000_000 };
    let (jsonl_eps, jsonl_bpe) = trace_write_throughput(trace_events, "trace.jsonl");
    let (ptr_eps, ptr_bpe) = trace_write_throughput(trace_events, "trace.ptr");
    println!("\ntrace sinks ({trace_events} events):");
    println!(
        "  jsonl stream   {:>6.2} M events/s   {jsonl_bpe:>5.1} bytes/event",
        jsonl_eps / 1e6
    );
    println!(
        "  paged binary   {:>6.2} M events/s   {ptr_bpe:>5.1} bytes/event",
        ptr_eps / 1e6
    );

    let memctrl_requests: u64 = if quick { 10_000 } else { 50_000 };
    let (kernel_eps, reference_ops, kernel_ratio) =
        kernel_and_reference(memctrl_requests, memctrl_requests * 10, KERNEL_ROUNDS);
    let fig11_requests: u64 = if quick { 4_000 } else { 50_000 };
    let (fig11_ms, fig11_eps) = time_fig11(fig11_requests);
    let fig08_ms = time_fig08_point();
    println!();
    println!(
        "kernel through MemCtrl ({memctrl_requests} reqs): {:.2} M events/s, \
         median {kernel_ratio:.4} x reference ({:.2} M ops/s)",
        kernel_eps / 1e6,
        reference_ops / 1e6
    );
    println!(
        "fig11 pair ({fig11_requests} requests): {fig11_ms:.1} ms ({:.2} M req/s)",
        fig11_eps / 1e6
    );
    println!("fig08 quick point: {fig08_ms:.1} ms");

    // Cargo runs benches with the package dir as CWD; anchor the perf
    // record at the workspace root regardless of how we were invoked.
    save_json(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json"),
        &JsonValue::object()
            .field("steps_per_pattern", steps)
            .field("event_queue", json_patterns)
            .field("stats_record_mops", stats_mops)
            .field(
                "trace_store",
                JsonValue::object()
                    .field("events", trace_events)
                    .field("jsonl_events_per_sec", jsonl_eps)
                    .field("jsonl_bytes_per_event", jsonl_bpe)
                    .field("ptr_events_per_sec", ptr_eps)
                    .field("ptr_bytes_per_event", ptr_bpe),
            )
            .field("kernel_memctrl_events_per_sec", kernel_eps)
            .field("kernel_memctrl_vs_reference", kernel_ratio)
            .field("reference_heap_ops_per_sec", reference_ops)
            .field(
                "figure_workloads",
                JsonValue::object()
                    .field("fig11_pair_requests", fig11_requests)
                    .field("fig11_pair_wall_ms", fig11_ms)
                    .field("fig11_requests_per_sec", fig11_eps)
                    .field("fig08_quick_point_wall_ms", fig08_ms),
            ),
    );

    if check {
        // CI perf gate: the event queue must not regress behind the
        // plain binary heap in the dense regimes (the backlog sizes the
        // figure workloads actually sustain), and the stats record path
        // must have produced a sane measurement.
        let mut failed = false;
        for p in &patterns {
            if !matches!(p.name, "short_delay_hold256" | "short_delay_hold4096") {
                continue;
            }
            let ratio = p.queue_ops_per_sec / p.baseline_ops_per_sec;
            if ratio < 1.0 {
                eprintln!(
                    "CHECK FAILED: {} event-queue/binary-heap = {ratio:.2}x < 1.0",
                    p.name
                );
                failed = true;
            }
        }
        if !(stats_mops.is_finite() && stats_mops > 0.0) {
            eprintln!("CHECK FAILED: stats_record_mops = {stats_mops}");
            failed = true;
        }
        // The paged binary store exists to make long-horizon tracing
        // cheap; it must encode strictly denser than the JSONL stream.
        if !(ptr_eps.is_finite() && ptr_eps > 0.0 && jsonl_eps.is_finite() && jsonl_eps > 0.0) {
            eprintln!("CHECK FAILED: trace sink rates jsonl={jsonl_eps} ptr={ptr_eps}");
            failed = true;
        }
        if ptr_bpe >= jsonl_bpe {
            eprintln!(
                "CHECK FAILED: binary store {ptr_bpe:.1} bytes/event >= \
                 JSONL {jsonl_bpe:.1} bytes/event"
            );
            failed = true;
        }
        // Kernel hot-path regression gate: when CI exports
        // `PARD_BENCH_BASELINE` (the previously committed
        // BENCH_kernel.json, snapshotted aside before this run rewrites
        // it), the fresh kernel-through-MemCtrl rate, as a ratio to the
        // fixed reference timed alongside it, must stay within 5 % of the
        // recorded ratio. The ratio cancels how fast the host happens to
        // be right now, so the gate compares like with like.
        match std::env::var("PARD_BENCH_BASELINE") {
            Ok(path) => {
                let recorded = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|text| JsonValue::parse(&text).ok())
                    .and_then(|v| v.get("kernel_memctrl_vs_reference")?.as_f64());
                match recorded {
                    Some(baseline) if baseline > 0.0 => {
                        let floor = baseline * 0.95;
                        if kernel_ratio < floor {
                            eprintln!(
                                "CHECK FAILED: kernel_memctrl_vs_reference \
                                 {kernel_ratio:.4} < 95% of baseline {baseline:.4}"
                            );
                            failed = true;
                        } else {
                            println!(
                                "baseline gate: kernel/reference {kernel_ratio:.4} vs \
                                 recorded {baseline:.4} ({:+.1}%)",
                                (kernel_ratio / baseline - 1.0) * 100.0
                            );
                        }
                    }
                    _ => {
                        eprintln!(
                            "CHECK FAILED: PARD_BENCH_BASELINE={path} has no \
                             kernel_memctrl_vs_reference record"
                        );
                        failed = true;
                    }
                }
            }
            Err(_) => println!("(PARD_BENCH_BASELINE unset: skipping the 5% kernel-rate gate)"),
        }
        if failed {
            std::process::exit(1);
        }
        println!("check passed: dense-regime speedups >= 1.0, stats bench recorded");
    }
}
