//! The memcached server model.

use pard_icn::LAddr;
use pard_sim::stats::LatencySample;
use pard_sim::Time;

use crate::arrivals::ArrivalSource;
use crate::generators::{PoissonArrivals, Zipf};
use crate::op::{Op, WorkloadEngine};

/// Configuration of the [`Memcached`] engine.
///
/// The paper runs memcached and its load client in one LDom sharing a CPU
/// core (§7.1.2), so this engine models the *pair*: Poisson request
/// arrivals, per-request client + server compute, and the server's memory
/// traffic over a Zipf-popular value store. Service time is **not** a
/// parameter — it emerges from the memory system, which is exactly what
/// makes LLC contention show up as tail latency (Figure 8).
#[derive(Debug, Clone)]
pub struct MemcachedConfig {
    /// Offered load in requests per second.
    pub rps: f64,
    /// Number of items in the value store.
    pub items: u64,
    /// Zipf popularity exponent.
    pub zipf_s: f64,
    /// Cache lines read per item access (the value payload).
    pub value_lines: u64,
    /// Hash-table / connection-metadata loads per request.
    pub meta_loads: u64,
    /// Client-side compute per request, in cycles (request generation,
    /// socket handling).
    pub client_compute: u64,
    /// Server-side hash/dispatch compute per request, in cycles.
    pub hash_compute: u64,
    /// Server-side response compute per request, in cycles.
    pub resp_compute: u64,
    /// Base LDom-physical address of the value store.
    pub store_base: u64,
    /// Base of the metadata region.
    pub meta_base: u64,
    /// Size of the metadata region in bytes.
    pub meta_bytes: u64,
    /// Socket/kernel buffer stores per request (response assembly and
    /// network-stack traffic). These cycle through a ring larger than the
    /// L1 but much smaller than the LLC, which keeps the L1 from
    /// unrealistically pinning hot values across requests.
    pub buffer_lines: u64,
    /// Base of the buffer ring.
    pub buffer_base: u64,
    /// Size of the buffer ring in bytes.
    pub buffer_ring_bytes: u64,
    /// Samples recorded before this time are discarded (warm-up).
    pub warmup: Time,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for MemcachedConfig {
    fn default() -> Self {
        MemcachedConfig {
            rps: 20_000.0,
            items: 2_500,
            zipf_s: 1.6,
            value_lines: 240,
            meta_loads: 20,
            client_compute: 28_000,
            hash_compute: 10_000,
            resp_compute: 32_000,
            store_base: 0x0400_0000, // 64 MiB in
            meta_base: 0x0200_0000,  // 32 MiB in
            meta_bytes: 2 * 1024 * 1024,
            buffer_lines: 192,
            buffer_base: 0x0100_0000, // 16 MiB in
            buffer_ring_bytes: 128 * 1024,
            warmup: Time::from_ms(20),
            seed: 1,
        }
    }
}

/// Summary of a memcached run.
#[derive(Debug, Clone)]
pub struct MemcachedReport {
    /// Requests completed after warm-up.
    pub completed: u64,
    /// Mean response time.
    pub mean: Time,
    /// 95th-percentile response time (the paper's tail metric).
    pub p95: Time,
    /// 99th-percentile response time.
    pub p99: Time,
    /// Maximum response time.
    pub max: Time,
    /// Achieved throughput in requests/second over the measured span.
    pub achieved_rps: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the next request's arrival time.
    Idle,
    /// Client-side request generation.
    Client,
    /// Server hash + dispatch.
    Hash,
    /// Metadata loads remaining.
    Meta(u64),
    /// Value lines remaining for the current item.
    Value(u64),
    /// Buffer stores remaining (socket/kernel traffic).
    Buffer(u64),
    /// Response construction; `next_op` after this records the sojourn.
    Resp,
}

/// The memcached workload engine. See [`MemcachedConfig`].
pub struct Memcached {
    cfg: MemcachedConfig,
    arrivals: ArrivalSource,
    zipf: Zipf,
    meta_rng: Zipf,
    phase: Phase,
    current_arrival: Time,
    next_arrival: Time,
    item_base: u64,
    item_bytes: u64,
    buffer_cursor: u64,
    sojourns: LatencySample,
    completed: u64,
    first_sample_at: Time,
    last_sample_at: Time,
}

impl Memcached {
    /// Creates the engine with the classic fixed-rate Poisson arrivals at
    /// `cfg.rps`.
    pub fn new(cfg: MemcachedConfig) -> Self {
        let arrivals = ArrivalSource::Poisson(PoissonArrivals::new(
            cfg.rps,
            cfg.seed,
            "memcached.arrivals",
        ));
        Self::with_arrivals(cfg, arrivals)
    }

    /// Creates the engine over an explicit arrival source (the fleet uses
    /// diurnal/flash-crowd [`ArrivalSource::Modulated`] processes here;
    /// `cfg.rps` is then ignored in favour of the source's rate profile).
    pub fn with_arrivals(cfg: MemcachedConfig, mut arrivals: ArrivalSource) -> Self {
        let next_arrival = arrivals.next_arrival();
        let item_bytes = cfg.value_lines * 64;
        Memcached {
            zipf: Zipf::new(cfg.items, cfg.zipf_s, cfg.seed, "memcached.items"),
            meta_rng: Zipf::new(cfg.meta_bytes / 64, 0.0, cfg.seed, "memcached.meta"),
            arrivals,
            phase: Phase::Idle,
            current_arrival: Time::ZERO,
            next_arrival,
            item_base: 0,
            item_bytes,
            buffer_cursor: 0,
            sojourns: LatencySample::new(),
            completed: 0,
            first_sample_at: Time::ZERO,
            last_sample_at: Time::ZERO,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MemcachedConfig {
        &self.cfg
    }

    /// Sets the dispatch scale on the arrival source (the load balancer's
    /// traffic share for this replica). Scaling up a fully drained replica
    /// re-draws the parked arrival so the engine wakes.
    ///
    /// # Panics
    ///
    /// Panics if the engine was built with fixed-rate arrivals ([`new`](Self::new)).
    pub fn set_arrival_scale(&mut self, scale: f64) {
        self.arrivals.set_scale(scale);
        if scale > 0.0 && self.next_arrival >= crate::arrivals::NEVER {
            self.next_arrival = self.arrivals.next_arrival();
        }
    }

    /// Takes the sojourn samples accumulated since the last call, leaving
    /// the cumulative counters (completed, span) untouched. The fleet
    /// drains this once per epoch to build per-tier distributions.
    pub fn take_sample(&mut self) -> LatencySample {
        std::mem::take(&mut self.sojourns)
    }

    /// Builds the run report (consumes nothing; callable at any point).
    pub fn report(&mut self) -> MemcachedReport {
        let span = self.last_sample_at.saturating_sub(self.first_sample_at);
        let achieved = if span > Time::ZERO && self.completed > 1 {
            (self.completed - 1) as f64 / span.as_secs()
        } else {
            0.0
        };
        MemcachedReport {
            completed: self.completed,
            mean: self.sojourns.mean(),
            p95: self.sojourns.percentile(0.95),
            p99: self.sojourns.percentile(0.99),
            max: self.sojourns.max(),
            achieved_rps: achieved,
        }
    }

    fn finish_request(&mut self, now: Time) {
        if now >= self.cfg.warmup {
            let sojourn = now.saturating_sub(self.current_arrival);
            self.sojourns.record(sojourn);
            if self.completed == 0 {
                self.first_sample_at = now;
            }
            self.last_sample_at = now;
            self.completed += 1;
        }
    }
}

impl WorkloadEngine for Memcached {
    fn name(&self) -> &str {
        "memcached"
    }

    fn next_op(&mut self, now: Time) -> Op {
        match self.phase {
            Phase::Idle => {
                if now < self.next_arrival {
                    return Op::IdleUntil(self.next_arrival);
                }
                // A request has arrived (possibly long ago: it queued).
                self.current_arrival = self.next_arrival;
                self.next_arrival = self.arrivals.next_arrival();
                self.phase = Phase::Client;
                Op::Compute(self.cfg.client_compute)
            }
            Phase::Client => {
                self.phase = Phase::Hash;
                Op::Compute(self.cfg.hash_compute)
            }
            Phase::Hash => {
                // Pick the item now; metadata then value accesses follow.
                let rank = self.zipf.sample();
                self.item_base = self.cfg.store_base + rank * self.item_bytes;
                self.phase = Phase::Meta(self.cfg.meta_loads);
                self.next_op(now)
            }
            Phase::Meta(0) => {
                self.phase = Phase::Value(self.cfg.value_lines);
                self.next_op(now)
            }
            Phase::Meta(n) => {
                self.phase = Phase::Meta(n - 1);
                let line = self.meta_rng.sample();
                Op::Load {
                    addr: LAddr::new(self.cfg.meta_base + line * 64),
                    blocking: true,
                }
            }
            Phase::Value(0) => {
                self.phase = Phase::Buffer(self.cfg.buffer_lines);
                self.next_op(now)
            }
            Phase::Value(n) => {
                self.phase = Phase::Value(n - 1);
                let offset = (self.cfg.value_lines - n) * 64;
                Op::Load {
                    addr: LAddr::new(self.item_base + offset),
                    blocking: true,
                }
            }
            Phase::Buffer(0) => {
                self.phase = Phase::Resp;
                Op::Compute(self.cfg.resp_compute)
            }
            Phase::Buffer(n) => {
                self.phase = Phase::Buffer(n - 1);
                let ring_lines = (self.cfg.buffer_ring_bytes / 64).max(1);
                let line = self.buffer_cursor % ring_lines;
                self.buffer_cursor += 1;
                Op::Store {
                    addr: LAddr::new(self.cfg.buffer_base + line * 64),
                }
            }
            Phase::Resp => {
                // The response compute has completed: the request is done.
                self.finish_request(now);
                self.phase = Phase::Idle;
                self.next_op(now)
            }
        }
    }

    crate::impl_engine_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Memcached {
        Memcached::new(MemcachedConfig {
            rps: 1_000_000.0, // 1 req/µs so tests run fast
            items: 16,
            value_lines: 4,
            meta_loads: 2,
            buffer_lines: 2,
            warmup: Time::ZERO,
            ..MemcachedConfig::default()
        })
    }

    /// Drives the engine with an idealised core: compute advances time,
    /// loads cost `load_latency`.
    fn drive(eng: &mut Memcached, until: Time, load_latency: Time) -> Time {
        let mut now = Time::ZERO;
        while now < until {
            match eng.next_op(now) {
                Op::Compute(c) => now += Time::from_units(c * 2),
                Op::Load { .. } => now += load_latency,
                Op::Store { .. } => now += Time::from_ns(1),
                Op::IdleUntil(t) => now = now.max(t),
                Op::Disk { .. } | Op::SetTag(_) | Op::Halt => break,
            }
        }
        now
    }

    #[test]
    fn requests_complete_and_are_measured() {
        let mut eng = tiny();
        drive(&mut eng, Time::from_ms(1), Time::from_ns(20));
        let report = eng.report();
        assert!(report.completed > 10, "got {}", report.completed);
        assert!(report.p95 >= report.mean || report.completed < 20);
        assert!(report.max >= report.p95);
    }

    #[test]
    fn slower_memory_means_higher_tail_latency() {
        // Low enough load that the queue stays stable in both runs.
        let cfg = MemcachedConfig {
            rps: 20_000.0,
            items: 16,
            value_lines: 100,
            meta_loads: 2,
            buffer_lines: 2,
            warmup: Time::ZERO,
            ..MemcachedConfig::default()
        };
        let mut fast = Memcached::new(cfg.clone());
        let mut slow = Memcached::new(cfg);
        drive(&mut fast, Time::from_ms(20), Time::from_ns(15));
        drive(&mut slow, Time::from_ms(20), Time::from_ns(200));
        let f = fast.report();
        let s = slow.report();
        assert!(s.p95 > f.p95, "slow {:?} !> fast {:?}", s.p95, f.p95);
    }

    #[test]
    fn overload_explodes_queueing_delay() {
        // Service time > inter-arrival time: sojourn grows without bound.
        let mut eng = Memcached::new(MemcachedConfig {
            rps: 100_000.0, // 10 µs between requests
            items: 16,
            value_lines: 100,
            meta_loads: 0,
            client_compute: 20_000, // 10 µs of compute alone
            hash_compute: 20_000,
            resp_compute: 20_000,
            warmup: Time::ZERO,
            seed: 3,
            ..MemcachedConfig::default()
        });
        drive(&mut eng, Time::from_ms(20), Time::from_ns(50));
        let r = eng.report();
        assert!(
            r.p95 > Time::from_ms(1),
            "expected queueing blow-up, got p95 {:?}",
            r.p95
        );
    }

    #[test]
    fn addresses_stay_in_configured_regions() {
        let mut eng = tiny();
        let store = eng.cfg.store_base;
        let meta = eng.cfg.meta_base;
        let meta_end = meta + eng.cfg.meta_bytes;
        let buf = eng.cfg.buffer_base;
        let buf_end = buf + eng.cfg.buffer_ring_bytes;
        let mut now = Time::ZERO;
        for _ in 0..500 {
            match eng.next_op(now) {
                Op::Load { addr, blocking } => {
                    assert!(blocking);
                    let a = addr.raw();
                    assert!(
                        (a >= store) || (a >= meta && a < meta_end),
                        "stray load address {a:#x}"
                    );
                    now += Time::from_ns(10);
                }
                Op::Store { addr } => {
                    let a = addr.raw();
                    assert!((a >= buf) && (a < buf_end), "stray store address {a:#x}");
                    now += Time::from_ns(1);
                }
                Op::Compute(c) => now += Time::from_units(c * 2),
                Op::IdleUntil(t) => now = now.max(t),
                other => panic!("unexpected op {other:?}"),
            }
        }
    }

    #[test]
    fn warmup_discards_early_samples() {
        let mut eng = Memcached::new(MemcachedConfig {
            rps: 1_000_000.0,
            items: 4,
            value_lines: 1,
            meta_loads: 0,
            warmup: Time::from_ms(100),
            ..MemcachedConfig::default()
        });
        drive(&mut eng, Time::from_ms(1), Time::from_ns(10));
        assert_eq!(eng.report().completed, 0, "all samples inside warm-up");
    }
}
