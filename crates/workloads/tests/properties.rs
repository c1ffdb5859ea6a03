//! Seeded randomized tests of the workload engines.

use pard_sim::check::{cases, DEFAULT_CASES};
use pard_sim::rng::Rng;
use pard_sim::Time;
use pard_workloads::{
    by_name, CacheFlush, Memcached, MemcachedConfig, Op, Stream, StreamConfig, TimeShared,
    WorkloadEngine,
};

/// Collects the addresses an engine touches under an idealised core.
fn addresses(engine: &mut dyn WorkloadEngine, n: usize) -> Vec<u64> {
    let mut now = Time::ZERO;
    let mut out = Vec::new();
    while out.len() < n {
        match engine.next_op(now) {
            Op::Load { addr, .. } | Op::Store { addr } => {
                out.push(addr.raw());
                now += Time::from_ns(10);
            }
            Op::Compute(c) => now += Time::from_units(c * 2),
            Op::IdleUntil(t) => now = now.max(t),
            Op::SetTag(_) => now += Time::from_ns(10),
            Op::Disk { .. } => now += Time::from_us(100),
            Op::Halt => break,
        }
    }
    out
}

/// STREAM touches exactly its three arrays, line-aligned, and every
/// address stays within the configured footprint.
#[test]
fn stream_addresses_stay_in_bounds() {
    cases(
        "workloads.stream_addresses_stay_in_bounds",
        DEFAULT_CASES,
        |rng| {
            let arrays_kb = rng.gen_range(1u64..64);
            let base_mb = rng.gen_range(0u64..64);
            let bytes = arrays_kb * 1024;
            let base = base_mb << 20;
            let mut s = Stream::new(StreamConfig {
                array_bytes: bytes,
                base,
                compute_per_block: 4,
            });
            for a in addresses(&mut s, 500) {
                assert!(a >= base);
                assert!(a < base + 3 * bytes);
                assert_eq!(a % 64, 0);
            }
        },
    );
}

/// CacheFlush covers its whole buffer exactly once per pass, in order.
#[test]
fn cacheflush_covers_every_line() {
    cases(
        "workloads.cacheflush_covers_every_line",
        DEFAULT_CASES,
        |rng| {
            let lines = rng.gen_range(1u64..128);
            let mut f = CacheFlush::new(0x1000, lines * 64);
            let addrs = addresses(&mut f, lines as usize);
            let expected: Vec<u64> = (0..lines).map(|i| 0x1000 + i * 64).collect();
            assert_eq!(addrs, expected);
            assert_eq!(f.passes(), 1);
        },
    );
}

/// Memcached sojourn measurements never go backwards in time and the
/// reported percentiles are ordered, for any load level.
#[test]
fn memcached_reports_are_internally_consistent() {
    cases("workloads.memcached_reports_consistent", 64, |rng| {
        let rps = rng.gen_range(1_000.0f64..200_000.0);
        let mut m = Memcached::new(MemcachedConfig {
            rps,
            items: 32,
            value_lines: 8,
            buffer_lines: 4,
            meta_loads: 2,
            warmup: Time::ZERO,
            ..MemcachedConfig::default()
        });
        let mut now = Time::ZERO;
        while now < Time::from_ms(2) {
            match m.next_op(now) {
                Op::Compute(c) => now += Time::from_units(c * 2),
                Op::IdleUntil(t) => now = now.max(t),
                Op::Halt => break,
                _ => now += Time::from_ns(20),
            }
        }
        let r = m.report();
        assert!(r.mean <= r.max);
        assert!(r.p95 <= r.p99);
        assert!(r.p99 <= r.max);
    });
}

/// TimeShared preserves the inner engines' work: every load/store it
/// forwards comes from the active process, and tags strictly alternate
/// between switches for two CPU-bound processes.
#[test]
fn timeshared_interleaves_fairly() {
    cases("workloads.timeshared_interleaves_fairly", 64, |rng| {
        let slice_us = rng.gen_range(10u64..200);
        let mut e = TimeShared::new(
            vec![
                (1, Box::new(CacheFlush::new(0, 4096))),
                (2, Box::new(CacheFlush::new(0x10000, 4096))),
            ],
            Time::from_us(slice_us),
        );
        let mut now = Time::ZERO;
        let mut tag = 0u16;
        let mut per_tag = [0u64; 3];
        while now < Time::from_ms(2) {
            match e.next_op(now) {
                Op::SetTag(t) => {
                    assert_ne!(t, tag, "switch must change the tag");
                    tag = t;
                    now += Time::from_ns(100);
                }
                Op::Store { addr } => {
                    // Address region identifies the process: tags must match.
                    let owner = if addr.raw() < 0x10000 { 1 } else { 2 };
                    assert_eq!(owner, tag, "work under the wrong tag");
                    per_tag[usize::from(tag)] += 1;
                    now += Time::from_ns(10);
                }
                Op::Compute(c) => now += Time::from_units(c * 2),
                Op::IdleUntil(t) => now = now.max(t),
                _ => now += Time::from_ns(10),
            }
        }
        // Round robin with equal slices: within 30% of each other.
        let (a, b) = (per_tag[1] as f64, per_tag[2] as f64);
        assert!(a > 0.0 && b > 0.0);
        assert!((a / b - 1.0).abs() < 0.3, "unfair split {a} vs {b}");
    });
}

#[test]
fn factory_names_are_stable() {
    for &name in pard_workloads::known_workloads() {
        assert!(by_name(name).is_some());
    }
}
