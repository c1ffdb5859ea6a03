//! Seeded randomized tests of the intra-computer-network primitives.

use pard_icn::{cpu_cycles, mem_cycles, to_cpu_cycles, to_mem_cycles, LAddr, Link, MAddr};
use pard_sim::check::{cases, vec_of, DEFAULT_CASES};
use pard_sim::rng::Rng;
use pard_sim::Time;

/// Cycle conversions round-trip within their own clock domain.
#[test]
fn cycle_round_trips() {
    cases("icn.cycle_round_trips", DEFAULT_CASES, |rng| {
        let n = rng.gen_range(0u64..(1 << 40));
        assert_eq!(to_cpu_cycles(cpu_cycles(n)), n);
        assert_eq!(to_mem_cycles(mem_cycles(n)), n);
    });
}

/// Line math: base ≤ addr, aligned, same line number; two addresses
/// share a line base iff they share a line number.
#[test]
fn line_math_is_consistent() {
    cases("icn.line_math_is_consistent", DEFAULT_CASES, |rng| {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let (la, lb) = (LAddr::new(a), LAddr::new(b));
        assert!(la.line_base().raw() <= a);
        assert!(la.line_base().is_line_aligned());
        assert_eq!(la.line_base().line_number(), la.line_number());
        assert_eq!(
            la.line_base() == lb.line_base(),
            la.line_number() == lb.line_number()
        );
        // The same algebra holds for machine addresses.
        let ma = MAddr::new(a);
        assert_eq!(ma.line_base().raw(), la.line_base().raw());
    });
}

/// Link deliveries are monotone in request order and never earlier
/// than `now + latency`.
#[test]
fn link_serialises_monotonically() {
    cases("icn.link_serialises_monotonically", DEFAULT_CASES, |rng| {
        let latency_ns = rng.gen_range(0u64..100);
        let bw = rng.gen_range(1.0f64..256.0);
        let sends = vec_of(rng, 1..50, |r| {
            (r.gen_range(0u64..1_000), r.gen_range(1u32..4096))
        });
        let mut link = Link::new(Time::from_ns(latency_ns), bw);
        let mut now = Time::ZERO;
        let mut last_delivery = Time::ZERO;
        for &(gap, bytes) in &sends {
            now += Time::from_ns(gap);
            let at = link.delivery_time(now, bytes);
            assert!(at >= now + Time::from_ns(latency_ns));
            assert!(at >= last_delivery, "deliveries reordered");
            last_delivery = at;
        }
    });
}

/// At infinite bandwidth the link is pure latency.
#[test]
fn latency_only_link_adds_constant() {
    cases(
        "icn.latency_only_link_adds_constant",
        DEFAULT_CASES,
        |rng| {
            let latency_ns = rng.gen_range(0u64..1000);
            let bytes = rng.gen_range(1u32..65536);
            let mut link = Link::latency_only(Time::from_ns(latency_ns));
            let t0 = link.delivery_time(Time::from_us(1), bytes);
            let t1 = link.delivery_time(Time::from_us(1), bytes);
            assert_eq!(t0, Time::from_us(1) + Time::from_ns(latency_ns));
            assert_eq!(t1, t0);
        },
    );
}
