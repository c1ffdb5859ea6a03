//! Randomized invariant tests of the kernel's core data structures,
//! driven by the first-party seeded [`check`](pard_sim::check) harness.

use pard_sim::check::{cases, vec_of};
use pard_sim::rng::Rng;
use pard_sim::stats::LatencySample;
use pard_sim::{ComponentId, EventQueue, Time};

/// The event queue delivers in (time, insertion-order): popping yields
/// a sequence sorted by time, stable for equal timestamps.
#[test]
fn event_queue_pops_sorted_and_stable() {
    cases("event_queue_pops_sorted_and_stable", 256, |rng| {
        let times = vec_of(rng, 1..200, |r| r.gen_range(0u64..1000));
        let mut q = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.push(Time::from_ns(t), ComponentId::from_raw(0), seq);
        }
        let mut last: Option<(Time, usize)> = None;
        while let Some(ev) = q.pop() {
            if let Some((lt, lseq)) = last {
                assert!(ev.time >= lt);
                if ev.time == lt {
                    assert!(ev.event > lseq, "equal times must pop in insertion order");
                }
            }
            last = Some((ev.time, ev.event));
        }
    });
}

/// Nearest-rank percentiles are monotone in p and bounded by min/max.
#[test]
fn percentiles_are_monotone() {
    cases("percentiles_are_monotone", 256, |rng| {
        let values = vec_of(rng, 1..300, |r| r.gen_range(0u64..1_000_000));
        let mut s = LatencySample::new();
        for &v in &values {
            s.record(Time::from_units(v));
        }
        let ps = [0.0, 0.25, 0.5, 0.75, 0.95, 1.0];
        let qs: Vec<Time> = ps.iter().map(|&p| s.percentile(p)).collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1]);
        }
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        assert_eq!(qs[0], Time::from_units(min));
        assert_eq!(*qs.last().unwrap(), Time::from_units(max));
    });
}

/// A latency sample's CDF ends at exactly 1.0 and is non-decreasing in
/// both coordinates.
#[test]
fn cdf_is_a_distribution() {
    cases("cdf_is_a_distribution", 256, |rng| {
        let values = vec_of(rng, 1..200, |r| r.gen_range(0u64..10_000));
        let mut s = LatencySample::new();
        for &v in &values {
            s.record(Time::from_units(v));
        }
        let cdf = s.cdf();
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 < w[1].1 + 1e-12);
        }
    });
}

/// Time alignment: align_up produces a multiple of the quantum, is
/// >= the input, and is idempotent.
#[test]
fn align_up_properties() {
    cases("align_up_properties", 256, |rng| {
        let t = rng.gen_range(0u64..u64::from(u32::MAX));
        let q = rng.gen_range(1u64..10_000);
        let time = Time::from_units(t);
        let quantum = Time::from_units(q);
        let aligned = time.align_up(quantum);
        assert!(aligned >= time);
        assert_eq!(aligned.units() % q, 0);
        assert_eq!(aligned.align_up(quantum), aligned);
        assert!(aligned.units() - t < q);
    });
}
