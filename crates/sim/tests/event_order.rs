//! Cross-ordering property tests for the packed-key heap [`EventQueue`]
//! and the kernel built on it: under randomized push/pop interleavings
//! the queue's pop sequence must match a reference sort by `(time, seq)`
//! exactly — including storms of equal-time ties, which only the `seq`
//! bits of the key can order, and delays from a few units to far-future
//! timers — and a [`Simulation`] driving
//! components must deliver the exact schedule of a reference executor,
//! however its run is sliced into calls and whichever driver (`step`,
//! `run`, `run_until`) runs it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

use pard_sim::audit::{AuditConfig, Auditor};
use pard_sim::check::{self, cases};
use pard_sim::rng::Rng;
use pard_sim::{Component, ComponentId, Ctx, EventQueue, RunConfig, Simulation, Time};

fn dst() -> ComponentId {
    ComponentId::from_raw(0)
}

/// Drives `q` and a sorted reference with the same operations; each pop
/// must return the reference's front.
struct Cross {
    q: EventQueue<u64>,
    reference: Vec<(u64, u64)>, // (time units, seq), kept sorted
    seq: u64,
}

impl Cross {
    fn new() -> Self {
        Cross {
            q: EventQueue::new(),
            reference: Vec::new(),
            seq: 0,
        }
    }

    fn push(&mut self, units: u64) {
        self.q.push(Time::from_units(units), dst(), self.seq);
        let at = self.reference.partition_point(|&e| e < (units, self.seq));
        self.reference.insert(at, (units, self.seq));
        self.seq += 1;
    }

    fn pop_and_check(&mut self) {
        let expect = self.reference.remove(0);
        let got = self.q.pop().expect("queue and reference agree on len");
        assert_eq!((got.time.units(), got.seq), expect);
        assert_eq!(got.event, expect.1, "payload follows its (time, seq)");
    }

    fn drain(&mut self) {
        while !self.reference.is_empty() {
            self.pop_and_check();
        }
        assert!(self.q.pop().is_none());
        assert!(self.q.is_empty());
    }
}

#[test]
fn random_interleavings_match_reference_sort() {
    cases("event_order.random_interleavings", 128, |rng| {
        let mut x = Cross::new();
        let mut now = 0u64;
        let ops = rng.gen_range(10usize..400);
        for _ in 0..ops {
            if x.reference.is_empty() || rng.gen_bool(0.6) {
                // Mix delay scales: near-simultaneous hops, cache/DRAM
                // latencies, mid-range gaps and far-future timers.
                let delay = match rng.gen_range(0u32..4) {
                    0 => rng.gen_range(0u64..8),       // near ties
                    1 => rng.gen_range(0u64..512),     // memory hops
                    2 => rng.gen_range(0u64..6_000),   // mid-range
                    _ => rng.gen_range(0u64..500_000), // far timers
                };
                x.push(now + delay);
            } else {
                x.pop_and_check();
                now = now.max(x.reference.first().map_or(now, |&(t, _)| t));
            }
        }
        x.drain();
    });
}

#[test]
fn equal_time_ties_across_bucket_boundaries_pop_in_seq_order() {
    cases("event_order.tie_storm", 64, |rng| {
        let mut x = Cross::new();
        // A handful of distinct timestamps on a 64-unit grid, each
        // pushed many times interleaved with pops, so most orderings are
        // decided by `seq` alone.
        let base = rng.gen_range(0u64..10_000);
        let times: Vec<u64> = (0..rng.gen_range(2usize..6))
            .map(|_| base + rng.gen_range(0u64..40) * 64)
            .collect();
        for round in 0..rng.gen_range(4u32..30) {
            let t = times[rng.gen_range(0..times.len())];
            x.push(t);
            if round % 3 == 2 {
                x.pop_and_check();
            }
        }
        x.drain();
    });
}

#[test]
fn pops_between_refills_preserve_order_after_idle_gaps() {
    // Drain-to-empty then push far ahead, reusing freed payload slots;
    // ordering must survive arbitrarily many such idle gaps.
    cases("event_order.idle_gaps", 64, |rng| {
        let mut x = Cross::new();
        let mut now = 0u64;
        for _ in 0..rng.gen_range(2u32..10) {
            let burst = check::vec_of(rng, 1..20, |r| now + r.gen_range(0u64..300));
            for t in burst {
                x.push(t);
            }
            x.drain();
            now += rng.gen_range(1_000u64..10_000_000);
        }
    });
}

/// Base delay of the component-level tests: every forward travels a
/// whole multiple of it, so equal-time ties pile up on its multiples.
const HOP: u64 = 64;

/// Where a node forwards payload `ev`, and after how long: both derive
/// from the payload alone, so the kernel and the reference executor
/// generate the identical schedule.
fn forward(from: u32, ev: u64, fanout: u32) -> (u32, u64) {
    let dst = (u64::from(from) + ev) % u64::from(fanout);
    (dst as u32, HOP * (1 + ev % 3))
}

/// A node that forwards a decremented payload until it reaches zero.
struct Node {
    fanout: u32,
}

impl Component<u64> for Node {
    fn name(&self) -> &str {
        "node"
    }
    fn handle(&mut self, ev: u64, ctx: &mut Ctx<'_, u64>) {
        if ev == 0 {
            return;
        }
        let (dst, delay) = forward(ctx.self_id().raw(), ev, self.fanout);
        ctx.send(ComponentId::from_raw(dst), Time::from_units(delay), ev - 1);
    }
    pard_sim::impl_as_any!();
}

/// One delivery: `(time units, destination, payload)`.
type Delivery = (u64, u32, u64);

/// The delivery log of `n` nodes seeded with `(dst, at, payload)` posts,
/// run on the kernel up to `until` in the given call boundaries (each a
/// `run_until` deadline in units; `until` closes the last slice).
fn kernel_log(n: u32, seeds: &[(u32, u64, u64)], cuts: &[u64], until: u64) -> Vec<Delivery> {
    let mut sim: Simulation<u64> = Simulation::new();
    for _ in 0..n {
        sim.add_component(Box::new(Node { fanout: n }));
    }
    for &(dst, at, payload) in seeds {
        sim.post(ComponentId::from_raw(dst), Time::from_units(at), payload);
    }
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    sim.set_event_hook(Some(Box::new(move |t, dst, ev: &u64| {
        sink.lock().unwrap().push((t.units(), dst.raw(), *ev));
    })));
    for &cut in cuts.iter().chain(&[until]) {
        sim.run_until(Time::from_units(cut));
    }
    assert_eq!(sim.now(), Time::from_units(until));
    let log = log.lock().unwrap().clone();
    assert_eq!(log.len() as u64, sim.events_processed());
    log
}

/// The same schedule on a reference executor: a min-heap keyed by
/// `(time, seq)`, with `seq` the global post order — seeds first, then
/// every forward in the order it was sent.
fn reference_log(n: u32, seeds: &[(u32, u64, u64)], until: u64) -> Vec<Delivery> {
    let mut pending = BinaryHeap::new();
    let mut seq = 0u64;
    for &(dst, at, payload) in seeds {
        pending.push(Reverse((at, seq, dst, payload)));
        seq += 1;
    }
    let mut log = Vec::new();
    while let Some(Reverse((t, _, dst, ev))) = pending.pop() {
        if t > until {
            break;
        }
        log.push((t, dst, ev));
        if ev > 0 {
            let (next, delay) = forward(dst, ev, n);
            pending.push(Reverse((t + delay, seq, next, ev - 1)));
            seq += 1;
        }
    }
    log
}

/// Every node is seeded at the same few timestamps and every forward
/// lands on a multiple of the hop, so each delivery instant carries a
/// pile of equal-time ties from different senders. The kernel must
/// resolve them exactly in post order — the reference's order.
#[test]
fn equal_time_ties_deliver_in_post_order() {
    let n = 4u32;
    let mut seeds = Vec::new();
    for c in 0..n {
        for k in 1..6u64 {
            seeds.push((c, k * HOP, 3 + (u64::from(c) + k) % 4));
        }
    }
    let until = 10_000 * HOP;
    let log = kernel_log(n, &seeds, &[], until);
    let ties = log.windows(2).filter(|w| w[0].0 == w[1].0).count();
    assert!(ties > 20, "the schedule must be tie-heavy ({ties} ties)");
    assert_eq!(log, reference_log(n, &seeds, until));
}

/// Random schedules over random node counts, run as one call and as a
/// random number of `run_until` slices (cuts may land exactly on
/// delivery instants): every run must reproduce the reference executor
/// exactly. Delivery depends on the schedule alone, never on where the
/// caller split the run.
#[test]
fn seeded_random_schedules_match_reference_across_call_boundaries() {
    cases("event_order.component_schedules", 48, |rng| {
        let n = rng.gen_range(2u32..9);
        let seeds: Vec<(u32, u64, u64)> = (0..rng.gen_range(1usize..12))
            .map(|_| {
                (
                    rng.gen_range(0..n),
                    rng.gen_range(1u64..40) * HOP,
                    rng.gen_range(0u64..12),
                )
            })
            .collect();
        let until = 80 * HOP;
        let mut cuts = check::vec_of(rng, 1..12, |r| r.gen_range(0..until) / HOP * HOP);
        cuts.sort_unstable();

        let reference = reference_log(n, &seeds, until);
        assert_eq!(kernel_log(n, &seeds, &[], until), reference);
        assert_eq!(kernel_log(n, &seeds, &cuts, until), reference);
    });
}

/// A node that logs every delivery it handles, then forwards like
/// [`Node`].
struct LoggingNode {
    fanout: u32,
    log: Arc<Mutex<Vec<Delivery>>>,
}

impl Component<u64> for LoggingNode {
    fn name(&self) -> &str {
        "logging-node"
    }
    fn handle(&mut self, ev: u64, ctx: &mut Ctx<'_, u64>) {
        let me = ctx.self_id().raw();
        self.log.lock().unwrap().push((ctx.now().units(), me, ev));
        if ev > 0 {
            let (dst, delay) = forward(me, ev, self.fanout);
            ctx.send(ComponentId::from_raw(dst), Time::from_units(delay), ev - 1);
        }
    }
    pard_sim::impl_as_any!();
}

/// How a test drives a simulation to the end of its schedule.
#[derive(Clone, Copy, Debug)]
enum Driver {
    Step,
    Run,
    Slices(u64),
}

/// What watches the run: nothing (the kernel's bare delivery loop), an
/// event hook, or a strict auditor (the observed loop either way).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Observer {
    Bare,
    Hook,
    Audit,
}

/// A delivery log shared with the components or the hook writing it.
type Log = Arc<Mutex<Vec<Delivery>>>;

/// An event hook of the test machines.
type Hook = Box<dyn FnMut(Time, ComponentId, &u64) + Send>;

/// `n` logging nodes seeded with `seeds`, observed by `observer`; returns
/// the machine, the handlers' log and the hook's log.
fn logging_machine(
    n: u32,
    seeds: &[(u32, u64, u64)],
    observer: Observer,
) -> (Simulation<u64>, Log, Log) {
    let handled = Arc::new(Mutex::new(Vec::new()));
    let hooked = Arc::new(Mutex::new(Vec::new()));
    let config = if observer == Observer::Audit {
        let auditor = Auditor::new(AuditConfig::strict()).expect("an in-memory auditor");
        RunConfig {
            auditor: Some(Arc::new(auditor)),
            ..RunConfig::default()
        }
    } else {
        RunConfig::default()
    };
    let mut sim: Simulation<u64> = Simulation::with_config(config);
    for _ in 0..n {
        sim.add_component(Box::new(LoggingNode {
            fanout: n,
            log: Arc::clone(&handled),
        }));
    }
    for &(dst, at, payload) in seeds {
        sim.post(ComponentId::from_raw(dst), Time::from_units(at), payload);
    }
    if observer == Observer::Hook {
        sim.set_event_hook(Some(hook_into(&hooked)));
    }
    (sim, handled, hooked)
}

/// An event hook that appends every delivery it sees to `log`.
fn hook_into(log: &Log) -> Hook {
    let sink = Arc::clone(log);
    Box::new(move |t, dst, ev: &u64| {
        sink.lock().unwrap().push((t.units(), dst.raw(), *ev));
    })
}

/// The deliveries the handlers and the hook saw (the hook's log is empty
/// unless `observer` installs one), driving `n` logging nodes seeded with
/// `seeds` to completion with `driver`.
fn driven_logs(
    n: u32,
    seeds: &[(u32, u64, u64)],
    driver: Driver,
    observer: Observer,
    end: u64,
) -> [Vec<Delivery>; 2] {
    let (mut sim, handled, hooked) = logging_machine(n, seeds, observer);
    match driver {
        Driver::Step => while sim.step() {},
        Driver::Run => sim.run(),
        Driver::Slices(k) => {
            for i in 1..=k {
                sim.run_until(Time::from_units(end * i / k));
            }
            assert!(!sim.step(), "the slices drain the schedule");
        }
    }
    let logs = [handled, hooked].map(|l| l.lock().unwrap().clone());
    assert_eq!(logs[0].len() as u64, sim.events_processed());
    logs
}

/// The seeded multi-component schedule of the driver tests.
fn driver_schedule() -> (u32, Vec<(u32, u64, u64)>, u64) {
    let mut rng = pard_sim::rng::stream_rng(20, "event_order.drivers");
    let n = 6u32;
    let seeds: Vec<(u32, u64, u64)> = (0..40)
        .map(|_| {
            (
                rng.gen_range(0..n),
                rng.gen_range(0u64..200) * HOP / 4,
                rng.gen_range(0u64..60),
            )
        })
        .collect();
    (n, seeds, 400 * HOP)
}

/// One seeded multi-component schedule delivered by a `step()` loop, by
/// `run()` and by 1,000 `run_until` slices, each bare, hooked and
/// audited: every driver must hand the handlers (and the hook, when one
/// is installed) the identical `(time, dst, payload)` sequence, the
/// reference executor's, whichever delivery loop the kernel picked.
#[test]
fn every_driver_delivers_the_same_schedule() {
    let (n, seeds, end) = driver_schedule();
    let reference = reference_log(n, &seeds, end);
    assert!(
        reference.len() > 1_000,
        "a long schedule ({})",
        reference.len()
    );
    assert!(
        reference.last().unwrap().0 < end,
        "the schedule ends before `end`"
    );
    for driver in [Driver::Step, Driver::Run, Driver::Slices(1_000)] {
        for observer in [Observer::Bare, Observer::Hook, Observer::Audit] {
            let [handled, hooked] = driven_logs(n, &seeds, driver, observer, end);
            assert_eq!(
                handled, reference,
                "{driver:?}, {observer:?}: handler deliveries"
            );
            if observer == Observer::Hook {
                assert_eq!(hooked, reference, "{driver:?}: hook deliveries");
            } else {
                assert!(hooked.is_empty());
            }
        }
    }
}

/// A hook installed between two `run_until` calls of a bare run sees
/// every delivery of the second call, and removing it again returns the
/// machine to the bare loop without losing a delivery.
#[test]
fn a_hook_installed_between_calls_sees_the_whole_next_call() {
    let (n, seeds, end) = driver_schedule();
    let reference = reference_log(n, &seeds, end);
    let (mut sim, handled, hooked) = logging_machine(n, &seeds, Observer::Bare);
    let last = reference.last().unwrap().0;
    let cuts = [last / 3, 2 * last / 3, end];
    sim.run_until(Time::from_units(cuts[0]));
    let before = sim.events_processed() as usize;
    sim.set_event_hook(Some(hook_into(&hooked)));
    sim.run_until(Time::from_units(cuts[1]));
    let during = sim.events_processed() as usize;
    sim.set_event_hook(None);
    sim.run_until(Time::from_units(cuts[2]));
    assert!(0 < before && before < during && during < reference.len());
    assert_eq!(*hooked.lock().unwrap(), reference[before..during]);
    assert_eq!(*handled.lock().unwrap(), reference);
    assert_eq!(sim.events_processed() as usize, reference.len());
}

/// Where a forking node sends payload `ev`'s two children, and after how
/// long: both derive from the sender and the payload alone.
fn fork(from: u32, ev: u64, fanout: u32) -> [(u32, u64); 2] {
    [
        ((from + 1) % fanout, HOP * (1 + ev % 3)),
        ((from + ev as u32) % fanout, HOP * (2 + u64::from(from % 2))),
    ]
}

/// A node that forwards two copies of a decremented payload until it
/// reaches zero, so one seed of payload `d` grows to 2^d pending events.
struct ForkNode {
    fanout: u32,
}

impl Component<u64> for ForkNode {
    fn name(&self) -> &str {
        "fork-node"
    }
    fn handle(&mut self, ev: u64, ctx: &mut Ctx<'_, u64>) {
        if ev == 0 {
            return;
        }
        for (dst, delay) in fork(ctx.self_id().raw(), ev, self.fanout) {
            ctx.send(ComponentId::from_raw(dst), Time::from_units(delay), ev - 1);
        }
    }
    pard_sim::impl_as_any!();
}

/// Seeds a few forking trees far apart in time, so the kernel's pending
/// set grows from a handful of events past the queue's 64-key sorted run
/// and drains back below 16 several times mid-run. The kernel must
/// deliver the `(time, dst, payload)` sequence of a `BinaryHeap` executor
/// fed the same pushes, whichever layout holds the keys at the time.
#[test]
fn a_pending_set_crossing_the_run_bound_delivers_the_reference_schedule() {
    let n = 5u32;
    let seeds: Vec<(u32, u64, u64)> = (0..4u64)
        .flat_map(|k| {
            [
                (k as u32 % n, k * 1_000 * HOP, 8),
                (3, k * 1_000 * HOP + HOP, 7),
            ]
        })
        .collect();
    let until = 10_000 * HOP;

    // The reference: a min-heap keyed by `(time, seq)`, counting how often
    // its pending set rises past 64 and falls back to 16.
    let mut pending = BinaryHeap::new();
    let mut seq = 0u64;
    for &(dst, at, payload) in &seeds {
        pending.push(Reverse((at, seq, dst, payload)));
        seq += 1;
    }
    let mut reference = Vec::new();
    let (mut above, mut rises, mut falls) = (false, 0, 0);
    while let Some(Reverse((t, _, dst, ev))) = pending.pop() {
        reference.push((t, dst, ev));
        if ev > 0 {
            for (next, delay) in fork(dst, ev, n) {
                pending.push(Reverse((t + delay, seq, next, ev - 1)));
                seq += 1;
            }
        }
        if !above && pending.len() > 64 {
            (above, rises) = (true, rises + 1);
        } else if above && pending.len() <= 16 {
            (above, falls) = (false, falls + 1);
        }
    }
    assert!(
        rises >= 3 && falls >= 3,
        "{rises} rises past 64, {falls} falls to 16"
    );
    assert!(reference.last().unwrap().0 < until);

    let mut sim: Simulation<u64> = Simulation::new();
    for _ in 0..n {
        sim.add_component(Box::new(ForkNode { fanout: n }));
    }
    for &(dst, at, payload) in &seeds {
        sim.post(ComponentId::from_raw(dst), Time::from_units(at), payload);
    }
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    sim.set_event_hook(Some(Box::new(move |t, dst, ev: &u64| {
        sink.lock().unwrap().push((t.units(), dst.raw(), *ev));
    })));
    sim.run_until(Time::from_units(until));
    assert_eq!(*log.lock().unwrap(), reference);
}
