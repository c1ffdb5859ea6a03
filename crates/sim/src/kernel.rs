//! The simulation kernel: component registry + event loop.
//!
//! [`Simulation`] is the one kernel every machine runs on: one event
//! queue, one loop, delivering in exact `(time, seq)` order. A simulated
//! machine's cores, crossbar, LLC and memory controller are coupled at
//! nanosecond latencies, so the simulator parallelises across whole
//! machines and experiment points ([`crate::par`]), never inside one
//! timeline. See `DESIGN.md` §12.

use crate::audit;
use crate::component::{Component, ComponentId};
use crate::event::{Due, EventQueue};
use crate::run::{Lend, RunConfig, RunState};
use crate::time::Time;
use crate::trace::TraceVal;

/// The scheduling context handed to a component while it handles an event.
///
/// `Ctx` is the only way components interact with the rest of the machine:
/// they read the clock with [`Ctx::now`] and schedule events with
/// [`Ctx::send`] / [`Ctx::send_at`].
pub struct Ctx<'a, E> {
    now: Time,
    self_id: ComponentId,
    queue: &'a mut EventQueue<E>,
    stop_requested: &'a mut bool,
}

impl<E> Ctx<'_, E> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the component currently handling an event.
    #[inline]
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Schedules `event` for `dst`, `delay` after the current time.
    #[inline]
    pub fn send(&mut self, dst: ComponentId, delay: Time, event: E) {
        self.queue.push(self.now + delay, dst, event);
    }

    /// Schedules `event` for `dst` at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — delivering events backwards in time
    /// would break causality.
    #[inline]
    pub fn send_at(&mut self, dst: ComponentId, at: Time, event: E) {
        assert!(at >= self.now, "cannot schedule an event in the past");
        self.queue.push(at, dst, event);
    }

    /// Asks the kernel to stop after the current event is handled: the run
    /// loop exits before the next event.
    pub fn request_stop(&mut self) {
        *self.stop_requested = true;
    }
}

/// A complete simulated machine: a registry of components, the event loop
/// that drives them, and the machine's run state.
///
/// The run state — the machine's [`RunConfig`] (tracer, auditor, fault
/// plan), its conservation ledger ([`audit`]), trace sample countdowns
/// ([`trace`](crate::trace)) and fault decision state
/// ([`fault`](crate::fault)) — belongs to the machine, not to a thread:
/// [`run`](Simulation::run), [`run_until`](Simulation::run_until),
/// [`step`](Simulation::step) and
/// [`with_component`](Simulation::with_component) lend it to the calling
/// thread for the length of the call (see [`crate::run`]), so a machine's
/// audit, trace and fault decisions stay its own however machines are
/// interleaved on, or moved between, threads.
///
/// See the [crate-level documentation](crate) for a full example.
pub struct Simulation<E> {
    kernel: Kernel<E>,
    run: RunState,
}

/// The event loop proper; [`Simulation`] wraps it with the run-state lend.
struct Kernel<E> {
    components: Vec<Box<dyn Component<E>>>,
    queue: EventQueue<E>,
    now: Time,
    stop_requested: bool,
    events_processed: u64,
    /// Observer invoked for the deliveries the kernel trace category
    /// keeps (see [`set_event_hook`](Simulation::set_event_hook)). `None`
    /// in normal operation, so run calls take the bare delivery loop.
    /// `Send` because whole machines move between worker threads.
    event_hook: Option<Box<dyn FnMut(Time, ComponentId, &E) + Send>>,
    /// The hook sees one delivery in `hook_every` (fixed by the machine's
    /// tracer); `hook_left` more are skipped before the next one it sees.
    hook_every: u32,
    hook_left: u32,
    /// `(time, seq)` of the last delivered event; the invariant auditor
    /// checks lexicographic pop order against it. Only touched when
    /// auditing is on.
    audit_last: Option<(Time, u64)>,
}

/// Pending-event capacity reserved up front by [`Simulation::new`]: large
/// enough that the memory-system models never reallocate the queue
/// mid-run, small enough to be free for unit tests.
const DEFAULT_QUEUE_CAPACITY: usize = 1024;

impl<E: 'static> Simulation<E> {
    /// Creates an empty, unobserved simulation at time zero.
    pub fn new() -> Self {
        Self::with_config(RunConfig::default())
    }

    /// Creates an empty simulation at time zero that traces, audits and
    /// injects faults as `config` says.
    pub fn with_config(config: RunConfig) -> Self {
        let hook_every = config.tracer.as_ref().map_or(1, |t| t.kernel_every());
        Simulation {
            kernel: Kernel {
                components: Vec::new(),
                queue: EventQueue::with_capacity(DEFAULT_QUEUE_CAPACITY),
                now: Time::ZERO,
                stop_requested: false,
                events_processed: 0,
                event_hook: None,
                hook_every,
                hook_left: 0,
                audit_last: None,
            },
            run: RunState::new(config),
        }
    }

    /// The machine's observation and fault configuration.
    pub fn run_config(&self) -> &RunConfig {
        &self.run.config
    }

    /// Lends the machine's run state to the calling thread until the
    /// returned guard drops, for harness code that makes the machine's
    /// parts emit outside a kernel call (firmware actions, metrics
    /// snapshots): their trace events, violations and fault decisions
    /// then reach this machine's configuration.
    pub fn lend(&mut self) -> Lend<'_> {
        self.run.lend()
    }

    /// Installs an observer called for delivered events, before the
    /// destination component handles them.
    ///
    /// The hook is a pure observer — it receives the delivery time, the
    /// destination, and a borrow of the event, and cannot schedule events
    /// or mutate components, so it can never perturb a run. The system
    /// model uses it to feed the kernel trace category
    /// ([`crate::trace`]), so the kernel shows it the deliveries that
    /// category keeps: while the kernel category is traced 1-in-N without
    /// a DS-id filter, every N-th delivery of this machine (counting from
    /// its first); otherwise every
    /// delivery, which is what harnesses counting events see with tracing
    /// off. Sampled-out deliveries cost a counter decrement. A run call
    /// on a machine with no hook and no auditor takes the bare delivery
    /// loop, which checks for neither.
    pub fn set_event_hook(&mut self, hook: Option<Box<dyn FnMut(Time, ComponentId, &E) + Send>>) {
        self.kernel.event_hook = hook;
    }

    /// Registers a component and returns its id.
    pub fn add_component(&mut self, component: Box<dyn Component<E>>) -> ComponentId {
        let components = &mut self.kernel.components;
        let id = ComponentId::from_raw(components.len() as u32);
        components.push(component);
        id
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.kernel.now
    }

    /// Total number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.kernel.events_processed
    }

    /// Events this machine's components received without a protocol arm
    /// for them ([`audit::unexpected_event`]), counted whether or not the
    /// machine is audited.
    pub fn unexpected_events(&self) -> u64 {
        self.run.unexpected_events()
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.kernel.components.len()
    }

    /// Schedules an event from outside the simulation (e.g. test or harness
    /// code), `delay` after the current time.
    pub fn post(&mut self, dst: ComponentId, delay: Time, event: E) {
        let k = &mut self.kernel;
        k.queue.push(k.now + delay, dst, event);
    }

    /// Runs `f` with a typed mutable reference to the component `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale or if the component is not a `T`.
    pub fn with_component<T: 'static, F, R>(&mut self, id: ComponentId, f: F) -> R
    where
        F: FnOnce(&mut T) -> R,
    {
        let _lend = self.run.lend();
        let slot = self
            .kernel
            .components
            .get_mut(id.raw() as usize)
            .unwrap_or_else(|| panic!("no component registered with {id:?}"));
        let any = slot.as_any_mut();
        let typed = any
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("component {id:?} is not the requested type"));
        f(typed)
    }

    /// Delivers the next pending event, if any. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        self.call(Kernel::step)
    }

    /// Runs until the event queue drains or a component requests a stop.
    pub fn run(&mut self) {
        self.call(Kernel::run);
    }

    /// Runs until simulated time reaches `deadline` (events at exactly
    /// `deadline` are delivered), the queue drains, or a stop is requested.
    pub fn run_until(&mut self, deadline: Time) {
        self.call(|k| k.run_until(deadline));
    }

    /// Runs `f` on the event loop with the run state lent to this thread,
    /// and the call's deliveries added to the audit count after.
    fn call<R>(&mut self, f: impl FnOnce(&mut Kernel<E>) -> R) -> R {
        let _lend = self.run.lend();
        let before = self.kernel.events_processed;
        let out = f(&mut self.kernel);
        audit::add_deliveries(self.kernel.events_processed - before);
        out
    }

    /// Runs for `span` of simulated time from the current clock.
    pub fn run_for(&mut self, span: Time) {
        let deadline = self.kernel.now + span;
        self.run_until(deadline);
    }
}

impl<E: 'static> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: 'static> Kernel<E> {
    /// Whether this call's deliveries need the observed loop: the run is
    /// audited (delivery-order check) or an event hook is installed.
    /// Neither can change during a call — the run state is lent for its
    /// length, and the hook is set only between calls — so each run call
    /// picks its loop once, and the bare loop carries neither branch.
    fn observed(&self) -> bool {
        audit::enabled() || self.event_hook.is_some()
    }

    fn step(&mut self) -> bool {
        if self.observed() {
            self.step_with::<true>()
        } else {
            self.step_with::<false>()
        }
    }

    fn step_with<const OBSERVED: bool>(&mut self) -> bool {
        let Some(due) = self.queue.pop_due(Time::MAX) else {
            return false;
        };
        self.deliver::<OBSERVED>(due);
        true
    }

    /// Delivers one popped event: audit, clock, hook, then the
    /// destination component's `handle`. The hook sees the payload in its
    /// slot; the payload then moves out of the slot once, straight into
    /// `handle`. The bare form (`OBSERVED` false) skips the audit and hook
    /// checks, which its caller found off for the whole call.
    #[inline]
    fn deliver<const OBSERVED: bool>(&mut self, due: Due) {
        debug_assert!(due.time >= self.now, "event queue produced a past event");
        debug_assert!(OBSERVED || !self.observed(), "bare loop on an observed run");
        if OBSERVED && audit::enabled() {
            self.audit_order(&due);
        }
        self.now = due.time;
        self.events_processed += 1;
        if OBSERVED {
            if let Some(hook) = &mut self.event_hook {
                if self.hook_left == 0 {
                    self.hook_left = self.hook_every - 1;
                    hook(self.now, due.dst, self.queue.payload(&due));
                } else {
                    self.hook_left -= 1;
                }
            }
        }

        // The payload leaves its slot before the handler can push into
        // it. The component is borrowed in place: `Ctx` borrows only the
        // queue and the stop flag, disjoint fields of the kernel, so the
        // component can schedule events to any component (itself too).
        let dst = due.dst;
        let event = self.queue.take(due);
        let component = self
            .components
            .get_mut(dst.raw() as usize)
            .unwrap_or_else(|| panic!("event delivered to missing component {dst:?}"));
        let mut ctx = Ctx {
            now: self.now,
            self_id: dst,
            queue: &mut self.queue,
            stop_requested: &mut self.stop_requested,
        };
        component.handle(event, &mut ctx);
    }

    /// Invariant 6: time never runs backwards, and deliveries come in
    /// exact lexicographic (time, seq) order. Out of line: only audited
    /// runs reach it.
    #[inline(never)]
    fn audit_order(&mut self, due: &Due) {
        if due.time < self.now {
            audit::violation(
                audit::AuditKind::Clock,
                due.time,
                u16::MAX,
                "past_event",
                &[
                    ("now_units", TraceVal::U(self.now.units())),
                    ("seq", TraceVal::U(due.seq)),
                ],
            );
        }
        if let Some((last_time, last_seq)) = self.audit_last {
            if (due.time, due.seq) <= (last_time, last_seq) {
                audit::violation(
                    audit::AuditKind::Clock,
                    due.time,
                    u16::MAX,
                    "delivery_order",
                    &[
                        ("seq", TraceVal::U(due.seq)),
                        ("last_seq", TraceVal::U(last_seq)),
                        ("last_units", TraceVal::U(last_time.units())),
                    ],
                );
            }
        }
        self.audit_last = Some((due.time, due.seq));
    }

    /// Consumes a pending stop request, clearing the flag.
    ///
    /// Both run loops check (and reset) the flag through this single
    /// path, so a stop requested by the last event before *any* exit —
    /// including one at exactly a `run_until` deadline — is observed
    /// before another event can be delivered.
    #[inline]
    fn take_stop(&mut self) -> bool {
        std::mem::take(&mut self.stop_requested)
    }

    fn run(&mut self) {
        if self.observed() {
            self.run_with::<true>();
        } else {
            self.run_with::<false>();
        }
    }

    fn run_with<const OBSERVED: bool>(&mut self) {
        loop {
            if self.take_stop() || !self.step_with::<OBSERVED>() {
                return;
            }
        }
    }

    fn run_until(&mut self, deadline: Time) {
        if self.observed() {
            self.run_until_with::<true>(deadline);
        } else {
            self.run_until_with::<false>(deadline);
        }
    }

    fn run_until_with<const OBSERVED: bool>(&mut self, deadline: Time) {
        loop {
            if self.take_stop() {
                return;
            }
            match self.queue.pop_due(deadline) {
                Some(due) => self.deliver::<OBSERVED>(due),
                None => {
                    // Advance the clock to the deadline even if idle, so that
                    // successive run_until calls observe monotonic time.
                    if self.now < deadline {
                        self.now = deadline;
                    }
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_as_any;
    use crate::sync::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Msg {
        Ping,
        Pong,
    }

    struct Pinger {
        peer: ComponentId,
        pongs: u32,
        limit: u32,
    }

    impl Component<Msg> for Pinger {
        fn name(&self) -> &str {
            "pinger"
        }
        fn handle(&mut self, ev: Msg, ctx: &mut Ctx<'_, Msg>) {
            match ev {
                Msg::Pong => {
                    self.pongs += 1;
                    if self.pongs < self.limit {
                        ctx.send(self.peer, Time::from_ns(1), Msg::Ping);
                    }
                }
                Msg::Ping => ctx.send(self.peer, Time::from_ns(1), Msg::Ping),
            }
        }
        impl_as_any!();
    }

    struct Ponger {
        peer: ComponentId,
    }

    impl Component<Msg> for Ponger {
        fn name(&self) -> &str {
            "ponger"
        }
        fn handle(&mut self, ev: Msg, ctx: &mut Ctx<'_, Msg>) {
            if ev == Msg::Ping {
                ctx.send(self.peer, Time::from_ns(1), Msg::Pong);
            }
        }
        impl_as_any!();
    }

    fn build(limit: u32) -> (Simulation<Msg>, ComponentId) {
        let mut sim = Simulation::new();
        let pinger_id = sim.add_component(Box::new(Pinger {
            peer: ComponentId::UNWIRED,
            pongs: 0,
            limit,
        }));
        let ponger_id = sim.add_component(Box::new(Ponger { peer: pinger_id }));
        sim.with_component::<Pinger, _, _>(pinger_id, |p| p.peer = ponger_id);
        sim.post(ponger_id, Time::ZERO, Msg::Ping);
        (sim, pinger_id)
    }

    #[test]
    fn ping_pong_round_trips() {
        let (mut sim, pinger) = build(5);
        sim.run();
        sim.with_component::<Pinger, _, _>(pinger, |p| assert_eq!(p.pongs, 5));
        // 5 pongs: ping->pong pairs plus the initial ping.
        assert_eq!(sim.events_processed(), 10);
    }

    #[test]
    fn run_until_respects_deadline_and_advances_clock() {
        let (mut sim, _) = build(1_000_000);
        sim.run_until(Time::from_ns(10));
        assert_eq!(sim.now(), Time::from_ns(10));
        // Events at 1ns intervals: at most ~10 delivered.
        assert!(sim.events_processed() <= 11);

        // Idle advance: no events pending beyond the deadline.
        let mut idle: Simulation<Msg> = Simulation::new();
        idle.run_until(Time::from_us(3));
        assert_eq!(idle.now(), Time::from_us(3));
    }

    #[test]
    fn run_for_is_relative() {
        let (mut sim, _) = build(1_000_000);
        sim.run_for(Time::from_ns(4));
        sim.run_for(Time::from_ns(4));
        assert_eq!(sim.now(), Time::from_ns(8));
    }

    struct Stopper;
    impl Component<Msg> for Stopper {
        fn name(&self) -> &str {
            "stopper"
        }
        fn handle(&mut self, _ev: Msg, ctx: &mut Ctx<'_, Msg>) {
            ctx.request_stop();
        }
        impl_as_any!();
    }

    #[test]
    fn request_stop_halts_run() {
        let mut sim = Simulation::new();
        let id = sim.add_component(Box::new(Stopper));
        sim.post(id, Time::from_ns(1), Msg::Ping);
        sim.post(id, Time::from_ns(2), Msg::Ping);
        sim.run();
        assert_eq!(sim.events_processed(), 1);
        // The stop flag resets; a subsequent run drains the queue.
        sim.run();
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn stop_at_exact_run_until_deadline_is_not_dropped() {
        let deadline = Time::from_ns(5);
        let mut sim = Simulation::new();
        let id = sim.add_component(Box::new(Stopper));
        // Two events at exactly the deadline: the first requests a stop,
        // so the second must stay queued for the next run.
        sim.post(id, deadline, Msg::Ping);
        sim.post(id, deadline, Msg::Ping);
        sim.run_until(deadline);
        assert_eq!(sim.events_processed(), 1, "stop at the deadline dropped");
        assert_eq!(sim.now(), deadline);
        // The flag must not leak into the next run either.
        sim.run_until(deadline);
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    #[should_panic(expected = "event delivered to missing component")]
    fn event_for_an_unregistered_component_panics() {
        let (mut sim, _) = build(1);
        sim.post(ComponentId::from_raw(7), Time::ZERO, Msg::Ping);
        sim.run();
    }

    /// A payload that counts its own drops.
    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Consumes (and so drops) every payload it is handed.
    struct Sink;
    impl Component<Counted> for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn handle(&mut self, _ev: Counted, _ctx: &mut Ctx<'_, Counted>) {}
        impl_as_any!();
    }

    fn counted_machine(posts: u64) -> (Simulation<Counted>, ComponentId, Arc<AtomicUsize>) {
        let drops = Arc::new(AtomicUsize::new(0));
        let mut sim = Simulation::new();
        let id = sim.add_component(Box::new(Sink));
        for i in 0..posts {
            sim.post(id, Time::from_ns(i), Counted(drops.clone()));
        }
        (sim, id, drops)
    }

    #[test]
    fn pending_payloads_drop_once_with_the_machine() {
        let (mut sim, _, drops) = counted_machine(5);
        // The sink pushes nothing, so each step leaves the heap's root
        // vacant; the delivered payload is the handler's to drop.
        assert!(sim.step());
        assert!(sim.step());
        assert_eq!(drops.load(Ordering::Relaxed), 2);
        drop(sim);
        assert_eq!(drops.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn a_payload_for_a_missing_component_drops_once() {
        let (mut sim, id, drops) = counted_machine(2);
        sim.post(
            ComponentId::from_raw(id.raw() + 1),
            Time::ZERO,
            Counted(drops.clone()),
        );
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
            .expect_err("delivery to a missing component panics");
        let msg = err.downcast_ref::<String>().map_or("", String::as_str);
        assert!(
            msg.contains("event delivered to missing component"),
            "{msg}"
        );
        // The first post was delivered, the misrouted one dropped while
        // unwinding; the last is still pending.
        assert_eq!(drops.load(Ordering::Relaxed), 2);
        drop(sim);
        assert_eq!(drops.load(Ordering::Relaxed), 3);
    }

    #[test]
    #[should_panic(expected = "not the requested type")]
    fn with_component_wrong_type_panics() {
        let (mut sim, pinger) = build(1);
        sim.with_component::<Ponger, _, _>(pinger, |_| ());
    }

    #[test]
    fn event_hook_observes_every_delivery() {
        let (mut sim, _) = build(3);
        let seen: Arc<Mutex<Vec<(Time, Msg)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        sim.set_event_hook(Some(Box::new(move |t, _dst, ev: &Msg| {
            sink.lock().push((t, *ev));
        })));
        sim.run();
        assert_eq!(seen.lock().len() as u64, sim.events_processed());
        assert_eq!(seen.lock()[0], (Time::ZERO, Msg::Ping));
        // Removing the hook stops observation without disturbing the run.
        sim.set_event_hook(None);
        sim.post(ComponentId::from_raw(0), Time::from_ns(1), Msg::Pong);
        sim.run();
        assert_eq!(seen.lock().len() as u64, sim.events_processed() - 1);
    }
}
