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
use crate::event::EventQueue;
use crate::run::{self, RunState};
use crate::time::Time;
use crate::trace::{self, TraceVal};

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
/// The run state — the conservation ledger ([`audit`]), the trace sample
/// countdowns ([`trace`]) and the fault decision state
/// ([`fault`](crate::fault)) — belongs to the machine, not to a thread:
/// [`run`](Simulation::run), [`run_until`](Simulation::run_until),
/// [`step`](Simulation::step) and
/// [`with_component`](Simulation::with_component) lend it to the calling
/// thread for the length of the call (only while auditing, tracing or
/// fault injection is on), so a machine's audit, trace and fault
/// decisions stay its own however machines are interleaved on, or moved
/// between, threads.
///
/// See the [crate-level documentation](crate) for a full example.
pub struct Simulation<E> {
    kernel: Kernel<E>,
    run: RunState,
}

/// The event loop proper; [`Simulation`] wraps it with the run-state lend.
struct Kernel<E> {
    components: Vec<Option<Box<dyn Component<E>>>>,
    queue: EventQueue<E>,
    now: Time,
    stop_requested: bool,
    events_processed: u64,
    /// Observer invoked for the deliveries the kernel trace category
    /// keeps (see [`set_event_hook`](Simulation::set_event_hook)). `None`
    /// in normal operation, so the delivery loop pays only a branch.
    /// `Send` because whole machines move between `par_map` worker
    /// threads.
    event_hook: Option<Box<dyn FnMut(Time, ComponentId, &E) + Send>>,
    /// The hook sees one delivery in `hook_every`; `hook_left` more are
    /// skipped before the next one it sees. Re-read from the tracer at
    /// every run call and restarted when the tracer's generation
    /// (`hook_generation`) changes.
    hook_every: u32,
    hook_left: u32,
    hook_generation: u32,
    /// `(time, seq)` of the last delivered event; the invariant auditor
    /// checks lexicographic pop order against it. Only touched when
    /// auditing is on.
    audit_last: Option<(Time, u64)>,
}

/// Pending-event capacity reserved up front by [`Simulation::new`]: large
/// enough that the memory-system models never reallocate the queue's hot
/// tiers mid-run, small enough to be free for unit tests.
const DEFAULT_QUEUE_CAPACITY: usize = 1024;

impl<E: 'static> Simulation<E> {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Simulation {
            kernel: Kernel {
                components: Vec::new(),
                queue: EventQueue::with_capacity(DEFAULT_QUEUE_CAPACITY),
                now: Time::ZERO,
                stop_requested: false,
                events_processed: 0,
                event_hook: None,
                hook_every: 1,
                hook_left: 0,
                hook_generation: 0,
                audit_last: None,
            },
            run: RunState::default(),
        }
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
    /// its first after the tracer was installed); otherwise every
    /// delivery, which is what harnesses counting events see with tracing
    /// off. Sampled-out deliveries cost a counter decrement; with no hook
    /// installed the cost is a single branch.
    pub fn set_event_hook(&mut self, hook: Option<Box<dyn FnMut(Time, ComponentId, &E) + Send>>) {
        self.kernel.event_hook = hook;
    }

    /// Registers a component and returns its id.
    pub fn add_component(&mut self, component: Box<dyn Component<E>>) -> ComponentId {
        let components = &mut self.kernel.components;
        let id = ComponentId::from_raw(components.len() as u32);
        components.push(Some(component));
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
        let _lend = run::lend(&mut self.run);
        let slot = self
            .kernel
            .components
            .get_mut(id.raw() as usize)
            .and_then(Option::as_mut)
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
    /// the hook's trace sampling brought up to date first, and the call's
    /// deliveries added to the audit count after.
    fn call<R>(&mut self, f: impl FnOnce(&mut Kernel<E>) -> R) -> R {
        let _lend = run::lend(&mut self.run);
        let k = &mut self.kernel;
        if k.event_hook.is_some() {
            let (generation, every) = trace::kernel_sampling();
            if generation != k.hook_generation {
                k.hook_generation = generation;
                k.hook_left = 0;
            }
            k.hook_every = every;
        }
        let before = k.events_processed;
        let out = f(k);
        if audit::enabled() {
            audit::add_deliveries(self.kernel.events_processed - before);
        }
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
    fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "event queue produced a past event");
        if audit::enabled() {
            // Invariant 6: time never runs backwards, and deliveries come
            // in exact lexicographic (time, seq) order.
            if ev.time < self.now {
                audit::violation(
                    audit::AuditKind::Clock,
                    ev.time,
                    u16::MAX,
                    "past_event",
                    &[
                        ("now_units", TraceVal::U(self.now.units())),
                        ("seq", TraceVal::U(ev.seq)),
                    ],
                );
            }
            if let Some((last_time, last_seq)) = self.audit_last {
                if (ev.time, ev.seq) <= (last_time, last_seq) {
                    audit::violation(
                        audit::AuditKind::Clock,
                        ev.time,
                        u16::MAX,
                        "delivery_order",
                        &[
                            ("seq", TraceVal::U(ev.seq)),
                            ("last_seq", TraceVal::U(last_seq)),
                            ("last_units", TraceVal::U(last_time.units())),
                        ],
                    );
                }
            }
            self.audit_last = Some((ev.time, ev.seq));
        }
        self.now = ev.time;
        self.events_processed += 1;
        if let Some(hook) = &mut self.event_hook {
            if self.hook_left == 0 {
                self.hook_left = self.hook_every - 1;
                hook(self.now, ev.dst, &ev.event);
            } else {
                self.hook_left -= 1;
            }
        }

        // Temporarily take the component out of its slot so it can freely
        // schedule events to any component (including itself) via Ctx.
        let idx = ev.dst.raw() as usize;
        let mut component = self.components[idx]
            .take()
            .unwrap_or_else(|| panic!("event delivered to missing component {:?}", ev.dst));
        {
            let mut ctx = Ctx {
                now: self.now,
                self_id: ev.dst,
                queue: &mut self.queue,
                stop_requested: &mut self.stop_requested,
            };
            component.handle(ev.event, &mut ctx);
        }
        self.components[idx] = Some(component);
        true
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
        loop {
            if self.take_stop() || !self.step() {
                return;
            }
        }
    }

    fn run_until(&mut self, deadline: Time) {
        loop {
            if self.take_stop() {
                return;
            }
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => {
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
