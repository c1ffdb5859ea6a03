//! Deterministic fault injection: a seeded schedule of degradation
//! windows that component models consult on their hot paths.
//!
//! PARD's value proposition is differentiated service *preserved under
//! adversity*: a trigger detects an SLA breach from per-DS-id statistics
//! and the PRM reprograms resources to protect the high-priority LDom.
//! Exercising that loop needs faults, and faults in a deterministic
//! simulator must themselves be deterministic. This module provides the
//! schedule: a [`FaultPlan`] — a seed plus a list of [`FaultEvent`]
//! windows — installed process-globally like the trace and audit
//! configuration.
//!
//! # Fault taxonomy
//!
//! Every fault is realized *inside* an existing component model as an
//! extra latency or an accounted drop decision, never as an un-conserved
//! packet, so the audit layer stays green under `PARD_AUDIT=strict`:
//!
//! * [`FaultKind::DramSlow`] — bank slowdown / transient stall: extra
//!   service latency on matching banks, which extends data-bus occupancy
//!   and thereby backpressures the command queues (the memory controller
//!   adds it to the transfer time).
//! * [`FaultKind::IdeDegrade`] — quota-engine degradation: the per-tick
//!   quantum shrinks to `quota_pct` percent, and optionally one in
//!   `drop_one_in` queued requests is aborted (completed early with the
//!   bytes moved so far, so the issuing engine never hangs).
//! * [`FaultKind::NicFlap`] — link flap: arriving frames are lost with
//!   probability `loss_pct` percent *before* any DMA or interrupt is
//!   generated, through the NIC's existing drop counter.
//! * [`FaultKind::XbarBackpressure`] — crossbar port backpressure: extra
//!   delivery delay on matching ports.
//!
//! # Determinism contract
//!
//! All injection decisions are pure functions of the installed plan, the
//! query arguments (simulated time, bank, port) and a per-machine
//! decision state: a snapshot of the plan, the NIC loss RNG (seeded from
//! [`FaultPlan::seed`] via [`stream_rng`]) and the IDE drop counter. The
//! decision state belongs to the simulated machine: it is part of the run
//! state its [`Simulation`](crate::Simulation) lends to whichever thread
//! runs it (`crate::run`). A machine's decision sequence therefore
//! depends only on its own event order — not on which worker thread runs
//! which machine under any `PARD_THREADS`, nor on other machines
//! interleaved on the same thread. A fresh machine starts a fresh
//! sequence, and every [`install`] / [`disable`] restarts every machine's
//! sequence on its next query. Queries outside any machine (unit tests
//! driving components by hand) use the calling thread's own state.
//!
//! # Cost when disabled
//!
//! Same pattern as [`trace`](crate::trace) and [`audit`](crate::audit):
//! a single relaxed atomic load ([`enabled`]) guards every hot path. No
//! plan — or an empty plan — publishes a zero mask, and every simulation
//! byte-identically matches an un-faulted build. A query behind the guard
//! reads the machine's plan snapshot; it takes the plan lock only on the
//! first query after an [`install`] / [`disable`].
//!
//! The JSON spec format for fault plans (the `PARD_FAULT_PLAN`
//! environment contract) is parsed by `pard-bench::fault_spec`, which
//! depends on this crate — the simulator core stays dependency-free.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::rng::{stream_rng, Rng, Xoshiro256pp};
use crate::time::Time;

/// The four injectable fault classes, one bit each in the global guard
/// mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// DRAM bank slowdowns / transient stalls.
    Dram,
    /// IDE quota-engine degradation and request drops.
    Ide,
    /// NIC link flaps with frame loss.
    Nic,
    /// Crossbar port backpressure.
    Xbar,
}

impl FaultClass {
    /// The class's bit in the guard mask.
    #[inline]
    pub fn bit(self) -> u32 {
        match self {
            FaultClass::Dram => 1 << 0,
            FaultClass::Ide => 1 << 1,
            FaultClass::Nic => 1 << 2,
            FaultClass::Xbar => 1 << 3,
        }
    }

    /// The spec-file name of the class.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Dram => "dram_slow",
            FaultClass::Ide => "ide_degrade",
            FaultClass::Nic => "nic_flap",
            FaultClass::Xbar => "xbar_backpressure",
        }
    }
}

/// What one fault window does while active.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Extra service latency on DRAM accesses. `banks = None` slows the
    /// whole device (a transient stall); `Some(list)` slows only the
    /// listed banks.
    DramSlow {
        /// Flat-indexed banks affected, or `None` for all.
        banks: Option<Vec<u32>>,
        /// Extra latency added to each affected access's transfer.
        extra: Time,
    },
    /// IDE quota-engine degradation.
    IdeDegrade {
        /// The per-tick quantum is scaled to this percentage (0–100).
        quota_pct: u32,
        /// Abort one in this many queued requests per scheduling
        /// opportunity; `0` disables request drops.
        drop_one_in: u32,
    },
    /// NIC link flap: arriving frames are lost with this probability in
    /// percent.
    NicFlap {
        /// Frame-loss probability in percent (0–100).
        loss_pct: u32,
    },
    /// Crossbar port backpressure: extra delivery delay.
    XbarBackpressure {
        /// Source port affected, or `None` for every port.
        port: Option<u32>,
        /// Extra delay added to each affected delivery.
        extra: Time,
    },
}

impl FaultKind {
    /// The fault class this kind belongs to.
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::DramSlow { .. } => FaultClass::Dram,
            FaultKind::IdeDegrade { .. } => FaultClass::Ide,
            FaultKind::NicFlap { .. } => FaultClass::Nic,
            FaultKind::XbarBackpressure { .. } => FaultClass::Xbar,
        }
    }
}

/// One scheduled fault window, active over `start..end` of simulated
/// time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// First instant the fault is active.
    pub start: Time,
    /// First instant the fault is no longer active (exclusive).
    pub end: Time,
    /// What the window does.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Whether the window covers `now`.
    #[inline]
    pub fn active_at(&self, now: Time) -> bool {
        self.start <= now && now < self.end
    }
}

/// A seeded schedule of fault events.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the plan's randomized decisions (NIC frame loss).
    pub seed: u64,
    /// The scheduled fault windows.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Creates an empty plan (installing it is byte-identical to no
    /// plan).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds an event and returns the plan (builder style).
    pub fn with(mut self, start: Time, end: Time, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { start, end, kind });
        self
    }

    /// The union of the classes present in the plan, as a guard mask.
    pub fn class_mask(&self) -> u32 {
        self.events
            .iter()
            .fold(0, |m, e| m | e.kind.class().bit())
    }
}

/// Bitmask of fault classes with at least one scheduled event. Zero
/// (the default) short-circuits every hot-path query to a single
/// relaxed load.
static ACTIVE: AtomicU32 = AtomicU32::new(0);

/// The installed plan. Plain `Mutex` (not `OnceLock`) so tests can
/// install/disable repeatedly; machines query their own snapshot of it.
static PLAN: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);

/// Counts [`install`] / [`disable`] calls, so a machine's decision state
/// can tell that its plan snapshot is stale.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// One machine's fault decision state. Part of the lent run state
/// (`crate::run`); see the module-level determinism contract.
#[derive(Default)]
pub(crate) struct Decisions {
    /// The [`GENERATION`] the snapshot was taken at; 0 = none yet.
    generation: u64,
    /// The plan installed at `generation`.
    plan: Option<Arc<FaultPlan>>,
    /// Seeded from the plan on first use.
    nic_rng: Option<Xoshiro256pp>,
    /// Requests considered by the IDE drop decider so far.
    ide_considered: u64,
}

thread_local! {
    /// The decision state the calling thread's queries act on: the lent
    /// machine's, or the thread's own.
    static ACTIVE_RUN: RefCell<Decisions> = const {
        RefCell::new(Decisions {
            generation: 0,
            plan: None,
            nic_rng: None,
            ide_considered: 0,
        })
    };
}

/// Swaps `decisions` with the calling thread's active decision state.
pub(crate) fn swap_active(decisions: &mut Decisions) {
    ACTIVE_RUN.with(|a| std::mem::swap(&mut *a.borrow_mut(), decisions));
}

/// Runs `f` on the active decision state, first restarting it from the
/// installed plan if that changed since the state's snapshot.
fn with_decisions<R>(f: impl FnOnce(&mut Decisions) -> R) -> R {
    ACTIVE_RUN.with(|a| {
        let mut d = a.borrow_mut();
        let generation = GENERATION.load(Ordering::Acquire);
        if d.generation != generation {
            *d = Decisions {
                generation,
                plan: lock_plan().clone(),
                ..Decisions::default()
            };
        }
        f(&mut d)
    })
}

/// The active plan snapshot's events (empty when no plan is installed).
fn with_events<R>(f: impl FnOnce(&[FaultEvent]) -> R) -> R {
    with_decisions(|d| f(d.plan.as_ref().map_or(&[], |p| &p.events)))
}

fn lock_plan() -> std::sync::MutexGuard<'static, Option<Arc<FaultPlan>>> {
    PLAN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether any event of `class` is scheduled — one relaxed atomic load,
/// the only cost fault injection adds to an un-faulted simulation.
#[inline]
pub fn enabled(class: FaultClass) -> bool {
    ACTIVE.load(Ordering::Relaxed) & class.bit() != 0
}

/// Whether a plan is installed (possibly an empty one).
pub fn installed() -> bool {
    lock_plan().is_some()
}

/// Whether any fault class is scheduled.
#[inline]
pub(crate) fn on() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Installs `plan` process-globally and publishes its class mask.
///
/// An empty plan publishes a zero mask: every [`enabled`] query stays
/// false and the simulation is byte-identical to an un-faulted run.
pub fn install(plan: FaultPlan) {
    let mask = plan.class_mask();
    let mut guard = lock_plan();
    *guard = Some(Arc::new(plan));
    GENERATION.fetch_add(1, Ordering::Release);
    ACTIVE.store(mask, Ordering::Release);
}

/// Removes the installed plan and clears the guard mask.
pub fn disable() {
    let mut guard = lock_plan();
    ACTIVE.store(0, Ordering::Release);
    *guard = None;
    GENERATION.fetch_add(1, Ordering::Release);
}

/// Extra DRAM service latency for an access to flat-indexed `bank` at
/// `now`: the sum over active [`FaultKind::DramSlow`] windows matching
/// the bank. Call only behind [`enabled`]`(FaultClass::Dram)`.
pub fn dram_extra_delay(bank: u32, now: Time) -> Time {
    with_events(|events| {
        let mut total = Time::ZERO;
        for e in events {
            if let FaultKind::DramSlow { banks, extra } = &e.kind {
                if e.active_at(now) && banks.as_ref().is_none_or(|b| b.contains(&bank)) {
                    total += *extra;
                }
            }
        }
        total
    })
}

/// The IDE quantum scaling in percent at `now` (100 = undegraded): the
/// minimum `quota_pct` over active [`FaultKind::IdeDegrade`] windows.
pub fn ide_quota_pct(now: Time) -> u32 {
    with_events(|events| {
        let mut pct = 100;
        for e in events {
            if let FaultKind::IdeDegrade { quota_pct, .. } = e.kind {
                if e.active_at(now) {
                    pct = pct.min(quota_pct.min(100));
                }
            }
        }
        pct
    })
}

/// Whether the IDE quota engine should abort the request it is
/// currently considering. Deterministic: the machine's consideration
/// counter advances only while a drop window is active, and every
/// `drop_one_in`-th consideration drops.
pub fn ide_should_drop(now: Time) -> bool {
    with_decisions(|d| {
        let events = d.plan.as_ref().map_or(&[][..], |p| &p.events);
        let divisor = events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::IdeDegrade { drop_one_in, .. }
                    if e.active_at(now) && drop_one_in > 0 =>
                {
                    Some(drop_one_in)
                }
                _ => None,
            })
            .min();
        let Some(divisor) = divisor else {
            return false;
        };
        d.ide_considered += 1;
        d.ide_considered % u64::from(divisor) == 0
    })
}

/// Whether an arriving NIC frame is lost to a link flap at `now`.
/// Randomized with the plan-seeded `fault.nic` stream; the stream is
/// consumed only while a flap window is active, so runs without flap
/// traffic stay byte-identical.
pub fn nic_frame_lost(now: Time) -> bool {
    with_decisions(|d| {
        let Some(plan) = d.plan.as_ref() else {
            return false;
        };
        let loss = plan
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::NicFlap { loss_pct } if e.active_at(now) => Some(loss_pct),
                _ => None,
            })
            .max();
        let Some(loss_pct) = loss.map(|l| l.min(100)) else {
            return false;
        };
        let seed = plan.seed;
        let rng = d
            .nic_rng
            .get_or_insert_with(|| stream_rng(seed, "fault.nic"));
        rng.gen_range(0u32..100) < loss_pct
    })
}

/// Extra crossbar delivery delay for a packet entering on `port` at
/// `now`: the sum over active [`FaultKind::XbarBackpressure`] windows
/// matching the port.
pub fn xbar_extra_delay(port: u32, now: Time) -> Time {
    with_events(|events| {
        let mut total = Time::ZERO;
        for e in events {
            if let FaultKind::XbarBackpressure { port: p, extra } = &e.kind {
                if e.active_at(now) && p.is_none_or(|p| p == port) {
                    total += *extra;
                }
            }
        }
        total
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{lend, RunState};

    /// Process-global state: everything in one test function (same
    /// discipline as the trace and audit suites) so parallel test
    /// threads cannot race on the installed plan.
    #[test]
    fn fault_global_state_lifecycle() {
        // Nothing installed: every class disabled, queries inert.
        assert!(!installed());
        for c in [
            FaultClass::Dram,
            FaultClass::Ide,
            FaultClass::Nic,
            FaultClass::Xbar,
        ] {
            assert!(!enabled(c));
        }
        assert_eq!(dram_extra_delay(0, Time::from_us(5)), Time::ZERO);
        assert_eq!(ide_quota_pct(Time::from_us(5)), 100);
        assert!(!ide_should_drop(Time::from_us(5)));
        assert!(!nic_frame_lost(Time::from_us(5)));
        assert_eq!(xbar_extra_delay(0, Time::from_us(5)), Time::ZERO);

        // An empty plan publishes a zero mask.
        install(FaultPlan::new(7));
        assert!(installed());
        assert!(!enabled(FaultClass::Dram));

        // A populated plan enables exactly the scheduled classes.
        let plan = FaultPlan::new(42)
            .with(
                Time::from_us(10),
                Time::from_us(20),
                FaultKind::DramSlow {
                    banks: Some(vec![1, 3]),
                    extra: Time::from_ns(100),
                },
            )
            .with(
                Time::from_us(10),
                Time::from_us(20),
                FaultKind::DramSlow {
                    banks: None,
                    extra: Time::from_ns(50),
                },
            )
            .with(
                Time::from_us(10),
                Time::from_us(20),
                FaultKind::IdeDegrade {
                    quota_pct: 40,
                    drop_one_in: 2,
                },
            )
            .with(
                Time::from_us(10),
                Time::from_us(20),
                FaultKind::NicFlap { loss_pct: 50 },
            )
            .with(
                Time::from_us(10),
                Time::from_us(20),
                FaultKind::XbarBackpressure {
                    port: Some(9),
                    extra: Time::from_ns(30),
                },
            );
        install(plan.clone());
        assert_eq!(ACTIVE.load(Ordering::Relaxed), 0b1111);
        assert!(enabled(FaultClass::Dram));
        assert!(enabled(FaultClass::Ide));
        assert!(enabled(FaultClass::Nic));
        assert!(enabled(FaultClass::Xbar));

        // Windows: inactive before start and at/after end (half-open).
        let inside = Time::from_us(15);
        let outside = Time::from_us(20);
        assert_eq!(dram_extra_delay(1, outside), Time::ZERO);
        // Bank 1 matches both the targeted and the all-banks window.
        assert_eq!(dram_extra_delay(1, inside), Time::from_ns(150));
        // Bank 2 matches only the all-banks window.
        assert_eq!(dram_extra_delay(2, inside), Time::from_ns(50));

        assert_eq!(ide_quota_pct(inside), 40);
        assert_eq!(ide_quota_pct(outside), 100);

        assert_eq!(xbar_extra_delay(9, inside), Time::from_ns(30));
        assert_eq!(xbar_extra_delay(8, inside), Time::ZERO);

        // Drop decisions: every 2nd consideration inside the window,
        // none outside. Each machine counts on its own lent state, so two
        // machines interleaved on one thread, or one moved to another
        // thread, each see the solo sequence.
        fn drops(state: &mut RunState, now: Time, n: usize) -> Vec<bool> {
            let _lend = lend(state);
            (0..n).map(|_| ide_should_drop(now)).collect()
        }
        let (mut a, mut b) = (RunState::default(), RunState::default());
        assert_eq!(drops(&mut a, inside, 3), vec![false, true, false]);
        assert_eq!(drops(&mut b, inside, 3), vec![false, true, false]);
        assert!(drops(&mut a, outside, 2).iter().all(|d| !d));
        assert_eq!(drops(&mut a, inside, 3), vec![true, false, true]);
        let b = std::thread::spawn(move || {
            let mut b = b;
            assert_eq!(drops(&mut b, inside, 3), vec![true, false, true]);
            b
        })
        .join()
        .unwrap();
        assert_eq!(b.faults.ide_considered, 6);
        // The thread's own state outside any lend; re-installing the plan
        // restarts it.
        let own: Vec<bool> = (0..3).map(|_| ide_should_drop(inside)).collect();
        assert_eq!(own, vec![false, true, false]);
        install(plan.clone());
        assert!(!ide_should_drop(inside), "install restarts the sequence");

        // Frame loss draws from the machine's own plan-seeded stream, and
        // out-of-window frames pass without consuming it.
        fn losses(state: &mut RunState, now: Time, n: usize) -> Vec<bool> {
            let _lend = lend(state);
            (0..n).map(|_| nic_frame_lost(now)).collect()
        }
        let solo = losses(&mut RunState::default(), inside, 32);
        assert!(solo.contains(&true) && solo.contains(&false), "{solo:?}");
        let (mut a, mut b) = (RunState::default(), RunState::default());
        assert!(losses(&mut b, outside, 4).iter().all(|l| !l));
        let mut interleaved = (Vec::new(), Vec::new());
        for _ in 0..4 {
            interleaved.0.extend(losses(&mut a, inside, 8));
            interleaved.1.extend(losses(&mut b, inside, 8));
        }
        assert_eq!(interleaved.0, solo);
        assert_eq!(interleaved.1, solo);

        // Class helpers round-trip.
        assert_eq!(FaultClass::Dram.name(), "dram_slow");
        assert_eq!(
            plan.events[2].kind.class(),
            FaultClass::Ide
        );

        disable();
        assert!(!installed());
        assert!(!enabled(FaultClass::Nic));
    }
}
