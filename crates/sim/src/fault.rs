//! Deterministic fault injection: a seeded schedule of degradation
//! windows that component models consult on their hot paths.
//!
//! PARD's value proposition is differentiated service *preserved under
//! adversity*: a trigger detects an SLA breach from per-DS-id statistics
//! and the PRM reprograms resources to protect the high-priority LDom.
//! Exercising that loop needs faults, and faults in a deterministic
//! simulator must themselves be deterministic. This module provides the
//! schedule: a [`FaultPlan`] — a seed plus a list of [`FaultEvent`]
//! windows — that each simulated machine carries in its configuration
//! ([`RunConfig::faults`](crate::run::RunConfig)), next to its tracer and
//! auditor.
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
//! All injection decisions are pure functions of the machine's plan, the
//! query arguments (simulated time, bank, port) and a per-machine
//! decision state: the NIC loss RNG (seeded from [`FaultPlan::seed`] via
//! [`stream_rng`]) and the IDE drop counter. The plan and the decision
//! state belong to the simulated machine: they are part of the run state
//! its [`Simulation`](crate::Simulation) lends to whichever thread runs
//! it (`crate::run`). A machine's decision sequence therefore depends
//! only on its own event order — not on which worker thread runs which
//! machine under any `PARD_THREADS`, nor on other machines interleaved on
//! the same thread. A fresh machine starts a fresh sequence. Queries
//! outside any lend see no plan.
//!
//! # Cost when disabled
//!
//! Same pattern as [`trace`](crate::trace) and [`audit`](crate::audit):
//! one thread-local read of the lent guard word ([`enabled`]) guards
//! every hot path. No plan — or an empty plan — sets no class bit, and
//! every simulation byte-identically matches an un-faulted build.
//!
//! The JSON spec format for fault plans (the `PARD_FAULT_PLAN`
//! environment contract) is parsed by `pard-bench::fault_spec`, which
//! depends on this crate — the simulator core stays dependency-free.

use crate::rng::{stream_rng, Rng, Xoshiro256pp};
use crate::run;
use crate::time::Time;

/// The four injectable fault classes, one bit each in the guard word.
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
    /// Creates an empty plan (running under it is byte-identical to no
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
        self.events.iter().fold(0, |m, e| m | e.kind.class().bit())
    }
}

/// One machine's fault decision state. Part of the lent run state
/// (`crate::run`); see the module-level determinism contract.
pub(crate) struct Decisions {
    /// Seeded from the plan on first use.
    nic_rng: Option<Xoshiro256pp>,
    /// Requests considered by the IDE drop decider so far.
    ide_considered: u64,
}

impl Decisions {
    pub(crate) const EMPTY: Decisions = Decisions {
        nic_rng: None,
        ide_considered: 0,
    };
}

/// Runs `f` on the lent machine's plan events (empty without a plan) and
/// decision state.
fn with_decisions<R>(f: impl FnOnce(&[FaultEvent], &mut Decisions) -> R) -> R {
    run::with_active(|state| {
        let events = state.config.faults.as_ref().map_or(&[][..], |p| &p.events);
        f(events, &mut state.faults)
    })
}

/// The lent machine's plan events (empty without a plan).
fn with_events<R>(f: impl FnOnce(&[FaultEvent]) -> R) -> R {
    with_decisions(|events, _| f(events))
}

/// Whether the lent machine's plan schedules any event of `class` — one
/// thread-local read, the only cost fault injection adds to an
/// un-faulted simulation.
#[inline]
pub fn enabled(class: FaultClass) -> bool {
    run::guard() & (class.bit() << run::FAULT_SHIFT) != 0
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
    with_decisions(|events, d| {
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
    run::with_active(|state| {
        let Some(plan) = state.config.faults.as_ref() else {
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
        let rng = state
            .faults
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
    use crate::run::{RunConfig, RunState};
    use std::sync::Arc;

    const CLASSES: [FaultClass; 4] = [
        FaultClass::Dram,
        FaultClass::Ide,
        FaultClass::Nic,
        FaultClass::Xbar,
    ];

    fn machine(plan: &FaultPlan) -> RunState {
        RunState::new(RunConfig {
            faults: Some(Arc::new(plan.clone())),
            ..RunConfig::default()
        })
    }

    /// Every class, over 10–20 µs.
    fn plan() -> FaultPlan {
        let (start, end) = (Time::from_us(10), Time::from_us(20));
        FaultPlan::new(42)
            .with(
                start,
                end,
                FaultKind::DramSlow {
                    banks: Some(vec![1, 3]),
                    extra: Time::from_ns(100),
                },
            )
            .with(
                start,
                end,
                FaultKind::DramSlow {
                    banks: None,
                    extra: Time::from_ns(50),
                },
            )
            .with(
                start,
                end,
                FaultKind::IdeDegrade {
                    quota_pct: 40,
                    drop_one_in: 2,
                },
            )
            .with(start, end, FaultKind::NicFlap { loss_pct: 50 })
            .with(
                start,
                end,
                FaultKind::XbarBackpressure {
                    port: Some(9),
                    extra: Time::from_ns(30),
                },
            )
    }

    const INSIDE: Time = Time::from_us(15);
    const OUTSIDE: Time = Time::from_us(20);

    #[test]
    fn queries_are_inert_without_a_plan() {
        // Outside any lend, and lent a plan without events.
        for mut state in [None, Some(machine(&FaultPlan::new(7)))] {
            let _lend = state.as_mut().map(RunState::lend);
            assert!(CLASSES.iter().all(|&c| !enabled(c)));
            assert_eq!(dram_extra_delay(0, INSIDE), Time::ZERO);
            assert_eq!(ide_quota_pct(INSIDE), 100);
            assert!(!ide_should_drop(INSIDE));
            assert!(!nic_frame_lost(INSIDE));
            assert_eq!(xbar_extra_delay(0, INSIDE), Time::ZERO);
        }
    }

    #[test]
    fn windows_apply_their_kind_while_active() {
        let mut state = machine(&plan());
        let _lend = state.lend();
        // A populated plan enables exactly the scheduled classes.
        assert!(CLASSES.iter().all(|&c| enabled(c)));
        assert_eq!(plan().class_mask(), 0b1111);

        // Windows: inactive before start and at/after end (half-open).
        assert_eq!(dram_extra_delay(1, OUTSIDE), Time::ZERO);
        // Bank 1 matches both the targeted and the all-banks window.
        assert_eq!(dram_extra_delay(1, INSIDE), Time::from_ns(150));
        // Bank 2 matches only the all-banks window.
        assert_eq!(dram_extra_delay(2, INSIDE), Time::from_ns(50));

        assert_eq!(ide_quota_pct(INSIDE), 40);
        assert_eq!(ide_quota_pct(OUTSIDE), 100);

        assert_eq!(xbar_extra_delay(9, INSIDE), Time::from_ns(30));
        assert_eq!(xbar_extra_delay(8, INSIDE), Time::ZERO);

        // Class helpers round-trip.
        assert_eq!(FaultClass::Dram.name(), "dram_slow");
        assert_eq!(plan().events[2].kind.class(), FaultClass::Ide);
    }

    #[test]
    fn each_machine_counts_its_own_drop_decisions() {
        // Every 2nd consideration inside the window drops, none outside.
        // Each machine counts on its own lent state, so two machines
        // interleaved on one thread, or one moved to another thread,
        // each see the solo sequence.
        fn drops(state: &mut RunState, now: Time, n: usize) -> Vec<bool> {
            let _lend = state.lend();
            (0..n).map(|_| ide_should_drop(now)).collect()
        }
        let (mut a, mut b) = (machine(&plan()), machine(&plan()));
        assert_eq!(drops(&mut a, INSIDE, 3), vec![false, true, false]);
        assert_eq!(drops(&mut b, INSIDE, 3), vec![false, true, false]);
        assert!(drops(&mut a, OUTSIDE, 2).iter().all(|d| !d));
        assert_eq!(drops(&mut a, INSIDE, 3), vec![true, false, true]);
        let b = std::thread::spawn(move || {
            let mut b = b;
            assert_eq!(drops(&mut b, INSIDE, 3), vec![true, false, true]);
            b
        })
        .join()
        .unwrap();
        assert_eq!(b.faults.ide_considered, 6);
        // A fresh machine starts a fresh sequence.
        assert_eq!(
            drops(&mut machine(&plan()), INSIDE, 3),
            vec![false, true, false]
        );
    }

    #[test]
    fn frame_loss_draws_from_each_machines_own_stream() {
        // Out-of-window frames pass without consuming the stream.
        fn losses(state: &mut RunState, now: Time, n: usize) -> Vec<bool> {
            let _lend = state.lend();
            (0..n).map(|_| nic_frame_lost(now)).collect()
        }
        let solo = losses(&mut machine(&plan()), INSIDE, 32);
        assert!(solo.contains(&true) && solo.contains(&false), "{solo:?}");
        let (mut a, mut b) = (machine(&plan()), machine(&plan()));
        assert!(losses(&mut b, OUTSIDE, 4).iter().all(|l| !l));
        let mut interleaved = (Vec::new(), Vec::new());
        for _ in 0..4 {
            interleaved.0.extend(losses(&mut a, INSIDE, 8));
            interleaved.1.extend(losses(&mut b, INSIDE, 8));
        }
        assert_eq!(interleaved.0, solo);
        assert_eq!(interleaved.1, solo);
    }

    #[test]
    fn a_faulted_and_a_bare_machine_share_a_thread() {
        let mut faulted = machine(&plan());
        let mut bare = RunState::new(RunConfig::default());
        let _f = faulted.lend();
        assert!(enabled(FaultClass::Dram));
        {
            let _b = bare.lend();
            assert!(!enabled(FaultClass::Dram), "the bare lend shadows the plan");
            assert_eq!(dram_extra_delay(1, INSIDE), Time::ZERO);
        }
        assert_eq!(dram_extra_delay(1, INSIDE), Time::from_ns(150));
    }
}
