//! Per-machine run state, lent to whichever thread runs the machine.
//!
//! The observation and fault layers keep their *configuration* in process
//! globals (audit mode and sink, tracer categories and sinks, the
//! installed fault plan) but their *state* belongs to one simulated
//! machine:
//!
//! * the conservation ledger ([`crate::audit`]);
//! * the tracer's per-category 1-in-N sample countdowns
//!   ([`crate::trace`]);
//! * the fault decision state: a snapshot of the installed plan, the NIC
//!   loss RNG and the IDE drop counter ([`crate::fault`]).
//!
//! A [`Simulation`](crate::Simulation) owns one [`RunState`] and lends it
//! to the calling thread for the length of each call ([`lend`]): the
//! parts are swapped into the thread-locals the hot paths read, and the
//! drop guard swaps them back, also when a strict-audit panic unwinds
//! through the call. Machines interleaved on one thread, or moved to a
//! fresh thread between calls (the fleet's `par_map`), therefore keep
//! their own ledger, sample subset and fault decisions, and a run's
//! outputs and trace depend only on its own event order. See `DESIGN.md`
//! §10.

use crate::{audit, fault, trace};

/// One simulated machine's ledger, trace sampler and fault decisions.
#[derive(Default)]
pub(crate) struct RunState {
    pub(crate) ledger: audit::Ledger,
    pub(crate) sampler: trace::Sampler,
    pub(crate) faults: fault::Decisions,
}

impl RunState {
    /// Swaps every part with the calling thread's active one.
    fn swap_active(&mut self) {
        audit::swap_active(&mut self.ledger);
        trace::swap_active(&mut self.sampler);
        fault::swap_active(&mut self.faults);
    }
}

/// A run state lent to the calling thread by [`lend`]; dropping it hands
/// the state back.
pub(crate) struct Lend<'a>(&'a mut RunState);

/// Lends `state` to the calling thread until the returned guard drops:
/// ledger operations, trace sampling and fault decisions on this thread
/// act on it meanwhile. Lends nest (the guard restores whatever was active
/// before). `None`, at the cost of three relaxed loads, while auditing,
/// tracing and fault injection are all off.
#[inline]
pub(crate) fn lend(state: &mut RunState) -> Option<Lend<'_>> {
    if !(audit::enabled() || trace::on() || fault::on()) {
        return None;
    }
    state.swap_active();
    Some(Lend(state))
}

impl Drop for Lend<'_> {
    fn drop(&mut self) {
        self.0.swap_active();
    }
}
