//! Per-machine observation and fault configuration, and the run state it
//! is lent with.
//!
//! A [`RunState`] holds one simulated machine's [`RunConfig`] — the
//! tracer and auditor it reports to (shared `Arc` handles, so a fleet's
//! machines can feed one sink) and its fault plan — next to the state
//! those act on: the conservation ledger ([`crate::audit`]), the trace
//! sample countdowns ([`crate::trace`]) and the fault decisions
//! ([`crate::fault`]). A [`Simulation`](crate::Simulation) owns one and
//! lends it to the calling thread for the length of each call
//! ([`RunState::lend`]): it is swapped into a thread-local, with a guard
//! word derived from its configuration that the hot-path checks read,
//! and the drop guard swaps both back, also when a strict-audit panic
//! unwinds. Machines interleaved on one thread, or moved between threads
//! (the fleet's `par_slices`), therefore keep their own configuration,
//! ledger, sample subset and fault decisions. Outside any lend nothing is
//! traced, audited or faulted. Unexpected events
//! ([`crate::audit::unexpected_event`]) are counted on the lent state
//! whatever its configuration. See `DESIGN.md` §10.
//!
//! The only process-wide configuration is what [`RunConfig::from_env`]
//! reads once, the default of every `PardServer`.

use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use crate::audit::{self, Auditor};
use crate::fault::{self, FaultPlan};
use crate::trace::{self, Tracer};

/// One simulated machine's observation and fault configuration. The
/// default observes nothing and injects nothing.
#[derive(Clone, Debug, Default)]
pub struct RunConfig {
    /// Where the machine's trace events go; `None` traces nothing.
    pub tracer: Option<Arc<Tracer>>,
    /// The auditor the machine reports violations to; `None` audits
    /// nothing.
    pub auditor: Option<Arc<Auditor>>,
    /// The machine's fault plan; `None`, or a plan without events,
    /// injects nothing.
    pub faults: Option<Arc<FaultPlan>>,
    /// Where the machine writes its final metrics snapshot when it shuts
    /// down; `None` writes none.
    pub metrics: Option<PathBuf>,
}

/// Guard-word bits: the trace categories take bits 0–7
/// ([`trace::TraceCat::bit`]), then these two, then the fault classes
/// ([`fault::FaultClass::bit`]) from [`FAULT_SHIFT`] up.
pub(crate) const AUDIT_ON: u32 = 1 << 8;
pub(crate) const AUDIT_STRICT: u32 = 1 << 9;
pub(crate) const FAULT_SHIFT: u32 = 16;

impl RunConfig {
    /// The configuration the environment asks for: a tracer when
    /// `PARD_TRACE` is set, an auditor when `PARD_AUDIT` is, a metrics
    /// snapshot path when `PARD_METRICS` is, no fault plan. The
    /// environment is read on the first call only; every call returns
    /// handles to the same tracer and auditor.
    ///
    /// A malformed value, a sink file that cannot be created, or a later
    /// failed write to one of these sinks is a hard error: the process
    /// prints a message naming the variable and exits with status 2 — a
    /// run asked to trace, audit or dump metrics must never silently do
    /// less than asked.
    pub fn from_env() -> RunConfig {
        ENV.get_or_init(|| {
            let exit = |msg: String| -> ! {
                eprintln!("{msg}");
                std::process::exit(2)
            };
            let var = |name| std::env::var(name).ok();
            let tracer = trace::tracer_from_env().unwrap_or_else(|m| exit(m));
            let auditor = audit::auditor_from(
                var("PARD_AUDIT").as_deref(),
                var("PARD_AUDIT_FILE").as_deref(),
            )
            .unwrap_or_else(|m| exit(m));
            RunConfig {
                tracer: tracer.map(Arc::new),
                auditor: auditor.map(Arc::new),
                faults: None,
                metrics: var("PARD_METRICS")
                    .filter(|p| !p.is_empty())
                    .map(PathBuf::from),
            }
        })
        .clone()
    }

    /// Writes the machine's final metrics snapshot, rendered by `json`,
    /// to [`metrics`](RunConfig::metrics) if it names a file. A failed
    /// write ends the run with exit status 2 naming `PARD_METRICS` when
    /// the environment set the path, and is printed otherwise.
    pub fn write_metrics(&self, json: impl FnOnce() -> String) {
        let Some(path) = &self.metrics else {
            return;
        };
        if let Err(e) = std::fs::write(path, json()) {
            let from_env = ENV
                .get()
                .is_some_and(|env| env.metrics.as_ref() == Some(path));
            sink_failed(
                from_env.then_some("PARD_METRICS"),
                &format!("cannot write the metrics snapshot to {path:?}: {e}"),
            );
        }
    }

    /// This configuration's guard word.
    fn guard(&self) -> u32 {
        let trace = self.tracer.as_ref().map_or(0, |t| t.mask());
        let audit = self.auditor.as_ref().map_or(0, |a| match a.mode() {
            audit::AuditMode::Report => AUDIT_ON,
            audit::AuditMode::Strict => AUDIT_ON | AUDIT_STRICT,
        });
        let fault = self.faults.as_ref().map_or(0, |p| p.class_mask());
        trace | audit | fault << FAULT_SHIFT
    }
}

/// Reports a failed write to a trace, audit or metrics sink, whose
/// caller has taken the sink out of service. A sink the environment
/// configured names its variable in `env_var`: the process prints the
/// message and exits with status 2, as for a malformed value
/// ([`RunConfig::from_env`]). For a sink built in code the message is
/// only printed, since the failure may surface in a `Drop`, which must
/// not panic.
pub(crate) fn sink_failed(env_var: Option<&str>, msg: &str) {
    match env_var {
        Some(var) => {
            eprintln!("{var}: {msg}");
            std::process::exit(2)
        }
        None => eprintln!("{msg}"),
    }
}

/// `var` when `sink` is the one the environment configured, as `pick`
/// finds it in [`ENV`]; `None` for a sink built in code.
pub(crate) fn env_var<T>(
    var: &'static str,
    sink: &T,
    pick: impl FnOnce(&RunConfig) -> Option<&T>,
) -> Option<&'static str> {
    ENV.get()
        .and_then(pick)
        .is_some_and(|env| std::ptr::eq(env, sink))
        .then_some(var)
}

/// The environment's configuration, once [`RunConfig::from_env`] has
/// read it.
pub(crate) static ENV: OnceLock<RunConfig> = OnceLock::new();

/// One simulated machine's configuration and run state: the conservation
/// ledger, the trace sample countdowns, the fault decisions and the
/// unexpected-event count.
pub struct RunState {
    pub(crate) config: RunConfig,
    guard: u32,
    pub(crate) ledger: audit::Ledger,
    pub(crate) sampler: trace::Sampler,
    pub(crate) faults: fault::Decisions,
    /// Unexpected-event arms hit while this state was lent, counted
    /// whatever the configuration (see [`audit::unexpected_event`]).
    unexpected: u64,
}

impl RunState {
    /// The state outside any lend: nothing configured.
    const EMPTY: RunState = RunState {
        config: RunConfig {
            tracer: None,
            auditor: None,
            faults: None,
            metrics: None,
        },
        guard: 0,
        ledger: audit::Ledger::EMPTY,
        sampler: trace::Sampler::EMPTY,
        faults: fault::Decisions::EMPTY,
        unexpected: 0,
    };

    /// A fresh run state under `config`.
    pub fn new(config: RunConfig) -> RunState {
        RunState {
            guard: config.guard(),
            config,
            ..RunState::EMPTY
        }
    }

    /// Unexpected-event arms hit while this state was lent (see
    /// [`audit::unexpected_event`]); counted whether or not anything is
    /// traced or audited.
    pub fn unexpected_events(&self) -> u64 {
        self.unexpected
    }

    /// Lends this state to the calling thread until the returned guard
    /// drops: trace emission, ledger operations, fault decisions and
    /// unexpected events on this thread act on it meanwhile. Lends nest
    /// (the guard restores whatever was active before). Costs two
    /// thread-local reads when neither this state nor the one active
    /// observes anything.
    #[inline]
    pub fn lend(&mut self) -> Lend<'_> {
        let outer = guard();
        let unexpected = UNEXPECTED.with(Cell::get);
        let swapped = self.guard != 0 || outer != 0;
        if swapped {
            GUARD.with(|g| g.set(self.guard));
            ACTIVE.with(|a| std::mem::swap(&mut *a.borrow_mut(), self));
        }
        Lend {
            state: self,
            swapped,
            outer,
            unexpected,
        }
    }
}

/// A run state lent to the calling thread by [`RunState::lend`];
/// dropping it hands the state back.
pub struct Lend<'a> {
    state: &'a mut RunState,
    /// The state sits in [`ACTIVE`] (something is observed).
    swapped: bool,
    outer: u32,
    /// The thread's unexpected-event tally when the lend began.
    unexpected: u64,
}

impl Drop for Lend<'_> {
    #[inline]
    fn drop(&mut self) {
        if self.swapped {
            ACTIVE.with(|a| std::mem::swap(&mut *a.borrow_mut(), self.state));
            GUARD.with(|g| g.set(self.outer));
        }
        // Events counted during the lend are this state's; the tally
        // goes back to its value at the lend, so an enclosing lend does
        // not count them again.
        let now = UNEXPECTED.with(|u| u.replace(self.unexpected));
        self.state.unexpected += now - self.unexpected;
    }
}

thread_local! {
    /// The lent configuration's guard word; 0 outside any lend.
    static GUARD: Cell<u32> = const { Cell::new(0) };
    /// The run state lent to this thread, or [`RunState::EMPTY`].
    static ACTIVE: RefCell<RunState> = const { RefCell::new(RunState::EMPTY) };
    /// Unexpected events counted on this thread; each [`Lend`] moves the
    /// ones counted during it into its state when it drops.
    static UNEXPECTED: Cell<u64> = const { Cell::new(0) };
}

/// Counts one unexpected event against the run state lent to the calling
/// thread.
pub(crate) fn count_unexpected() {
    UNEXPECTED.with(|u| u.set(u.get() + 1));
}

/// The calling thread's guard word: one thread-local read.
#[inline]
pub(crate) fn guard() -> u32 {
    GUARD.with(Cell::get)
}

/// Runs `f` on the run state lent to the calling thread.
#[inline]
pub(crate) fn with_active<R>(f: impl FnOnce(&mut RunState) -> R) -> R {
    ACTIVE.with(|a| f(&mut a.borrow_mut()))
}
