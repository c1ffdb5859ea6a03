//! Online invariant auditing for the simulated machine.
//!
//! The PARD reproduction's guarantees are conservation and isolation
//! invariants: every tagged packet is processed exactly once, DS-id tags
//! survive every hop, LLC way-masks and DRAM/IDE bandwidth quotas bound
//! what a domain can consume, triggers fire iff their predicate holds, and
//! the kernel delivers events in exact `(time, seq)` order. This module is
//! the checker for those invariants. Components report ledger transitions
//! (packet injected / hopped / retired / accountably dropped) and local
//! check failures; the auditor accumulates violations into a structured
//! first-failure report rendered as JSON Lines, with the same sink
//! discipline as [`crate::trace`].
//!
//! Auditing is **zero-cost when disabled**: the only work on a hot path is
//! a single relaxed atomic load through [`enabled`], and instrumented
//! components are expected to guard any bookkeeping behind it. Like the
//! tracer, the auditor is a pure observer — it never schedules events and
//! never touches any RNG, so an audited run produces byte-identical figure
//! output to an unaudited run.
//!
//! # Enabling the auditor
//!
//! The environment-variable interface (read by [`init_from_env`], which the
//! system model calls at construction):
//!
//! * `PARD_AUDIT=report` — record violations and keep running.
//! * `PARD_AUDIT=strict` — panic on the first violation (CI gates).
//! * `PARD_AUDIT_FILE=<path>` — also stream violation JSONL to `<path>`.
//!
//! # The conservation ledger
//!
//! Packet ids are allocated per source component, so the ledger keys every
//! in-flight packet by `(domain, source component, id)`. A [`Domain`]
//! names one conservation flow (e.g. [`Domain::Xbar`] for core → crossbar
//! → LLC traffic, [`Domain::Dma`] for device → bridge → DRAM bursts). Hops
//! and retirements of packets the ledger does not know are ignored —
//! harnesses that drive components directly (without the full system
//! model) inject traffic the auditor never saw. In-flight packets
//! remaining at a run deadline are not violations either: simulations
//! stop mid-flight by design. The violations this ledger *does* flag are
//! duplicate injections, DS-id mutations observed at any hop, and
//! unmatched interrupt retirements.
//!
//! Each simulated machine owns its ledger: it is part of the run state
//! inside its [`Simulation`](crate::Simulation), which the kernel lends to
//! the calling thread for the length of each `run` / `run_until` / `step`
//! / `with_component` call (see `DESIGN.md` §10). The ledger operations
//! below act on the lent ledger, so machines interleaved on one thread, or
//! moved to a different thread between calls (the fleet's `par_map`),
//! never see each other's packets — machine A's packet `(xbar, src 3,
//! id 17)` never collides with machine B's, although both allocate packet
//! ids from zero. Outside any lend (a harness driving a component by hand)
//! the operations fall back to a thread-local ledger of their own.

use std::cell::RefCell;
use std::fs::File;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::io::{BufWriter, Write as _};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

use crate::hash::WordMap;
use crate::time::Time;
use crate::trace::{format_ns, TraceVal};

/// The invariant families a violation can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum AuditKind {
    /// Packet conservation: inject / retire exactly once, no unexpected
    /// events swallowed, interrupts matched.
    Conservation = 0,
    /// DS-id preservation end-to-end across crossbar → bridge → IDE/NIC.
    DsPreservation = 1,
    /// LLC way-mask exclusivity and capacity accounting.
    Waymask = 2,
    /// DRAM/IDE windowed-bandwidth quota ceilings.
    Quota = 3,
    /// Trigger soundness: a fired predicate re-evaluates true.
    Trigger = 4,
    /// Kernel time monotonicity and event-queue `(time, seq)` contract.
    Clock = 5,
}

/// Number of invariant families (size of the per-kind counter table).
const KINDS: usize = 6;

impl AuditKind {
    /// Every kind, in counter order.
    pub const ALL: [AuditKind; KINDS] = [
        AuditKind::Conservation,
        AuditKind::DsPreservation,
        AuditKind::Waymask,
        AuditKind::Quota,
        AuditKind::Trigger,
        AuditKind::Clock,
    ];

    /// The lower-case name used in violation lines.
    pub const fn name(self) -> &'static str {
        match self {
            AuditKind::Conservation => "conservation",
            AuditKind::DsPreservation => "ds_preservation",
            AuditKind::Waymask => "waymask",
            AuditKind::Quota => "quota",
            AuditKind::Trigger => "trigger",
            AuditKind::Clock => "clock",
        }
    }

    /// Parses a kind name as rendered in violation lines.
    pub fn parse(s: &str) -> Option<AuditKind> {
        AuditKind::ALL.iter().copied().find(|k| k.name() == s)
    }
}

/// How the auditor reacts to a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditMode {
    /// Record the violation (JSONL + in-memory) and keep running.
    Report,
    /// Panic on the first violation, after recording it.
    Strict,
}

impl AuditMode {
    /// Parses the `PARD_AUDIT` value.
    pub fn parse(s: &str) -> Option<AuditMode> {
        match s {
            "report" => Some(AuditMode::Report),
            "strict" => Some(AuditMode::Strict),
            _ => None,
        }
    }
}

/// Configuration for [`install`].
pub struct AuditConfig {
    /// Violation reaction mode.
    pub mode: AuditMode,
    /// JSONL sink path; `None` keeps violations only in memory.
    pub path: Option<std::path::PathBuf>,
    /// Maximum violation lines retained in memory (counters keep counting
    /// past the cap).
    pub max_records: usize,
}

impl AuditConfig {
    /// A record-and-continue config with no file sink.
    pub fn report() -> Self {
        AuditConfig {
            mode: AuditMode::Report,
            path: None,
            max_records: 1024,
        }
    }

    /// A panic-on-first-violation config with no file sink.
    pub fn strict() -> Self {
        AuditConfig {
            mode: AuditMode::Strict,
            ..AuditConfig::report()
        }
    }
}

struct AuditState {
    sink: Option<BufWriter<File>>,
    records: Vec<String>,
    max_records: usize,
    counts: [u64; KINDS],
    total: u64,
}

/// 0 = off, 1 = report, 2 = strict. The one and only hot-path cost.
static MODE: AtomicU8 = AtomicU8::new(0);
static STATE: Mutex<Option<AuditState>> = Mutex::new(None);
/// Kernel-loop deliveries made while auditing was on (the kernel adds
/// each run call's count once, at the end of the call).
static OBSERVED: AtomicU64 = AtomicU64::new(0);
/// Catch-all protocol-violation arms hit; counted even when auditing is
/// off so release builds no longer swallow misrouted packets silently.
static UNEXPECTED: AtomicU64 = AtomicU64::new(0);

/// A conservation flow: the path a tagged packet takes from its
/// injection point to its terminal consumer. Rendered as the `domain`
/// field of violation lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Domain {
    /// Core → crossbar → LLC requests.
    Xbar,
    /// LLC → memory-controller fetches and writebacks.
    Mem,
    /// Device → bridge → memory-controller DMA bursts.
    Dma,
    /// Core → bridge → IDE disk requests.
    Disk,
}

impl Domain {
    /// The lower-case name used in violation lines.
    pub const fn name(self) -> &'static str {
        match self {
            Domain::Xbar => "xbar",
            Domain::Mem => "mem",
            Domain::Dma => "dma",
            Domain::Disk => "disk",
        }
    }
}

/// An in-flight packet's ledger key.
#[derive(Clone, Copy, PartialEq, Eq)]
struct PacketKey {
    domain: Domain,
    src: u32,
    id: u64,
}

impl Hash for PacketKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // One word: the id in the low bits, source and domain folded into
        // the high ones (collisions only cost a probe; `Eq` decides).
        let word = self.id ^ (u64::from(self.src) << 32) ^ ((self.domain as u64) << 60);
        state.write_u64(word);
    }
}

/// One simulated machine's conservation state: its in-flight packets and
/// outstanding interrupts. Part of the run state a
/// [`Simulation`](crate::Simulation) owns and lends to the running thread.
#[derive(Default)]
pub(crate) struct Ledger {
    /// In-flight packets: key → the DS-id they were injected with.
    packets: WordMap<PacketKey, u16>,
    /// Outstanding interrupt counts per `(vector, DS-id)`; interrupts
    /// carry no packet id, so they are conserved as a multiset.
    irq: WordMap<(u8, u16), i64>,
}

impl Ledger {
    const EMPTY: Ledger = Ledger {
        packets: WordMap::with_hasher(BuildHasherDefault::new()),
        irq: WordMap::with_hasher(BuildHasherDefault::new()),
    };

    /// Packets (and outstanding interrupts) currently in flight. After a
    /// full drain this is zero; at a mid-flight run deadline it may not
    /// be, by design.
    pub(crate) fn in_flight(&self) -> usize {
        let irqs: i64 = self.irq.values().copied().filter(|&c| c > 0).sum();
        self.packets.len() + irqs as usize
    }
}

thread_local! {
    /// The ledger the calling thread's ledger operations act on: the one
    /// currently lent by a running simulation, or this thread's own.
    static ACTIVE: RefCell<Ledger> = const { RefCell::new(Ledger::EMPTY) };
}

/// Swaps `ledger` with the calling thread's active one (the run-state
/// lend, `crate::run`, calls it on entry and again on exit).
pub(crate) fn swap_active(ledger: &mut Ledger) {
    ACTIVE.with(|a| std::mem::swap(&mut *a.borrow_mut(), ledger));
}

/// Runs `f` against the calling thread's active ledger.
fn with_run<R>(f: impl FnOnce(&mut Ledger) -> R) -> R {
    ACTIVE.with(|a| f(&mut a.borrow_mut()))
}

/// True when auditing is on. This is the hot-path guard: a single relaxed
/// atomic load, so instrumented components pay nothing measurable when
/// auditing is off.
#[inline]
pub fn enabled() -> bool {
    MODE.load(Ordering::Relaxed) != 0
}

/// True when the auditor panics on the first violation.
#[inline]
pub fn strict() -> bool {
    MODE.load(Ordering::Relaxed) == 2
}

/// Installs the global auditor from `config`. Replaces any previous
/// auditor (flushing it first). Fails only if the sink file cannot be
/// created.
pub fn install(config: AuditConfig) -> std::io::Result<()> {
    let sink = match &config.path {
        Some(p) => Some(BufWriter::new(File::create(p)?)),
        None => None,
    };
    let state = AuditState {
        sink,
        records: Vec::new(),
        max_records: config.max_records.max(1),
        counts: [0; KINDS],
        total: 0,
    };
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(old) = guard.as_mut() {
        if let Some(sink) = old.sink.as_mut() {
            let _ = sink.flush();
        }
    }
    *guard = Some(state);
    // Publish the mode only after the state is in place so a racing report
    // never observes enabled-but-uninstalled.
    let mode = match config.mode {
        AuditMode::Report => 1,
        AuditMode::Strict => 2,
    };
    MODE.store(mode, Ordering::Release);
    Ok(())
}

/// Reads `PARD_AUDIT` / `PARD_AUDIT_FILE` and installs the auditor if
/// `PARD_AUDIT` is set to a recognised mode.
///
/// Idempotent: only the first call in a process does anything, so every
/// `PardServer` construction may call it unconditionally.
pub fn init_from_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let Ok(mode) = std::env::var("PARD_AUDIT") else {
            return;
        };
        if mode.is_empty() {
            return;
        }
        let Some(mode) = AuditMode::parse(&mode) else {
            eprintln!("PARD_AUDIT: unknown mode {mode:?} (want report|strict); auditing off");
            return;
        };
        let path = std::env::var("PARD_AUDIT_FILE")
            .ok()
            .filter(|p| !p.is_empty())
            .map(std::path::PathBuf::from);
        let config = AuditConfig {
            mode,
            path: path.clone(),
            ..AuditConfig::report()
        };
        if let Err(e) = install(config) {
            eprintln!("PARD_AUDIT_FILE: cannot open {path:?}: {e}");
        }
    });
}

/// Flushes the sink and tears the auditor down, returning the process to
/// the zero-cost disabled state. Clears the calling thread's active ledger.
pub fn disable() {
    MODE.store(0, Ordering::Release);
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(state) = guard.as_mut() {
        if let Some(sink) = state.sink.as_mut() {
            let _ = sink.flush();
        }
    }
    *guard = None;
    ACTIVE.with(|a| *a.borrow_mut() = Ledger::default());
}

/// Flushes the JSONL sink (if any) without disabling auditing.
pub fn flush() {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(state) = guard.as_mut() {
        if let Some(sink) = state.sink.as_mut() {
            let _ = sink.flush();
        }
    }
}

/// Reports one invariant violation.
///
/// Renders the JSONL line, appends it to the in-memory record list and the
/// sink (flushed immediately — violations are rare and must survive a
/// strict abort), bumps the per-kind counters, and panics in strict mode.
pub fn violation(kind: AuditKind, time: Time, ds: u16, check: &str, fields: &[(&str, TraceVal)]) {
    if !enabled() {
        return;
    }
    let mut line = String::with_capacity(96);
    use std::fmt::Write as _;
    let _ = write!(
        line,
        "{{\"time\":{},\"ds\":{},\"kind\":\"{}\",\"check\":\"{}\"",
        format_ns(time),
        ds,
        kind.name(),
        check
    );
    for (key, val) in fields {
        let _ = write!(line, ",\"{key}\":");
        match val {
            TraceVal::U(u) => {
                let _ = write!(line, "{u}");
            }
            TraceVal::F(f) if f.is_finite() => {
                let _ = write!(line, "{f}");
            }
            TraceVal::F(_) => line.push_str("null"),
            TraceVal::S(s) => {
                let _ = write!(line, "\"{s}\"");
            }
            TraceVal::B(b) => line.push_str(if *b { "true" } else { "false" }),
        }
    }
    line.push('}');

    {
        let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(state) = guard.as_mut() {
            state.total += 1;
            state.counts[kind as usize] += 1;
            if let Some(sink) = state.sink.as_mut() {
                let _ = writeln!(sink, "{line}");
                let _ = sink.flush();
            }
            if state.records.len() < state.max_records {
                state.records.push(line.clone());
            }
        }
    }
    if strict() {
        panic!("PARD_AUDIT=strict: invariant violation: {line}");
    }
}

/// Records a packet entering a conservation domain.
///
/// A duplicate `(domain, src, id)` key is a conservation violation (packet
/// ids are per-source monotonic within a run).
pub fn packet_inject(domain: Domain, src: u32, id: u64, ds: u16, time: Time) {
    if !enabled() {
        return;
    }
    let key = PacketKey { domain, src, id };
    let duplicate = with_run(|r| r.packets.insert(key, ds).is_some());
    if duplicate {
        violation(
            AuditKind::Conservation,
            time,
            ds,
            "duplicate_inject",
            &[
                ("domain", TraceVal::S(domain.name())),
                ("src", TraceVal::U(src as u64)),
                ("id", TraceVal::U(id)),
            ],
        );
    }
}

/// Reports a DS-id mismatch between a packet's injection tag and what a
/// hop or its terminal consumer observed.
fn ds_changed(
    domain: Domain,
    src: u32,
    id: u64,
    ds: u16,
    tagged: u16,
    time: Time,
    stage: &'static str,
) {
    violation(
        AuditKind::DsPreservation,
        time,
        ds,
        "ds_changed",
        &[
            ("domain", TraceVal::S(domain.name())),
            ("stage", TraceVal::S(stage)),
            ("src", TraceVal::U(src as u64)),
            ("id", TraceVal::U(id)),
            ("tagged", TraceVal::U(tagged as u64)),
        ],
    );
}

/// Checks a packet passing an intermediate hop: its DS-id must match the
/// tag it was injected with. Unknown packets are ignored (see the module
/// docs on partially instrumented harnesses).
pub fn packet_hop(domain: Domain, src: u32, id: u64, ds: u16, time: Time, stage: &'static str) {
    if !enabled() {
        return;
    }
    let key = PacketKey { domain, src, id };
    let mismatch = with_run(|r| r.packets.get(&key).copied().filter(|&tagged| tagged != ds));
    if let Some(tagged) = mismatch {
        ds_changed(domain, src, id, ds, tagged, time, stage);
    }
}

/// Retires a packet at its terminal consumer, checking DS-id preservation
/// one last time. Unknown packets are ignored; a second retirement of the
/// same key therefore goes unflagged here, but the terminal components'
/// unexpected-event arms catch re-delivery.
pub fn packet_retire(domain: Domain, src: u32, id: u64, ds: u16, time: Time, stage: &'static str) {
    if !enabled() {
        return;
    }
    let key = PacketKey { domain, src, id };
    let mismatch = with_run(|r| r.packets.remove(&key).filter(|&tagged| tagged != ds));
    if let Some(tagged) = mismatch {
        ds_changed(domain, src, id, ds, tagged, time, stage);
    }
}

/// Removes a packet from the ledger for an *accounted* drop (a policy
/// decision the component counts in its own statistics, e.g. the bridge
/// refusing a disabled DS-id). Not a violation.
pub fn packet_drop(domain: Domain, src: u32, id: u64) {
    if !enabled() {
        return;
    }
    let key = PacketKey { domain, src, id };
    with_run(|r| {
        r.packets.remove(&key);
    });
}

/// Records an interrupt raised toward the APIC. Interrupts carry no packet
/// id, so conservation is tracked as a multiset per `(vector, DS-id)`.
pub fn irq_inject(vector: u8, ds: u16) {
    if !enabled() {
        return;
    }
    with_run(|r| {
        *r.irq.entry((vector, ds)).or_insert(0) += 1;
    });
}

/// Settles one interrupt at the APIC (`stage` says whether it was routed
/// or accountably dropped). Settling an interrupt that was never raised is
/// a conservation violation.
pub fn irq_settle(vector: u8, ds: u16, time: Time, stage: &'static str) {
    if !enabled() {
        return;
    }
    let unmatched = with_run(|r| {
        let count = r.irq.entry((vector, ds)).or_insert(0);
        *count -= 1;
        if *count < 0 {
            *count = 0;
            true
        } else {
            false
        }
    });
    if unmatched {
        violation(
            AuditKind::Conservation,
            time,
            ds,
            "interrupt_unmatched",
            &[
                ("vector", TraceVal::U(vector as u64)),
                ("stage", TraceVal::S(stage)),
            ],
        );
    }
}

/// Reports an event arriving at a component that has no protocol arm for
/// it — the misrouted-packet case that release builds used to swallow
/// behind `debug_assert!(false)`. Always counted (see
/// [`unexpected_events`]); reported as a conservation violation when the
/// auditor is on, and kept as a debug-build panic when it is off so
/// uninstrumented test runs still fail loudly.
pub fn unexpected_event(component: &'static str, kind: &'static str, time: Time, ds: u16) {
    UNEXPECTED.fetch_add(1, Ordering::Relaxed);
    if enabled() {
        violation(
            AuditKind::Conservation,
            time,
            ds,
            "unexpected_event",
            &[
                ("component", TraceVal::S(component)),
                ("event", TraceVal::S(kind)),
            ],
        );
    } else {
        debug_assert!(false, "{component} received unexpected event {kind} at {time:?}");
    }
}

/// Adds `n` kernel-loop deliveries to the process count (the kernel calls
/// this once per run call while auditing is on).
#[inline]
pub(crate) fn add_deliveries(n: u64) {
    OBSERVED.fetch_add(n, Ordering::Relaxed);
}

/// Kernel-loop deliveries made while auditing was on, since process start.
pub fn deliveries_observed() -> u64 {
    OBSERVED.load(Ordering::Relaxed)
}

/// Unexpected-event arms hit since process start (counted even with
/// auditing off).
pub fn unexpected_events() -> u64 {
    UNEXPECTED.load(Ordering::Relaxed)
}

/// Packets (and outstanding interrupts) currently in flight on the
/// calling thread's active ledger: the one a running simulation lent it,
/// or the thread's own. After a full drain this is zero; at a mid-flight
/// run deadline it may not be, by design.
pub fn in_flight() -> usize {
    with_run(|r| r.in_flight())
}

/// Total violations recorded since [`install`].
pub fn violations_total() -> u64 {
    let guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().map(|s| s.total).unwrap_or(0)
}

/// Violations of one kind recorded since [`install`].
pub fn violations_by_kind(kind: AuditKind) -> u64 {
    let guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().map(|s| s.counts[kind as usize]).unwrap_or(0)
}

/// The recorded violation lines (capped at the configured maximum).
pub fn records() -> Vec<String> {
    let guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().map(|s| s.records.clone()).unwrap_or_default()
}

/// The first violation recorded, if any — the head of the first-failure
/// report.
pub fn first_violation() -> Option<String> {
    let guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().and_then(|s| s.records.first().cloned())
}

/// Appends a summary line to the sink (the system model calls this when it
/// shuts down): total violations, per-kind counts, and the number of
/// kernel deliveries made while auditing was on.
pub fn emit_summary(now: Time) {
    if !enabled() {
        return;
    }
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let Some(state) = guard.as_mut() else {
        return;
    };
    let Some(sink) = state.sink.as_mut() else {
        return;
    };
    let mut line = String::with_capacity(96);
    use std::fmt::Write as _;
    let _ = write!(
        line,
        "{{\"time\":{},\"ds\":{},\"kind\":\"summary\",\"check\":\"summary\",\"total\":{},\"deliveries\":{}",
        format_ns(now),
        u16::MAX,
        state.total,
        OBSERVED.load(Ordering::Relaxed),
    );
    for kind in AuditKind::ALL {
        let _ = write!(line, ",\"{}\":{}", kind.name(), state.counts[kind as usize]);
    }
    line.push('}');
    let _ = writeln!(sink, "{line}");
    let _ = sink.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{lend, RunState};

    // The auditor is process-global, so every test that installs it runs
    // inside this single test function to avoid cross-test interference.
    #[test]
    fn install_report_ledger_strict_disable_lifecycle() {
        assert!(!enabled(), "auditing must start disabled");
        violation(AuditKind::Quota, Time::from_ns(1), 0, "noop", &[]);
        assert_eq!(violations_total(), 0);
        packet_inject(Domain::Xbar, 1, 0, 3, Time::ZERO);
        assert_eq!(in_flight(), 0, "ledger must ignore ops while disabled");

        install(AuditConfig::report()).unwrap();
        assert!(enabled());
        assert!(!strict());

        // A direct violation is recorded with its fields rendered.
        violation(
            AuditKind::Waymask,
            Time::from_units(9), // 2.25 ns
            3,
            "fill_outside_mask",
            &[("way", TraceVal::U(7)), ("hot", TraceVal::B(true))],
        );
        assert_eq!(violations_total(), 1);
        assert_eq!(violations_by_kind(AuditKind::Waymask), 1);
        assert_eq!(
            first_violation().unwrap(),
            "{\"time\":2.25,\"ds\":3,\"kind\":\"waymask\",\"check\":\"fill_outside_mask\",\"way\":7,\"hot\":true}"
        );

        // Conservation ledger: inject / hop / retire round trip is clean.
        packet_inject(Domain::Xbar, 1, 0, 3, Time::ZERO);
        assert_eq!(in_flight(), 1);
        packet_hop(Domain::Xbar, 1, 0, 3, Time::from_ns(1), "bridge");
        packet_retire(Domain::Xbar, 1, 0, 3, Time::from_ns(2), "llc");
        assert_eq!(in_flight(), 0);
        assert_eq!(violations_by_kind(AuditKind::DsPreservation), 0);

        // Duplicate injection is a conservation violation.
        packet_inject(Domain::Xbar, 1, 7, 3, Time::ZERO);
        packet_inject(Domain::Xbar, 1, 7, 3, Time::ZERO);
        assert_eq!(violations_by_kind(AuditKind::Conservation), 1);

        // A DS-id mutation observed at a hop or at retirement is flagged.
        packet_hop(Domain::Xbar, 1, 7, 4, Time::from_ns(1), "bridge");
        packet_retire(Domain::Xbar, 1, 7, 5, Time::from_ns(2), "llc");
        assert_eq!(violations_by_kind(AuditKind::DsPreservation), 2);

        // Unknown packets are ignored (partially instrumented harnesses).
        packet_retire(Domain::Dma, 9, 100, 0, Time::ZERO, "memctrl");
        packet_hop(Domain::Dma, 9, 100, 0, Time::ZERO, "bridge");
        assert_eq!(violations_by_kind(AuditKind::DsPreservation), 2);

        // Accounted drops retire silently.
        packet_inject(Domain::Dma, 2, 0, 1, Time::ZERO);
        packet_drop(Domain::Dma, 2, 0);
        assert_eq!(in_flight(), 0);
        assert_eq!(violations_total(), 4);

        // Interrupt multiset: inject/settle balances; an unmatched settle
        // is a conservation violation.
        irq_inject(14, 1);
        assert_eq!(in_flight(), 1);
        irq_settle(14, 1, Time::from_ns(3), "routed");
        assert_eq!(in_flight(), 0);
        irq_settle(11, 0, Time::from_ns(4), "dropped");
        assert_eq!(violations_by_kind(AuditKind::Conservation), 2);

        // Unexpected events are conservation violations while enabled.
        unexpected_event("nic", "mem_req", Time::from_ns(5), 2);
        assert_eq!(violations_by_kind(AuditKind::Conservation), 3);
        assert!(unexpected_events() >= 1);

        // Lent ledgers: two machines injecting the same (domain, src, id)
        // key do not collide, a lend shadows the thread's own ledger and
        // nests, and dropping the guard hands each ledger back intact.
        let ambient = in_flight();
        let before = violations_total();
        let (mut a, mut b) = (RunState::default(), RunState::default());
        {
            let _a = lend(&mut a);
            assert_eq!(in_flight(), 0, "a lent ledger shadows the thread's own");
            packet_inject(Domain::Xbar, 1, 40, 3, Time::ZERO);
            {
                let _b = lend(&mut b);
                packet_inject(Domain::Xbar, 1, 40, 5, Time::ZERO);
                assert_eq!(in_flight(), 1);
            }
            assert_eq!(in_flight(), 1, "the outer lend is restored");
        }
        assert_eq!(in_flight(), ambient);
        assert_eq!((a.ledger.in_flight(), b.ledger.in_flight()), (1, 1));
        assert_eq!(
            violations_total(),
            before,
            "identical keys in different ledgers are distinct packets"
        );
        // A ledger moved to another thread keeps its entries and DS tags.
        let b = std::thread::spawn(move || {
            let mut b = b;
            {
                let _b = lend(&mut b);
                packet_retire(Domain::Xbar, 1, 40, 7, Time::from_ns(1), "llc");
            }
            b
        })
        .join()
        .unwrap();
        assert_eq!(b.ledger.in_flight(), 0);
        assert_eq!(
            violations_total(),
            before + 1,
            "the moved ledger kept its DS tag"
        );

        // Strict mode panics on the first violation, after recording it.
        install(AuditConfig::strict()).unwrap();
        assert!(strict());
        let panicked = std::panic::catch_unwind(|| {
            violation(AuditKind::Clock, Time::ZERO, 0, "past_event", &[]);
        });
        assert!(panicked.is_err(), "strict mode must panic");
        assert_eq!(violations_total(), 1);
        // A strict abort inside a lend hands the ledger back rather than
        // leaking it into the thread.
        let mut c = RunState::default();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _c = lend(&mut c);
            packet_inject(Domain::Dma, 4, 50, 2, Time::ZERO);
            packet_inject(Domain::Dma, 4, 50, 2, Time::ZERO);
        }));
        assert!(panicked.is_err(), "a duplicate injection aborts");
        assert_eq!(c.ledger.in_flight(), 1, "the unwinding lend returned the ledger");
        assert_eq!(in_flight(), ambient, "and left the thread's own in place");

        disable();
        assert!(!enabled());
        assert_eq!(violations_total(), 0);
        assert!(first_violation().is_none());
    }

    #[test]
    fn kind_names_round_trip_and_mode_parse() {
        for kind in AuditKind::ALL {
            assert_eq!(AuditKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(AuditKind::parse("nope"), None);
        assert_eq!(AuditMode::parse("report"), Some(AuditMode::Report));
        assert_eq!(AuditMode::parse("strict"), Some(AuditMode::Strict));
        assert_eq!(AuditMode::parse(""), None);
        assert_eq!(AuditMode::parse("STRICT"), None);
    }
}
