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
//! one thread-local read through [`enabled`], and instrumented components
//! are expected to guard any bookkeeping behind it. Like the tracer, the
//! auditor is a pure observer — it never schedules events and never
//! touches any RNG, so an audited run produces byte-identical figure
//! output to an unaudited run.
//!
//! # Enabling the auditor
//!
//! A machine reports to the [`Auditor`] its configuration names
//! ([`RunConfig::auditor`](crate::run::RunConfig)); machines that share a
//! report share one auditor through an `Arc`. Programmatic use builds one
//! with [`Auditor::new`] from an [`AuditConfig`]. The environment-variable
//! interface, read once per process by
//! [`RunConfig::from_env`](crate::run::RunConfig::from_env), the default
//! configuration of every `PardServer`:
//!
//! * `PARD_AUDIT=report` — record violations and keep running.
//! * `PARD_AUDIT=strict` — panic on the first violation (CI gates).
//! * `PARD_AUDIT_FILE=<path>` — also stream violation JSONL to `<path>`.
//!
//! Any other `PARD_AUDIT` value, or a `PARD_AUDIT_FILE` that cannot be
//! created, is a hard error: the process prints a message naming the
//! variable and exits with status 2, like every `PARD_TRACE*` knob.
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
//! moved to a different thread between calls (the fleet's `par_slices`),
//! never see each other's packets — machine A's packet `(xbar, src 3,
//! id 17)` never collides with machine B's, although both allocate packet
//! ids from zero. A harness driving a component by hand lends a
//! [`RunState`](crate::run::RunState) of its own.

use std::fs::File;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::io::{BufWriter, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::hash::WordMap;
use crate::run;
use crate::time::Time;
use crate::trace::{format_ns, render_fields, TraceVal};

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

/// Configuration for [`Auditor::new`].
#[derive(Debug)]
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

impl AuditState {
    /// Writes one line to the sink, if any, and flushes it. A sink that
    /// fails is taken out of service.
    fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        let Some(sink) = self.sink.as_mut() else {
            return Ok(());
        };
        let written = writeln!(sink, "{line}").and_then(|()| sink.flush());
        if written.is_err() {
            self.sink = None;
        }
        written
    }
}

/// A violation report with its reaction mode. Built once from an
/// [`AuditConfig`] and shared by the machines that report to it (see
/// [`RunConfig`](crate::run::RunConfig)).
///
/// A strict run whose report was lost must not pass: the first failed
/// write to the sink file stops the file and ends the run with exit
/// status 2 naming `PARD_AUDIT_FILE` if the environment configured the
/// auditor, or prints the error if it was built in code.
pub struct Auditor {
    mode: AuditMode,
    /// The sink file's path, for error messages.
    path: Option<std::path::PathBuf>,
    state: Mutex<AuditState>,
    /// Kernel-loop deliveries made by machines reporting here (the kernel
    /// adds each run call's count once, at the end of the call).
    deliveries: AtomicU64,
}

impl std::fmt::Debug for Auditor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Auditor")
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

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
pub(crate) struct Ledger {
    /// In-flight packets: key → the DS-id they were injected with.
    packets: WordMap<PacketKey, u16>,
    /// Outstanding interrupt counts per `(vector, DS-id)`; interrupts
    /// carry no packet id, so they are conserved as a multiset.
    irq: WordMap<(u8, u16), i64>,
}

impl Ledger {
    pub(crate) const EMPTY: Ledger = Ledger {
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

/// Runs `f` against the ledger of the run state lent to the calling
/// thread.
fn with_run<R>(f: impl FnOnce(&mut Ledger) -> R) -> R {
    run::with_active(|state| f(&mut state.ledger))
}

/// True when the calling thread's lent configuration audits. This is the
/// hot-path guard: one thread-local read, so instrumented components pay
/// nothing measurable when auditing is off.
#[inline]
pub fn enabled() -> bool {
    run::guard() & run::AUDIT_ON != 0
}

/// True when the lent auditor panics on the first violation.
#[inline]
pub fn strict() -> bool {
    run::guard() & run::AUDIT_STRICT != 0
}

impl Auditor {
    /// Builds an auditor from `config`. Fails only if the sink file
    /// cannot be created.
    pub fn new(config: AuditConfig) -> std::io::Result<Auditor> {
        let sink = match &config.path {
            Some(p) => Some(BufWriter::new(File::create(p)?)),
            None => None,
        };
        Ok(Auditor {
            mode: config.mode,
            path: config.path,
            state: Mutex::new(AuditState {
                sink,
                records: Vec::new(),
                max_records: config.max_records.max(1),
                counts: [0; KINDS],
                total: 0,
            }),
            deliveries: AtomicU64::new(0),
        })
    }

    /// How this auditor reacts to a violation.
    pub fn mode(&self) -> AuditMode {
        self.mode
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AuditState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one rendered violation line: appended to the in-memory
    /// records and the sink (flushed immediately — violations are rare
    /// and must survive a strict abort), and counted.
    fn record(&self, kind: AuditKind, line: &str) {
        let written = {
            let mut state = self.lock();
            state.total += 1;
            state.counts[kind as usize] += 1;
            if state.records.len() < state.max_records {
                state.records.push(line.to_string());
            }
            state.write_line(line)
        };
        if let Err(e) = written {
            self.failed(e);
        }
    }

    /// Reports a failed sink write (see the type's documentation).
    #[cold]
    fn failed(&self, e: std::io::Error) {
        let env = run::env_var("PARD_AUDIT_FILE", self, |c| c.auditor.as_deref());
        let path = self.path.as_deref().unwrap_or(std::path::Path::new(""));
        run::sink_failed(
            env,
            &format!("cannot write the audit report to {path:?}: {e}"),
        );
    }

    /// Total violations recorded.
    pub fn violations_total(&self) -> u64 {
        self.lock().total
    }

    /// Violations of one kind recorded.
    pub fn violations_by_kind(&self, kind: AuditKind) -> u64 {
        self.lock().counts[kind as usize]
    }

    /// The first violation recorded, if any — the head of the
    /// first-failure report.
    pub fn first_violation(&self) -> Option<String> {
        self.lock().records.first().cloned()
    }

    /// Kernel-loop deliveries made by the machines reporting here.
    pub fn deliveries_observed(&self) -> u64 {
        self.deliveries.load(Ordering::Relaxed)
    }

    /// Appends a summary line to the sink (the system model calls this
    /// when it shuts down): total violations, per-kind counts, and the
    /// number of kernel deliveries the auditor observed.
    pub fn emit_summary(&self, now: Time) {
        let mut state = self.lock();
        if state.sink.is_none() {
            return;
        }
        let (total, counts) = (state.total, state.counts);
        let mut line = String::with_capacity(96);
        use std::fmt::Write as _;
        let _ = write!(
            line,
            "{{\"time\":{},\"ds\":{},\"kind\":\"summary\",\"check\":\"summary\",\"total\":{},\"deliveries\":{}",
            format_ns(now),
            u16::MAX,
            total,
            self.deliveries_observed(),
        );
        for kind in AuditKind::ALL {
            let _ = write!(line, ",\"{}\":{}", kind.name(), counts[kind as usize]);
        }
        line.push('}');
        let written = state.write_line(&line);
        drop(state);
        if let Err(e) = written {
            self.failed(e);
        }
    }
}

/// Parses the raw `PARD_AUDIT` / `PARD_AUDIT_FILE` values into an
/// [`AuditConfig`]: `None` when `PARD_AUDIT` is unset or empty.
///
/// Pure (no env access, no I/O) so the unit tests cover every
/// malformed-input path. The error names the offending variable and says
/// what would have been accepted.
fn config_from_env(mode: Option<&str>, file: Option<&str>) -> Result<Option<AuditConfig>, String> {
    let Some(mode) = mode.filter(|m| !m.is_empty()) else {
        return Ok(None);
    };
    let mode = AuditMode::parse(mode)
        .ok_or_else(|| format!("PARD_AUDIT: unknown mode {mode:?} (want report|strict)"))?;
    Ok(Some(AuditConfig {
        mode,
        path: file.filter(|p| !p.is_empty()).map(std::path::PathBuf::from),
        ..AuditConfig::report()
    }))
}

/// Builds the auditor that `PARD_AUDIT` / `PARD_AUDIT_FILE` (given raw)
/// ask for. `Err` names the variable at fault, for an unknown mode or a
/// sink file that cannot be created.
pub(crate) fn auditor_from(
    mode: Option<&str>,
    file: Option<&str>,
) -> Result<Option<Auditor>, String> {
    let Some(config) = config_from_env(mode, file)? else {
        return Ok(None);
    };
    Auditor::new(config)
        .map(Some)
        .map_err(|e| format!("PARD_AUDIT_FILE: cannot open {:?}: {e}", file.unwrap_or("")))
}

/// Reports one invariant violation to the auditor of the run state lent
/// to the calling thread.
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
    render_fields(&mut line, fields.iter().copied());
    line.push('}');

    run::with_active(|state| {
        if let Some(auditor) = &state.config.auditor {
            auditor.record(kind, &line);
        }
    });
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
/// behind `debug_assert!(false)`. Always counted, on the run state lent
/// to the calling thread ([`RunState::unexpected_events`],
/// [`Simulation::unexpected_events`](crate::Simulation::unexpected_events));
/// reported as a conservation violation when the auditor is on, and kept
/// as a debug-build panic when it is off so uninstrumented test runs
/// still fail loudly.
///
/// [`RunState::unexpected_events`]: crate::RunState::unexpected_events
pub fn unexpected_event(component: &'static str, kind: &'static str, time: Time, ds: u16) {
    run::count_unexpected();
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
        debug_assert!(
            false,
            "{component} received unexpected event {kind} at {time:?}"
        );
    }
}

/// Adds `n` kernel-loop deliveries to the lent auditor's count (the
/// kernel calls this once per run call).
#[inline]
pub(crate) fn add_deliveries(n: u64) {
    if enabled() {
        run::with_active(|state| {
            if let Some(auditor) = &state.config.auditor {
                auditor.deliveries.fetch_add(n, Ordering::Relaxed);
            }
        });
    }
}

/// Packets (and outstanding interrupts) currently in flight on the ledger
/// of the run state lent to the calling thread. After a full drain this is
/// zero; at a mid-flight run deadline it may not be, by design.
pub fn in_flight() -> usize {
    with_run(|r| r.in_flight())
}

/// Total violations recorded by the auditor the environment configured;
/// 0 when it configured none.
pub fn violations_total() -> u64 {
    run::ENV
        .get()
        .and_then(|c| c.auditor.as_ref())
        .map_or(0, |a| a.violations_total())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{RunConfig, RunState};
    use std::sync::Arc;

    fn auditor(config: AuditConfig) -> Arc<Auditor> {
        Arc::new(Auditor::new(config).unwrap())
    }

    fn run_state(auditor: &Arc<Auditor>) -> RunState {
        RunState::new(RunConfig {
            auditor: Some(auditor.clone()),
            ..RunConfig::default()
        })
    }

    #[test]
    fn nothing_is_audited_outside_a_lend() {
        let a = auditor(AuditConfig::report());
        assert!(!enabled(), "no run state is lent");
        violation(AuditKind::Quota, Time::from_ns(1), 0, "noop", &[]);
        assert_eq!(a.violations_total(), 0);
        packet_inject(Domain::Xbar, 1, 0, 3, Time::ZERO);
        assert_eq!(in_flight(), 0, "ledger must ignore ops while disabled");
    }

    #[test]
    fn a_failed_sink_write_stops_the_sink_and_keeps_the_counts() {
        // A device on which every write fails with "no space left".
        let full = std::path::Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let a = auditor(AuditConfig {
            path: Some(full.into()),
            ..AuditConfig::report()
        });
        let mut state = run_state(&a);
        let _lend = state.lend();
        violation(AuditKind::Quota, Time::from_ns(1), 0, "over", &[]);
        assert!(a.lock().sink.is_none(), "the failed write stops the sink");
        violation(AuditKind::Quota, Time::from_ns(2), 0, "over", &[]);
        assert_eq!(a.violations_total(), 2, "violations still count");
        assert!(a.first_violation().is_some());
    }

    #[test]
    fn report_mode_records_violations_and_keeps_the_ledger() {
        let a = auditor(AuditConfig::report());
        let mut state = run_state(&a);
        let lend = state.lend();
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
        assert_eq!(a.violations_total(), 1);
        assert_eq!(a.violations_by_kind(AuditKind::Waymask), 1);
        assert_eq!(
            a.first_violation().unwrap(),
            "{\"time\":2.25,\"ds\":3,\"kind\":\"waymask\",\"check\":\"fill_outside_mask\",\"way\":7,\"hot\":true}"
        );

        // Conservation ledger: inject / hop / retire round trip is clean.
        packet_inject(Domain::Xbar, 1, 0, 3, Time::ZERO);
        assert_eq!(in_flight(), 1);
        packet_hop(Domain::Xbar, 1, 0, 3, Time::from_ns(1), "bridge");
        packet_retire(Domain::Xbar, 1, 0, 3, Time::from_ns(2), "llc");
        assert_eq!(in_flight(), 0);
        assert_eq!(a.violations_by_kind(AuditKind::DsPreservation), 0);

        // Duplicate injection is a conservation violation.
        packet_inject(Domain::Xbar, 1, 7, 3, Time::ZERO);
        packet_inject(Domain::Xbar, 1, 7, 3, Time::ZERO);
        assert_eq!(a.violations_by_kind(AuditKind::Conservation), 1);

        // A DS-id mutation observed at a hop or at retirement is flagged.
        packet_hop(Domain::Xbar, 1, 7, 4, Time::from_ns(1), "bridge");
        packet_retire(Domain::Xbar, 1, 7, 5, Time::from_ns(2), "llc");
        assert_eq!(a.violations_by_kind(AuditKind::DsPreservation), 2);

        // Unknown packets are ignored (partially instrumented harnesses).
        packet_retire(Domain::Dma, 9, 100, 0, Time::ZERO, "memctrl");
        packet_hop(Domain::Dma, 9, 100, 0, Time::ZERO, "bridge");
        assert_eq!(a.violations_by_kind(AuditKind::DsPreservation), 2);

        // Accounted drops retire silently.
        packet_inject(Domain::Dma, 2, 0, 1, Time::ZERO);
        packet_drop(Domain::Dma, 2, 0);
        assert_eq!(in_flight(), 0);
        assert_eq!(a.violations_total(), 4);

        // Interrupt multiset: inject/settle balances; an unmatched settle
        // is a conservation violation.
        irq_inject(14, 1);
        assert_eq!(in_flight(), 1);
        irq_settle(14, 1, Time::from_ns(3), "routed");
        assert_eq!(in_flight(), 0);
        irq_settle(11, 0, Time::from_ns(4), "dropped");
        assert_eq!(a.violations_by_kind(AuditKind::Conservation), 2);

        // Unexpected events are conservation violations while enabled.
        unexpected_event("nic", "mem_req", Time::from_ns(5), 2);
        assert_eq!(a.violations_by_kind(AuditKind::Conservation), 3);
        assert_eq!(a.violations_total(), 6);
        drop(lend);
        assert_eq!(state.unexpected_events(), 1);
    }

    #[test]
    fn unexpected_events_count_on_the_innermost_lent_state() {
        let a = auditor(AuditConfig::report());
        let (mut outer, mut inner) = (run_state(&a), run_state(&a));
        {
            let _outer = outer.lend();
            unexpected_event("llc", "disk_req", Time::ZERO, 1);
            {
                let _inner = inner.lend();
                unexpected_event("nic", "mem_req", Time::ZERO, 2);
                unexpected_event("nic", "mem_req", Time::ZERO, 2);
            }
            unexpected_event("llc", "disk_req", Time::ZERO, 1);
        }
        assert_eq!(
            (outer.unexpected_events(), inner.unexpected_events()),
            (2, 2)
        );
        assert_eq!(a.violations_total(), 4);

        // A state that observes nothing is not swapped in, and still
        // counts (debug builds then panic, as documented).
        let mut bare = RunState::new(RunConfig::default());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _bare = bare.lend();
            unexpected_event("bridge", "net_frame", Time::ZERO, 0);
        }));
        assert_eq!(r.is_err(), cfg!(debug_assertions));
        assert_eq!(bare.unexpected_events(), 1);
        assert_eq!(outer.unexpected_events(), 2);
    }

    #[test]
    fn lent_ledgers_stay_apart_and_move_between_threads() {
        // Two machines injecting the same (domain, src, id) key do not
        // collide, a lend nests, and dropping the guard hands each ledger
        // back intact.
        let auditor = auditor(AuditConfig::report());
        let (mut a, mut b) = (run_state(&auditor), run_state(&auditor));
        {
            let _a = a.lend();
            packet_inject(Domain::Xbar, 1, 40, 3, Time::ZERO);
            {
                let _b = b.lend();
                packet_inject(Domain::Xbar, 1, 40, 5, Time::ZERO);
                assert_eq!(in_flight(), 1);
            }
            assert_eq!(in_flight(), 1, "the outer lend is restored");
        }
        assert_eq!(in_flight(), 0);
        assert_eq!((a.ledger.in_flight(), b.ledger.in_flight()), (1, 1));
        assert_eq!(
            auditor.violations_total(),
            0,
            "identical keys in different ledgers are distinct packets"
        );
        // A ledger moved to another thread keeps its entries and DS tags.
        let b = std::thread::spawn(move || {
            let mut b = b;
            {
                let _b = b.lend();
                packet_retire(Domain::Xbar, 1, 40, 7, Time::from_ns(1), "llc");
            }
            b
        })
        .join()
        .unwrap();
        assert_eq!(b.ledger.in_flight(), 0);
        assert_eq!(
            auditor.violations_total(),
            1,
            "the moved ledger kept its DS tag"
        );

        // Two machines on one thread report to their own auditors.
        let other = self::auditor(AuditConfig::report());
        let mut c = run_state(&other);
        {
            let _c = c.lend();
            violation(AuditKind::Quota, Time::ZERO, 0, "over", &[]);
        }
        assert_eq!(
            (auditor.violations_total(), other.violations_total()),
            (1, 1)
        );
    }

    #[test]
    fn strict_mode_panics_after_recording_and_the_lend_unwinds() {
        let a = auditor(AuditConfig::strict());
        let mut state = run_state(&a);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _lend = state.lend();
            assert!(strict());
            violation(AuditKind::Clock, Time::ZERO, 0, "past_event", &[]);
        }));
        assert!(panicked.is_err(), "strict mode must panic");
        assert_eq!(a.violations_total(), 1);
        // A strict abort inside a lend hands the ledger back rather than
        // leaking it into the thread.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _lend = state.lend();
            packet_inject(Domain::Dma, 4, 50, 2, Time::ZERO);
            packet_inject(Domain::Dma, 4, 50, 2, Time::ZERO);
        }));
        assert!(panicked.is_err(), "a duplicate injection aborts");
        assert_eq!(
            state.ledger.in_flight(),
            1,
            "the unwinding lend returned the ledger"
        );
        assert!(!enabled(), "and left nothing lent to the thread");
        assert_eq!(in_flight(), 0);
    }

    // config_from_env is pure, so the hard-error contract is testable
    // without touching the process environment.
    #[test]
    fn env_config_accepts_the_documented_surface() {
        assert!(config_from_env(None, Some("a.jsonl")).unwrap().is_none());
        assert!(config_from_env(Some(""), None).unwrap().is_none());
        let c = config_from_env(Some("strict"), Some("a.jsonl"))
            .unwrap()
            .unwrap();
        assert_eq!(c.mode, AuditMode::Strict);
        assert_eq!(c.path.as_deref(), Some(std::path::Path::new("a.jsonl")));
        let c = config_from_env(Some("report"), Some("")).unwrap().unwrap();
        assert_eq!(c.mode, AuditMode::Report);
        assert!(c.path.is_none());
    }

    #[test]
    fn env_config_rejects_malformed_values_naming_the_variable() {
        for mode in ["strcit", "STRICT", "on"] {
            let err = config_from_env(Some(mode), None).expect_err("unknown mode");
            assert!(
                err.starts_with("PARD_AUDIT: "),
                "{err:?} must name PARD_AUDIT"
            );
        }
        let err = auditor_from(Some("typo"), Some("a.jsonl")).expect_err("unknown mode");
        assert!(err.starts_with("PARD_AUDIT: "), "{err:?}");
        let missing = std::env::temp_dir()
            .join(format!("pard-audit-missing-{}", std::process::id()))
            .join("audit.jsonl");
        let err = auditor_from(Some("report"), missing.to_str())
            .expect_err("a sink in a missing directory cannot be created");
        assert!(
            err.starts_with("PARD_AUDIT_FILE: "),
            "{err:?} must name PARD_AUDIT_FILE"
        );
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
