//! Structured, per-DS-id event tracing for the simulated machine.
//!
//! Every shared resource in the PARD reproduction (the kernel event loop,
//! the LLC, the memory controller, the I/O bridge, the IDE virtualisation
//! layer, the trigger comparators, and the PRM firmware) can emit trace
//! events tagged with the simulated time, the DS-id the event is attributed
//! to, a category, and a small set of key/value fields. Events are rendered
//! as JSON Lines: one self-contained JSON object per line, always carrying
//! the `time` (nanoseconds), `ds`, `cat`, and `event` keys.
//!
//! Tracing is **zero-cost when disabled**: the only work on a hot path is
//! one thread-local read through [`enabled`], and instrumented components
//! are expected to guard their field-gathering behind it.
//! Tracing is a pure observer — it never schedules events, never touches
//! any RNG, and therefore never perturbs a simulation's outcome; a traced
//! run produces byte-identical figure output to an untraced run.
//!
//! # Enabling a trace
//!
//! A machine traces into the [`Tracer`] its configuration names
//! ([`RunConfig::tracer`](crate::run::RunConfig)); machines that share a
//! sink share one tracer through an `Arc`. Programmatic use builds one
//! with [`Tracer::new`] from a [`TraceConfig`]. The environment-variable
//! interface, read once per process by
//! [`RunConfig::from_env`](crate::run::RunConfig::from_env), the default
//! configuration of every `PardServer`:
//!
//! * `PARD_TRACE=<path>` — enable tracing into a file. A path ending in
//!   `.ptr` selects the durable paged binary store ([`crate::store`], the
//!   compact, seekable format); any other path streams debug JSONL. `-`
//!   is rejected: there is no in-memory sink.
//! * `PARD_TRACE_FILTER=cat[:ds],...` — restrict to the listed categories,
//!   optionally to specific DS-ids within a category. Unset means every
//!   category and every DS-id. Example: `llc,trigger:2` traces all LLC
//!   events plus trigger events for DS-id 2 only.
//! * `PARD_TRACE_SAMPLE=cat:n,...` — keep only every `n`-th event of a
//!   category, overriding the defaults (kernel 1024, llc 256, dram 256,
//!   all others 1). Sampling bounds trace volume on multi-million-event
//!   figure runs. Each simulated machine counts its own events (see
//!   [Sampling](#sampling)).
//!
//! A malformed value for any of these variables is a **hard error**: the
//! process prints a message naming the variable and exits with status 2,
//! the same contract `PARD_FAULT_PLAN` established — a run asked to trace
//! must never silently trace less (or differently) than asked.
//!
//! # Sampling
//!
//! A category sampled 1-in-`n` keeps the first event that passes its
//! DS-id filter, then every `n`-th after it. The countdowns belong to the
//! simulated machine, not to the process or the tracer: they are part of
//! the run state a [`Simulation`](crate::Simulation) lends to the thread
//! that runs it (`crate::run`), so the kept subset depends only on that
//! machine's own event order — also when fleet machines move between
//! worker threads. Events emitted outside a kernel call (the fleet
//! manager's) count on the countdowns of the run state their emitter
//! lends.
//!
//! Sampled-out events cost a counter decrement: [`emit`] decides before
//! it takes the tracer's lock, and the kernel counts its own category
//! down, calling its event hook only for kept deliveries. A category with
//! a DS-id filter is the exception: the kernel shows every delivery to
//! its hook, and [`emit`] applies the filter before counting.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::sync::Mutex;

use crate::run;
use crate::store::{self, StoreConfig, ValRef};
use crate::time::Time;

/// The event categories a trace line can belong to.
///
/// Each category maps to one bit of the lent guard word, so the hot-path
/// check compiles to a load + test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceCat {
    /// Kernel event-loop deliveries (sampled heavily by default).
    Kernel = 0,
    /// Last-level cache hits, misses, and dirty evictions.
    Llc = 1,
    /// Memory-controller enqueue and issue decisions.
    Dram = 2,
    /// I/O bridge DMA forwarding and drops.
    Io = 3,
    /// IDE virtualisation-layer bandwidth grants and completions.
    Ide = 4,
    /// Trigger comparator fire / re-arm / skip outcomes.
    Trigger = 5,
    /// PRM firmware interrupt servicing.
    Prm = 6,
    /// Fleet-level events: PRM escalations arriving at the fleet manager,
    /// traffic re-shards, and LDom migrations.
    Fleet = 7,
}

/// Number of categories (size of the per-category filter tables).
const CATS: usize = 8;

impl TraceCat {
    /// Every category, in bit order.
    pub const ALL: [TraceCat; CATS] = [
        TraceCat::Kernel,
        TraceCat::Llc,
        TraceCat::Dram,
        TraceCat::Io,
        TraceCat::Ide,
        TraceCat::Trigger,
        TraceCat::Prm,
        TraceCat::Fleet,
    ];

    /// This category's bit in the enable mask.
    #[inline]
    pub const fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// The lower-case name used in trace lines and env filters.
    pub const fn name(self) -> &'static str {
        match self {
            TraceCat::Kernel => "kernel",
            TraceCat::Llc => "llc",
            TraceCat::Dram => "dram",
            TraceCat::Io => "io",
            TraceCat::Ide => "ide",
            TraceCat::Trigger => "trigger",
            TraceCat::Prm => "prm",
            TraceCat::Fleet => "fleet",
        }
    }

    /// Parses a category name as used in `PARD_TRACE_FILTER`.
    pub fn parse(s: &str) -> Option<TraceCat> {
        TraceCat::ALL.iter().copied().find(|c| c.name() == s)
    }
}

/// A field value attached to a trace event: the store's borrowed value
/// with a static label, so both sinks serialise the same information.
pub type TraceVal = ValRef<'static>;

/// Default per-category sampling divisors: the kernel loop and the
/// cache/memory hot paths fire millions of times per figure run, so they
/// keep one event in N by default; control-path categories keep everything.
const DEFAULT_SAMPLE: [u32; CATS] = [1024, 256, 256, 1, 1, 1, 1, 1];

/// Configuration for [`Tracer::new`]; build one with
/// [`TraceConfig::to_file`].
#[derive(Debug)]
pub struct TraceConfig {
    /// Sink path. A path ending in `.ptr` selects the durable paged binary
    /// store ([`crate::store`]); anything else streams debug JSONL.
    pub path: PathBuf,
    /// Enabled categories and their optional DS-id restrictions
    /// (`None` = all DS-ids).
    pub filter: Vec<(TraceCat, Option<u16>)>,
    /// Per-category sampling overrides `(cat, keep_one_in_n)`; every
    /// divisor must be ≥ 1.
    pub sample: Vec<(TraceCat, u32)>,
}

impl TraceConfig {
    /// A config that traces every category with default sampling into the
    /// given file.
    pub fn to_file(path: impl Into<PathBuf>) -> Self {
        TraceConfig {
            path: path.into(),
            filter: Vec::new(),
            sample: Vec::new(),
        }
    }
}

/// Where kept events go after filtering and sampling.
enum Sink {
    /// Debug JSONL stream: one rendered line per event.
    Jsonl(BufWriter<File>),
    /// Durable paged binary store: events are encoded, never rendered.
    Binary(store::TraceWriter),
}

impl Sink {
    /// Makes everything accepted so far visible to readers of the sink.
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Sink::Jsonl(w) => w.flush(),
            Sink::Binary(w) => w.flush(),
        }
    }

    /// Final teardown flush (the binary store also syncs to disk).
    fn finish(&mut self) -> std::io::Result<()> {
        match self {
            Sink::Jsonl(w) => w.flush(),
            Sink::Binary(w) => w.finish(),
        }
    }
}

struct TraceState {
    sink: Sink,
    emitted: u64,
}

/// A trace sink with its category filter and sampling divisors. Built
/// once from a [`TraceConfig`] and shared by the machines that trace into
/// it (see [`RunConfig`](crate::run::RunConfig)); the sink is finished
/// when the tracer is disabled or dropped.
///
/// A run asked to trace must never silently trace less: the first failed
/// write, flush or finish stops the tracer and ends the run with exit
/// status 2 naming `PARD_TRACE` if the environment configured it, or
/// prints the error if it was built in code.
pub struct Tracer {
    /// Bit `i` set = category `i` enabled.
    mask: u32,
    /// Per-category DS-id allow-lists; `None` admits every DS-id.
    ds_filter: [Option<Vec<u16>>; CATS],
    /// The 1-in-N divisor [`emit`] applies per category. The kernel
    /// category's entry is 1 while the kernel samples that category
    /// itself (see [`Tracer::kernel_every`]).
    emit_div: [u32; CATS],
    /// The 1-in-N divisor the kernel applies to its event hook: the
    /// kernel category's divisor while that category is traced without
    /// a DS-id filter, 1 otherwise.
    kernel_div: u32,
    /// The sink's path, for error messages.
    path: PathBuf,
    /// `None` once disabled.
    state: Mutex<Option<TraceState>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("mask", &self.mask)
            .finish_non_exhaustive()
    }
}

/// True when `cat` is traced on the calling thread. This is the hot-path
/// guard: one thread-local read of the lent configuration's guard word,
/// so instrumented components pay nothing measurable when tracing is off.
#[inline]
pub fn enabled(cat: TraceCat) -> bool {
    run::guard() & cat.bit() != 0
}

/// One machine's per-category sample countdowns: how many more events of
/// each category to skip before the next kept one. Part of the lent run
/// state (`crate::run`).
pub(crate) struct Sampler {
    left: [u32; CATS],
}

impl Sampler {
    pub(crate) const EMPTY: Sampler = Sampler { left: [0; CATS] };

    /// Counts one event of `cat` (already past its DS-id filter) and says
    /// whether it is kept under divisor `div`.
    #[inline]
    fn keep(&mut self, cat: TraceCat, div: u32) -> bool {
        if div == 1 {
            return true;
        }
        let left = &mut self.left[cat as usize];
        if *left == 0 {
            *left = div - 1;
            true
        } else {
            *left -= 1;
            false
        }
    }
}

impl Tracer {
    /// Builds a tracer from `config`. Fails if the sink file cannot be
    /// created.
    ///
    /// # Panics
    ///
    /// Panics on a zero sampling divisor — a programming error, and
    /// silently "fixing" it would make the tracer behave differently from
    /// what the caller asked for. (The env-var path rejects it before
    /// ever reaching `new`.)
    pub fn new(config: TraceConfig) -> std::io::Result<Tracer> {
        let path = &config.path;
        let sink = if path.extension().is_some_and(|e| e == "ptr") {
            Sink::Binary(store::TraceWriter::create(path, StoreConfig::default())?)
        } else {
            Sink::Jsonl(BufWriter::new(File::create(path)?))
        };

        let mut mask = 0u32;
        let mut ds_filter: [Option<Vec<u16>>; CATS] = Default::default();
        if config.filter.is_empty() {
            mask = TraceCat::ALL.iter().map(|c| c.bit()).sum();
        } else {
            for &(cat, ds) in &config.filter {
                mask |= cat.bit();
                if let Some(ds) = ds {
                    ds_filter[cat as usize]
                        .get_or_insert_with(Vec::new)
                        .push(ds);
                }
            }
        }

        let mut emit_div = DEFAULT_SAMPLE;
        for &(cat, div) in &config.sample {
            assert!(
                div > 0,
                "TraceConfig sampling divisor for {} must be >= 1",
                cat.name()
            );
            emit_div[cat as usize] = div;
        }

        // The kernel samples its own category unless a DS-id filter must
        // run first, which only `emit` applies.
        let kernel = TraceCat::Kernel;
        let kernel_div = if mask & kernel.bit() != 0 && ds_filter[kernel as usize].is_none() {
            std::mem::replace(&mut emit_div[kernel as usize], 1)
        } else {
            1
        };

        Ok(Tracer {
            mask,
            ds_filter,
            emit_div,
            kernel_div,
            path: config.path,
            state: Mutex::new(Some(TraceState { sink, emitted: 0 })),
        })
    }

    /// The enabled categories, one bit each.
    pub(crate) fn mask(&self) -> u32 {
        self.mask
    }

    /// True when this tracer traces `cat`.
    pub fn enabled(&self, cat: TraceCat) -> bool {
        self.mask & cat.bit() != 0
    }

    /// How the kernel samples the deliveries it shows its event hook:
    /// one in this many, counting from the machine's first delivery. 1
    /// unless the kernel category is traced without a DS-id filter.
    pub(crate) fn kernel_every(&self) -> u32 {
        self.kernel_div
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Option<TraceState>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Flushes any pending sink writes (finishing a binary store, which
    /// also syncs it to disk) and stops the tracer: later events are
    /// dropped.
    pub fn disable(&self) {
        let Some(mut state) = self.lock().take() else {
            return;
        };
        if let Err(e) = state.sink.finish() {
            self.failed(e);
        }
    }

    /// Flushes the sink without disabling tracing. For a binary store
    /// this seals the partial page, so everything emitted so far is
    /// visible to a concurrent reader.
    pub fn flush(&self) {
        let mut guard = self.lock();
        let Some(state) = guard.as_mut() else {
            return;
        };
        if let Err(e) = state.sink.flush() {
            // Nothing more goes to a sink that failed.
            *guard = None;
            drop(guard);
            self.failed(e);
        }
    }

    /// Reports a failed sink write (see the type's documentation). The
    /// caller has already taken the sink out of service.
    #[cold]
    fn failed(&self, e: std::io::Error) {
        let env = run::env_var("PARD_TRACE", self, |c| c.tracer.as_deref());
        run::sink_failed(
            env,
            &format!("cannot write the trace to {:?}: {e}", self.path),
        );
    }

    /// Total events emitted (post-filter, post-sampling) into this tracer.
    pub fn lines_emitted(&self) -> u64 {
        self.lock().as_ref().map_or(0, |s| s.emitted)
    }

    /// Whether `cat` events of DS-id `ds` pass the DS-id filter.
    #[inline]
    fn admits(&self, cat: TraceCat, ds: u16) -> bool {
        self.ds_filter[cat as usize]
            .as_ref()
            .is_none_or(|allow| allow.contains(&ds))
    }

    /// Hands one kept event to the sink: rendered as a JSONL line, or
    /// appended in binary form (no render) for a `.ptr` store.
    #[inline(never)]
    fn write(&self, cat: TraceCat, time: Time, ds: u16, event: &str, fields: &[(&str, TraceVal)]) {
        let mut guard = self.lock();
        let Some(state) = guard.as_mut() else {
            return;
        };
        let written = match &mut state.sink {
            Sink::Binary(w) => w.append(cat as u8, time.units(), ds, event, fields.iter().copied()),
            Sink::Jsonl(w) => writeln!(w, "{}", render_line(cat, time, ds, event, fields)),
        };
        if let Err(e) = written {
            *guard = None;
            drop(guard);
            self.failed(e);
            return;
        }
        state.emitted += 1;
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        self.disable();
    }
}

/// Every category name, `|`-separated, for error messages.
fn category_names() -> String {
    TraceCat::ALL.map(TraceCat::name).join("|")
}

/// Parses the raw `PARD_TRACE*` values into a [`TraceConfig`].
///
/// Pure (no env access, no I/O) so the unit tests cover every
/// malformed-input path. Every error message names the offending variable
/// and says what would have been accepted — the caller turns `Err` into a
/// hard process exit, per the module-level contract.
fn config_from_env(
    path: &str,
    filter: Option<&str>,
    sample: Option<&str>,
) -> Result<TraceConfig, String> {
    if path == "-" {
        return Err("PARD_TRACE: \"-\" is not a sink (want a file path; \
                    a .ptr path selects the binary store)"
            .to_string());
    }
    let mut config = TraceConfig::to_file(path);
    if let Some(filter) = filter {
        for term in filter.split(',').filter(|t| !t.is_empty()) {
            let (cat, ds) = match term.split_once(':') {
                Some((c, d)) => {
                    let ds = d.trim().parse::<u16>().map_err(|_| {
                        format!(
                            "PARD_TRACE_FILTER: bad DS-id {d:?} in term {term:?} \
                             (want cat or cat:ds with ds in 0..=65535)"
                        )
                    })?;
                    (c, Some(ds))
                }
                None => (term, None),
            };
            let cat = TraceCat::parse(cat.trim()).ok_or_else(|| {
                format!(
                    "PARD_TRACE_FILTER: unknown category {:?} (want {})",
                    cat.trim(),
                    category_names()
                )
            })?;
            config.filter.push((cat, ds));
        }
    }
    if let Some(sample) = sample {
        for term in sample.split(',').filter(|t| !t.is_empty()) {
            let (cat, div) = term
                .split_once(':')
                .ok_or_else(|| format!("PARD_TRACE_SAMPLE: bad term {term:?} (want cat:n)"))?;
            let cat = TraceCat::parse(cat.trim()).ok_or_else(|| {
                format!(
                    "PARD_TRACE_SAMPLE: unknown category {:?} in term {term:?} (want {})",
                    cat.trim(),
                    category_names()
                )
            })?;
            let div = div.trim().parse::<u32>().map_err(|_| {
                format!("PARD_TRACE_SAMPLE: bad divisor {div:?} in term {term:?} (want an integer)")
            })?;
            if div == 0 {
                return Err(format!(
                    "PARD_TRACE_SAMPLE: divisor must be >= 1 in term {term:?}"
                ));
            }
            config.sample.push((cat, div));
        }
    }
    Ok(config)
}

/// Reads `PARD_TRACE` / `PARD_TRACE_FILTER` / `PARD_TRACE_SAMPLE` and
/// builds the tracer they ask for: `None` when `PARD_TRACE` is unset or
/// empty. `Err` names the variable at fault, for a malformed value or a
/// sink file that cannot be created.
pub(crate) fn tracer_from_env() -> Result<Option<Tracer>, String> {
    let var = |name| std::env::var(name).ok();
    let Some(path) = var("PARD_TRACE").filter(|p| !p.is_empty()) else {
        return Ok(None);
    };
    let config = config_from_env(
        &path,
        var("PARD_TRACE_FILTER").as_deref(),
        var("PARD_TRACE_SAMPLE").as_deref(),
    )?;
    Tracer::new(config)
        .map(Some)
        .map_err(|e| format!("PARD_TRACE: cannot open {path:?}: {e}"))
}

/// Finishes the tracer the environment configured (see
/// [`Tracer::disable`]); a no-op when the environment asked for none.
pub fn disable() {
    if let Some(tracer) = run::ENV.get().and_then(|c| c.tracer.as_ref()) {
        tracer.disable();
    }
}

/// Emits one trace event into the tracer of the run state lent to the
/// calling thread.
///
/// Callers should guard the call (and any field gathering) behind
/// [`enabled`]; `emit` re-checks, applies the DS-id filter and the
/// per-category sampling divisor (see [Sampling](#sampling)), and only
/// then takes the tracer's lock to hand the kept event to the sink.
#[inline]
pub fn emit(cat: TraceCat, time: Time, ds: u16, event: &str, fields: &[(&str, TraceVal)]) {
    if !enabled(cat) {
        return;
    }
    run::with_active(|state| {
        let Some(tracer) = &state.config.tracer else {
            return;
        };
        if tracer.admits(cat, ds) && state.sampler.keep(cat, tracer.emit_div[cat as usize]) {
            tracer.write(cat, time, ds, event, fields);
        }
    });
}

/// Renders one trace event as its JSONL line.
fn render_line(
    cat: TraceCat,
    time: Time,
    ds: u16,
    event: &str,
    fields: &[(&str, TraceVal)],
) -> String {
    let mut line = render_prefix(cat, time.units(), ds, event);
    render_fields(&mut line, fields.iter().copied());
    line.push('}');
    line
}

/// Re-renders a decoded [`store::Event`] as the JSONL line the `.jsonl`
/// sink would have produced for the same emission. This is the
/// byte-equivalence contract between the two trace formats: decoding a
/// `.ptr` file and rendering each event through this function yields the
/// exact bytes the JSONL sink writes.
///
/// # Errors
///
/// Fails (with a description) if the event's category byte does not name
/// a [`TraceCat`] — the store does not interpret the byte, so a foreign
/// or corrupt file surfaces here.
pub fn render_stored(ev: &store::Event) -> Result<String, String> {
    let cat = TraceCat::ALL
        .get(ev.cat as usize)
        .copied()
        .ok_or_else(|| format!("bad category byte {} (want 0..{CATS})", ev.cat))?;
    let mut line = render_prefix(cat, ev.time, ev.ds, &ev.event);
    render_fields(&mut line, ev.field_refs());
    line.push('}');
    Ok(line)
}

/// The fixed head of every JSONL line: time, ds, cat, event.
fn render_prefix(cat: TraceCat, time_units: u64, ds: u16, event: &str) -> String {
    let mut line = String::with_capacity(96);
    use std::fmt::Write as _;
    let _ = write!(
        line,
        "{{\"time\":{},\"ds\":{},\"cat\":\"{}\",\"event\":\"{}\"",
        format_ns(Time::from_units(time_units)),
        ds,
        cat.name(),
        event
    );
    line
}

/// Appends the `,"key":value` tail fields. The live-emission path
/// ([`TraceVal`]) and the store-decode path ([`store::Event`]) share this
/// one formatter, which is what makes the two sinks byte-equivalent by
/// construction.
pub(crate) fn render_fields<'a>(
    line: &mut String,
    fields: impl Iterator<Item = (&'a str, ValRef<'a>)>,
) {
    use std::fmt::Write as _;
    for (key, val) in fields {
        let _ = write!(line, ",\"{key}\":");
        match val {
            ValRef::U(u) => {
                let _ = write!(line, "{u}");
            }
            ValRef::F(f) if f.is_finite() => {
                let _ = write!(line, "{f}");
            }
            ValRef::F(_) => line.push_str("null"),
            ValRef::S(s) => {
                let _ = write!(line, "\"{s}\"");
            }
            ValRef::B(b) => line.push_str(if b { "true" } else { "false" }),
        }
    }
}

/// Renders a [`Time`] as (possibly fractional) nanoseconds without going
/// through floating point when the value is whole. Shared with the audit
/// module so violation lines stamp time identically to trace lines.
pub(crate) fn format_ns(t: Time) -> String {
    let units = t.units();
    let whole = units / Time::UNITS_PER_NS;
    let frac = units % Time::UNITS_PER_NS;
    if frac == 0 {
        format!("{whole}")
    } else {
        // Quarter-ns resolution: the fraction is always .25/.5/.75.
        format!(
            "{whole}.{}",
            match frac {
                1 => "25",
                2 => "5",
                _ => "75",
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{RunConfig, RunState};
    use std::path::Path;
    use std::sync::Arc;

    fn tracer(config: TraceConfig) -> Arc<Tracer> {
        Arc::new(Tracer::new(config).unwrap())
    }

    /// A scratch JSONL sink path for test `name`, unique to this process.
    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pard-trace-{}-{name}.jsonl", std::process::id()))
    }

    /// The lines `t` has written to its JSONL sink at `path`.
    fn lines(t: &Tracer, path: &Path) -> Vec<String> {
        t.flush();
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    fn run_state(tracer: &Arc<Tracer>) -> RunState {
        RunState::new(RunConfig {
            tracer: Some(tracer.clone()),
            ..RunConfig::default()
        })
    }

    /// Runs `f` with a fresh run state tracing into `tracer` lent.
    fn traced(tracer: &Arc<Tracer>, f: impl FnOnce()) {
        let mut state = run_state(tracer);
        let _lend = state.lend();
        f();
    }

    #[test]
    fn nothing_is_traced_outside_a_lend() {
        let path = scratch("unlent");
        let t = tracer(TraceConfig::to_file(&path));
        assert!(t.enabled(TraceCat::Llc));
        assert!(!enabled(TraceCat::Llc), "no run state is lent");
        emit(TraceCat::Llc, Time::from_ns(1), 0, "miss", &[]);
        assert_eq!(t.lines_emitted(), 0);
        traced(&t, || assert!(enabled(TraceCat::Llc)));
        assert!(!enabled(TraceCat::Llc), "the lend is over");
        assert!(lines(&t, &path).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn filtered_events_render_as_jsonl_lines() {
        // llc for all ds + trigger for ds 2 only, no sampling so every
        // event lands.
        let path = scratch("filtered");
        let t = tracer(TraceConfig {
            filter: vec![(TraceCat::Llc, None), (TraceCat::Trigger, Some(2))],
            sample: vec![(TraceCat::Llc, 1)],
            ..TraceConfig::to_file(&path)
        });
        traced(&t, || {
            assert!(enabled(TraceCat::Llc));
            assert!(enabled(TraceCat::Trigger));
            assert!(!enabled(TraceCat::Dram));
            emit(
                TraceCat::Llc,
                Time::from_units(9), // 2.25 ns
                3,
                "miss",
                &[("addr", TraceVal::U(64)), ("hot", TraceVal::B(true))],
            );
            emit(TraceCat::Trigger, Time::from_ns(5), 1, "fire", &[]); // filtered out
            let slot = [("slot", TraceVal::U(0))];
            emit(TraceCat::Trigger, Time::from_ns(5), 2, "fire", &slot);
            emit(TraceCat::Dram, Time::from_ns(6), 2, "issue", &[]); // category off
        });
        assert_eq!(
            lines(&t, &path),
            [
                "{\"time\":2.25,\"ds\":3,\"cat\":\"llc\",\"event\":\"miss\",\"addr\":64,\"hot\":true}",
                "{\"time\":5,\"ds\":2,\"cat\":\"trigger\",\"event\":\"fire\",\"slot\":0}",
            ]
        );
        assert_eq!(t.lines_emitted(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn each_run_state_samples_its_own_events() {
        // Divisor 3 keeps the 1st, 4th, 7th, ... event.
        let path = scratch("per-state");
        let t = tracer(TraceConfig {
            filter: vec![(TraceCat::Dram, None)],
            sample: vec![(TraceCat::Dram, 3)],
            ..TraceConfig::to_file(&path)
        });
        traced(&t, || {
            for i in 0..7u64 {
                emit(TraceCat::Dram, Time::from_ns(i), 0, "issue", &[]);
            }
        });
        assert_eq!(t.lines_emitted(), 3);
        assert_eq!(t.kernel_every(), 1, "kernel category off");

        // Two run states lent in turn keep what each would keep alone
        // (events 1-4: the 1st and 4th; events 5-8: the 7th).
        let kept_of_four = |state: &mut RunState| {
            let _lend = state.lend();
            let before = t.lines_emitted();
            for i in 0..4u64 {
                emit(TraceCat::Dram, Time::from_ns(i), 0, "issue", &[]);
            }
            t.lines_emitted() - before
        };
        let (mut a, mut b) = (run_state(&t), run_state(&t));
        assert_eq!([kept_of_four(&mut a), kept_of_four(&mut b)], [2, 2]);
        assert_eq!([kept_of_four(&mut a), kept_of_four(&mut b)], [1, 1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_ds_filter_runs_before_sampling() {
        // Of the DS-2 events (the 1st, 3rd, 5th and 6th emitted), divisor
        // 2 keeps the 1st and 3rd. A filtered kernel category is sampled
        // here too, not by the kernel.
        let path = scratch("ds-filter");
        let t = tracer(TraceConfig {
            filter: vec![(TraceCat::Dram, Some(2)), (TraceCat::Kernel, Some(0))],
            sample: vec![(TraceCat::Dram, 2), (TraceCat::Kernel, 2)],
            ..TraceConfig::to_file(&path)
        });
        assert_eq!(t.kernel_every(), 1, "a DS filter moves sampling to emit");
        traced(&t, || {
            for (i, ds) in [2u16, 1, 2, 1, 2, 2].into_iter().enumerate() {
                emit(TraceCat::Dram, Time::from_ns(i as u64), ds, "issue", &[]);
            }
        });
        let times: Vec<String> = lines(&t, &path)
            .iter()
            .map(|l| l.split(',').next().unwrap().to_string())
            .collect();
        assert_eq!(times, ["{\"time\":0", "{\"time\":4"]);
        traced(&t, || {
            for ds in [0, 1, 0, 0] {
                emit(TraceCat::Kernel, Time::from_ns(9), ds, "tick", &[]);
            }
        });
        assert_eq!(t.lines_emitted(), 4, "DS-0 kernel events 1 and 3 kept");

        std::fs::remove_file(&path).ok();

        // Unfiltered, the kernel samples its own category.
        let path = scratch("kernel-sampled");
        let t = tracer(TraceConfig {
            sample: vec![(TraceCat::Kernel, 2)],
            ..TraceConfig::to_file(&path)
        });
        assert_eq!(t.kernel_every(), 2);
        assert_eq!(t.emit_div[TraceCat::Kernel as usize], 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disable_finishes_the_sink_and_stops_the_tracer() {
        let path = scratch("disable");
        let t = tracer(TraceConfig {
            filter: vec![(TraceCat::Io, None)],
            ..TraceConfig::to_file(&path)
        });
        traced(&t, || {
            for i in 0..5u64 {
                emit(TraceCat::Io, Time::from_ns(i), 0, "dma", &[]);
            }
        });

        t.disable();
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 5);
        traced(&t, || emit(TraceCat::Io, Time::from_ns(9), 0, "dma", &[]));
        assert_eq!(t.lines_emitted(), 0, "a disabled tracer drops events");
        assert_eq!(lines(&t, &path).len(), 5, "nothing written after disable");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_failed_sink_write_stops_the_tracer() {
        // A device on which every write fails with "no space left".
        let full = Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let t = tracer(TraceConfig {
            filter: vec![(TraceCat::Io, None)],
            ..TraceConfig::to_file(full)
        });
        traced(&t, || emit(TraceCat::Io, Time::ZERO, 0, "dma", &[]));
        assert_eq!(t.lines_emitted(), 1, "the line waits in the buffer");
        t.flush();
        assert_eq!(t.lines_emitted(), 0, "the failed flush stops the tracer");
        traced(&t, || emit(TraceCat::Io, Time::ZERO, 0, "dma", &[]));
        assert_eq!(t.lines_emitted(), 0, "nothing more goes to a failed sink");
    }

    #[test]
    fn machines_on_one_thread_trace_into_their_own_tracers() {
        let (pa, pb) = (scratch("machine-a"), scratch("machine-b"));
        let a = tracer(TraceConfig::to_file(&pa));
        let b = tracer(TraceConfig::to_file(&pb));
        let (mut sa, mut sb) = (run_state(&a), run_state(&b));
        let mut bare = RunState::new(RunConfig::default());
        for i in 0..3u64 {
            {
                let _a = sa.lend();
                emit(TraceCat::Io, Time::from_ns(i), 1, "a", &[]);
                // A bare state lent inside shadows the outer one.
                let _bare = bare.lend();
                assert!(!enabled(TraceCat::Io));
                emit(TraceCat::Io, Time::from_ns(i), 0, "bare", &[]);
            }
            let _b = sb.lend();
            emit(TraceCat::Io, Time::from_ns(i), 2, "b", &[]);
        }
        assert_eq!((a.lines_emitted(), b.lines_emitted()), (3, 3));
        let only = |t: &Tracer, path: &Path, event: &str| {
            let kept = lines(t, path);
            kept.len() == 3 && kept.iter().all(|l| l.contains(event))
        };
        assert!(only(&a, &pa, "\"event\":\"a\"") && only(&b, &pb, "\"event\":\"b\""));
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }

    #[test]
    fn binary_sink_decodes_to_the_jsonl_bytes() {
        // Binary sink (`.ptr`): emits append structured events, and
        // decoding + render_stored reproduces the exact JSONL bytes.
        let ptr = scratch("bin").with_extension("ptr");
        let t = tracer(TraceConfig {
            filter: vec![(TraceCat::Llc, None), (TraceCat::Ide, None)],
            sample: vec![(TraceCat::Llc, 1)],
            ..TraceConfig::to_file(&ptr)
        });
        traced(&t, || {
            emit(
                TraceCat::Llc,
                Time::from_units(9), // 2.25 ns
                3,
                "miss",
                &[
                    ("addr", TraceVal::U(64)),
                    ("way", TraceVal::S("mru")),
                    ("hot", TraceVal::B(true)),
                    ("occ", TraceVal::F(0.5)),
                ],
            );
            let bytes = [("bytes", TraceVal::U(4096))];
            emit(TraceCat::Ide, Time::from_ns(5), 2, "grant", &bytes);
        });
        assert_eq!(t.lines_emitted(), 2);
        drop(t); // dropping the last handle finishes the store

        let mut reader = store::TraceReader::open(&ptr).unwrap();
        let decoded: Vec<String> = reader
            .events()
            .map(|ev| render_stored(&ev.unwrap()).unwrap())
            .collect();
        assert_eq!(
            decoded,
            vec![
                "{\"time\":2.25,\"ds\":3,\"cat\":\"llc\",\"event\":\"miss\",\
                 \"addr\":64,\"way\":\"mru\",\"hot\":true,\"occ\":0.5}"
                    .to_string(),
                "{\"time\":5,\"ds\":2,\"cat\":\"ide\",\"event\":\"grant\",\"bytes\":4096}"
                    .to_string(),
            ]
        );
        std::fs::remove_file(&ptr).ok();
    }

    #[test]
    fn render_stored_rejects_bad_category_byte() {
        let ev = store::Event {
            cat: 42,
            time: 0,
            ds: 0,
            event: "x".to_string(),
            fields: Vec::new(),
        };
        let err = render_stored(&ev).unwrap_err();
        assert!(err.contains("bad category byte 42"), "{err}");
    }

    // config_from_env is pure, so the hard-error contract is testable
    // without touching the process environment.
    #[test]
    fn env_config_accepts_the_documented_surface() {
        let c = config_from_env("out.ptr", Some("llc,trigger:2"), Some("kernel:64")).unwrap();
        assert_eq!(c.path, Path::new("out.ptr"));
        assert_eq!(
            c.filter,
            vec![(TraceCat::Llc, None), (TraceCat::Trigger, Some(2))]
        );
        assert_eq!(c.sample, vec![(TraceCat::Kernel, 64)]);
        // Unset extras trace everything at the default sampling.
        let c = config_from_env("out.jsonl", None, None).unwrap();
        assert_eq!(c.path, Path::new("out.jsonl"));
        assert!(c.filter.is_empty() && c.sample.is_empty());
    }

    #[test]
    fn env_config_rejects_malformed_values_naming_the_variable() {
        let cases: [(Option<&str>, Option<&str>, &str); 5] = [
            (Some("bogus"), None, "PARD_TRACE_FILTER"),
            (Some("llc:banana"), None, "PARD_TRACE_FILTER"),
            (None, Some("llc"), "PARD_TRACE_SAMPLE"),
            (None, Some("bogus:2"), "PARD_TRACE_SAMPLE"),
            (None, Some("llc:0"), "PARD_TRACE_SAMPLE"),
        ];
        for (filter, sample, var) in cases {
            let err =
                config_from_env("t", filter, sample).expect_err("malformed value must be rejected");
            assert!(
                err.starts_with(var),
                "error {err:?} must name the variable {var}"
            );
        }
        // An unknown category lists every category that would be accepted.
        for err in [
            config_from_env("t", Some("bogus"), None).unwrap_err(),
            config_from_env("t", None, Some("bogus:2")).unwrap_err(),
        ] {
            for cat in TraceCat::ALL {
                assert!(err.contains(cat.name()), "{err:?} must list {}", cat.name());
            }
        }
    }

    #[test]
    fn a_dash_path_is_rejected_naming_the_variable() {
        let err = config_from_env("-", None, None).expect_err("`-` names no sink");
        assert!(err.starts_with("PARD_TRACE:"), "{err:?}");
    }

    #[test]
    fn category_names_round_trip() {
        for cat in TraceCat::ALL {
            assert_eq!(TraceCat::parse(cat.name()), Some(cat));
        }
        assert_eq!(TraceCat::parse("nope"), None);
        // Bits are distinct.
        let mask: u32 = TraceCat::ALL.iter().map(|c| c.bit()).sum();
        assert_eq!(mask.count_ones() as usize, TraceCat::ALL.len());
    }
}
