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
//! Tracing is **zero-cost when disabled**: the only work on a hot path is a
//! single relaxed atomic load through [`enabled`], and instrumented
//! components are expected to guard their field-gathering behind it.
//! Tracing is a pure observer — it never schedules events, never touches
//! any RNG, and therefore never perturbs a simulation's outcome; a traced
//! run produces byte-identical figure output to an untraced run.
//!
//! # Enabling a trace
//!
//! The environment-variable interface (read by [`init_from_env`], which the
//! system model calls at construction):
//!
//! * `PARD_TRACE=<path>` — enable tracing. A path ending in `.ptr` selects
//!   the durable paged binary store ([`crate::store`], the long-horizon
//!   format); any other path streams debug JSONL; the magic value `-`
//!   keeps events only in the in-memory ring.
//! * `PARD_TRACE_FILTER=cat[:ds],...` — restrict to the listed categories,
//!   optionally to specific DS-ids within a category. Unset means every
//!   category and every DS-id. Example: `llc,trigger:2` traces all LLC
//!   events plus trigger events for DS-id 2 only.
//! * `PARD_TRACE_SAMPLE=cat:n,...` — keep only every `n`-th event of a
//!   category, overriding the defaults (kernel 1024, llc 256, dram 256,
//!   all others 1). Sampling bounds trace volume on multi-million-event
//!   figure runs. Each simulated machine counts its own events (see
//!   [Sampling](#sampling)).
//! * `PARD_TRACE_RING=<n>` — in-memory ring capacity in lines
//!   (default 65536; the ring is bypassed by the binary store, whose file
//!   is the durable record).
//! * `PARD_TRACE_PAGE=<bytes>` / `PARD_TRACE_POOL=<pages>` — binary-store
//!   page size and buffer-pool depth (defaults 8192 and 8; only
//!   meaningful with a `.ptr` sink).
//!
//! A malformed value for any of these variables is a **hard error**: the
//! process prints a message naming the variable and exits with status 2,
//! the same contract `PARD_FAULT_PLAN` established — a run asked to trace
//! must never silently trace less (or differently) than asked.
//!
//! Programmatic use goes through [`TraceConfig`] and [`install`] /
//! [`disable`], which the trace-vs-untraced byte-identity test exercises
//! within a single process.
//!
//! # Sampling
//!
//! A category sampled 1-in-`n` keeps the first event that passes its
//! DS-id filter, then every `n`-th after it. The countdowns belong to the
//! simulated machine, not to the process: they are part of the run state
//! a [`Simulation`](crate::Simulation) lends to the thread that runs it
//! (`crate::run`), so the kept subset depends only on that machine's own
//! event order — also when fleet machines move between worker threads.
//! Events emitted outside any machine (the fleet manager's, a harness's)
//! count on the emitting thread's own countdowns. Every [`install`] and
//! [`disable`] restarts all countdowns.
//!
//! Sampled-out events cost a counter decrement: [`emit`] decides before
//! it takes the tracer's lock, and the kernel counts its own category
//! down, calling its event hook only for kept deliveries. A category with
//! a DS-id filter is the exception: its filter is applied first, under
//! the lock, and only the events that pass it are counted.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::store::{self, StoreConfig, ValRef};
use crate::time::Time;

/// The event categories a trace line can belong to.
///
/// Each category maps to one bit in the global enable mask, so the hot-path
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

/// A field value attached to a trace event.
#[derive(Debug, Clone, Copy)]
pub enum TraceVal {
    /// An unsigned counter / identifier.
    U(u64),
    /// A floating-point measurement.
    F(f64),
    /// A static label.
    S(&'static str),
    /// A boolean flag.
    B(bool),
}

impl TraceVal {
    /// The store's borrowed view of this value (the two enums are kept in
    /// lock-step so both sinks serialise the same information).
    fn as_store_ref(&self) -> ValRef<'static> {
        match *self {
            TraceVal::U(u) => ValRef::U(u),
            TraceVal::F(f) => ValRef::F(f),
            TraceVal::S(s) => ValRef::S(s),
            TraceVal::B(b) => ValRef::B(b),
        }
    }
}

/// Default per-category sampling divisors: the kernel loop and the
/// cache/memory hot paths fire millions of times per figure run, so they
/// keep one event in N by default; control-path categories keep everything.
const DEFAULT_SAMPLE: [u32; CATS] = [1024, 256, 256, 1, 1, 1, 1, 1];

/// Default in-memory ring capacity, in rendered lines.
const DEFAULT_RING: usize = 65_536;

/// Configuration for [`install`].
#[derive(Debug)]
pub struct TraceConfig {
    /// Sink path; `None` keeps events only in the in-memory ring. A path
    /// ending in `.ptr` selects the durable paged binary store
    /// ([`crate::store`]); anything else streams debug JSONL.
    pub path: Option<std::path::PathBuf>,
    /// Enabled categories and their optional DS-id restrictions
    /// (`None` = all DS-ids).
    pub filter: Vec<(TraceCat, Option<u16>)>,
    /// Per-category sampling overrides `(cat, keep_one_in_n)`; every
    /// divisor must be ≥ 1.
    pub sample: Vec<(TraceCat, u32)>,
    /// In-memory ring capacity in lines; must be ≥ 1.
    pub ring_capacity: usize,
    /// Binary-store page size in bytes (ignored by non-`.ptr` sinks).
    pub page_size: usize,
    /// Binary-store buffer-pool depth in pages (ignored by non-`.ptr`
    /// sinks).
    pub pool_pages: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            path: None,
            filter: Vec::new(),
            sample: Vec::new(),
            ring_capacity: DEFAULT_RING,
            page_size: store::DEFAULT_PAGE_SIZE,
            pool_pages: store::DEFAULT_POOL_PAGES,
        }
    }
}

impl TraceConfig {
    /// A config that traces every category with default sampling into the
    /// given file.
    pub fn to_file(path: impl Into<std::path::PathBuf>) -> Self {
        TraceConfig {
            path: Some(path.into()),
            ..TraceConfig::default()
        }
    }
}

/// Where kept events go after filtering and sampling.
enum Sink {
    /// In-memory ring only.
    Ring,
    /// Debug JSONL stream (plus the ring).
    Jsonl(BufWriter<File>),
    /// Durable paged binary store; bypasses the ring — the file is the
    /// durable record, and skipping the per-event render halves the
    /// kept-event cost.
    Binary(store::TraceWriter),
}

impl Sink {
    /// Makes everything accepted so far visible to readers of the sink.
    fn flush(&mut self) {
        match self {
            Sink::Ring => {}
            Sink::Jsonl(w) => {
                let _ = w.flush();
            }
            Sink::Binary(w) => {
                let _ = w.flush();
            }
        }
    }

    /// Final teardown flush (the binary store also syncs to disk).
    fn finish(&mut self) {
        match self {
            Sink::Ring => {}
            Sink::Jsonl(w) => {
                let _ = w.flush();
            }
            Sink::Binary(w) => {
                let _ = w.finish();
            }
        }
    }
}

struct TraceState {
    ring: VecDeque<String>,
    ring_capacity: usize,
    sink: Sink,
    /// Per-category DS-id allow-lists; `None` admits every DS-id.
    ds_filter: [Option<Vec<u16>>; CATS],
    emitted: u64,
}

/// The tracer's configuration word, read by every hot-path check with one
/// relaxed load: bit `i` set = category `i` enabled; bit
/// `FILTERED_SHIFT + i` set = category `i` has a DS-id filter; the bits
/// from `GEN_SHIFT` up count [`install`] / [`disable`] calls, so sample
/// countdowns can tell that the tracer they counted for is gone.
static MASK: AtomicU64 = AtomicU64::new(0);
const FILTERED_SHIFT: u32 = CATS as u32;
const GEN_SHIFT: u32 = 32;
/// The 1-in-N divisor [`emit`] applies per category. The kernel category's
/// entry is 1 while the kernel samples that category itself (see
/// [`kernel_sampling`]).
static EMIT_DIV: [AtomicU32; CATS] = [const { AtomicU32::new(1) }; CATS];
/// The 1-in-N divisor the kernel applies to its event hook: the kernel
/// category's divisor while that category is traced without a DS-id
/// filter, 1 otherwise.
static KERNEL_DIV: AtomicU32 = AtomicU32::new(1);
static STATE: Mutex<Option<TraceState>> = Mutex::new(None);

/// True when `cat` is being traced. This is the hot-path guard: a single
/// relaxed atomic load, so instrumented components pay nothing measurable
/// when tracing is off.
#[inline]
pub fn enabled(cat: TraceCat) -> bool {
    MASK.load(Ordering::Relaxed) & u64::from(cat.bit()) != 0
}

/// True when any category is being traced.
#[inline]
pub(crate) fn on() -> bool {
    MASK.load(Ordering::Relaxed) & u64::from(u32::MAX >> (32 - CATS)) != 0
}

/// One machine's per-category sample countdowns: how many more events of
/// each category to skip before the next kept one, and the tracer
/// generation they count for. Part of the lent run state (`crate::run`).
#[derive(Default)]
pub(crate) struct Sampler {
    generation: u32,
    left: [u32; CATS],
}

/// The countdowns the calling thread samples with: the lent machine's, or
/// the thread's own.
struct ActiveSampler {
    generation: Cell<u32>,
    left: [Cell<u32>; CATS],
}

thread_local! {
    static SAMPLER: ActiveSampler = const {
        ActiveSampler {
            generation: Cell::new(0),
            left: [const { Cell::new(0) }; CATS],
        }
    };
}

/// Swaps `sampler` with the calling thread's active countdowns.
pub(crate) fn swap_active(sampler: &mut Sampler) {
    SAMPLER.with(|a| {
        sampler.generation = a.generation.replace(sampler.generation);
        for (mine, active) in sampler.left.iter_mut().zip(&a.left) {
            *mine = active.replace(*mine);
        }
    });
}

/// Counts one event of `cat` (already past its DS-id filter) on the
/// active countdowns and says whether it is kept. `word` is the [`MASK`]
/// value the caller loaded.
#[inline]
fn keep(cat: TraceCat, word: u64) -> bool {
    let div = EMIT_DIV[cat as usize].load(Ordering::Relaxed);
    if div == 1 {
        return true;
    }
    let generation = (word >> GEN_SHIFT) as u32;
    SAMPLER.with(|a| {
        if a.generation.get() != generation {
            a.generation.set(generation);
            a.left.iter().for_each(|c| c.set(0));
        }
        let left = &a.left[cat as usize];
        match left.get() {
            0 => {
                left.set(div - 1);
                true
            }
            n => {
                left.set(n - 1);
                false
            }
        }
    })
}

/// How the kernel samples the deliveries it shows its event hook:
/// `(generation, every)` — one delivery in `every` is shown, counting
/// from the first after the tracer generation changes. `every` is 1
/// unless the kernel category is traced without a DS-id filter.
pub(crate) fn kernel_sampling() -> (u32, u32) {
    let generation = (MASK.load(Ordering::Relaxed) >> GEN_SHIFT) as u32;
    (generation, KERNEL_DIV.load(Ordering::Relaxed))
}

/// Publishes a new configuration word with a bumped generation. Called
/// with the [`STATE`] lock held, after the divisors are stored.
fn publish(enabled: u32, filtered: u32) {
    let generation = (MASK.load(Ordering::Relaxed) >> GEN_SHIFT) + 1;
    let word =
        u64::from(enabled) | (u64::from(filtered) << FILTERED_SHIFT) | (generation << GEN_SHIFT);
    MASK.store(word, Ordering::Release);
}

/// Installs the global tracer from `config`. Replaces any previous tracer
/// (flushing — and for a binary store, finishing — it first). Fails if the
/// sink file cannot be created or the store config is invalid.
///
/// # Panics
///
/// Panics on a zero `ring_capacity` or a zero sampling divisor — both are
/// programming errors, and silently "fixing" them would make the tracer
/// behave differently from what the caller asked for. (The env-var path
/// rejects these before ever reaching `install`.)
pub fn install(config: TraceConfig) -> std::io::Result<()> {
    assert!(
        config.ring_capacity > 0,
        "TraceConfig::ring_capacity must be >= 1"
    );
    let sink = match &config.path {
        Some(p) if p.extension().is_some_and(|e| e == "ptr") => {
            let store_config = StoreConfig {
                page_size: config.page_size,
                pool_pages: config.pool_pages,
            };
            Sink::Binary(store::TraceWriter::create(p, store_config)?)
        }
        Some(p) => Sink::Jsonl(BufWriter::new(File::create(p)?)),
        None => Sink::Ring,
    };

    let mut mask = 0u32;
    let mut filtered = 0u32;
    let mut ds_filter: [Option<Vec<u16>>; CATS] = Default::default();
    if config.filter.is_empty() {
        mask = TraceCat::ALL.iter().map(|c| c.bit()).sum();
    } else {
        for &(cat, ds) in &config.filter {
            mask |= cat.bit();
            if let Some(ds) = ds {
                filtered |= cat.bit();
                ds_filter[cat as usize].get_or_insert_with(Vec::new).push(ds);
            }
        }
    }

    let mut sample_div = DEFAULT_SAMPLE;
    for &(cat, div) in &config.sample {
        assert!(
            div > 0,
            "TraceConfig sampling divisor for {} must be >= 1",
            cat.name()
        );
        sample_div[cat as usize] = div;
    }

    // The kernel samples its own category unless a DS-id filter must
    // run first, which only the system model's hook can apply.
    let kernel = TraceCat::Kernel.bit();
    let kernel_div = if mask & kernel != 0 && filtered & kernel == 0 {
        std::mem::replace(&mut sample_div[TraceCat::Kernel as usize], 1)
    } else {
        1
    };

    let state = TraceState {
        ring: VecDeque::new(),
        ring_capacity: config.ring_capacity,
        sink,
        ds_filter,
        emitted: 0,
    };

    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(old) = guard.as_mut() {
        old.sink.finish();
    }
    *guard = Some(state);
    for (slot, div) in EMIT_DIV.iter().zip(sample_div) {
        slot.store(div, Ordering::Relaxed);
    }
    KERNEL_DIV.store(kernel_div, Ordering::Relaxed);
    // Publish the mask only after the state is in place so a racing emit
    // never observes enabled-but-uninstalled.
    publish(mask, filtered);
    Ok(())
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
    ring: Option<&str>,
    page: Option<&str>,
    pool: Option<&str>,
) -> Result<TraceConfig, String> {
    let mut config = TraceConfig {
        path: (path != "-").then(|| path.into()),
        ..TraceConfig::default()
    };
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
                    "PARD_TRACE_FILTER: unknown category {:?} \
                     (want kernel|llc|dram|io|ide|trigger|prm)",
                    cat.trim()
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
                    "PARD_TRACE_SAMPLE: unknown category {:?} in term {term:?} \
                     (want kernel|llc|dram|io|ide|trigger|prm)",
                    cat.trim()
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
    if let Some(ring) = ring {
        let n = ring.trim().parse::<usize>().map_err(|_| {
            format!("PARD_TRACE_RING: bad capacity {ring:?} (want an integer >= 1)")
        })?;
        if n == 0 {
            return Err("PARD_TRACE_RING: capacity must be >= 1".to_string());
        }
        config.ring_capacity = n;
    }
    if let Some(page) = page {
        let n = page.trim().parse::<usize>().map_err(|_| {
            format!(
                "PARD_TRACE_PAGE: bad page size {page:?} (want an integer number of bytes in {}..={})",
                store::MIN_PAGE_SIZE,
                store::MAX_PAGE_SIZE
            )
        })?;
        if n < store::MIN_PAGE_SIZE || n > store::MAX_PAGE_SIZE {
            return Err(format!(
                "PARD_TRACE_PAGE: page size {n} out of range ({}..={} bytes)",
                store::MIN_PAGE_SIZE,
                store::MAX_PAGE_SIZE
            ));
        }
        config.page_size = n;
    }
    if let Some(pool) = pool {
        let n = pool.trim().parse::<usize>().map_err(|_| {
            format!("PARD_TRACE_POOL: bad pool depth {pool:?} (want an integer >= 1)")
        })?;
        if n == 0 {
            return Err("PARD_TRACE_POOL: pool depth must be >= 1".to_string());
        }
        config.pool_pages = n;
    }
    Ok(config)
}

/// Reads `PARD_TRACE` / `PARD_TRACE_FILTER` / `PARD_TRACE_SAMPLE` /
/// `PARD_TRACE_RING` / `PARD_TRACE_PAGE` / `PARD_TRACE_POOL` and installs
/// the tracer if `PARD_TRACE` is set.
///
/// A malformed value, or a sink file that cannot be created, is a hard
/// error: the process prints a message naming the variable and exits with
/// status 2 — a run asked to trace must never silently trace less than
/// asked (the `PARD_FAULT_PLAN` contract).
///
/// Idempotent: only the first call in a process does anything, so every
/// `PardServer` construction may call it unconditionally.
pub fn init_from_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let Ok(path) = std::env::var("PARD_TRACE") else {
            return;
        };
        if path.is_empty() {
            return;
        }
        let filter = std::env::var("PARD_TRACE_FILTER").ok();
        let sample = std::env::var("PARD_TRACE_SAMPLE").ok();
        let ring = std::env::var("PARD_TRACE_RING").ok();
        let page = std::env::var("PARD_TRACE_PAGE").ok();
        let pool = std::env::var("PARD_TRACE_POOL").ok();
        let config = match config_from_env(
            &path,
            filter.as_deref(),
            sample.as_deref(),
            ring.as_deref(),
            page.as_deref(),
            pool.as_deref(),
        ) {
            Ok(config) => config,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        };
        if let Err(e) = install(config) {
            eprintln!("PARD_TRACE: cannot open {path:?}: {e}");
            std::process::exit(2);
        }
    });
}

/// Flushes any pending sink writes (finishing a binary store, which also
/// syncs it to disk) and tears the tracer down, returning the process to
/// the zero-cost disabled state.
pub fn disable() {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    publish(0, 0);
    KERNEL_DIV.store(1, Ordering::Relaxed);
    if let Some(state) = guard.as_mut() {
        state.sink.finish();
    }
    *guard = None;
}

/// Flushes the sink (if any) without disabling tracing. For a binary
/// store this seals the partial page, so everything emitted so far is
/// visible to a concurrent reader.
pub fn flush() {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(state) = guard.as_mut() {
        state.sink.flush();
    }
}

/// Emits one trace event.
///
/// Callers should guard the call (and any field gathering) behind
/// [`enabled`]; `emit` re-checks, applies the DS-id filter and the
/// per-category sampling divisor (see [Sampling](#sampling)), then hands
/// the kept event to the sink: rendered as a JSONL line for the ring/JSONL
/// sinks, appended in binary form (no render) for a `.ptr` store. A
/// sampled-out event of a category without a DS-id filter returns before
/// the tracer's lock.
#[inline]
pub fn emit(cat: TraceCat, time: Time, ds: u16, event: &str, fields: &[(&str, TraceVal)]) {
    let word = MASK.load(Ordering::Relaxed);
    let bit = u64::from(cat.bit());
    if word & bit == 0 {
        return;
    }
    if word & (bit << FILTERED_SHIFT) != 0 {
        write(cat, time, ds, event, fields, Some(word));
    } else if keep(cat, word) {
        write(cat, time, ds, event, fields, None);
    }
}

/// Hands one event to the sink. With `filter_word` set the category has a
/// DS-id filter, applied here under the lock before the event is counted
/// for sampling.
#[inline(never)]
fn write(
    cat: TraceCat,
    time: Time,
    ds: u16,
    event: &str,
    fields: &[(&str, TraceVal)],
    filter_word: Option<u64>,
) {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let Some(state) = guard.as_mut() else {
        return;
    };
    if let Some(word) = filter_word {
        if let Some(allow) = &state.ds_filter[cat as usize] {
            if !allow.contains(&ds) {
                return;
            }
        }
        if !keep(cat, word) {
            return;
        }
    }

    if let Sink::Binary(w) = &mut state.sink {
        let _ = w.append(
            cat as u8,
            time.units(),
            ds,
            event,
            fields.iter().map(|(k, v)| (*k, v.as_store_ref())),
        );
        state.emitted += 1;
        return;
    }
    let line = render_line(cat, time, ds, event, fields);
    if let Sink::Jsonl(w) = &mut state.sink {
        let _ = writeln!(w, "{line}");
    }
    if state.ring.len() == state.ring_capacity {
        state.ring.pop_front();
    }
    state.ring.push_back(line);
    state.emitted += 1;
}

/// Renders one trace event as its JSONL line.
fn render_line(cat: TraceCat, time: Time, ds: u16, event: &str, fields: &[(&str, TraceVal)]) -> String {
    let mut line = render_prefix(cat, time.units(), ds, event);
    render_fields(&mut line, fields.iter().map(|(k, v)| (*k, v.as_store_ref())));
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

/// Appends the `,"key":value` tail fields. Taking [`ValRef`] lets the
/// live-emission path ([`TraceVal`]) and the store-decode path
/// ([`store::Event`]) share one formatter, which is what makes the two
/// sinks byte-equivalent by construction.
fn render_fields<'a>(line: &mut String, fields: impl Iterator<Item = (&'a str, ValRef<'a>)>) {
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
        format!("{whole}.{}", match frac {
            1 => "25",
            2 => "5",
            _ => "75",
        })
    }
}

/// The most recent trace lines still held in the in-memory ring.
///
/// The binary store bypasses the ring (its file is the durable record),
/// so this is empty while a `.ptr` sink is active.
pub fn recent_lines() -> Vec<String> {
    let guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    guard
        .as_ref()
        .map(|s| s.ring.iter().cloned().collect())
        .unwrap_or_default()
}

/// Total events emitted (post-filter, post-sampling) since [`install`].
pub fn lines_emitted() -> u64 {
    let guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().map(|s| s.emitted).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{lend, RunState};

    // The tracer is process-global, so every test that installs it runs
    // inside this single test function to avoid cross-test interference.
    #[test]
    fn install_filter_sample_disable_lifecycle() {
        assert!(!enabled(TraceCat::Llc), "tracing must start disabled");
        emit(TraceCat::Llc, Time::from_ns(1), 0, "miss", &[]);
        assert_eq!(lines_emitted(), 0);

        // Ring-only tracer, llc for all ds + trigger for ds 2 only, no
        // sampling so every event lands.
        install(TraceConfig {
            path: None,
            filter: vec![
                (TraceCat::Llc, None),
                (TraceCat::Trigger, Some(2)),
            ],
            sample: vec![(TraceCat::Llc, 1)],
            ring_capacity: 4,
            ..TraceConfig::default()
        })
        .unwrap();
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
        emit(TraceCat::Trigger, Time::from_ns(5), 2, "fire", &[("slot", TraceVal::U(0))]);
        emit(TraceCat::Dram, Time::from_ns(6), 2, "issue", &[]); // category off

        let lines = recent_lines();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"time\":2.25,\"ds\":3,\"cat\":\"llc\",\"event\":\"miss\",\"addr\":64,\"hot\":true}"
        );
        assert_eq!(
            lines[1],
            "{\"time\":5,\"ds\":2,\"cat\":\"trigger\",\"event\":\"fire\",\"slot\":0}"
        );
        assert_eq!(lines_emitted(), 2);

        // Sampling: divisor 3 keeps the 1st, 4th, 7th, ... event.
        install(TraceConfig {
            path: None,
            filter: vec![(TraceCat::Dram, None)],
            sample: vec![(TraceCat::Dram, 3)],
            ring_capacity: 16,
            ..TraceConfig::default()
        })
        .unwrap();
        for i in 0..7u64 {
            emit(TraceCat::Dram, Time::from_ns(i), 0, "issue", &[]);
        }
        assert_eq!(lines_emitted(), 3);

        // Each machine counts its own events: two run states lent in turn
        // keep what each would keep alone (events 1-4: the 1st and 4th;
        // events 5-8: the 7th).
        fn kept_of_four(state: &mut RunState) -> u64 {
            let _lend = lend(state);
            let before = lines_emitted();
            for i in 0..4u64 {
                emit(TraceCat::Dram, Time::from_ns(i), 0, "issue", &[]);
            }
            lines_emitted() - before
        }
        let (mut a, mut b) = (RunState::default(), RunState::default());
        assert_eq!([kept_of_four(&mut a), kept_of_four(&mut b)], [2, 2]);
        assert_eq!([kept_of_four(&mut a), kept_of_four(&mut b)], [1, 1]);
        assert_eq!(kernel_sampling().1, 1, "kernel category off");

        // A DS-id filter runs before sampling: of the DS-2 events (the
        // 1st, 3rd, 5th and 6th emitted), divisor 2 keeps the 1st and 3rd.
        // A filtered kernel category is sampled here too, not by the
        // kernel. (The kernel's own countdown, for an unfiltered kernel
        // category, is covered by the bench crate's run-state tests: any
        // config here that sets it would race the kernel unit tests'
        // event hooks.)
        install(TraceConfig {
            path: None,
            filter: vec![(TraceCat::Dram, Some(2)), (TraceCat::Kernel, Some(0))],
            sample: vec![(TraceCat::Dram, 2), (TraceCat::Kernel, 2)],
            ring_capacity: 16,
            ..TraceConfig::default()
        })
        .unwrap();
        assert_eq!(kernel_sampling().1, 1, "a DS filter moves sampling to emit");
        for (i, ds) in [2u16, 1, 2, 1, 2, 2].into_iter().enumerate() {
            emit(TraceCat::Dram, Time::from_ns(i as u64), ds, "issue", &[]);
        }
        let times: Vec<String> = recent_lines()
            .iter()
            .map(|l| l.split(',').next().unwrap().to_string())
            .collect();
        assert_eq!(times, ["{\"time\":0", "{\"time\":4"]);
        for ds in [0, 1, 0, 0] {
            emit(TraceCat::Kernel, Time::from_ns(9), ds, "tick", &[]);
        }
        assert_eq!(lines_emitted(), 4, "DS-0 kernel events 1 and 3 kept");

        // Ring capacity bounds memory.
        install(TraceConfig {
            path: None,
            filter: vec![(TraceCat::Io, None)],
            sample: Vec::new(),
            ring_capacity: 2,
            ..TraceConfig::default()
        })
        .unwrap();
        for i in 0..5u64 {
            emit(TraceCat::Io, Time::from_ns(i), 0, "dma", &[]);
        }
        assert_eq!(recent_lines().len(), 2);
        assert!(recent_lines()[0].contains("\"time\":3"));

        disable();
        assert!(!enabled(TraceCat::Io));
        assert!(recent_lines().is_empty());

        // Binary sink (`.ptr`): emits append structured events, the ring
        // stays empty, and decoding + render_stored reproduces the exact
        // JSONL bytes.
        let dir = std::env::temp_dir().join(format!("pard-trace-bin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ptr = dir.join("t.ptr");
        install(TraceConfig {
            path: Some(ptr.clone()),
            filter: vec![(TraceCat::Llc, None), (TraceCat::Ide, None)],
            sample: vec![(TraceCat::Llc, 1)],
            ring_capacity: 4,
            ..TraceConfig::default()
        })
        .unwrap();
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
        emit(TraceCat::Ide, Time::from_ns(5), 2, "grant", &[("bytes", TraceVal::U(4096))]);
        assert_eq!(lines_emitted(), 2);
        assert!(recent_lines().is_empty(), "binary sink bypasses the ring");
        disable(); // finishes the store

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
        std::fs::remove_dir_all(&dir).ok();
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
    // without touching process env or the global tracer.
    #[test]
    fn env_config_accepts_the_documented_surface() {
        let c = config_from_env(
            "out.ptr",
            Some("llc,trigger:2"),
            Some("kernel:64"),
            Some("128"),
            Some("4096"),
            Some("2"),
        )
        .unwrap();
        assert_eq!(c.path.as_deref(), Some(std::path::Path::new("out.ptr")));
        assert_eq!(c.filter, vec![(TraceCat::Llc, None), (TraceCat::Trigger, Some(2))]);
        assert_eq!(c.sample, vec![(TraceCat::Kernel, 64)]);
        assert_eq!(c.ring_capacity, 128);
        assert_eq!(c.page_size, 4096);
        assert_eq!(c.pool_pages, 2);
        // `-` = ring only; unset extras keep defaults.
        let c = config_from_env("-", None, None, None, None, None).unwrap();
        assert!(c.path.is_none());
        assert_eq!(c.ring_capacity, DEFAULT_RING);
    }

    #[test]
    fn env_config_rejects_malformed_values_naming_the_variable() {
        let cases: [(&str, Option<&str>, Option<&str>, Option<&str>, Option<&str>, Option<&str>, &str); 9] = [
            ("t", Some("bogus"), None, None, None, None, "PARD_TRACE_FILTER"),
            ("t", Some("llc:banana"), None, None, None, None, "PARD_TRACE_FILTER"),
            ("t", None, Some("llc"), None, None, None, "PARD_TRACE_SAMPLE"),
            ("t", None, Some("bogus:2"), None, None, None, "PARD_TRACE_SAMPLE"),
            ("t", None, Some("llc:0"), None, None, None, "PARD_TRACE_SAMPLE"),
            ("t", None, None, Some("many"), None, None, "PARD_TRACE_RING"),
            ("t", None, None, Some("0"), None, None, "PARD_TRACE_RING"),
            ("t", None, None, None, Some("17"), None, "PARD_TRACE_PAGE"),
            ("t", None, None, None, None, Some("0"), "PARD_TRACE_POOL"),
        ];
        for (path, filter, sample, ring, page, pool, var) in cases {
            let err = config_from_env(path, filter, sample, ring, page, pool)
                .expect_err("malformed value must be rejected");
            assert!(
                err.starts_with(var),
                "error {err:?} must name the variable {var}"
            );
        }
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
