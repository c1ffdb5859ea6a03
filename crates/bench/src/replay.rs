//! Offline trace-replay invariant checking, shared by `pard-trace
//! --replay` and `pard-audit --replay`.
//!
//! Both binaries used to disagree about what "replay" verified:
//! `pard-audit` re-derived the clock and IDE-quota invariants from the
//! trace, while `pard-trace` only schema-checked the file it had just
//! produced — so a quota violation visible in the trace passed
//! `pard-trace --replay` and failed `pard-audit --replay` on the same
//! bytes. [`TraceChecker`] is now the single implementation both call:
//!
//! * **schema** — every line is a JSON object with numeric `time`,
//!   integer `ds`, known `cat`, string `event` (hard error, fail fast;
//!   [`parse_trace_line`], which `pard-trace --check` runs too);
//! * **clock invariant** — `time` never regresses (sound for
//!   single-machine traces; recorded as a failure, keeps scanning);
//! * **IDE quota invariant** — per DS-id, cumulative bytes reported
//!   `done` never exceed cumulative `budget_bytes` granted by the quota
//!   engine. Fault-injected runs keep this sound because a dropped
//!   request emits a distinct `drop` event (bytes moved so far), never a
//!   `done`.
//!
//! The checker is **streaming**: [`check_trace_file`] feeds it one event
//! at a time via [`stream_trace_lines`], which sniffs the file format by
//! magic — a durable paged binary store ([`pard_sim::store`]) is decoded
//! page by page and each event re-rendered through
//! [`pard_sim::trace::render_stored`] (so both formats check the
//! identical bytes), while JSONL is read line by line through a
//! `BufReader`. Either way replay memory is bounded by one page / one
//! line, not by trace length.

use std::collections::BTreeMap;
use std::io::BufRead as _;

use pard_sim::store;
use pard_sim::trace::{self, TraceCat};

use crate::json::JsonValue;

/// Summary of a clean replay check.
#[derive(Debug, Clone, Copy)]
pub struct ReplayReport {
    /// Events scanned.
    pub total: u64,
    /// Distinct DS-ids with IDE `done` accounting.
    pub ide_ds: usize,
}

/// One trace line that passed the schema check.
#[derive(Debug)]
pub struct TraceLine {
    /// The whole parsed object, for event-specific fields.
    pub value: JsonValue,
    /// Simulated time, ns.
    pub time: f64,
    /// The DS-id the event is attributed to.
    pub ds: u64,
    /// The event's category.
    pub cat: TraceCat,
    /// The event name.
    pub event: String,
}

/// Parses one (1-based) trace line and checks the schema every event
/// carries: a JSON object with numeric `time`, integer `ds`, known `cat`
/// and string `event`. An empty line is `None`. `path` only prefixes
/// messages.
///
/// # Errors
///
/// Names the line and the first schema violation on it.
pub fn parse_trace_line(path: &str, lineno: u64, line: &str) -> Result<Option<TraceLine>, String> {
    if line.is_empty() {
        return Ok(None);
    }
    let value =
        JsonValue::parse(line).map_err(|e| format!("{path}:{lineno}: invalid JSON: {e}"))?;
    let Some(time) = value.get("time").and_then(JsonValue::as_f64) else {
        return Err(format!("{path}:{lineno}: missing numeric \"time\""));
    };
    let Some(ds) = value.get("ds").and_then(JsonValue::as_u64) else {
        return Err(format!("{path}:{lineno}: missing integer \"ds\""));
    };
    let Some(cat) = value.get("cat").and_then(JsonValue::as_str) else {
        return Err(format!("{path}:{lineno}: missing string \"cat\""));
    };
    let Some(cat) = TraceCat::parse(cat) else {
        return Err(format!("{path}:{lineno}: unknown category {cat:?}"));
    };
    let Some(event) = value.get("event").and_then(JsonValue::as_str) else {
        return Err(format!("{path}:{lineno}: missing string \"event\""));
    };
    let event = event.to_string();
    Ok(Some(TraceLine {
        value,
        time,
        ds,
        cat,
        event,
    }))
}

/// Streaming invariant checker over a trace's JSONL event lines.
///
/// Feed every line to [`check_line`](TraceChecker::check_line) (schema
/// errors are fatal and returned immediately), then call
/// [`finish`](TraceChecker::finish) to collect invariant violations and
/// the report. Holds per-DS-id counters only — memory is independent of
/// trace length.
pub struct TraceChecker {
    path: String,
    granted: BTreeMap<u64, u64>,
    done: BTreeMap<u64, u64>,
    last_time: f64,
    total: u64,
    failures: Vec<String>,
}

impl TraceChecker {
    /// A fresh checker; `path` only prefixes messages.
    pub fn new(path: &str) -> TraceChecker {
        TraceChecker {
            path: path.to_string(),
            granted: BTreeMap::new(),
            done: BTreeMap::new(),
            last_time: f64::NEG_INFINITY,
            total: 0,
            failures: Vec::new(),
        }
    }

    /// Checks one (1-based) line. Empty lines are skipped.
    ///
    /// # Errors
    ///
    /// A schema violation is fatal and aborts the scan; invariant
    /// violations are collected for [`finish`](TraceChecker::finish).
    pub fn check_line(&mut self, lineno: u64, line: &str) -> Result<(), String> {
        let path = &self.path;
        let Some(ev) = parse_trace_line(path, lineno, line)? else {
            return Ok(());
        };
        if ev.time < self.last_time {
            self.failures.push(format!(
                "{path}:{lineno}: time regression {} ns after {} ns (clock invariant)",
                ev.time, self.last_time
            ));
        }
        self.last_time = self.last_time.max(ev.time);
        if ev.cat == TraceCat::Ide {
            let field = |key| ev.value.get(key).and_then(JsonValue::as_u64);
            match ev.event.as_str() {
                "grant" => {
                    let Some(budget) = field("budget_bytes") else {
                        return Err(format!("{path}:{lineno}: ide grant without budget_bytes"));
                    };
                    *self.granted.entry(ev.ds).or_insert(0) += budget;
                }
                "done" => {
                    let Some(bytes) = field("bytes") else {
                        return Err(format!("{path}:{lineno}: ide done without bytes"));
                    };
                    *self.done.entry(ev.ds).or_insert(0) += bytes;
                }
                _ => {}
            }
        }
        self.total += 1;
        Ok(())
    }

    /// Final cross-event invariants and the report.
    ///
    /// # Errors
    ///
    /// Returns every collected failure message (already `path:line`
    /// prefixed, ready to print).
    pub fn finish(mut self) -> Result<ReplayReport, Vec<String>> {
        // Quota invariant: every byte reported complete was granted by
        // the quota engine first (both counters are cumulative).
        for (ds, &bytes) in &self.done {
            let budget = self.granted.get(ds).copied().unwrap_or(0);
            if bytes > budget {
                self.failures.push(format!(
                    "{}: ds{ds}: {bytes} bytes done but only {budget} granted (quota invariant)",
                    self.path
                ));
            }
        }
        if self.failures.is_empty() {
            Ok(ReplayReport {
                total: self.total,
                ide_ds: self.done.len(),
            })
        } else {
            Err(self.failures)
        }
    }
}

/// Streams the events of `path` as JSONL lines, sniffing the format by
/// file magic: a paged binary store is decoded page by page (one page
/// frame in memory) and re-rendered through [`trace::render_stored`];
/// anything else is read as JSONL line by line. `from` skips the first
/// `from` events — an O(1) page-index seek in a binary store, a line
/// skip in JSONL. `f` receives `(1-based event number, line)`; its error
/// aborts the stream.
///
/// Returns a human-readable warning if a binary store ends in a torn
/// final page (the recovered prefix was still streamed).
///
/// # Errors
///
/// I/O failures, binary-store corruption, and the error `f` returned are
/// all reported as printable messages.
pub fn stream_trace_lines(
    path: &str,
    from: u64,
    f: &mut dyn FnMut(u64, &str) -> Result<(), String>,
) -> Result<Option<String>, Vec<String>> {
    let is_store = {
        let mut head = [0u8; 8];
        match std::fs::File::open(path) {
            Ok(mut file) => {
                use std::io::Read as _;
                matches!(file.read(&mut head), Ok(8)) && head == store::MAGIC
            }
            Err(e) => return Err(vec![format!("cannot read {path}: {e}")]),
        }
    };

    if is_store {
        let mut reader =
            store::TraceReader::open(path).map_err(|e| vec![format!("{path}: {e}")])?;
        let mut events = reader
            .seek_event(from)
            .map_err(|e| vec![format!("{path}: {e}")])?;
        let mut lineno = from;
        loop {
            let Some(next) = events.next() else { break };
            let ev = next.map_err(|e| vec![format!("{path}: {e}")])?;
            let line = trace::render_stored(&ev).map_err(|e| vec![format!("{path}: {e}")])?;
            lineno += 1;
            f(lineno, &line).map_err(|e| vec![e])?;
        }
        return Ok(events.torn_tail().map(|t| format!("{path}: warning: {t}")));
    }

    let file = std::fs::File::open(path).map_err(|e| vec![format!("cannot read {path}: {e}")])?;
    let reader = std::io::BufReader::new(file);
    let mut lineno = 0u64;
    for line in reader.lines() {
        let line = line.map_err(|e| vec![format!("cannot read {path}: {e}")])?;
        lineno += 1;
        if lineno <= from {
            continue;
        }
        f(lineno, &line).map_err(|e| vec![e])?;
    }
    Ok(None)
}

/// Re-checks the invariants of a whole trace file — JSONL or binary
/// store, sniffed by magic — with memory bounded by one page / one line.
///
/// On success also returns the torn-tail warning, if the file is a
/// binary store whose final page was cut short (e.g. the traced process
/// was killed): the recovered prefix is fully checked either way.
///
/// # Errors
///
/// Returns every failure message, ready to print. Schema and corruption
/// errors abort the scan; invariant violations are collected to the end.
pub fn check_trace_file(path: &str) -> Result<(ReplayReport, Option<String>), Vec<String>> {
    let mut checker = TraceChecker::new(path);
    let torn = stream_trace_lines(path, 0, &mut |lineno, line| {
        checker.check_line(lineno, line)
    })?;
    checker.finish().map(|report| (report, torn))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `content` to a fresh checker line by line, as
    /// [`check_trace_file`] does; a schema error ends the feed.
    fn check(content: &str) -> Result<ReplayReport, Vec<String>> {
        let mut checker = TraceChecker::new("t");
        for (lineno, line) in (1..).zip(content.lines()) {
            checker.check_line(lineno, line).map_err(|e| vec![e])?;
        }
        checker.finish()
    }

    #[test]
    fn replay_invariants_catch_quota_and_clock_violations() {
        let ok = concat!(
            r#"{"time": 1.0, "ds": 3, "cat": "ide", "event": "grant", "budget_bytes": 100}"#,
            "\n",
            r#"{"time": 2.0, "ds": 3, "cat": "ide", "event": "done", "bytes": 80}"#,
            "\n",
        );
        let report = check(ok).expect("clean trace passes");
        assert_eq!(report.total, 2);
        assert_eq!(report.ide_ds, 1);

        // Overdraw: more bytes done than granted.
        let overdraw = concat!(
            r#"{"time": 1.0, "ds": 3, "cat": "ide", "event": "grant", "budget_bytes": 10}"#,
            "\n",
            r#"{"time": 2.0, "ds": 3, "cat": "ide", "event": "done", "bytes": 80}"#,
            "\n",
        );
        let errs = check(overdraw).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("quota invariant")),
            "{errs:?}"
        );

        // Clock regression is collected, not fatal.
        let regress = concat!(
            r#"{"time": 5.0, "ds": 0, "cat": "kernel", "event": "a"}"#,
            "\n",
            r#"{"time": 4.0, "ds": 0, "cat": "kernel", "event": "b"}"#,
            "\n",
        );
        let errs = check(regress).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("clock invariant")),
            "{errs:?}"
        );

        // Schema failures abort immediately.
        assert!(check("not json\n").is_err());
        let bad_cat = r#"{"time": 1.0, "ds": 0, "cat": "nope", "event": "x"}"#;
        assert!(check(bad_cat).is_err());
    }

    #[test]
    fn stream_trace_lines_sniffs_both_formats_and_seeks() {
        let dir = std::env::temp_dir().join(format!("pard-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Binary store with a few IDE events.
        let ptr = dir.join("s.ptr");
        let mut w = store::TraceWriter::create(&ptr, store::StoreConfig::default()).unwrap();
        for i in 0..10u64 {
            w.append(
                pard_sim::trace::TraceCat::Ide as u8,
                i * 4,
                3,
                "grant",
                [("budget_bytes", store::ValRef::U(100))].into_iter(),
            )
            .unwrap();
        }
        w.finish().unwrap();

        let ptr_str = ptr.to_str().unwrap();
        let (report, torn) = check_trace_file(ptr_str).expect("store checks clean");
        assert_eq!(report.total, 10);
        assert!(torn.is_none());

        // Seek: from=7 streams exactly events 8, 9, 10 (1-based numbers).
        let mut seen: Vec<u64> = Vec::new();
        stream_trace_lines(ptr_str, 7, &mut |n, line| {
            assert!(line.starts_with("{\"time\":"), "{line}");
            seen.push(n);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![8, 9, 10]);

        // The same events as JSONL stream identically.
        let jsonl = dir.join("s.jsonl");
        let mut lines = String::new();
        stream_trace_lines(ptr_str, 0, &mut |_, line| {
            lines.push_str(line);
            lines.push('\n');
            Ok(())
        })
        .unwrap();
        std::fs::write(&jsonl, &lines).unwrap();
        let (report, torn) = check_trace_file(jsonl.to_str().unwrap()).unwrap();
        assert_eq!(report.total, 10);
        assert!(torn.is_none());

        std::fs::remove_dir_all(&dir).ok();
    }
}
