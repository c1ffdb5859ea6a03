//! `pard-trace` — validate, summarise, or generate PARD trace files.
//!
//! Usage:
//!
//! ```text
//! pard-trace --check FILE [--require cat1,cat2,...]
//! pard-trace --replay [FILE]
//! pard-trace FILE [--from N]
//! ```
//!
//! Every mode accepts both trace formats — debug JSONL and the durable
//! `.ptr` paged binary store — sniffed by file magic, and streams them in
//! bounded memory (one page / one line at a time).
//!
//! * `--check` schema-validates every event (a JSON object with numeric
//!   `time`, integer `ds`, known `cat`, string `event`) and exits
//!   non-zero on the first violation. `--require` additionally demands at
//!   least one event from each listed category.
//! * `--replay` runs a scaled-down fig07-style scenario with tracing
//!   installed programmatically, writes the trace to `FILE` (default
//!   `pard-trace-replay.jsonl`; a `.ptr` name selects the binary store),
//!   then re-checks invariants and summarises it.
//! * With just a `FILE`, pretty-prints a per-category / per-DS-id
//!   summary. `--from N` skips the first `N` events — an O(1) page-index
//!   seek in a binary store, a line skip in JSONL.

use std::collections::BTreeMap;
use std::process::ExitCode;

use pard::{Action, CmpOp, DsId, LDomSpec, PardServer, SystemConfig, Time};
use pard_bench::replay::{parse_trace_line, stream_trace_lines};
use pard_sim::trace::{TraceConfig, Tracer};
use pard_sim::RunConfig;
use pard_workloads::{CacheFlush, DiskCopy, DiskCopyConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut replay = false;
    let mut require: Vec<String> = Vec::new();
    let mut from = 0u64;
    let mut file: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => check = true,
            "--replay" => replay = true,
            "--require" => {
                i += 1;
                let Some(list) = args.get(i) else {
                    eprintln!("--require needs a comma-separated category list");
                    return ExitCode::FAILURE;
                };
                require = list.split(',').map(str::to_string).collect();
            }
            "--from" => {
                i += 1;
                let parsed = args.get(i).and_then(|n| n.parse::<u64>().ok());
                let Some(n) = parsed else {
                    eprintln!("--from needs an event ordinal (integer >= 0)");
                    return ExitCode::FAILURE;
                };
                from = n;
            }
            "--help" | "-h" => {
                println!(
                    "pard-trace --check FILE [--require cats] | --replay [FILE] | FILE [--from N]"
                );
                return ExitCode::SUCCESS;
            }
            other => file = Some(other.to_string()),
        }
        i += 1;
    }

    if replay {
        let path = file.unwrap_or_else(|| "pard-trace-replay.jsonl".to_string());
        if let Err(e) = run_replay(&path) {
            eprintln!("replay failed: {e}");
            return ExitCode::FAILURE;
        }
        // Same invariant re-check as `pard-audit --replay` (shared
        // implementation): schema, clock monotonicity, IDE quota. This
        // used to be audit-only, so a quota violation in the freshly
        // produced trace passed here and failed there.
        match pard_bench::replay::check_trace_file(&path) {
            Ok((report, torn)) => {
                if let Some(torn) = torn {
                    eprintln!("{torn}");
                }
                println!(
                    "{path}: invariants OK ({} events, {} IDE DS-ids)",
                    report.total, report.ide_ds
                );
            }
            Err(failures) => {
                for f in &failures {
                    eprintln!("{f}");
                }
                return ExitCode::FAILURE;
            }
        }
        return validate(&path, &require, true, 0);
    }

    let Some(path) = file else {
        eprintln!(
            "usage: pard-trace --check FILE [--require cats] | --replay [FILE] | FILE [--from N]"
        );
        return ExitCode::FAILURE;
    };
    validate(&path, &require, !check, from)
}

/// Validates `path` event by event (either format, streaming); prints a
/// summary unless `--check` asked for silence-on-success. Returns the
/// process exit code.
fn validate(path: &str, require: &[String], summarise: bool, from: u64) -> ExitCode {
    let mut by_cat: BTreeMap<&str, u64> = BTreeMap::new();
    let mut by_ds: BTreeMap<u64, u64> = BTreeMap::new();
    let mut first_time = f64::INFINITY;
    let mut last_time = f64::NEG_INFINITY;
    let mut total = 0u64;

    let streamed = stream_trace_lines(path, from, &mut |lineno, line| {
        let Some(ev) = parse_trace_line(path, lineno, line)? else {
            return Ok(());
        };
        *by_cat.entry(ev.cat.name()).or_insert(0) += 1;
        *by_ds.entry(ev.ds).or_insert(0) += 1;
        first_time = first_time.min(ev.time);
        last_time = last_time.max(ev.time);
        total += 1;
        Ok(())
    });
    match streamed {
        Ok(Some(torn)) => eprintln!("{torn}"),
        Ok(None) => {}
        Err(failures) => {
            for f in &failures {
                eprintln!("{f}");
            }
            return ExitCode::FAILURE;
        }
    }

    for want in require {
        if !by_cat.contains_key(want.as_str()) {
            eprintln!("{path}: no events from required category {want:?}");
            return ExitCode::FAILURE;
        }
    }

    if summarise {
        println!("{path}: {total} events");
        if from > 0 {
            println!("  (from event ordinal {from})");
        }
        if total > 0 {
            println!("  time span: {first_time} .. {last_time} ns");
            for (cat, n) in &by_cat {
                println!("  {cat:>8}: {n}");
            }
            let top: Vec<String> = by_ds
                .iter()
                .map(|(ds, n)| {
                    if *ds == u64::from(u16::MAX) {
                        format!("untagged={n}")
                    } else {
                        format!("ds{ds}={n}")
                    }
                })
                .collect();
            println!("  by ds: {}", top.join(" "));
        }
    } else {
        println!("{path}: OK ({total} events)");
    }
    ExitCode::SUCCESS
}

/// A short fig07-flavoured run with every trace category armed: one LDom
/// running CacheFlush (kernel / LLC / DRAM / trigger events) and one
/// running DiskCopy (I/O bridge / IDE events), plus a monitoring trigger
/// on memory bandwidth bound to a no-op action. ~20 ms of simulated time.
fn run_replay(path: &str) -> std::io::Result<()> {
    let tracer = std::sync::Arc::new(Tracer::new(TraceConfig::to_file(path))?);
    let mut server = PardServer::new(SystemConfig {
        run: RunConfig {
            tracer: Some(tracer.clone()),
            ..RunConfig::from_env()
        },
        ..SystemConfig::small_test()
    });
    for (i, name) in ["ldom0", "ldom1"].iter().enumerate() {
        server
            .create_ldom(LDomSpec::new(*name, vec![i], 16 << 20))
            .expect("create ldom");
    }
    server.install_engine(0, Box::new(CacheFlush::new(0, 1 << 20)));
    server.install_engine(
        1,
        Box::new(DiskCopy::new(DiskCopyConfig {
            disk: 0,
            block_bytes: 1 << 20,
            count: 8,
            ..DiskCopyConfig::default()
        })),
    );
    {
        let fw = server.firmware().clone();
        let mut fw = fw.lock();
        fw.register_action("monitor", Action::Native(Box::new(|_, _| {})));
        fw.pardtrigger(1, DsId::new(0), 9, "bandwidth", CmpOp::Gt, 1)
            .expect("install trigger");
        fw.write("/sys/cpa/cpa1/ldoms/ldom0/triggers/9", "monitor")
            .expect("bind action");
    }
    server.launch(DsId::new(0)).expect("launch");
    server.launch(DsId::new(1)).expect("launch");
    server.run_for(Time::from_ms(20));
    drop(server);
    tracer.disable();
    Ok(())
}
