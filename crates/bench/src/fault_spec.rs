//! JSON fault-plan specs — the text form of [`pard_sim::fault::FaultPlan`].
//!
//! `pard-sim` owns the fault machinery but is dependency-free, so the JSON
//! grammar lives here, next to the [`json`](crate::json) parser the
//! harnesses already use. Experiment binaries call [`plan_from_env`] right
//! after startup: when `PARD_FAULT_PLAN=/path/to/plan.json` is set, the
//! spec is parsed and handed to the machines the binary builds; when
//! unset, they run without a plan and every fault hook stays a single
//! thread-local read.
//!
//! # Spec grammar
//!
//! ```json
//! {
//!   "seed": 42,
//!   "events": [
//!     {"kind": "dram_slow", "start_us": 200, "end_us": 900,
//!      "extra_ns": 400, "banks": [0, 1]},
//!     {"kind": "ide_degrade", "start_us": 200, "end_us": 900,
//!      "quota_pct": 25, "drop_one_in": 16},
//!     {"kind": "nic_flap", "start_us": 200, "end_us": 900, "loss_pct": 30},
//!     {"kind": "xbar_backpressure", "start_us": 200, "end_us": 900,
//!      "extra_ns": 150, "port": 3}
//!   ]
//! }
//! ```
//!
//! * `seed` (optional, default 0) seeds the plan's deterministic RNG
//!   streams (NIC loss decisions).
//! * Every event takes a half-open window `[start, end)`, given as
//!   `start_us`/`end_us` or `start_ns`/`end_ns` (`_us` wins if both
//!   appear).
//! * `banks` / `port` are optional — omitting them hits every DRAM bank /
//!   every crossbar port.
//! * Unknown `kind`s and missing per-kind knobs are hard errors: a typo'd
//!   plan must fail loudly, not silently inject nothing.

use std::fmt;

use pard_sim::fault::{FaultKind, FaultPlan};
use pard_sim::Time;

use crate::json::JsonValue;

/// Environment variable naming a JSON fault-plan file.
pub const ENV_FAULT_PLAN: &str = "PARD_FAULT_PLAN";

/// A fault-spec parse failure, with enough context to fix the file.
#[derive(Debug)]
pub struct SpecError(String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// Parses a JSON fault-plan spec into a [`FaultPlan`].
///
/// # Errors
///
/// Fails on malformed JSON, unknown event kinds, missing windows or
/// per-kind knobs, and windows with `end <= start`.
pub fn parse_plan(text: &str) -> Result<FaultPlan, SpecError> {
    let root = JsonValue::parse(text).map_err(|e| err(format!("bad JSON: {e}")))?;
    let seed = match root.get("seed") {
        None => 0,
        Some(v) => v.as_u64().ok_or_else(|| err("seed must be a u64"))?,
    };
    let mut plan = FaultPlan::new(seed);
    let events = match root.get("events") {
        None => return Ok(plan),
        Some(JsonValue::Array(items)) => items,
        Some(_) => return Err(err("events must be an array")),
    };
    for (i, ev) in events.iter().enumerate() {
        let (start, end) = window(ev).map_err(|e| err(format!("events[{i}]: {}", e.0)))?;
        let kind = kind(ev).map_err(|e| err(format!("events[{i}]: {}", e.0)))?;
        plan = plan.with(start, end, kind);
    }
    Ok(plan)
}

fn window(ev: &JsonValue) -> Result<(Time, Time), SpecError> {
    let pick = |us: &str, ns: &str| -> Result<Option<Time>, SpecError> {
        if let Some(v) = ev.get(us) {
            let v = v
                .as_u64()
                .ok_or_else(|| err(format!("{us} must be a u64")))?;
            return Ok(Some(Time::from_us(v)));
        }
        if let Some(v) = ev.get(ns) {
            let v = v
                .as_u64()
                .ok_or_else(|| err(format!("{ns} must be a u64")))?;
            return Ok(Some(Time::from_ns(v)));
        }
        Ok(None)
    };
    let start = pick("start_us", "start_ns")?.ok_or_else(|| err("missing start_us/start_ns"))?;
    let end = pick("end_us", "end_ns")?.ok_or_else(|| err("missing end_us/end_ns"))?;
    if end <= start {
        return Err(err("window end must be after start"));
    }
    Ok((start, end))
}

fn kind(ev: &JsonValue) -> Result<FaultKind, SpecError> {
    let kind = ev
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err("missing kind"))?;
    let knob = |name: &str| -> Result<u64, SpecError> {
        ev.get(name)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| err(format!("{kind} needs a u64 {name}")))
    };
    match kind {
        "dram_slow" => Ok(FaultKind::DramSlow {
            banks: id_list(ev, "banks")?,
            extra: Time::from_ns(knob("extra_ns")?),
        }),
        "ide_degrade" => {
            let drop_one_in = knob("drop_one_in")?;
            let quota_pct = knob("quota_pct")?;
            if quota_pct > 100 {
                return Err(err("quota_pct must be <= 100"));
            }
            Ok(FaultKind::IdeDegrade {
                quota_pct: quota_pct as u32,
                drop_one_in: u32::try_from(drop_one_in)
                    .map_err(|_| err("drop_one_in out of range"))?,
            })
        }
        "nic_flap" => {
            let loss_pct = knob("loss_pct")?;
            if loss_pct > 100 {
                return Err(err("loss_pct must be <= 100"));
            }
            Ok(FaultKind::NicFlap {
                loss_pct: loss_pct as u32,
            })
        }
        "xbar_backpressure" => Ok(FaultKind::XbarBackpressure {
            port: match ev.get("port") {
                None => None,
                Some(v) => Some(
                    v.as_u64()
                        .and_then(|v| u32::try_from(v).ok())
                        .ok_or_else(|| err("port must be a u32"))?,
                ),
            },
            extra: Time::from_ns(knob("extra_ns")?),
        }),
        other => Err(err(format!("unknown kind {other:?}"))),
    }
}

fn id_list(ev: &JsonValue, name: &str) -> Result<Option<Vec<u32>>, SpecError> {
    match ev.get(name) {
        None => Ok(None),
        Some(JsonValue::Array(items)) => items
            .iter()
            .map(|v| {
                v.as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| err(format!("{name} entries must be u32")))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
        Some(_) => Err(err(format!("{name} must be an array"))),
    }
}

/// Parses the plan named by `PARD_FAULT_PLAN`, if set, for the caller to
/// hand to the machines it builds
/// ([`RunConfig::faults`](pard_sim::RunConfig)).
///
/// # Errors
///
/// Fails when the file cannot be read or does not parse; a binary asked
/// to inject faults must not silently run fault-free.
pub fn plan_from_env() -> Result<Option<FaultPlan>, SpecError> {
    let Ok(path) = std::env::var(ENV_FAULT_PLAN) else {
        return Ok(None);
    };
    if path.is_empty() {
        return Ok(None);
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    parse_plan(&text).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pard_sim::fault::FaultClass;

    #[test]
    fn parses_full_spec_and_rejects_bad_ones() {
        let plan = parse_plan(
            r#"{
              "seed": 7,
              "events": [
                {"kind": "dram_slow", "start_us": 1, "end_us": 2,
                 "extra_ns": 50, "banks": [3]},
                {"kind": "ide_degrade", "start_ns": 10, "end_ns": 20,
                 "quota_pct": 30, "drop_one_in": 8},
                {"kind": "nic_flap", "start_us": 1, "end_us": 2, "loss_pct": 25},
                {"kind": "xbar_backpressure", "start_us": 1, "end_us": 3,
                 "extra_ns": 100, "port": 2}
              ]
            }"#,
        )
        .expect("spec parses");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.events.len(), 4);
        assert_eq!(plan.events[0].start, Time::from_us(1));
        assert_eq!(plan.events[1].end, Time::from_ns(20));
        for class in [
            FaultClass::Dram,
            FaultClass::Ide,
            FaultClass::Nic,
            FaultClass::Xbar,
        ] {
            assert_ne!(plan.class_mask() & class.bit(), 0, "{class:?} present");
        }
        match &plan.events[0].kind {
            FaultKind::DramSlow { banks, extra } => {
                assert_eq!(banks.as_deref(), Some(&[3u32][..]));
                assert_eq!(*extra, Time::from_ns(50));
            }
            other => panic!("wrong kind {other:?}"),
        }

        // Empty plan is legal (no events).
        assert!(parse_plan(r#"{"seed": 1}"#).unwrap().events.is_empty());

        for bad in [
            "not json",
            r#"{"events": 3}"#,
            r#"{"events": [{"kind": "warp_core_breach", "start_us": 1, "end_us": 2}]}"#,
            r#"{"events": [{"kind": "nic_flap", "start_us": 2, "end_us": 1, "loss_pct": 5}]}"#,
            r#"{"events": [{"kind": "nic_flap", "start_us": 1, "end_us": 2, "loss_pct": 200}]}"#,
            r#"{"events": [{"kind": "nic_flap", "start_us": 1, "end_us": 2}]}"#,
            r#"{"events": [{"kind": "dram_slow", "start_us": 1, "end_us": 2,
                "extra_ns": 1, "banks": "all"}]}"#,
        ] {
            assert!(parse_plan(bad).is_err(), "should reject: {bad}");
        }
    }
}
