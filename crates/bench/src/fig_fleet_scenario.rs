//! The rack-scale consolidation sweep behind `fig_fleet` — shared by the
//! `fig_fleet` binary and the fleet determinism/migration tests.
//!
//! A fixed-size fleet of PARD machines hosts a multi-tenant population at
//! increasing consolidation ratios (tenants initially placed per
//! machine). Each ratio runs twice: **disarmed** (machine-local triggers
//! still fire and escalate to the fleet manager, which records them but
//! does nothing — the consolidation baseline) and **armed** (the manager
//! reacts: re-shard the escalating tenant's traffic onto the least-loaded
//! machine, migrate its LDom on a repeat escalation). The figure reports
//! per-tier p95/p99 SLO attainment for guaranteed vs best-effort tenants
//! in each cell.
//!
//! Every run is seeded and manager decisions are serialized at epoch
//! boundaries, so `fig_fleet.json` is byte-identical at every
//! `PARD_THREADS` setting.

use pard_fleet::{run_consolidation, FleetConfig, FleetOutcome, TierOutcome};

use crate::json::JsonValue;

/// Consolidation ratios (tenants per machine) the figure sweeps.
pub const RATIOS: [usize; 3] = [1, 2, 4];

/// One cell of the sweep: a (ratio, armed) fleet run.
pub struct FleetCell {
    /// Tenants initially placed per machine.
    pub ratio: usize,
    /// Whether the fleet manager reacted to escalations.
    pub armed: bool,
    /// The run's outcome.
    pub outcome: FleetOutcome,
}

/// Runs the full sweep: [`RATIOS`] × {disarmed, armed} on `base` (which
/// fixes fleet size, epochs, seed, and SLO targets).
pub fn run_sweep(base: &FleetConfig) -> Vec<FleetCell> {
    let mut cells = Vec::new();
    for &ratio in &RATIOS {
        for armed in [false, true] {
            eprintln!(
                "  fleet: {} machines x {ratio} tenants, manager {}",
                base.machines,
                if armed { "armed" } else { "disarmed" }
            );
            cells.push(FleetCell {
                ratio,
                armed,
                outcome: run_consolidation(base, ratio, armed),
            });
        }
    }
    cells
}

fn tier_json(t: &TierOutcome) -> JsonValue {
    JsonValue::object()
        .field("p95_us", t.p95.as_us())
        .field("p99_us", t.p99.as_us())
        .field("attain_p95", t.attain_p95)
        .field("attain_p99", t.attain_p99)
        .field("cells", t.cells)
        .field("completed", t.completed)
}

/// Serializes the sweep (plus the config facts a reader needs) into the
/// `fig_fleet.json` document.
pub fn sweep_json(base: &FleetConfig, cells: &[FleetCell]) -> JsonValue {
    let mut arr = JsonValue::array();
    for c in cells {
        arr = arr.push(
            JsonValue::object()
                .field("ratio", c.ratio)
                .field("armed", c.armed)
                .field("guaranteed", tier_json(&c.outcome.guaranteed))
                .field("best_effort", tier_json(&c.outcome.best_effort))
                .field("escalations", c.outcome.escalations)
                .field("reshards", c.outcome.reshards)
                .field("migrations", c.outcome.migrations)
                .field("utilization", c.outcome.utilization),
        );
    }
    JsonValue::object()
        .field("machines", base.machines)
        .field("epochs", base.epochs)
        .field("epoch_us", base.epoch.as_us())
        .field("seed", base.seed)
        .field("escalate_mbps", base.escalate_mbps)
        .field("slo_guaranteed_p95_us", base.slo.guaranteed_p95.as_us())
        .field("slo_guaranteed_p99_us", base.slo.guaranteed_p99.as_us())
        .field("slo_best_effort_p95_us", base.slo.best_effort_p95.as_us())
        .field("slo_best_effort_p99_us", base.slo.best_effort_p99.as_us())
        .field("cells", arr)
}

/// The armed-dominates-disarmed acceptance check at the highest
/// consolidation ratio: armed attainment is no worse on every tier metric
/// and strictly better on at least one. Returns an error naming the
/// failing comparison.
pub fn check_armed_dominates(cells: &[FleetCell]) -> Result<(), String> {
    let ratio = *RATIOS.last().expect("sweep has ratios");
    let find = |armed: bool| {
        cells
            .iter()
            .find(|c| c.ratio == ratio && c.armed == armed)
            .ok_or_else(|| format!("sweep is missing the ratio-{ratio} armed={armed} cell"))
    };
    let (off, on) = (find(false)?, find(true)?);
    let pairs = [
        (
            "guaranteed.attain_p95",
            off.outcome.guaranteed.attain_p95,
            on.outcome.guaranteed.attain_p95,
        ),
        (
            "guaranteed.attain_p99",
            off.outcome.guaranteed.attain_p99,
            on.outcome.guaranteed.attain_p99,
        ),
        (
            "best_effort.attain_p95",
            off.outcome.best_effort.attain_p95,
            on.outcome.best_effort.attain_p95,
        ),
        (
            "best_effort.attain_p99",
            off.outcome.best_effort.attain_p99,
            on.outcome.best_effort.attain_p99,
        ),
    ];
    for (name, disarmed, armed) in pairs {
        if armed < disarmed {
            return Err(format!(
                "ratio {ratio}: armed {name} = {armed:.3} is below disarmed {disarmed:.3}"
            ));
        }
    }
    if !pairs.iter().any(|&(_, disarmed, armed)| armed > disarmed) {
        return Err(format!(
            "ratio {ratio}: arming the fleet manager improved no attainment metric"
        ));
    }
    Ok(())
}
