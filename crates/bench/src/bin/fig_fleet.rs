//! Rack-scale consolidation sweep — a fleet of PARD machines under one
//! federated resource manager.
//!
//! Sweeps the consolidation ratio (tenants per machine) at fixed fleet
//! size, disarmed vs armed, and reports per-tier p95/p99 SLO attainment.
//! See [`pard_bench::fig_fleet_scenario`]; the emitted `fig_fleet.json`
//! is byte-identical at every `PARD_THREADS` setting.
//!
//! Fleet shape honours `PARD_FLEET_MACHINES`, `PARD_FLEET_TENANTS`
//! (ignored by the sweep, which sets the ratio itself), `PARD_FLEET_EPOCHS`,
//! and `PARD_FLEET_SEED`; malformed values exit 2 naming the variable.

use pard_bench::duration_scale;
use pard_bench::fig_fleet_scenario::{check_armed_dominates, run_sweep, sweep_json};
use pard_bench::output::save_json;
use pard_fleet::{apply_env, FleetConfig};

fn main() {
    let scale = duration_scale();
    let vars: Vec<(String, String)> = std::env::vars().collect();
    let base = match apply_env(FleetConfig::default_scale().scaled(scale), &vars) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("fig_fleet: {msg}");
            std::process::exit(2);
        }
    };

    println!(
        "Rack-scale consolidation sweep: {} machines, {} epochs of {:.1} ms, seed {}\n",
        base.machines,
        base.epochs,
        base.epoch.as_ms(),
        base.seed
    );
    let cells = run_sweep(&base);
    println!();
    println!("ratio  armed  g.attain(p95/p99)  be.attain(p95/p99)  g.p99(us)  be.p99(us)  esc  reshard  migrate  util");
    for c in &cells {
        println!(
            "{:>5}  {:>5}  {:>8.2}/{:<8.2}  {:>8.2}/{:<8.2}  {:>9.0}  {:>10.0}  {:>3}  {:>7}  {:>7}  {:>4.2}",
            c.ratio,
            c.armed,
            c.outcome.guaranteed.attain_p95,
            c.outcome.guaranteed.attain_p99,
            c.outcome.best_effort.attain_p95,
            c.outcome.best_effort.attain_p99,
            c.outcome.guaranteed.p99.as_us(),
            c.outcome.best_effort.p99.as_us(),
            c.outcome.escalations,
            c.outcome.reshards,
            c.outcome.migrations,
            c.outcome.utilization,
        );
    }

    match check_armed_dominates(&cells) {
        Ok(()) => {
            println!("\narmed fleet manager dominates the disarmed baseline at the highest ratio")
        }
        Err(msg) => println!("\nWARNING: {msg}"),
    }

    save_json("fig_fleet.json", &sweep_json(&base, &cells));
}
