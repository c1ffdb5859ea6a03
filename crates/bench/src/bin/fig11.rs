//! Figure 11 — CDF of memory-request queueing delay.
//!
//! A synthetic injector drives the DDR3 controller at inject rate 0.44
//! (fraction of peak request bandwidth) with a 50/50 mix of high- and
//! low-priority requests. Paper's result: the baseline controller queues
//! every request ~15.2 memory cycles on average; with the control plane's
//! priority queues, high-priority requests drop to 2.7 cycles (5.6x) while
//! low-priority requests pay 33.6% more (20.3 cycles).
//!
//! The scenario itself lives in [`pard_bench::fig11_scenario`] so the
//! determinism test can replay it at a smaller scale. Both runs trace and
//! audit as `PARD_TRACE` / `PARD_AUDIT` say.

use pard_bench::fig11_scenario::{run_pair_with, summary_json};
use pard_bench::output::{print_series, print_table, save_json};
use pard_sim::RunConfig;

fn thin(cdf: &[(f64, f64)]) -> Vec<(f64, f64)> {
    // Keep ~50 points for printing.
    let step = (cdf.len() / 50).max(1);
    cdf.iter()
        .step_by(step)
        .copied()
        .chain(cdf.last().copied())
        .collect()
}

fn main() {
    // The paper's FPGA controller saturates differently from our cycle
    // model; --rate overrides the default operating point, which is
    // chosen so the baseline's mean queueing delay matches the paper's
    // (~15 memory cycles at their "inject rate 0.44").
    let inject_rate = std::env::args()
        .skip_while(|a| a != "--rate")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.55);
    let requests = 200_000;

    // Two independent deterministic runs; the pool overlaps them.
    // `PARD_AUDIT` / `PARD_TRACE` observe both.
    let (base, pard) = run_pair_with(inject_rate, requests, &RunConfig::from_env());

    println!("Figure 11: CDF of memory-request queueing delay (inject rate {inject_rate})\n");
    print_table(
        &["configuration", "mean queueing delay (memory cycles)"],
        &[
            vec![
                "w/o control plane (all)".into(),
                format!("{:.1}", base.mean_all),
            ],
            vec![
                "w/ control plane, high priority".into(),
                format!("{:.1}", pard.mean_high),
            ],
            vec![
                "w/ control plane, low priority".into(),
                format!("{:.1}", pard.mean_low),
            ],
        ],
    );
    let speedup = base.mean_all / pard.mean_high.max(0.01);
    let low_penalty = (pard.mean_low / base.mean_all - 1.0) * 100.0;
    println!();
    println!("high-priority delay reduced {speedup:.1}x; low-priority delay +{low_penalty:.1}%");
    println!("Paper anchors: 15.2 -> 2.7 cycles (5.6x), low +33.6% (20.3 cycles).\n");

    print_series("cdf.baseline (cycles, fraction)", &thin(&base.cdf_low));
    print_series("cdf.high_priority", &thin(&pard.cdf_high));
    print_series("cdf.low_priority", &thin(&pard.cdf_low));

    save_json("fig11.json", &summary_json(inject_rate, &base, &pard));
}
