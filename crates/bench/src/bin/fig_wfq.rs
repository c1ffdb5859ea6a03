//! WFQ policy demo — weighted fair queueing across DS-ids on the memory
//! controller, programmed as data.
//!
//! Three always-backlogged flows contend for the DDR3 controller. Both
//! runs install the same one-line program,
//! `when all do rank wfq(param.wfq_weight)`; the weighted run then
//! programs weights 1 / 2 / 4 into the parameter table and the PIFO
//! serves the flows 1 : 2 : 4. See
//! [`pard_bench::fig_wfq_scenario`]; the emitted `fig_wfq.json` is
//! byte-identical at every `PARD_THREADS` setting. Both runs trace and
//! audit as `PARD_TRACE` / `PARD_AUDIT` say.

use pard_bench::duration_scale;
use pard_bench::fig_wfq_scenario::{run_pair_with, summary_json, WFQ_FLOWS, WFQ_POLICY};
use pard_bench::output::{print_table, save_json};
use pard_sim::RunConfig;

fn main() {
    let scale = duration_scale();
    let inject_rate = 3.0;
    let requests = (120_000.0 * scale) as u64;

    println!("WFQ policy demo: programmable memory scheduling\n");
    println!("policy: {WFQ_POLICY}");
    println!("requests: {requests} at {inject_rate}x the service rate\n");

    // `PARD_AUDIT` / `PARD_TRACE` observe both runs.
    let (base, wfq) = run_pair_with(inject_rate, requests, &RunConfig::from_env());

    let rows: Vec<Vec<String>> = WFQ_FLOWS
        .iter()
        .enumerate()
        .map(|(i, &(ds, w))| {
            vec![
                format!("ds{ds}"),
                w.to_string(),
                format!("{:.1}", base[i]),
                format!("{:.1}", wfq[i]),
            ]
        })
        .collect();
    print_table(&["flow", "weight", "baseline %", "wfq %"], &rows);
    println!();
    println!(
        "weighted shares {:.1} / {:.1} / {:.1} (weights 1 / 2 / 4 => ~14 / ~29 / ~57)",
        wfq[0], wfq[1], wfq[2]
    );

    save_json("fig_wfq.json", &summary_json(inject_rate, &base, &wfq));
}
