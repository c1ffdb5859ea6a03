//! The WFQ policy-demo scenario — weighted fair queueing across DS-ids on
//! the memory controller, shared by the `fig_wfq` binary and the policy
//! equivalence tests.
//!
//! Three always-backlogged flows drive the DDR3 controller well above its
//! service rate. The operator installs one match-action program through
//! the control plane:
//!
//! ```text
//! when all do rank wfq(param.wfq_weight)
//! ```
//!
//! and programs `wfq_weight` 1 / 2 / 4 into the three DS-id rows. The
//! PIFO then serves the flows in proportion to their weights — resource
//! scheduling as *data* loaded into the plane, not a controller rebuild
//! (the paper's §3 "programmable architecture" claim applied to the
//! scheduler itself). The baseline run installs the same program but
//! leaves every weight at its default of 1, which degenerates to equal
//! sharing.
//!
//! Everything derives from [`pard_sim::rng::stream_rng`], so a fixed
//! `(rate, requests)` pair reproduces byte-identical numbers at every
//! `PARD_THREADS` setting.

use crate::json::JsonValue;
use pard_dram::{MemCtrl, MemCtrlConfig};
use pard_icn::{DsId, LAddr, MemKind, MemPacket, PacketId, PardEvent, TickKind};
use pard_sim::par::par_map;
use pard_sim::rng::{stream_rng, Rng, Xoshiro256pp};
use pard_sim::{Component, ComponentId, Ctx, RunConfig, Simulation, Time};

/// The `(DS-id, wfq_weight)` of each competing flow.
pub const WFQ_FLOWS: [(u16, u64); 3] = [(1, 1), (2, 2), (3, 4)];

/// The program the operator loads for the weighted run.
pub const WFQ_POLICY: &str = "when all do rank wfq(param.wfq_weight)";

/// Poisson traffic source round-robining across the three flows.
///
/// Each flow walks its own sequential stream of whole-row (16-line) runs,
/// so row hits dominate and the shared data bus is the bottleneck —
/// service share is decided purely by the scheduler under test.
struct Injector {
    ctrl: ComponentId,
    rate_per_sec: f64,
    rng: Xoshiro256pp,
    next_id: u64,
    sent: u64,
    limit: u64,
    cursor: [u64; WFQ_FLOWS.len()],
    run_left: [u32; WFQ_FLOWS.len()],
}

impl Component<PardEvent> for Injector {
    fn name(&self) -> &str {
        "wfq-injector"
    }
    fn handle(&mut self, ev: PardEvent, ctx: &mut Ctx<'_, PardEvent>) {
        match ev {
            PardEvent::Tick(TickKind::Core) => {
                if self.sent >= self.limit {
                    return;
                }
                self.sent += 1;
                let f = (self.sent % WFQ_FLOWS.len() as u64) as usize;
                let (ds, _) = WFQ_FLOWS[f];
                if self.run_left[f] == 0 {
                    let group: u64 = self.rng.gen_range(0..(256u64 << 20) / 1024 / 16);
                    let row_id = group * 16 + self.rng.gen_range(0u64..16);
                    self.cursor[f] = row_id * 16;
                    self.run_left[f] = 16;
                }
                let line = self.cursor[f];
                self.cursor[f] += 1;
                self.run_left[f] -= 1;
                let pkt = MemPacket {
                    id: PacketId(self.next_id),
                    ds: DsId::new(ds),
                    addr: LAddr::new(line * 64),
                    kind: MemKind::Read,
                    size: 64,
                    reply_to: ctx.self_id(),
                    issued_at: ctx.now(),
                    dma: false,
                };
                self.next_id += 1;
                ctx.send(self.ctrl, Time::ZERO, PardEvent::MemReq(pkt));
                let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
                let gap = Time::from_units(((-u.ln() / self.rate_per_sec) * 4e9).max(1.0) as u64);
                ctx.send(ctx.self_id(), gap, PardEvent::Tick(TickKind::Core));
            }
            PardEvent::MemResp(_) => {}
            other => panic!("unexpected event {other:?}"),
        }
    }
    pard_sim::impl_as_any!();
}

/// Runs the unweighted baseline and the weighted configuration as two
/// independent simulations fanned over the [`par_map`] worker pool. Both
/// derive their RNG from the same named stream, so the pair is
/// bit-identical to two serial [`run`] calls at any `PARD_THREADS`.
pub fn run_pair(inject_rate: f64, requests: u64) -> (Vec<f64>, Vec<f64>) {
    run_pair_with(inject_rate, requests, &RunConfig::default())
}

/// As [`run_pair`], with both simulations observed as `run` says.
pub fn run_pair_with(inject_rate: f64, requests: u64, run: &RunConfig) -> (Vec<f64>, Vec<f64>) {
    let mut results = par_map(vec![false, true], |weighted| {
        run_with(inject_rate, weighted, requests, run)
    });
    let wfq = results.pop().expect("weighted run");
    let base = results.pop().expect("baseline run");
    (base, wfq)
}

/// Runs the injector against the DDR3 controller with the WFQ program
/// installed and returns each flow's share of served requests, in
/// percent. `weighted` programs the 1 / 2 / 4 weights; otherwise every
/// weight stays at its default of 1. The bare simulation is unobserved.
pub fn run(inject_rate: f64, weighted: bool, requests: u64) -> Vec<f64> {
    run_with(inject_rate, weighted, requests, &RunConfig::default())
}

/// As [`run`], observed as `run` says.
pub fn run_with(inject_rate: f64, weighted: bool, requests: u64, run: &RunConfig) -> Vec<f64> {
    let mut sim: Simulation<PardEvent> = Simulation::with_config(run.clone());
    let (ctrl_model, cp) = MemCtrl::new(MemCtrlConfig {
        priorities_enabled: true,
        ..MemCtrlConfig::default()
    });
    let ctrl = sim.add_component(Box::new(ctrl_model));
    {
        let mut cp = cp.lock();
        cp.install_policy(WFQ_POLICY).expect("WFQ program compiles");
        if weighted {
            for (ds, weight) in WFQ_FLOWS {
                cp.set_param(DsId::new(ds), "wfq_weight", weight).unwrap();
            }
        }
    }
    // Offered load well above the service rate keeps every flow
    // backlogged — the regime where WFQ's share guarantee is defined.
    // Each flow alone must exceed its weighted share of the service
    // rate, so pick inject_rate >= flows * max_weight / weight_sum.
    let rate = inject_rate * 200e6;
    let injector = sim.add_component(Box::new(Injector {
        ctrl,
        rate_per_sec: rate,
        rng: stream_rng(11, "fig_wfq.injector"),
        next_id: 0,
        sent: 0,
        limit: requests,
        cursor: [0; WFQ_FLOWS.len()],
        run_left: [0; WFQ_FLOWS.len()],
    }));
    sim.post(injector, Time::ZERO, PardEvent::Tick(TickKind::Core));
    // Cut the measurement off while every flow is still backlogged: once
    // injection stops and the queue drains, cumulative served counts
    // converge to the (equal) injected counts no matter the scheduler.
    let span_secs = requests as f64 / rate;
    sim.run_until(Time::from_us((span_secs * 1e6) as u64));

    let cp = cp.lock();
    let served: Vec<u64> = WFQ_FLOWS
        .iter()
        .map(|&(ds, _)| cp.stat(DsId::new(ds), "serv_cnt").unwrap_or(0))
        .collect();
    let total: u64 = served.iter().sum();
    served
        .iter()
        .map(|&s| s as f64 / total.max(1) as f64 * 100.0)
        .collect()
}

/// The `fig_wfq.json` document for one baseline/weighted share pair.
pub fn summary_json(inject_rate: f64, base: &[f64], wfq: &[f64]) -> JsonValue {
    JsonValue::object()
        .field("inject_rate", inject_rate)
        .field("policy", WFQ_POLICY)
        .field(
            "weights",
            WFQ_FLOWS.iter().map(|&(_, w)| w).collect::<Vec<_>>(),
        )
        .field("baseline_shares_pct", base.to_vec())
        .field("wfq_shares_pct", wfq.to_vec())
}
