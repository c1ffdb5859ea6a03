//! The memory controller's observable behaviour, pinned.
//!
//! Each stream drives a bare [`MemCtrl`] (no caches, no cores) with
//! seeded request mixes that reach one corner of the arbiter: both
//! priority modes, the single-queue baseline at windows 2 and 16, a
//! forced write drain, installed WFQ and drop programs, multi-burst DMA
//! with compression and clamped DS-ids, and addresses at or above a
//! DS-id's `addr_limit`. Every response `(packet id, time)`, the queue
//! depths and served count after each `run_until` slice, the recorded
//! queueing delays and the kernel's delivery count fold into one hash per
//! stream. The constants were recorded before the controller's data
//! layout was reworked; a layout change that keeps arbitration exact
//! keeps every one of them.

use std::hash::Hasher;

use pard_cp::CpHandle;
use pard_dram::{MemCtrl, MemCtrlConfig};
use pard_icn::{DsId, LAddr, MemKind, MemPacket, PacketId, PardEvent};
use pard_sim::check::cases;
use pard_sim::hash::WordHasher;
use pard_sim::rng::Rng;
use pard_sim::{Component, Ctx, Simulation, Time};

/// Seeded cases per stream.
const CASES: u64 = 12;

/// `run_until` slices per case before the final drain.
const SLICES: u64 = 8;

/// Records every response it receives.
struct Collector {
    responses: Vec<(PacketId, Time)>,
}

impl Component<PardEvent> for Collector {
    fn name(&self) -> &str {
        "collector"
    }
    fn handle(&mut self, ev: PardEvent, ctx: &mut Ctx<'_, PardEvent>) {
        if let PardEvent::MemResp(r) = ev {
            self.responses.push((r.id, ctx.now()));
        }
    }
    pard_sim::impl_as_any!();
}

/// The request mix of one stream.
#[derive(Clone, Copy)]
struct Mix {
    /// DS-ids are drawn from `0..ds_span` (may exceed `max_ds`).
    ds_span: u16,
    /// Fraction of writebacks.
    writebacks: f64,
    /// Fraction of multi-burst DMA transfers.
    dma: f64,
    /// LDom addresses are drawn from `0..addr_span`, or a quarter of
    /// them from `edges` when it is not empty.
    addr_span: u64,
    edges: &'static [u64],
    /// Mean inter-arrival gap in time units (quarter nanoseconds).
    gap: u64,
}

const MIX: Mix = Mix {
    ds_span: 8,
    writebacks: 0.2,
    dma: 0.0,
    addr_span: 1 << 18,
    edges: &[],
    gap: 24,
};

/// What one stream produced: its hash, and how far it reached into the
/// corner it exists for.
#[derive(Default)]
struct Outcome {
    hash: u64,
    /// Deepest read queue seen at a slice boundary.
    max_reads: usize,
    /// Deepest write buffer seen at a slice boundary.
    max_writes: usize,
    /// Requests a policy dropped.
    dropped: u64,
}

/// Drives `CASES` seeded cases of `mix` through a controller built from
/// `cfg` and configured by `setup`.
fn stream(name: &str, cfg: MemCtrlConfig, setup: impl Fn(&CpHandle), mix: Mix) -> Outcome {
    let mut h = WordHasher::default();
    let mut out = Outcome::default();
    cases(name, CASES, |rng| {
        let mut sim: Simulation<PardEvent> = Simulation::new();
        let (ctrl, cp) = MemCtrl::new(MemCtrlConfig {
            record_queueing: true,
            ..cfg.clone()
        });
        setup(&cp);
        let ctrl = sim.add_component(Box::new(ctrl));
        let collector = sim.add_component(Box::new(Collector {
            responses: Vec::new(),
        }));
        let n = rng.gen_range(150u64..450);
        let mut at = 0u64;
        for id in 0..n {
            at += rng.gen_range(0..2 * mix.gap + 1);
            let kind = if rng.gen_bool(mix.writebacks) {
                MemKind::Writeback
            } else if rng.gen_bool(0.1) {
                MemKind::Write
            } else {
                MemKind::Read
            };
            let dma = kind != MemKind::Writeback && rng.gen_bool(mix.dma);
            let size = if dma {
                64 * rng.gen_range(2u32..=64)
            } else {
                64
            };
            let pkt = MemPacket {
                id: PacketId(id),
                ds: DsId::new(rng.gen_range(0..mix.ds_span)),
                addr: LAddr::new(if !mix.edges.is_empty() && rng.gen_bool(0.25) {
                    mix.edges[rng.gen_range(0..mix.edges.len())]
                } else {
                    rng.gen_range(0..mix.addr_span) & !63
                }),
                kind,
                size,
                reply_to: collector,
                issued_at: Time::ZERO,
                dma,
            };
            sim.post(ctrl, Time::from_units(at), PardEvent::MemReq(pkt));
        }
        for k in 1..=SLICES {
            sim.run_until(Time::from_units(at * k / SLICES));
            sim.with_component::<MemCtrl, _, _>(ctrl, |m| {
                let (urgent, rest) = m.queue_depths();
                out.max_reads = out.max_reads.max(urgent + rest);
                out.max_writes = out.max_writes.max(m.write_queue_depth());
                h.write_usize(urgent);
                h.write_usize(rest);
                h.write_usize(m.write_queue_depth());
                h.write_u64(m.served_total());
            });
        }
        // Drain: far past the last arrival, whatever the backlog.
        sim.run_until(Time::from_units(at) + Time::from_us(200));
        sim.with_component::<MemCtrl, _, _>(ctrl, |m| {
            assert_eq!(m.queue_depths(), (0, 0), "{name}: read queue drains");
            assert_eq!(m.write_queue_depth(), 0, "{name}: write buffer drains");
            h.write_u64(m.served_total());
            h.write_u64(m.policy_dropped());
            out.dropped += m.policy_dropped();
            let q = m.queueing_stats();
            for d in q.high.iter().chain(&q.low) {
                h.write_u64(*d);
            }
        });
        sim.with_component::<Collector, _, _>(collector, |c| {
            for (id, t) in &c.responses {
                h.write_u64(id.0);
                h.write_u64(t.units());
            }
        });
        h.write_u64(sim.events_processed());
    });
    out.hash = h.finish();
    out
}

fn set(cp: &CpHandle, ds: u16, column: &str, value: u64) {
    cp.lock().set_param(DsId::new(ds), column, value).unwrap();
}

/// Two DS-ids high priority, one of them with the high-priority row buffer.
fn two_classes(cp: &CpHandle) {
    set(cp, 1, "priority", 1);
    set(cp, 3, "priority", 1);
    set(cp, 3, "rowbuf", 1);
}

fn check(name: &str, got: &Outcome, want: u64) {
    assert!(
        got.max_reads > 16,
        "{name}: the read queue outgrows the reorder window"
    );
    assert_eq!(
        got.hash, want,
        "{name}: hash {:#018x} differs from the pinned {want:#018x}",
        got.hash
    );
}

#[test]
fn priorities_on() {
    let got = stream(
        "pinned.priorities_on",
        MemCtrlConfig::default(),
        two_classes,
        MIX,
    );
    check("priorities_on", &got, 0x8202955e1a3ef505);
}

#[test]
fn priorities_off_window_2() {
    let cfg = MemCtrlConfig {
        priorities_enabled: false,
        baseline_window: 2,
        ..MemCtrlConfig::default()
    };
    let got = stream("pinned.priorities_off_window_2", cfg, two_classes, MIX);
    check("priorities_off_window_2", &got, 0x4637a05aa2d3dbce);
}

#[test]
fn priorities_off_window_16() {
    let cfg = MemCtrlConfig {
        priorities_enabled: false,
        baseline_window: 16,
        ..MemCtrlConfig::default()
    };
    let got = stream("pinned.priorities_off_window_16", cfg, two_classes, MIX);
    check("priorities_off_window_16", &got, 0x8464a702da017268);
}

#[test]
fn forced_write_drain() {
    // Mostly writebacks, densely: the write buffer passes the forced
    // drain depth while reads still wait.
    let mix = Mix {
        writebacks: 0.8,
        gap: 6,
        ..MIX
    };
    let got = stream(
        "pinned.forced_write_drain",
        MemCtrlConfig::default(),
        two_classes,
        mix,
    );
    assert!(got.max_writes > 64, "the forced drain depth is passed");
    check("forced_write_drain", &got, 0xcac9c9e28a61a6ea);
}

#[test]
fn installed_wfq_program() {
    let got = stream(
        "pinned.installed_wfq_program",
        MemCtrlConfig::default(),
        |cp| {
            for ds in 0..8u16 {
                set(cp, ds, "wfq_weight", 1 + u64::from(ds) * 3);
            }
            cp.lock()
                .install_policy("when all do rank wfq(param.wfq_weight)")
                .unwrap();
        },
        Mix { gap: 14, ..MIX },
    );
    check("installed_wfq_program", &got, 0x338d4ba2cc8183be);
}

#[test]
fn installed_drop_program() {
    let got = stream(
        "pinned.installed_drop_program",
        MemCtrlConfig::default(),
        |cp| {
            cp.lock()
                .install_policy("when ds == 5 do drop\nwhen all do rank 0")
                .unwrap();
        },
        MIX,
    );
    assert!(got.dropped > 0, "the program drops");
    check("installed_drop_program", &got, 0x6487693a7ea1d8fc);
}

#[test]
fn multi_burst_dma_and_compression() {
    let cfg = MemCtrlConfig {
        max_ds: 8,
        ..MemCtrlConfig::default()
    };
    // DS-ids 8..12 clamp onto row 7, which compresses.
    let mix = Mix {
        ds_span: 12,
        dma: 0.3,
        gap: 60,
        ..MIX
    };
    let got = stream(
        "pinned.multi_burst_dma_and_compression",
        cfg,
        |cp| {
            two_classes(cp);
            set(cp, 2, "compress", 1);
            set(cp, 7, "compress", 1);
        },
        mix,
    );
    check("multi_burst_dma_and_compression", &got, 0xe968612026be5c4e);
}

#[test]
fn addresses_at_or_above_the_limit() {
    let got = stream(
        "pinned.addresses_at_or_above_the_limit",
        MemCtrlConfig::default(),
        |cp| {
            two_classes(cp);
            set(cp, 1, "addr_base", 1 << 20);
            set(cp, 1, "addr_limit", 3 << 12);
            set(cp, 2, "addr_base", 1 << 30);
            set(cp, 2, "addr_limit", 1 << 16);
            set(cp, 4, "addr_limit", 1 << 18);
        },
        Mix {
            // Each limit, a line below it and multiples of it; the last
            // is the default (unbounded) limit itself.
            edges: &[
                (3 << 12) - 64,
                3 << 12,
                6 << 12,
                (1 << 16) - 64,
                1 << 16,
                1 << 17,
                1 << 18,
                u64::MAX,
            ],
            ..MIX
        },
    );
    check("addresses_at_or_above_the_limit", &got, 0xd4bb35d91556d67c);
}
