//! Microbenchmarks of the memory-system models: bank scheduling, address
//! decomposition, and end-to-end controller throughput with and without
//! the control plane's differentiated mechanisms.

use pard_bench::harness::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use pard_dram::{Bank, DramGeometry, DramTiming, MemCtrl, MemCtrlConfig, RankTracker};
use pard_icn::{DsId, LAddr, MAddr, MemKind, MemPacket, PacketId, PardEvent};
use pard_sim::{Component, Ctx, Simulation, Time};

fn bench_bank_schedule(c: &mut Criterion) {
    let timing = DramTiming::ddr3_1600_11();
    let mut group = c.benchmark_group("bank_schedule");
    group.bench_function("row_hit", |b| {
        let mut bank = Bank::default();
        let mut rank = RankTracker::default();
        bank.schedule(7, Time::ZERO, false, false, &timing, &mut rank);
        let mut t = Time::from_us(1);
        b.iter(|| {
            t += Time::from_ns(100);
            bank.schedule(black_box(7), t, false, false, &timing, &mut rank)
        })
    });
    group.bench_function("row_conflict", |b| {
        let mut bank = Bank::default();
        let mut rank = RankTracker::default();
        let mut t = Time::from_us(1);
        let mut row = 0u64;
        b.iter(|| {
            t += Time::from_ns(100);
            row += 1;
            bank.schedule(black_box(row), t, false, false, &timing, &mut rank)
        })
    });
    group.finish();
}

fn bench_decompose(c: &mut Criterion) {
    let g = DramGeometry::table2();
    c.bench_function("dram/decompose", |b| {
        let mut a = 0u64;
        b.iter(|| {
            a = a.wrapping_add(0x1_0040);
            g.decompose(black_box(MAddr::new(a)))
        })
    });
}

/// Simulated-requests-per-wall-second through the full controller
/// component, baseline vs PARD arbitration (the control plane must not
/// make the *model* slower either).
fn bench_controller_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("memctrl_throughput");
    group.sample_size(10);
    for (name, priorities) in [("baseline", false), ("pard", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut sim: Simulation<PardEvent> = Simulation::new();
                let (ctrl_model, cp) = MemCtrl::new(MemCtrlConfig {
                    priorities_enabled: priorities,
                    ..MemCtrlConfig::default()
                });
                if priorities {
                    let mut cp = cp.lock();
                    cp.set_param(DsId::new(1), "priority", 1).unwrap();
                }
                let ctrl = sim.add_component(Box::new(ctrl_model));
                for i in 0..10_000u64 {
                    sim.post(
                        ctrl,
                        Time::from_ns(i * 10),
                        PardEvent::MemReq(MemPacket {
                            id: PacketId(i),
                            ds: DsId::new((i % 2 + 1) as u16),
                            addr: LAddr::new((i * 4096) % (1 << 28)),
                            kind: MemKind::Read,
                            size: 64,
                            reply_to: ctrl, // responses handled as no-ops
                            issued_at: Time::ZERO,
                            dma: false,
                        }),
                    );
                }
                sim.run_until(Time::from_ms(1));
                black_box(sim.events_processed())
            })
        });
    }
    group.finish();
}

/// Raw kernel hop cost: self-ticking components exercising one
/// `EventQueue` push + pop per delivered event through `Ctx::send` — the
/// inner loop every model shares. `dense` keeps every tick a few
/// cache/DRAM hops ahead of the clock; `mixed` adds far-future ticks
/// (timers, windows) to the pending set.
fn bench_kernel_event_churn(c: &mut Criterion) {
    struct Ticker {
        delays: [u64; 4],
        left: u64,
    }
    impl Component<u32> for Ticker {
        fn name(&self) -> &str {
            "ticker"
        }
        fn handle(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
            if self.left == 0 {
                return;
            }
            self.left -= 1;
            let d = self.delays[(ev & 3) as usize];
            ctx.send(ctx.self_id(), Time::from_units(d), ev.wrapping_add(1));
        }
        pard_sim::impl_as_any!();
    }

    const TICKS: u64 = 100_000;
    let mut group = c.benchmark_group("kernel_event_churn");
    group.sample_size(10);
    for (name, delays) in [
        ("dense", [2u64, 3, 5, 9]),
        ("mixed", [2u64, 40, 700, 90_000]),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut sim: Simulation<u32> = Simulation::new();
                    // Four independent tick chains keep a small pending
                    // set alive, like the real models do.
                    for i in 0..4u32 {
                        let id = sim.add_component(Box::new(Ticker {
                            delays,
                            left: TICKS / 4,
                        }));
                        sim.post(id, Time::from_units(i as u64), i);
                    }
                    sim
                },
                |mut sim| {
                    sim.run();
                    black_box(sim.events_processed())
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_bank_schedule,
    bench_decompose,
    bench_controller_throughput,
    bench_kernel_event_churn
);
criterion_main!(benches);
