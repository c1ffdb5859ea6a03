//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! simulated outcomes (not wall time) measured under the timing harness
//! via throughput of the end-to-end machine, plus model-cost comparisons
//! of the PARD data-path features.

use pard::{LDomSpec, PardServer, SystemConfig, Time};
use pard_bench::harness::{black_box, criterion_group, criterion_main, Criterion};
use pard_dram::{Bank, DramTiming, RankTracker};
use pard_workloads::{CacheFlush, Stream, StreamConfig};

/// End-to-end simulation throughput (events/wall-second): PARD machinery
/// on vs off. The differentiated data path must not slow the simulator —
/// the software analogue of "3.1% FPGA overhead".
fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_sim");
    group.sample_size(10);
    for (name, pard_on) in [("pard_enabled", true), ("baseline", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let cfg = if pard_on {
                    SystemConfig::small_test()
                } else {
                    SystemConfig::small_test().without_pard()
                };
                let mut server = PardServer::new(cfg);
                for i in 0..2usize {
                    let ds = server
                        .create_ldom(LDomSpec::new(format!("l{i}"), vec![i], 32 << 20))
                        .unwrap();
                    server.install_engine(
                        i,
                        Box::new(Stream::new(StreamConfig {
                            array_bytes: 512 << 10,
                            base: 0,
                            compute_per_block: 16,
                        })),
                    );
                    server.launch(ds).unwrap();
                }
                server.run_for(Time::from_ms(1));
                black_box(server.events_processed())
            })
        });
    }
    group.finish();
}

/// The extra high-priority row buffer (§4.2): simulated row-hit outcome
/// under an antagonist, measured as scheduling work per access.
fn bench_hp_row_buffer(c: &mut Criterion) {
    let timing = DramTiming::ddr3_1600_11();
    let mut group = c.benchmark_group("hp_row_buffer");
    for (name, use_hp) in [("with_hp_buffer", true), ("without", false)] {
        group.bench_function(name, |b| {
            let mut bank = Bank::default();
            let mut rank = RankTracker::default();
            let mut t = Time::from_us(1);
            let mut antagonist_row = 1000u64;
            b.iter(|| {
                // High-priority stream returns to row 5; a low-priority
                // antagonist interleaves ever-new rows.
                t += Time::from_ns(50);
                antagonist_row += 1;
                bank.schedule(antagonist_row, t, false, false, &timing, &mut rank);
                t += Time::from_ns(50);
                black_box(
                    bank.schedule(5, t, true, use_hp, &timing, &mut rank)
                        .row_hit,
                )
            })
        });
    }
    group.finish();
}

/// Waymask repartitioning at runtime: full reprogram-through-firmware
/// round trip, the reaction path of the trigger ⇒ action mechanism.
fn bench_repartition_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("repartition");
    group.sample_size(10);
    group.bench_function("echo_waymask_via_shell", |b| {
        let mut server = PardServer::new(SystemConfig::small_test());
        let ds = server
            .create_ldom(LDomSpec::new("x", vec![0], 32 << 20))
            .unwrap();
        server.install_engine(0, Box::new(CacheFlush::new(0, 512 << 10)));
        server.launch(ds).unwrap();
        server.run_for(Time::from_ms(1));
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let mask = if flip { "0x00FF" } else { "0xFF00" };
            server
                .shell(&format!(
                    "echo {mask} > /sys/cpa/cpa0/ldoms/ldom0/parameters/waymask"
                ))
                .unwrap();
            server.run_for(Time::from_us(100));
            black_box(server.llc_occupancy_bytes(ds))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_end_to_end,
    bench_hp_row_buffer,
    bench_repartition_round_trip
);
criterion_main!(benches);
