//! Seeded randomized tests of the DRAM models.

use pard_dram::{Bank, DramGeometry, DramTiming, RankTracker};
use pard_icn::MAddr;
use pard_sim::check::{cases, vec_of, DEFAULT_CASES};
use pard_sim::rng::Rng;
use pard_sim::Time;

/// Address decomposition stays within the organisation's bounds and
/// is consistent: same row+bank => same 1 KB-aligned region.
#[test]
fn decompose_is_bounded_and_consistent() {
    cases(
        "dram.decompose_is_bounded_and_consistent",
        DEFAULT_CASES,
        |rng| {
            let addr = rng.next_u64();
            let g = DramGeometry::table2();
            let loc = g.decompose(MAddr::new(addr));
            assert!(loc.bank < g.total_banks());
            assert!(loc.rank < g.ranks);
            assert_eq!(loc.rank, loc.bank / g.banks_per_rank);
            assert!(u64::from(loc.col_offset) < u64::from(g.row_bytes));
            // Same row base => identical (bank, row).
            let base = addr % g.capacity_bytes / 1024 * 1024;
            let loc2 = g.decompose(MAddr::new(base));
            assert_eq!((loc.bank, loc.row), (loc2.bank, loc2.row));
        },
    );
}

/// Bank scheduling obeys causality and the JEDEC floor: data is never
/// ready before tCL, and a conflict never beats a hit issued at the
/// same instant.
#[test]
fn bank_timing_has_jedec_floors() {
    cases("dram.bank_timing_has_jedec_floors", DEFAULT_CASES, |rng| {
        let rows = vec_of(rng, 1..50, |r| r.gen_range(0u64..8));
        let t = DramTiming::ddr3_1600_11();
        let mut bank = Bank::default();
        let mut rank = RankTracker::default();
        let mut now = Time::from_us(1);
        for &row in &rows {
            now += Time::from_ns(100);
            let hit_predicted = bank.would_hit(row, false);
            let svc = bank.schedule(row, now, false, false, &t, &mut rank);
            assert!(svc.data_ready >= now + t.tcl, "tCL floor violated");
            assert_eq!(svc.row_hit, hit_predicted);
            if svc.row_hit {
                assert_eq!(svc.data_ready, now + t.tcl);
            } else {
                assert!(svc.data_ready >= now + t.trcd + t.tcl);
            }
            assert!(svc.bank_free >= now);
            // After scheduling, the row is open (normal buffer).
            assert!(bank.would_hit(row, false));
        }
    });
}

/// The high-priority row buffer is invisible to low-priority requests
/// and immune to them, for any interleaving.
#[test]
fn hp_buffer_isolation() {
    cases("dram.hp_buffer_isolation", DEFAULT_CASES, |rng| {
        let low_rows = vec_of(rng, 1..50, |r| r.gen_range(0u64..100));
        let t = DramTiming::ddr3_1600_11();
        let mut bank = Bank::default();
        let mut rank = RankTracker::default();
        // High priority pins row 7777 in the HP buffer.
        bank.schedule(7777, Time::from_us(1), true, true, &t, &mut rank);
        let mut now = Time::from_us(2);
        for &row in &low_rows {
            now += Time::from_ns(100);
            bank.schedule(row, now, false, false, &t, &mut rank);
            assert!(!bank.would_hit(7777, false), "low priority saw the HP row");
            assert!(bank.would_hit(7777, true), "HP row was disturbed");
        }
    });
}

/// Activates within a rank are always spaced by at least tRRD.
#[test]
fn trrd_spacing_holds() {
    cases("dram.trrd_spacing_holds", DEFAULT_CASES, |rng| {
        let gaps = vec_of(rng, 1..50, |r| r.gen_range(0u64..50));
        let t = DramTiming::ddr3_1600_11();
        let mut rank = RankTracker::default();
        let mut now = Time::from_us(1);
        let mut last: Option<Time> = None;
        for &g in &gaps {
            now += Time::from_ns(g);
            let act = rank.activate_ok(now, &t);
            if let Some(prev) = last {
                assert!(act >= prev + t.trrd);
            }
            assert!(act >= now);
            last = Some(act);
        }
    });
}
