//! Seeded randomized tests of the control-plane framework.

use pard_cp::{CmpOp, ColumnDef, CpAddr, DsTable, TableSel, Trigger, TriggerTable};
use pard_icn::DsId;
use pard_sim::check::{cases, vec_of, DEFAULT_CASES};
use pard_sim::rng::Rng;

const TABLE_SELS: [TableSel; 3] = [TableSel::Parameter, TableSel::Statistics, TableSel::Trigger];
const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Eq,
    CmpOp::Ne,
];

fn pick<T: Copy>(rng: &mut impl Rng, choices: &[T]) -> T {
    choices[rng.gen_range(0..choices.len())]
}

/// The Fig. 6 addr-register encoding round-trips for every field value.
#[test]
fn cp_addr_round_trips() {
    cases("cp.cp_addr_round_trips", DEFAULT_CASES, |rng| {
        let ds = rng.gen_range(0u16..=u16::MAX);
        let offset = rng.gen_range(0u16..(1 << 14));
        let sel = pick(rng, &TABLE_SELS);
        let a = CpAddr::new(DsId::new(ds), offset, sel);
        assert_eq!(CpAddr::decode(a.encode()).unwrap(), a);
    });
}

/// Comparison operators encode/decode and agree with Rust's semantics.
#[test]
fn cmp_ops_agree_with_rust() {
    cases("cp.cmp_ops_agree_with_rust", DEFAULT_CASES, |rng| {
        let op = pick(rng, &CMP_OPS);
        let (a, b) = (rng.next_u64(), rng.next_u64());
        assert_eq!(CmpOp::decode(op.encode()).unwrap(), op);
        let expected = match op {
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        };
        assert_eq!(op.eval(a, b), expected);
    });
}

/// Table cells hold exactly the last value written, independent of the
/// write order for other cells.
#[test]
fn ds_table_is_a_store() {
    cases("cp.ds_table_is_a_store", DEFAULT_CASES, |rng| {
        let writes = vec_of(rng, 1..100, |r| {
            (r.gen_range(0u16..16), r.gen_range(0usize..3), r.next_u64())
        });
        let mut t = DsTable::new(
            "p",
            vec![
                ColumnDef::new("a"),
                ColumnDef::new("b"),
                ColumnDef::new("c"),
            ],
            16,
        );
        let mut model = std::collections::HashMap::new();
        for &(ds, col, v) in &writes {
            t.set_by_offset(DsId::new(ds), col, v).unwrap();
            model.insert((ds, col), v);
        }
        for (&(ds, col), &v) in &model {
            assert_eq!(t.get_by_offset(DsId::new(ds), col).unwrap(), v);
        }
    });
}

/// Trigger raw-field access round-trips through the CPA encoding for
/// every field.
#[test]
fn trigger_fields_round_trip() {
    cases("cp.trigger_fields_round_trip", DEFAULT_CASES, |rng| {
        let slot = rng.gen_range(0usize..16);
        let ds = rng.gen_range(0u16..=u16::MAX);
        let col = rng.gen_range(0u64..(1 << 14));
        let op = pick(rng, &CMP_OPS);
        let value = rng.next_u64();
        let mut tt = TriggerTable::new(16);
        tt.set_field(slot, 0, u64::from(ds)).unwrap();
        tt.set_field(slot, 1, col).unwrap();
        tt.set_field(slot, 2, op.encode()).unwrap();
        tt.set_field(slot, 3, value).unwrap();
        tt.set_field(slot, 4, 1).unwrap();
        assert_eq!(tt.get_field(slot, 0).unwrap(), u64::from(ds));
        assert_eq!(tt.get_field(slot, 1).unwrap(), col);
        assert_eq!(tt.get_field(slot, 2).unwrap(), op.encode());
        assert_eq!(tt.get_field(slot, 3).unwrap(), value);
        assert_eq!(tt.get_field(slot, 4).unwrap(), 1);
    });
}

/// Latching: for any stats sequence, a trigger fires exactly at
/// rising edges of its condition.
#[test]
fn triggers_fire_on_rising_edges() {
    cases("cp.triggers_fire_on_rising_edges", DEFAULT_CASES, |rng| {
        let values = vec_of(rng, 1..100, |r| r.gen_range(0u64..100));
        let mut tt = TriggerTable::new(4);
        tt.install(0, Trigger::new(DsId::new(0), 0, CmpOp::Gt, 50))
            .unwrap();
        let mut prev = false;
        for &v in &values {
            let fired = !tt.evaluate(DsId::new(0), &[v]).is_empty();
            let cond = v > 50;
            assert_eq!(fired, cond && !prev, "value {v}, prev {prev}");
            prev = cond;
        }
    });
}

/// The lock-free statistics cells lose no increments under contention:
/// `PARD_THREADS` workers (at least two) hammer [`StatsHandle::add`] over
/// independent random `(ds, column, delta)` streams, and every row must
/// end up exactly equal to a sequential oracle. Run with different
/// `PARD_THREADS` values to vary the interleaving pressure.
///
/// [`StatsHandle::add`]: pard_cp::StatsHandle::add
#[test]
fn stats_cells_concurrent_adds_match_sequential_oracle() {
    use pard_cp::{shared, ControlPlane, CpType};
    use pard_sim::par::{par_map_with, thread_count};

    const ROWS: usize = 8;
    cases("cp.stats_cells_concurrent_adds", 16, |rng| {
        let params = DsTable::new("parameter", vec![ColumnDef::new("enable")], ROWS);
        let stats = DsTable::new(
            "statistics",
            vec![
                ColumnDef::new("a"),
                ColumnDef::new("b"),
                ColumnDef::new("c"),
            ],
            ROWS,
        );
        let cp = shared(ControlPlane::new(
            "TEST_CP",
            CpType::Cache,
            params,
            stats,
            8,
        ));
        let handle = cp.lock().stats_handle();
        let keys = [
            handle.key("a").unwrap(),
            handle.key("b").unwrap(),
            handle.key("c").unwrap(),
        ];
        let workers = thread_count().max(2);
        let streams: Vec<Vec<(u16, usize, u64)>> = (0..workers)
            .map(|_| {
                vec_of(rng, 200..400, |r| {
                    (
                        r.gen_range(0u16..ROWS as u16),
                        r.gen_range(0usize..3),
                        r.gen_range(1u64..1000),
                    )
                })
            })
            .collect();
        let mut oracle = [[0u64; 3]; ROWS];
        for stream in &streams {
            for &(ds, col, v) in stream {
                oracle[ds as usize][col] = oracle[ds as usize][col].wrapping_add(v);
            }
        }
        let work: Vec<_> = streams
            .into_iter()
            .map(|ops| (handle.clone(), ops))
            .collect();
        par_map_with(workers, work, |(h, ops)| {
            for (ds, col, v) in ops {
                h.add(DsId::new(ds), keys[col], v).unwrap();
            }
        });
        for ds in 0..ROWS {
            let row = handle.cells().snapshot_row(DsId::new(ds as u16)).unwrap();
            assert_eq!(&row[..], &oracle[ds][..], "row {ds}");
        }
    });
}
