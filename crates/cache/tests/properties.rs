//! Seeded randomized tests of the cache structures' invariants.

use pard_cache::{CacheGeometry, FillOutcome, PlruTree, TagArray, Victim};
use pard_icn::{DsId, LAddr};
use pard_sim::check::{cases, vec_of, DEFAULT_CASES};
use pard_sim::rng::Rng;

fn small_geom() -> CacheGeometry {
    CacheGeometry::new(8 * 4 * 64, 4, 64) // 8 sets x 4 ways
}

/// The PLRU victim always lies within the allowed mask (or anywhere
/// for an empty mask), for any tree state.
#[test]
fn plru_victim_respects_mask() {
    cases("cache.plru_victim_respects_mask", DEFAULT_CASES, |rng| {
        let touches = vec_of(rng, 0..64, |r| r.gen_range(0u32..16));
        let mask = rng.gen_range(0u64..=0xFFFF);
        let mut p = PlruTree::new(16);
        for &w in &touches {
            p.touch(w);
        }
        let v = p.victim(mask);
        assert!(v < 16);
        if mask & 0xFFFF != 0 {
            assert!(mask & (1 << v) != 0, "victim {v} outside mask {mask:#x}");
        }
    });
}

/// Per-DS-id occupancy counters always equal the number of resident
/// lines, across any interleaving of fills and invalidations.
#[test]
fn occupancy_counters_stay_exact() {
    cases(
        "cache.occupancy_counters_stay_exact",
        DEFAULT_CASES,
        |rng| {
            let ops = vec_of(rng, 1..200, |r| {
                (r.gen_range(0u16..4), r.gen_range(0u64..64), r.gen_bool(0.5))
            });
            let mut a = TagArray::new(small_geom(), 4);
            let mut resident: std::collections::HashSet<(u16, u64)> = Default::default();
            for &(ds_raw, line, invalidate) in &ops {
                let ds = DsId::new(ds_raw);
                let addr = LAddr::new(line * 64);
                if invalidate {
                    a.invalidate_ds(ds);
                    resident.retain(|&(d, _)| d != ds_raw);
                } else if a.probe(ds, addr).is_none() {
                    let out = a.fill(ds, addr, u64::MAX, false);
                    resident.insert((ds_raw, addr.line_base().raw()));
                    if let Some(v) = out.evicted {
                        resident.remove(&(v.owner.raw(), v.addr.raw()));
                    }
                }
                // Invariant: counters match the ground truth set.
                for d in 0..4u16 {
                    let expected = resident.iter().filter(|&&(dd, _)| dd == d).count() as u64;
                    assert_eq!(a.occupancy_lines(DsId::new(d)), expected);
                }
            }
            let total: u64 = (0..4u16).map(|d| a.occupancy_lines(DsId::new(d))).sum();
            assert_eq!(a.total_valid_lines(), total);
            assert!(total <= small_geom().lines());
        },
    );
}

/// A hit is possible only for the (ds, address) pairs actually filled:
/// no LDom ever observes another LDom's line.
#[test]
fn no_cross_ldom_hits() {
    cases("cache.no_cross_ldom_hits", DEFAULT_CASES, |rng| {
        let fills = vec_of(rng, 1..64, |r| {
            (r.gen_range(0u16..4), r.gen_range(0u64..32))
        });
        let probes = vec_of(rng, 1..64, |r| {
            (r.gen_range(0u16..4), r.gen_range(0u64..32))
        });
        let mut a = TagArray::new(small_geom(), 4);
        let mut filled: std::collections::HashSet<(u16, u64)> = Default::default();
        for &(ds, line) in &fills {
            let addr = LAddr::new(line * 64);
            if a.probe(DsId::new(ds), addr).is_none() {
                let out = a.fill(DsId::new(ds), addr, u64::MAX, false);
                filled.insert((ds, addr.raw()));
                if let Some(v) = out.evicted {
                    filled.remove(&(v.owner.raw(), v.addr.raw()));
                }
            }
        }
        for &(ds, line) in &probes {
            let addr = LAddr::new(line * 64);
            let hit = a.probe(DsId::new(ds), addr).is_some();
            let legal = filled.contains(&(ds, addr.raw()));
            assert_eq!(hit, legal, "probe (ds{ds}, {addr:?})");
        }
    });
}

/// Fills under a mask place the block in an allowed way.
#[test]
fn fills_land_inside_the_partition() {
    cases(
        "cache.fills_land_inside_the_partition",
        DEFAULT_CASES,
        |rng| {
            let lines = vec_of(rng, 1..64, |r| r.gen_range(0u64..64));
            let mask = rng.gen_range(1u64..=0xF);
            let mut a = TagArray::new(small_geom(), 4);
            for &line in &lines {
                let addr = LAddr::new(line * 64);
                if a.probe(DsId::new(1), addr).is_none() {
                    let out = a.fill(DsId::new(1), addr, mask, false);
                    assert!(mask & (1 << out.way) != 0);
                }
            }
        },
    );
}

/// Geometry round trip: any address reconstructs to its line base.
#[test]
fn geometry_round_trips() {
    cases("cache.geometry_round_trips", DEFAULT_CASES, |rng| {
        let raw = rng.gen_range(0u64..(1 << 40));
        let g = CacheGeometry::new(4 << 20, 16, 64);
        let a = LAddr::new(raw);
        assert_eq!(g.addr_of(g.tag_of(a), g.set_of(a)), a.line_base());
    });
}

/// The tag array as one `(valid, dirty, tag, owner)` entry per way, every
/// lookup a scan: the reference the packed mask layout must reproduce.
struct EntryArray {
    geom: CacheGeometry,
    entries: Vec<(bool, bool, u64, DsId)>,
    plru: Vec<PlruTree>,
    owned: Vec<u64>,
}

impl EntryArray {
    fn new(geom: CacheGeometry, max_ds: usize) -> Self {
        EntryArray {
            geom,
            entries: vec![(false, false, 0, DsId::default()); geom.lines() as usize],
            plru: vec![PlruTree::new(geom.ways()); geom.sets() as usize],
            owned: vec![0; max_ds],
        }
    }

    fn idx(&self, set: u64, way: u32) -> usize {
        (set * u64::from(self.geom.ways()) + u64::from(way)) as usize
    }

    fn probe(&self, ds: DsId, addr: LAddr) -> Option<u32> {
        let (set, tag) = (self.geom.set_of(addr), self.geom.tag_of(addr));
        (0..self.geom.ways()).find(|&w| {
            let (valid, _, t, owner) = self.entries[self.idx(set, w)];
            valid && t == tag && owner == ds
        })
    }

    fn touch(&mut self, ds: DsId, addr: LAddr, dirty: bool) -> bool {
        let Some(way) = self.probe(ds, addr) else {
            return false;
        };
        let set = self.geom.set_of(addr);
        self.plru[set as usize].touch(way);
        let i = self.idx(set, way);
        self.entries[i].1 |= dirty;
        true
    }

    fn fill(&mut self, ds: DsId, addr: LAddr, mask: u64, dirty: bool) -> FillOutcome {
        let (set, tag) = (self.geom.set_of(addr), self.geom.tag_of(addr));
        let ways = self.geom.ways();
        let full = if ways == 64 {
            u64::MAX
        } else {
            (1 << ways) - 1
        };
        let eff = if mask & full == 0 { full } else { mask & full };
        let way = (0..ways)
            .find(|&w| eff & (1 << w) != 0 && !self.entries[self.idx(set, w)].0)
            .unwrap_or_else(|| self.plru[set as usize].victim(eff));
        let i = self.idx(set, way);
        let (valid, old_dirty, old_tag, owner) = self.entries[i];
        let evicted = valid.then(|| {
            if let Some(c) = self.owned.get_mut(owner.index()) {
                *c -= 1;
            }
            Victim {
                addr: self.geom.addr_of(old_tag, set),
                owner,
                dirty: old_dirty,
            }
        });
        self.entries[i] = (true, dirty, tag, ds);
        if let Some(c) = self.owned.get_mut(ds.index()) {
            *c += 1;
        }
        self.plru[set as usize].touch(way);
        FillOutcome { way, evicted }
    }

    fn invalidate_ds(&mut self, ds: DsId) -> Vec<Victim> {
        let mut dirty = Vec::new();
        for set in 0..self.geom.sets() {
            for way in 0..self.geom.ways() {
                let i = self.idx(set, way);
                let (valid, d, tag, owner) = self.entries[i];
                if valid && owner == ds {
                    if d {
                        dirty.push(Victim {
                            addr: self.geom.addr_of(tag, set),
                            owner,
                            dirty: true,
                        });
                    }
                    self.entries[i].0 = false;
                    if let Some(c) = self.owned.get_mut(ds.index()) {
                        *c -= 1;
                    }
                }
            }
        }
        dirty
    }
}

/// The packed tag array (way masks, per-way tags, owners read on a tag
/// match) picks the same ways and victims and keeps the same occupancy
/// as the per-way entry scan, over random fills, accesses, dirty marks,
/// probes and LDom invalidations with random way masks.
#[test]
fn tag_array_matches_the_per_way_entry_model() {
    cases(
        "cache.tag_array_matches_the_per_way_entry_model",
        DEFAULT_CASES,
        |rng| {
            let ways = 1u32 << rng.gen_range(1u32..=6);
            let sets = 1u64 << rng.gen_range(0u32..=3);
            let geom = CacheGeometry::new(sets * u64::from(ways) * 64, ways, 64);
            // DS-ids past `max_ds` own lines but have no occupancy counter.
            let (max_ds, ds_ids) = (4, 6u16);
            let mut a = TagArray::new(geom, max_ds);
            let mut m = EntryArray::new(geom, max_ds);
            let span = geom.lines() * 2;
            for step in 0..400 {
                let ds = DsId::new(rng.gen_range(0..ds_ids));
                let addr = LAddr::new(rng.gen_range(0..span) * 64 + rng.gen_range(0u64..64));
                let mask = match rng.gen_range(0u32..4) {
                    0 => u64::MAX,
                    1 => 0,
                    _ => rng.next_u64() & rng.next_u64(),
                };
                let at = format!("step {step}, {geom:?}, {ds:?} {addr:?}");
                match rng.gen_range(0u32..10) {
                    0..=3 => {
                        if m.probe(ds, addr).is_none() {
                            let dirty = rng.gen_bool(0.3);
                            assert_eq!(
                                a.fill(ds, addr, mask, dirty),
                                m.fill(ds, addr, mask, dirty),
                                "{at}"
                            );
                        }
                    }
                    4..=6 => {
                        let write = rng.gen_bool(0.3);
                        assert_eq!(a.access(ds, addr, write), m.touch(ds, addr, write), "{at}");
                    }
                    7 => assert_eq!(a.mark_dirty(ds, addr), m.touch(ds, addr, true), "{at}"),
                    8 => assert_eq!(a.probe(ds, addr), m.probe(ds, addr), "{at}"),
                    _ => {
                        if rng.gen_bool(0.2) {
                            assert_eq!(a.invalidate_ds(ds), m.invalidate_ds(ds), "{at}");
                        }
                    }
                }
                for d in 0..ds_ids {
                    let d = DsId::new(d);
                    assert_eq!(
                        a.occupancy_lines(d),
                        m.owned.get(d.index()).copied().unwrap_or(0)
                    );
                }
                assert_eq!(a.total_valid_lines(), m.owned.iter().sum::<u64>(), "{at}");
            }
        },
    );
}
