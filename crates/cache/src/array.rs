//! The tag array with per-block owner DS-ids.

use pard_icn::{DsId, LAddr};

use crate::geometry::CacheGeometry;
use crate::plru::PlruTree;

/// A block evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Line-aligned address of the evicted block (in the owner's LDom
    /// address space).
    pub addr: LAddr,
    /// The evicted block's **owner DS-id** — the tag a writeback packet
    /// must carry (paper §4.1).
    pub owner: DsId,
    /// Whether the block was dirty (requires a writeback).
    pub dirty: bool,
}

/// Result of filling a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// The way the new block was placed in.
    pub way: u32,
    /// The block displaced, if the chosen way was valid.
    pub evicted: Option<Victim>,
}

/// The LLC tag array: `(tag, owner DS-id, state)` per block, plus per-set
/// pseudo-LRU and per-DS-id occupancy counters.
///
/// A lookup hits **iff** both the address tag and the owner DS-id match
/// (paper footnote 4) — different LDoms use identical numeric addresses
/// for different data.
///
/// Layout: each set keeps its valid and dirty bits as way masks beside its
/// PLRU tree; tags live in a per-way array scanned on lookup, and owners
/// in a parallel array read only on a tag match.
///
/// # Example
///
/// ```
/// use pard_cache::{CacheGeometry, TagArray};
/// use pard_icn::{DsId, LAddr};
///
/// let mut a = TagArray::new(CacheGeometry::new(8192, 2, 64), 4);
/// let (ds1, ds2) = (DsId::new(1), DsId::new(2));
/// a.fill(ds1, LAddr::new(0x40), u64::MAX, false);
/// assert!(a.access(ds1, LAddr::new(0x40), false));
/// // Same address, different LDom: miss.
/// assert!(!a.access(ds2, LAddr::new(0x40), false));
/// ```
#[derive(Debug, Clone)]
pub struct TagArray {
    geom: CacheGeometry,
    sets: Vec<SetState>,
    /// Tag per block, `ways` consecutive entries per set.
    tags: Vec<u64>,
    /// Owner DS-id per block, parallel to `tags`.
    owners: Vec<DsId>,
    owned_lines: Vec<u64>,
}

/// One set's state bits: way masks of valid and dirty blocks, and the
/// replacement tree.
#[derive(Debug, Clone, Copy)]
struct SetState {
    valid: u64,
    dirty: u64,
    plru: PlruTree,
}

impl TagArray {
    /// Creates an empty array supporting DS-ids `0..max_ds`.
    pub fn new(geom: CacheGeometry, max_ds: usize) -> Self {
        let lines = geom.lines() as usize;
        let set = SetState {
            valid: 0,
            dirty: 0,
            plru: PlruTree::new(geom.ways()),
        };
        TagArray {
            geom,
            sets: vec![set; geom.sets() as usize],
            tags: vec![0; lines],
            owners: vec![DsId::default(); lines],
            owned_lines: vec![0; max_ds],
        }
    }

    /// The geometry this array was built with.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Index of `set`'s first block in `tags` / `owners`.
    #[inline]
    fn base(&self, set: u64) -> usize {
        set as usize * self.geom.ways() as usize
    }

    /// The way holding `(ds, tag)` in `set`, if any.
    #[inline]
    fn find(&self, set: u64, tag: u64, ds: DsId) -> Option<u32> {
        let base = self.base(set);
        let valid = self.sets[set as usize].valid;
        let tags = &self.tags[base..base + self.geom.ways() as usize];
        (0..tags.len())
            .find(|&w| tags[w] == tag && valid & (1 << w) != 0 && self.owners[base + w] == ds)
            .map(|w| w as u32)
    }

    /// Probes for `(ds, addr)` without touching replacement state.
    pub fn probe(&self, ds: DsId, addr: LAddr) -> Option<u32> {
        self.find(self.geom.set_of(addr), self.geom.tag_of(addr), ds)
    }

    /// Performs a demand access: on hit, updates PLRU (and the dirty bit
    /// for writes) and returns `true`; on miss returns `false`.
    pub fn access(&mut self, ds: DsId, addr: LAddr, is_write: bool) -> bool {
        let set = self.geom.set_of(addr);
        let Some(way) = self.find(set, self.geom.tag_of(addr), ds) else {
            return false;
        };
        let s = &mut self.sets[set as usize];
        s.plru.touch(way);
        if is_write {
            s.dirty |= 1 << way;
        }
        true
    }

    /// Marks `(ds, addr)` dirty if present (L1 writeback absorption).
    /// Returns whether the block was found.
    pub fn mark_dirty(&mut self, ds: DsId, addr: LAddr) -> bool {
        let set = self.geom.set_of(addr);
        let Some(way) = self.find(set, self.geom.tag_of(addr), ds) else {
            return false;
        };
        let s = &mut self.sets[set as usize];
        s.dirty |= 1 << way;
        s.plru.touch(way);
        true
    }

    /// Fills the line containing `addr` for owner `ds`, choosing a victim
    /// among the ways allowed by `mask` (invalid allowed ways are preferred).
    ///
    /// The returned [`FillOutcome::evicted`] carries the displaced block's
    /// owner DS-id so the caller can tag the writeback correctly.
    pub fn fill(&mut self, ds: DsId, addr: LAddr, mask: u64, dirty: bool) -> FillOutcome {
        let set = self.geom.set_of(addr);
        let tag = self.geom.tag_of(addr);
        debug_assert!(
            self.probe(ds, addr).is_none(),
            "filling a line that is already present"
        );

        let full = if self.geom.ways() == 64 {
            u64::MAX
        } else {
            (1u64 << self.geom.ways()) - 1
        };
        let eff_mask = {
            let m = mask & full;
            if m == 0 {
                full
            } else {
                m
            }
        };

        // Prefer the lowest invalid way inside the partition.
        let s = self.sets[set as usize];
        let free = eff_mask & !s.valid;
        let way = if free != 0 {
            free.trailing_zeros()
        } else {
            s.plru.victim(eff_mask)
        };

        let i = self.base(set) + way as usize;
        let bit = 1u64 << way;
        let evicted = if s.valid & bit != 0 {
            let owner = self.owners[i];
            if let Some(c) = self.owned_lines.get_mut(owner.index()) {
                *c -= 1;
            }
            Some(Victim {
                addr: self.geom.addr_of(self.tags[i], set),
                owner,
                dirty: s.dirty & bit != 0,
            })
        } else {
            None
        };

        self.tags[i] = tag;
        self.owners[i] = ds;
        if let Some(c) = self.owned_lines.get_mut(ds.index()) {
            *c += 1;
        }
        let s = &mut self.sets[set as usize];
        s.valid |= bit;
        if dirty {
            s.dirty |= bit;
        } else {
            s.dirty &= !bit;
        }
        s.plru.touch(way);
        FillOutcome { way, evicted }
    }

    /// Invalidates every block owned by `ds`, returning the dirty ones for
    /// writeback (LDom teardown / cache flush).
    pub fn invalidate_ds(&mut self, ds: DsId) -> Vec<Victim> {
        let mut dirty = Vec::new();
        for set in 0..self.geom.sets() {
            let base = self.base(set);
            let s = &mut self.sets[set as usize];
            let mut live = s.valid;
            while live != 0 {
                let way = live.trailing_zeros();
                live &= live - 1;
                let i = base + way as usize;
                if self.owners[i] != ds {
                    continue;
                }
                let bit = 1u64 << way;
                if s.dirty & bit != 0 {
                    dirty.push(Victim {
                        addr: self.geom.addr_of(self.tags[i], set),
                        owner: ds,
                        dirty: true,
                    });
                }
                s.valid &= !bit;
                s.dirty &= !bit;
                if let Some(c) = self.owned_lines.get_mut(ds.index()) {
                    *c -= 1;
                }
            }
        }
        dirty
    }

    /// Number of lines currently owned by `ds`.
    pub fn occupancy_lines(&self, ds: DsId) -> u64 {
        self.owned_lines.get(ds.index()).copied().unwrap_or(0)
    }

    /// Bytes currently owned by `ds`.
    pub fn occupancy_bytes(&self, ds: DsId) -> u64 {
        self.occupancy_lines(ds) * u64::from(self.geom.line_bytes())
    }

    /// Total valid lines across all owners.
    pub fn total_valid_lines(&self) -> u64 {
        self.owned_lines.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TagArray {
        // 2 sets, 4 ways, 64B lines.
        TagArray::new(CacheGeometry::new(2 * 4 * 64, 4, 64), 8)
    }

    fn line(set: u64, tag: u64) -> LAddr {
        LAddr::new((tag * 2 + set) * 64)
    }

    #[test]
    fn hit_requires_owner_match() {
        let mut a = small();
        let addr = line(0, 5);
        a.fill(DsId::new(1), addr, u64::MAX, false);
        assert!(a.probe(DsId::new(1), addr).is_some());
        assert!(a.probe(DsId::new(2), addr).is_none());
        assert!(a.access(DsId::new(1), addr, false));
        assert!(!a.access(DsId::new(2), addr, false));
    }

    #[test]
    fn two_ldoms_cache_same_address_separately() {
        let mut a = small();
        let addr = line(0, 5);
        a.fill(DsId::new(1), addr, u64::MAX, false);
        a.fill(DsId::new(2), addr, u64::MAX, false);
        assert!(a.probe(DsId::new(1), addr).is_some());
        assert!(a.probe(DsId::new(2), addr).is_some());
        assert_eq!(a.occupancy_lines(DsId::new(1)), 1);
        assert_eq!(a.occupancy_lines(DsId::new(2)), 1);
    }

    #[test]
    fn eviction_reports_owner_for_writeback_tagging() {
        let mut a = small();
        // Fill set 0 completely with dirty ds1 lines.
        for tag in 0..4 {
            a.fill(DsId::new(1), line(0, tag), u64::MAX, true);
        }
        // ds2 fill must evict a ds1 block and report ds1 as the owner.
        let out = a.fill(DsId::new(2), line(0, 9), u64::MAX, false);
        let victim = out.evicted.expect("set was full");
        assert_eq!(victim.owner, DsId::new(1));
        assert!(victim.dirty);
        assert_eq!(a.occupancy_lines(DsId::new(1)), 3);
        assert_eq!(a.occupancy_lines(DsId::new(2)), 1);
    }

    #[test]
    fn fill_prefers_invalid_ways_within_mask() {
        let mut a = small();
        a.fill(DsId::new(1), line(0, 1), 0b0011, false);
        let out = a.fill(DsId::new(1), line(0, 2), 0b0011, false);
        assert!(out.evicted.is_none(), "second way of partition was free");
        assert!(out.way < 2);
        // Third fill in a 2-way partition must evict within the partition.
        let out = a.fill(DsId::new(1), line(0, 3), 0b0011, false);
        assert!(out.evicted.is_some());
        assert!(out.way < 2);
    }

    #[test]
    fn write_access_sets_dirty_and_eviction_sees_it() {
        let mut a = small();
        let addr = line(1, 7);
        a.fill(DsId::new(3), addr, 0b0001, false);
        assert!(a.access(DsId::new(3), addr, true));
        let out = a.fill(DsId::new(3), line(1, 8), 0b0001, false);
        assert!(out.evicted.unwrap().dirty);
    }

    #[test]
    fn mark_dirty_finds_block() {
        let mut a = small();
        let addr = line(0, 2);
        assert!(!a.mark_dirty(DsId::new(1), addr));
        a.fill(DsId::new(1), addr, u64::MAX, false);
        assert!(a.mark_dirty(DsId::new(1), addr));
        let out = a.fill(DsId::new(1), line(0, 3), 0b0001, false);
        // Way 0 held the dirty block if chosen; just check the evicted
        // victim address reconstructs correctly when present.
        if let Some(v) = out.evicted {
            assert_eq!(v.addr, addr.line_base());
        }
    }

    #[test]
    fn invalidate_ds_returns_dirty_blocks_and_clears_occupancy() {
        let mut a = small();
        a.fill(DsId::new(1), line(0, 1), u64::MAX, true);
        a.fill(DsId::new(1), line(1, 2), u64::MAX, false);
        a.fill(DsId::new(2), line(0, 3), u64::MAX, true);
        let dirty = a.invalidate_ds(DsId::new(1));
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].owner, DsId::new(1));
        assert_eq!(a.occupancy_lines(DsId::new(1)), 0);
        assert_eq!(a.occupancy_lines(DsId::new(2)), 1);
        assert_eq!(a.total_valid_lines(), 1);
    }

    #[test]
    fn occupancy_bytes_scales_by_line() {
        let mut a = small();
        a.fill(DsId::new(4), line(0, 1), u64::MAX, false);
        assert_eq!(a.occupancy_bytes(DsId::new(4)), 64);
    }
}
