//! Cache geometry and address decomposition.

use pard_icn::LAddr;

/// Geometry of a set-associative cache.
///
/// # Example
///
/// ```
/// use pard_cache::CacheGeometry;
/// // The Table 2 LLC: 4 MB, 16-way, 64 B lines.
/// let g = CacheGeometry::new(4 * 1024 * 1024, 16, 64);
/// assert_eq!(g.sets(), 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    size_bytes: u64,
    ways: u32,
    line_bytes: u32,
    sets: u64,
    /// `log2(line_bytes)`: address → line number.
    line_shift: u32,
    /// `log2(sets)`: line number → tag.
    set_shift: u32,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `ways`, `line_bytes`, and the derived set count are
    /// powers of two and the size divides evenly.
    pub fn new(size_bytes: u64, ways: u32, line_bytes: u32) -> Self {
        assert!(ways.is_power_of_two(), "ways must be a power of two");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert_eq!(
            size_bytes % u64::from(ways * line_bytes),
            0,
            "size must be a whole number of sets"
        );
        let sets = size_bytes / u64::from(ways * line_bytes);
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two (got {sets})"
        );
        CacheGeometry {
            size_bytes,
            ways,
            line_bytes,
            sets,
            line_shift: line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
        }
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Total number of lines.
    pub fn lines(&self) -> u64 {
        self.sets * u64::from(self.ways)
    }

    /// Set index for an address.
    #[inline]
    pub fn set_of(&self, addr: LAddr) -> u64 {
        (addr.raw() >> self.line_shift) & (self.sets - 1)
    }

    /// Tag for an address (the line number above the index bits).
    #[inline]
    pub fn tag_of(&self, addr: LAddr) -> u64 {
        addr.raw() >> (self.line_shift + self.set_shift)
    }

    /// Reconstructs a line-aligned address from `(tag, set)`.
    #[inline]
    pub fn addr_of(&self, tag: u64, set: u64) -> LAddr {
        LAddr::new(((tag << self.set_shift) | set) << self.line_shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_llc_geometry() {
        let g = CacheGeometry::new(4 * 1024 * 1024, 16, 64);
        assert_eq!(g.sets(), 4096);
        assert_eq!(g.lines(), 65536);
        assert_eq!(g.ways(), 16);
        assert_eq!(g.line_bytes(), 64);
        assert_eq!(g.size_bytes(), 4 * 1024 * 1024);
    }

    #[test]
    fn tag_set_round_trip() {
        let g = CacheGeometry::new(64 * 1024, 2, 64);
        for raw in [0u64, 64, 4096, 123_456_704, 0xFFFF_FFC0] {
            let a = LAddr::new(raw);
            let rebuilt = g.addr_of(g.tag_of(a), g.set_of(a));
            assert_eq!(rebuilt, a.line_base());
        }
    }

    #[test]
    fn adjacent_lines_map_to_adjacent_sets() {
        let g = CacheGeometry::new(64 * 1024, 2, 64);
        let a = LAddr::new(0);
        let b = LAddr::new(64);
        assert_eq!(g.set_of(b), g.set_of(a) + 1);
        assert_eq!(g.tag_of(a), g.tag_of(b));
    }

    #[test]
    fn shifts_agree_with_division() {
        use pard_sim::check::{cases, DEFAULT_CASES};
        use pard_sim::rng::Rng;
        cases(
            "cache.geometry_shifts_agree_with_division",
            DEFAULT_CASES,
            |rng| {
                let ways = 1u32 << rng.gen_range(0u32..=6);
                let line = 1u32 << rng.gen_range(0u32..=8);
                let sets = 1u64 << rng.gen_range(0u32..=14);
                let g = CacheGeometry::new(sets * u64::from(ways * line), ways, line);
                for _ in 0..64 {
                    let raw = rng.next_u64();
                    let (line_no, l) = (raw / u64::from(line), u64::from(line));
                    let (set, tag) = (line_no % sets, line_no / sets);
                    let a = LAddr::new(raw);
                    assert_eq!(g.set_of(a), set, "{g:?} {raw:#x}");
                    assert_eq!(g.tag_of(a), tag, "{g:?} {raw:#x}");
                    assert_eq!(g.addr_of(tag, set).raw(), (tag * sets + set) * l);
                }
            },
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_ways_panics() {
        let _ = CacheGeometry::new(3 * 64 * 10, 3, 64);
    }
}
