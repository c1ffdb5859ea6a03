//! DRAM organisation and machine-address decomposition.

use pard_icn::MAddr;

/// Location of a machine-physical address within the DRAM organisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankAddr {
    /// Flat bank index across ranks (`rank * banks_per_rank + bank`).
    pub bank: u32,
    /// Rank index.
    pub rank: u32,
    /// Row within the bank.
    pub row: u64,
    /// Byte offset within the row (column address × bus width).
    pub col_offset: u32,
}

/// DRAM organisation (Table 2: 1 channel, 2 ranks × 8 banks, 1 KB rows,
/// 8 GB total).
///
/// Consecutive rows interleave across banks so that streaming accesses
/// exploit bank-level parallelism — the conventional open-page mapping.
/// Every field must be a power of two, so an address decomposes by shifts
/// and masks ([`DramGeometry::decompose`] panics otherwise, naming the
/// field).
///
/// # Example
///
/// ```
/// use pard_dram::DramGeometry;
/// use pard_icn::MAddr;
///
/// let g = DramGeometry::table2();
/// assert_eq!(g.total_banks(), 16);
/// let a = g.decompose(MAddr::new(1024));
/// let b = g.decompose(MAddr::new(2048));
/// assert_ne!(a.bank, b.bank, "adjacent rows land in different banks");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramGeometry {
    /// Number of ranks on the channel.
    pub ranks: u32,
    /// Banks per rank.
    pub banks_per_rank: u32,
    /// Row-buffer size in bytes.
    pub row_bytes: u32,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
}

impl DramGeometry {
    /// The paper's Table 2 configuration: 8 GB, one channel, 2 ranks ×
    /// 8 banks, 1 KB row buffer.
    pub fn table2() -> Self {
        DramGeometry {
            ranks: 2,
            banks_per_rank: 8,
            row_bytes: 1024,
            capacity_bytes: 8 * 1024 * 1024 * 1024,
        }
    }

    /// Total banks across all ranks.
    pub fn total_banks(&self) -> u32 {
        self.ranks * self.banks_per_rank
    }

    /// Decomposes a machine address into its bank/row/column location:
    /// the address wraps at capacity, rows interleave across all banks.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, unless `ranks`, `banks_per_rank`,
    /// `row_bytes` and `capacity_bytes` are all powers of two.
    pub fn decompose(&self, addr: MAddr) -> BankAddr {
        self.addr_map().decompose(addr)
    }

    /// The shift-and-mask form of this organisation, computed once by the
    /// memory controller and applied per request. Panics like
    /// [`Self::decompose`].
    pub(crate) fn addr_map(&self) -> AddrMap {
        fn pow2(field: &str, value: u64) -> u32 {
            assert!(
                value.is_power_of_two(),
                "DramGeometry::{field} must be a power of two (got {value})"
            );
            value.trailing_zeros()
        }
        let rank_bits = pow2("ranks", self.ranks.into());
        let bank_bits = pow2("banks_per_rank", self.banks_per_rank.into());
        let row_bits = pow2("row_bytes", self.row_bytes.into());
        pow2("capacity_bytes", self.capacity_bytes);
        AddrMap {
            capacity_mask: self.capacity_bytes - 1,
            row_shift: row_bits,
            col_mask: u64::from(self.row_bytes) - 1,
            banks_shift: rank_bits + bank_bits,
            bank_mask: u64::from(self.total_banks()) - 1,
            bank_shift: bank_bits,
        }
    }
}

/// [`DramGeometry::decompose`] as shifts and masks: every divisor of the
/// decomposition is a power of two.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AddrMap {
    /// `capacity_bytes - 1`: wraps an address at capacity.
    capacity_mask: u64,
    /// `log2(row_bytes)`: byte offset → row id.
    row_shift: u32,
    /// `row_bytes - 1`: byte offset → column offset.
    col_mask: u64,
    /// `log2(total_banks)`: row id → row within its bank.
    banks_shift: u32,
    /// `total_banks - 1`: row id → flat bank.
    bank_mask: u64,
    /// `log2(banks_per_rank)`: flat bank → rank.
    bank_shift: u32,
}

impl AddrMap {
    #[inline]
    pub(crate) fn decompose(&self, addr: MAddr) -> BankAddr {
        let wrapped = addr.raw() & self.capacity_mask;
        let row_id = wrapped >> self.row_shift;
        let bank = (row_id & self.bank_mask) as u32;
        BankAddr {
            bank,
            rank: self.rank_of(bank),
            row: row_id >> self.banks_shift,
            col_offset: (wrapped & self.col_mask) as u32,
        }
    }

    /// The rank of flat bank `bank`.
    #[inline]
    pub(crate) fn rank_of(&self, bank: u32) -> u32 {
        bank >> self.bank_shift
    }
}

impl Default for DramGeometry {
    fn default() -> Self {
        Self::table2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_organisation() {
        let g = DramGeometry::table2();
        assert_eq!(g.total_banks(), 16);
        assert_eq!(g.row_bytes, 1024);
    }

    #[test]
    fn same_row_same_bank() {
        let g = DramGeometry::table2();
        let a = g.decompose(MAddr::new(0));
        let b = g.decompose(MAddr::new(1023));
        assert_eq!((a.bank, a.row), (b.bank, b.row));
        assert_eq!(b.col_offset, 1023);
    }

    #[test]
    fn rows_interleave_across_all_banks_before_repeating() {
        let g = DramGeometry::table2();
        let banks: Vec<u32> = (0..16u64)
            .map(|i| g.decompose(MAddr::new(i * 1024)).bank)
            .collect();
        let unique: std::collections::HashSet<_> = banks.iter().collect();
        assert_eq!(unique.len(), 16);
        // The 17th row wraps to bank 0, next row index.
        let wrap = g.decompose(MAddr::new(16 * 1024));
        assert_eq!(wrap.bank, 0);
        assert_eq!(wrap.row, 1);
    }

    #[test]
    fn rank_derivation() {
        let g = DramGeometry::table2();
        assert_eq!(g.decompose(MAddr::new(0)).rank, 0);
        assert_eq!(g.decompose(MAddr::new(8 * 1024)).rank, 1);
    }

    #[test]
    fn shifts_agree_with_division() {
        use pard_sim::check::{cases, DEFAULT_CASES};
        use pard_sim::rng::Rng;
        cases(
            "dram.geometry_shifts_agree_with_division",
            DEFAULT_CASES,
            |rng| {
                let g = DramGeometry {
                    ranks: 1 << rng.gen_range(0u32..=3),
                    banks_per_rank: 1 << rng.gen_range(0u32..=4),
                    row_bytes: 1 << rng.gen_range(6u32..=14),
                    capacity_bytes: 1 << rng.gen_range(20u32..=40),
                };
                let banks = u64::from(g.total_banks());
                for _ in 0..64 {
                    // Half the addresses lie above capacity and must wrap.
                    let raw = if rng.gen_bool(0.5) {
                        rng.gen_range(0..g.capacity_bytes)
                    } else {
                        rng.next_u64()
                    };
                    let wrapped = raw % g.capacity_bytes;
                    let row_id = wrapped / u64::from(g.row_bytes);
                    let bank = (row_id % banks) as u32;
                    let expected = BankAddr {
                        bank,
                        rank: bank / g.banks_per_rank,
                        row: row_id / banks,
                        col_offset: (wrapped % u64::from(g.row_bytes)) as u32,
                    };
                    assert_eq!(g.decompose(MAddr::new(raw)), expected, "{g:?} {raw:#x}");
                }
            },
        );
    }

    #[test]
    #[should_panic(expected = "DramGeometry::row_bytes must be a power of two (got 1000)")]
    fn non_pow2_row_bytes_panics() {
        let g = DramGeometry {
            row_bytes: 1000,
            ..DramGeometry::table2()
        };
        let _ = g.decompose(MAddr::new(0));
    }

    #[test]
    fn addresses_wrap_at_capacity() {
        let g = DramGeometry::table2();
        let a = g.decompose(MAddr::new(5));
        let b = g.decompose(MAddr::new(g.capacity_bytes + 5));
        assert_eq!(a, b);
    }
}
