//! Lock-free sharded statistics cells.
//!
//! The statistics table is the only control-plane structure the *data
//! path* writes on every access (paper Table 1: hit/miss counts, served
//! bytes, queue occupancy). Keeping it inside the `CpHandle` mutex would
//! put a lock on every cache lookup and DRAM issue, so the storage is a
//! flat array of [`AtomicU64`] cells instead:
//!
//! * rows are striped per DS-id at a power-of-two stride (padded to a
//!   cache line, so two DS-ids' counters never share a line),
//! * increments are `Relaxed` read-modify-writes — per-column counters
//!   are independent monotone values, and no control decision is taken
//!   on the writing side,
//! * published values are written with `Release`, and every read path
//!   ([`StatsCells::get`], [`StatsCells::snapshot_row`]) loads with
//!   `Acquire`, so a reader that observes a published value also
//!   observes everything the writer did before publishing it.
//!
//! A reader that needs a *consistent multi-column view* (trigger
//! evaluation, the metrics registry) must take one
//! [`snapshot_row`](StatsCells::snapshot_row) and evaluate against that:
//! each column is loaded exactly once, so a predicate over several
//! columns can never see two different values of the same cell. The
//! snapshot is not a cross-column atomic transaction — between two
//! column loads another core may record — but every value read is one
//! that actually existed, which is all windowed statistics promise.
//!
//! The `CpHandle` mutex still guards everything *structural*: parameter
//! writes (they bump the generation counter), trigger install/evaluate
//! (latch state is read-modify-write over several fields), and DS-id row
//! lifecycle ([`ControlPlane::reset_ds`](crate::ControlPlane::reset_ds)).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pard_icn::DsId;

use crate::error::CpError;
use crate::table::ColumnDef;

/// A validated-on-use typed key for one statistics column.
///
/// Replaces the stringly `set_stat("miss_rate", ...)` lookups and the
/// raw-offset `stats_set_by_offset` pokes of the pre-cells API: resource
/// crates define `const` keys next to their schema (e.g.
/// `pard_cache::STAT_MISS_RATE`), or resolve one at setup time with
/// [`StatsCells::key`]. The key is a plain column offset under the hood
/// — the cells bounds-check it on every access and return
/// [`CpError::BadColumn`] for keys that don't fit the plane's schema, so
/// a key minted for one plane type cannot silently poke past another's
/// columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatKey(u16);

impl StatKey {
    /// A key for the column at `offset` in the plane's statistics schema.
    ///
    /// Intended for `const` schema definitions; the offset is validated
    /// against the actual schema on every access, not here.
    ///
    /// # Panics
    ///
    /// Panics (at compile time in const contexts) if `offset` exceeds the
    /// CPA `addr` register's 14-bit column field.
    pub const fn at(offset: usize) -> Self {
        assert!(
            offset < (1 << 14),
            "StatKey offset exceeds the 14-bit CPA column field"
        );
        StatKey(offset as u16)
    }

    /// The column offset this key addresses.
    pub const fn offset(self) -> usize {
        self.0 as usize
    }
}

impl From<StatKey> for usize {
    fn from(key: StatKey) -> usize {
        key.offset()
    }
}

/// Cells per cache line; rows are padded to a multiple of this so
/// concurrent recorders for different DS-ids never false-share.
const LINE_CELLS: usize = 8;

/// The sharded atomic cell array backing one control plane's statistics
/// table.
///
/// Created by [`ControlPlane::new`](crate::ControlPlane::new) from the
/// statistics schema; components reach it without the `CpHandle` mutex
/// through a [`StatsHandle`] clone. See the module docs for the memory
/// ordering contract.
#[derive(Debug)]
pub struct StatsCells {
    columns: Vec<ColumnDef>,
    rows: usize,
    /// Power-of-two row stride in cells (≥ `columns.len()`, padded to a
    /// cache line), so the DS-id → cell index math is a shift, not a
    /// multiply, and rows never straddle each other's lines.
    stride: usize,
    cells: Box<[AtomicU64]>,
}

impl StatsCells {
    /// Builds the cell array for `columns` × `rows`, every cell at its
    /// column default.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty or `rows` is zero (same contract as
    /// [`DsTable::new`](crate::DsTable::new)).
    pub fn new(columns: Vec<ColumnDef>, rows: usize) -> Self {
        assert!(
            !columns.is_empty(),
            "a statistics table needs at least one column"
        );
        assert!(rows > 0, "a statistics table needs at least one row");
        let stride = columns.len().next_power_of_two().max(LINE_CELLS);
        let cells: Box<[AtomicU64]> = (0..rows * stride)
            .map(|i| {
                let col = i % stride;
                let default = columns.get(col).map_or(0, |c| c.default);
                AtomicU64::new(default)
            })
            .collect();
        StatsCells {
            columns,
            rows,
            stride,
            cells,
        }
    }

    /// Number of DS-id rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The column schema, in offset order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Resolves a column name to a validated [`StatKey`].
    ///
    /// # Errors
    ///
    /// Returns [`CpError::UnknownColumn`] for names not in the schema.
    pub fn key(&self, name: &str) -> Result<StatKey, CpError> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .map(StatKey::at)
            .ok_or_else(|| CpError::UnknownColumn {
                table: "statistics",
                column: name.to_string(),
            })
    }

    /// Validates a raw column offset (the CPA `addr` path) into a key.
    ///
    /// # Errors
    ///
    /// Returns [`CpError::BadColumn`] for offsets beyond the schema.
    pub fn key_at(&self, offset: usize) -> Result<StatKey, CpError> {
        if offset >= self.columns.len() {
            return Err(CpError::BadColumn {
                table: "statistics",
                offset,
                width: self.columns.len(),
            });
        }
        Ok(StatKey::at(offset))
    }

    /// Resolves a column name to its offset (schema introspection; the
    /// firmware's device file tree uses this to build leaf paths).
    ///
    /// # Errors
    ///
    /// Returns [`CpError::UnknownColumn`] for names not in the schema.
    pub fn column_offset(&self, name: &str) -> Result<usize, CpError> {
        self.key(name).map(StatKey::offset)
    }

    #[inline]
    fn cell(&self, ds: DsId, key: StatKey) -> Result<&AtomicU64, CpError> {
        if ds.index() >= self.rows {
            return Err(CpError::DsOutOfRange {
                ds: ds.index(),
                rows: self.rows,
            });
        }
        let col = key.offset();
        if col >= self.columns.len() {
            return Err(CpError::BadColumn {
                table: "statistics",
                offset: col,
                width: self.columns.len(),
            });
        }
        Ok(&self.cells[ds.index() * self.stride + col])
    }

    /// Reads one cell (`Acquire`).
    ///
    /// # Errors
    ///
    /// Returns [`CpError::DsOutOfRange`] / [`CpError::BadColumn`] for
    /// rows or keys beyond this plane's table.
    #[inline]
    pub fn get(&self, ds: DsId, key: StatKey) -> Result<u64, CpError> {
        Ok(self.cell(ds, key)?.load(Ordering::Acquire))
    }

    /// Publishes one cell (`Release`) — the window-rollover write.
    ///
    /// # Errors
    ///
    /// Returns [`CpError::DsOutOfRange`] / [`CpError::BadColumn`] for
    /// rows or keys beyond this plane's table.
    #[inline]
    pub fn set(&self, ds: DsId, key: StatKey, value: u64) -> Result<(), CpError> {
        self.cell(ds, key)?.store(value, Ordering::Release);
        Ok(())
    }

    /// Accumulates into one cell (`Relaxed` wrapping add) — the per-access
    /// hot-path record.
    ///
    /// # Errors
    ///
    /// Returns [`CpError::DsOutOfRange`] / [`CpError::BadColumn`] for
    /// rows or keys beyond this plane's table.
    #[inline]
    pub fn add(&self, ds: DsId, key: StatKey, delta: u64) -> Result<(), CpError> {
        self.cell(ds, key)?.fetch_add(delta, Ordering::Relaxed);
        Ok(())
    }

    /// One acquire-consistent pass over a whole row, in schema order.
    ///
    /// Each column is loaded exactly once; evaluate multi-column
    /// predicates against the returned vector, never against repeated
    /// [`get`](Self::get) calls (a concurrent recorder could slip a new
    /// value in between them).
    ///
    /// # Errors
    ///
    /// Returns [`CpError::DsOutOfRange`] for rows beyond the table.
    pub fn snapshot_row(&self, ds: DsId) -> Result<Vec<u64>, CpError> {
        if ds.index() >= self.rows {
            return Err(CpError::DsOutOfRange {
                ds: ds.index(),
                rows: self.rows,
            });
        }
        let base = ds.index() * self.stride;
        Ok((0..self.columns.len())
            .map(|c| self.cells[base + c].load(Ordering::Acquire))
            .collect())
    }

    /// Alias for [`snapshot_row`](Self::snapshot_row), keeping the
    /// `DsTable`-era call shape (`stats().row(ds)`) working.
    ///
    /// # Errors
    ///
    /// Returns [`CpError::DsOutOfRange`] for rows beyond the table.
    pub fn row(&self, ds: DsId) -> Result<Vec<u64>, CpError> {
        self.snapshot_row(ds)
    }

    /// Resets a row to column defaults (LDom teardown).
    ///
    /// # Errors
    ///
    /// Returns [`CpError::DsOutOfRange`] for rows beyond the table.
    pub fn reset_row(&self, ds: DsId) -> Result<(), CpError> {
        if ds.index() >= self.rows {
            return Err(CpError::DsOutOfRange {
                ds: ds.index(),
                rows: self.rows,
            });
        }
        let base = ds.index() * self.stride;
        for (c, col) in self.columns.iter().enumerate() {
            self.cells[base + c].store(col.default, Ordering::Release);
        }
        Ok(())
    }
}

/// A cheap cloneable recording handle onto one plane's [`StatsCells`].
///
/// Components hold one next to their data-path state and record through
/// it without touching the `CpHandle` mutex:
///
/// ```
/// use pard_cp::{ColumnDef, ControlPlane, CpType, DsTable, StatKey};
/// use pard_icn::DsId;
///
/// const HITS: StatKey = StatKey::at(0);
///
/// let params = DsTable::new("parameter", vec![ColumnDef::new("waymask")], 8);
/// let stats = DsTable::new("statistics", vec![ColumnDef::new("hit_cnt")], 8);
/// let cp = ControlPlane::new("CACHE_CP", CpType::Cache, params, stats, 4);
/// let handle = cp.stats_handle();
///
/// handle.add(DsId::new(2), HITS, 1).unwrap();   // hot path: no lock
/// assert_eq!(cp.stats().get(DsId::new(2), HITS).unwrap(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct StatsHandle {
    cells: Arc<StatsCells>,
}

impl StatsHandle {
    pub(crate) fn new(cells: Arc<StatsCells>) -> Self {
        StatsHandle { cells }
    }

    /// The underlying cells (schema introspection and reads).
    pub fn cells(&self) -> &StatsCells {
        &self.cells
    }

    /// Resolves a column name to a validated [`StatKey`].
    ///
    /// # Errors
    ///
    /// Returns [`CpError::UnknownColumn`] for names not in the schema.
    pub fn key(&self, name: &str) -> Result<StatKey, CpError> {
        self.cells.key(name)
    }

    /// Accumulates into a cell (`Relaxed`; the hot-path record).
    ///
    /// # Errors
    ///
    /// Propagates cell range errors.
    #[inline]
    pub fn add(&self, ds: DsId, key: StatKey, delta: u64) -> Result<(), CpError> {
        self.cells.add(ds, key, delta)
    }

    /// Publishes a cell value (`Release`; the window-rollover write).
    ///
    /// # Errors
    ///
    /// Propagates cell range errors.
    #[inline]
    pub fn set(&self, ds: DsId, key: StatKey, value: u64) -> Result<(), CpError> {
        self.cells.set(ds, key, value)
    }

    /// Reads a cell (`Acquire`).
    ///
    /// # Errors
    ///
    /// Propagates cell range errors.
    #[inline]
    pub fn get(&self, ds: DsId, key: StatKey) -> Result<u64, CpError> {
        self.cells.get(ds, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells() -> StatsCells {
        StatsCells::new(
            vec![
                ColumnDef::new("hit_cnt"),
                ColumnDef::new("miss_cnt"),
                ColumnDef::with_default("quota", 100),
            ],
            8,
        )
    }

    #[test]
    fn stride_is_power_of_two_and_line_padded() {
        let c = cells();
        assert!(c.stride.is_power_of_two());
        assert!(c.stride >= LINE_CELLS);
        // A 9-column schema rounds up to 16.
        let wide = StatsCells::new((0..9).map(|_| ColumnDef::new("c")).collect(), 2);
        assert_eq!(wide.stride, 16);
    }

    #[test]
    fn defaults_apply_per_row() {
        let c = cells();
        let quota = c.key("quota").unwrap();
        for ds in 0..8u16 {
            assert_eq!(c.get(DsId::new(ds), quota).unwrap(), 100);
        }
    }

    #[test]
    fn add_set_get_round_trip() {
        let c = cells();
        let hits = c.key("hit_cnt").unwrap();
        c.add(DsId::new(3), hits, 5).unwrap();
        c.add(DsId::new(3), hits, 7).unwrap();
        assert_eq!(c.get(DsId::new(3), hits).unwrap(), 12);
        c.set(DsId::new(3), hits, 2).unwrap();
        assert_eq!(c.get(DsId::new(3), hits).unwrap(), 2);
        // Wrapping add, like the old DsTable counters.
        c.set(DsId::new(3), hits, u64::MAX).unwrap();
        c.add(DsId::new(3), hits, 1).unwrap();
        assert_eq!(c.get(DsId::new(3), hits).unwrap(), 0);
    }

    #[test]
    fn snapshot_row_follows_schema_order() {
        let c = cells();
        c.set(DsId::new(2), c.key("hit_cnt").unwrap(), 1).unwrap();
        c.set(DsId::new(2), c.key("miss_cnt").unwrap(), 2).unwrap();
        assert_eq!(c.snapshot_row(DsId::new(2)).unwrap(), vec![1, 2, 100]);
    }

    #[test]
    fn reset_row_restores_defaults() {
        let c = cells();
        let quota = c.key("quota").unwrap();
        c.set(DsId::new(2), quota, 5).unwrap();
        c.reset_row(DsId::new(2)).unwrap();
        assert_eq!(c.get(DsId::new(2), quota).unwrap(), 100);
        assert!(c.reset_row(DsId::new(9)).is_err());
    }

    #[test]
    fn range_errors() {
        let c = cells();
        let hits = c.key("hit_cnt").unwrap();
        assert!(matches!(
            c.get(DsId::new(100), hits),
            Err(CpError::DsOutOfRange { ds: 100, rows: 8 })
        ));
        assert!(matches!(
            c.key_at(99),
            Err(CpError::BadColumn {
                offset: 99,
                width: 3,
                ..
            })
        ));
        assert!(matches!(
            c.get(DsId::new(0), StatKey::at(99)),
            Err(CpError::BadColumn { .. })
        ));
        assert!(matches!(c.key("nope"), Err(CpError::UnknownColumn { .. })));
        assert!(c.snapshot_row(DsId::new(8)).is_err());
    }

    #[test]
    fn handle_clones_share_the_cells() {
        let cells = Arc::new(cells());
        let a = StatsHandle::new(Arc::clone(&cells));
        let b = a.clone();
        let hits = a.key("hit_cnt").unwrap();
        a.add(DsId::new(1), hits, 3).unwrap();
        b.add(DsId::new(1), hits, 4).unwrap();
        assert_eq!(cells.get(DsId::new(1), hits).unwrap(), 7);
    }

    #[test]
    fn key_offset_round_trips() {
        assert_eq!(StatKey::at(5).offset(), 5);
        assert_eq!(usize::from(StatKey::at(7)), 7);
    }
}
