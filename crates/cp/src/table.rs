//! DS-id-indexed tables.

use pard_icn::DsId;

use crate::error::CpError;

/// Describes one column of a [`DsTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name as it appears in the firmware's device file tree
    /// (e.g. `waymask`, `miss_rate`).
    pub name: &'static str,
    /// Default cell value for freshly created rows.
    pub default: u64,
}

impl ColumnDef {
    /// Creates a column with a zero default.
    pub const fn new(name: &'static str) -> Self {
        ColumnDef { name, default: 0 }
    }

    /// Creates a column with an explicit default.
    pub const fn with_default(name: &'static str, default: u64) -> Self {
        ColumnDef { name, default }
    }
}

/// A DS-id-indexed table of `u64` cells — the hardware structure underlying
/// both the parameter and statistics tables of every control plane.
///
/// Rows are indexed by DS-id, columns by a fixed schema chosen when the
/// resource's control plane is instantiated. The CPA programming interface
/// addresses cells as `(ds, column offset)` (Fig. 6); firmware addresses
/// them by column name through the device file tree.
///
/// # Example
///
/// ```
/// use pard_cp::{ColumnDef, DsTable};
/// use pard_icn::DsId;
///
/// let mut t = DsTable::new(
///     "parameter",
///     vec![ColumnDef::with_default("waymask", 0xFFFF), ColumnDef::new("priority")],
///     4,
/// );
/// t.set(DsId::new(2), "waymask", 0x00FF).unwrap();
/// assert_eq!(t.get(DsId::new(2), "waymask").unwrap(), 0x00FF);
/// assert_eq!(t.get(DsId::new(1), "waymask").unwrap(), 0xFFFF);
/// ```
#[derive(Debug, Clone)]
pub struct DsTable {
    name: &'static str,
    columns: Vec<ColumnDef>,
    cells: Vec<u64>,
    rows: usize,
}

impl DsTable {
    /// Creates a table with the given schema and row count.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty or `rows` is zero.
    pub fn new(name: &'static str, columns: Vec<ColumnDef>, rows: usize) -> Self {
        assert!(!columns.is_empty(), "a DsTable needs at least one column");
        assert!(rows > 0, "a DsTable needs at least one row");
        let mut cells = Vec::with_capacity(columns.len() * rows);
        for _ in 0..rows {
            cells.extend(columns.iter().map(|c| c.default));
        }
        DsTable {
            name,
            columns,
            cells,
            rows,
        }
    }

    /// The table's name (`"parameter"` or `"statistics"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of rows (maximum DS-ids this control plane supports).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The column schema.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Resolves a column name to its offset.
    ///
    /// # Errors
    ///
    /// Returns [`CpError::UnknownColumn`] for names not in the schema.
    pub fn column_offset(&self, name: &str) -> Result<usize, CpError> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| CpError::UnknownColumn {
                table: self.name,
                column: name.to_string(),
            })
    }

    /// Like [`column_offset`](Self::column_offset), but panics on unknown
    /// names.
    ///
    /// For component config caches resolving their own schema's columns at
    /// construction: a missing column there is a wiring bug, and a panic
    /// beats the old `unwrap_or(0)` reads that silently degraded a tenant
    /// to priority 0 / disabled.
    ///
    /// # Panics
    ///
    /// Panics with the table and column name if `name` is not in the schema.
    pub fn must_offset(&self, name: &str) -> usize {
        match self.column_offset(name) {
            Ok(off) => off,
            Err(e) => panic!(
                "{} table is missing required column {name:?}: {e}",
                self.name
            ),
        }
    }

    /// The column name at `offset` (the CPA `addr` path in reverse).
    ///
    /// # Errors
    ///
    /// Returns [`CpError::BadColumn`] for offsets beyond the schema.
    pub fn name_at(&self, offset: usize) -> Result<&'static str, CpError> {
        self.columns
            .get(offset)
            .map(|c| c.name)
            .ok_or(CpError::BadColumn {
                table: self.name,
                offset,
                width: self.columns.len(),
            })
    }

    fn cell_index(&self, ds: DsId, col: usize) -> Result<usize, CpError> {
        if ds.index() >= self.rows {
            return Err(CpError::DsOutOfRange {
                ds: ds.index(),
                rows: self.rows,
            });
        }
        if col >= self.columns.len() {
            return Err(CpError::BadColumn {
                table: self.name,
                offset: col,
                width: self.columns.len(),
            });
        }
        Ok(ds.index() * self.columns.len() + col)
    }

    /// Reads a cell by column name.
    ///
    /// # Errors
    ///
    /// Returns an error if the DS-id or column is out of range.
    pub fn get(&self, ds: DsId, column: &str) -> Result<u64, CpError> {
        let col = self.column_offset(column)?;
        self.get_by_offset(ds, col)
    }

    /// Reads a cell by column offset (the CPA path).
    ///
    /// # Errors
    ///
    /// Returns an error if the DS-id or offset is out of range.
    pub fn get_by_offset(&self, ds: DsId, col: usize) -> Result<u64, CpError> {
        Ok(self.cells[self.cell_index(ds, col)?])
    }

    /// Writes a cell by column name.
    ///
    /// # Errors
    ///
    /// Returns an error if the DS-id or column is out of range.
    pub fn set(&mut self, ds: DsId, column: &str, value: u64) -> Result<(), CpError> {
        let col = self.column_offset(column)?;
        self.set_by_offset(ds, col, value)
    }

    /// Writes a cell by column offset (the CPA path).
    ///
    /// # Errors
    ///
    /// Returns an error if the DS-id or offset is out of range.
    pub fn set_by_offset(&mut self, ds: DsId, col: usize, value: u64) -> Result<(), CpError> {
        let idx = self.cell_index(ds, col)?;
        self.cells[idx] = value;
        Ok(())
    }

    /// Adds `delta` to a cell by column name (statistics accumulation).
    ///
    /// # Errors
    ///
    /// Returns an error if the DS-id or column is out of range.
    pub fn add(&mut self, ds: DsId, column: &str, delta: u64) -> Result<(), CpError> {
        let col = self.column_offset(column)?;
        let idx = self.cell_index(ds, col)?;
        self.cells[idx] = self.cells[idx].wrapping_add(delta);
        Ok(())
    }

    /// A whole row as a slice, ordered by the column schema.
    ///
    /// # Errors
    ///
    /// Returns an error if the DS-id is out of range.
    pub fn row(&self, ds: DsId) -> Result<&[u64], CpError> {
        if ds.index() >= self.rows {
            return Err(CpError::DsOutOfRange {
                ds: ds.index(),
                rows: self.rows,
            });
        }
        let w = self.columns.len();
        Ok(&self.cells[ds.index() * w..(ds.index() + 1) * w])
    }

    /// Resets a row to column defaults (LDom teardown).
    ///
    /// # Errors
    ///
    /// Returns an error if the DS-id is out of range.
    pub fn reset_row(&mut self, ds: DsId) -> Result<(), CpError> {
        if ds.index() >= self.rows {
            return Err(CpError::DsOutOfRange {
                ds: ds.index(),
                rows: self.rows,
            });
        }
        let w = self.columns.len();
        for (i, c) in self.columns.iter().enumerate() {
            self.cells[ds.index() * w + i] = c.default;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> DsTable {
        DsTable::new(
            "statistics",
            vec![
                ColumnDef::new("hit_cnt"),
                ColumnDef::new("miss_cnt"),
                ColumnDef::with_default("quota", 100),
            ],
            8,
        )
    }

    #[test]
    fn defaults_apply_per_row() {
        let t = table();
        for ds in 0..8u16 {
            assert_eq!(t.get(DsId::new(ds), "quota").unwrap(), 100);
            assert_eq!(t.get(DsId::new(ds), "hit_cnt").unwrap(), 0);
        }
    }

    #[test]
    fn set_get_by_name_and_offset_agree() {
        let mut t = table();
        t.set(DsId::new(3), "miss_cnt", 42).unwrap();
        let off = t.column_offset("miss_cnt").unwrap();
        assert_eq!(t.get_by_offset(DsId::new(3), off).unwrap(), 42);
        t.set_by_offset(DsId::new(3), off, 43).unwrap();
        assert_eq!(t.get(DsId::new(3), "miss_cnt").unwrap(), 43);
    }

    #[test]
    fn add_accumulates_and_wraps() {
        let mut t = table();
        t.add(DsId::new(1), "hit_cnt", 5).unwrap();
        t.add(DsId::new(1), "hit_cnt", 7).unwrap();
        assert_eq!(t.get(DsId::new(1), "hit_cnt").unwrap(), 12);
        t.set(DsId::new(1), "hit_cnt", u64::MAX).unwrap();
        t.add(DsId::new(1), "hit_cnt", 1).unwrap();
        assert_eq!(t.get(DsId::new(1), "hit_cnt").unwrap(), 0);
    }

    #[test]
    fn row_slice_follows_schema_order() {
        let mut t = table();
        t.set(DsId::new(2), "hit_cnt", 1).unwrap();
        t.set(DsId::new(2), "miss_cnt", 2).unwrap();
        assert_eq!(t.row(DsId::new(2)).unwrap(), &[1, 2, 100]);
    }

    #[test]
    fn reset_row_restores_defaults() {
        let mut t = table();
        t.set(DsId::new(2), "quota", 5).unwrap();
        t.reset_row(DsId::new(2)).unwrap();
        assert_eq!(t.get(DsId::new(2), "quota").unwrap(), 100);
    }

    #[test]
    fn errors_for_bad_access() {
        let mut t = table();
        assert!(matches!(
            t.get(DsId::new(100), "quota"),
            Err(CpError::DsOutOfRange { ds: 100, rows: 8 })
        ));
        assert!(matches!(
            t.get(DsId::new(0), "nope"),
            Err(CpError::UnknownColumn { .. })
        ));
        assert!(matches!(
            t.get_by_offset(DsId::new(0), 99),
            Err(CpError::BadColumn {
                offset: 99,
                width: 3,
                ..
            })
        ));
        assert_eq!(t.name_at(1).unwrap(), "miss_cnt");
        assert!(matches!(t.name_at(3), Err(CpError::BadColumn { .. })));
        assert!(t.row(DsId::new(9)).is_err());
        assert!(t.reset_row(DsId::new(9)).is_err());
        assert!(t.set(DsId::new(9), "quota", 0).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_schema_panics() {
        let _ = DsTable::new("x", vec![], 1);
    }
}
