//! The unified per-DS-id metrics registry.
//!
//! Every control plane registered with the firmware is also registered
//! here; [`MetricsRegistry::snapshot`] walks each plane's statistics
//! cells and collects the non-zero rows into a [`MetricsSnapshot`] — the
//! machine-wide per-DS-id observability view the paper's management
//! interface implies but scatters across `/sys/cpa/cpaN/...` leaves.
//! The firmware exports the snapshot through the device file tree as
//! `/sys/stats/snapshot` (a JSON document), and experiment harnesses can
//! dump it at run end via `PARD_METRICS`.
//!
//! Registration caches each plane's immutable metadata (ident, type,
//! column schema) plus a [`StatsHandle`], so taking a snapshot never
//! locks a `CpHandle`: every row is one acquire-consistent
//! [`snapshot_row`](pard_cp::StatsCells::snapshot_row) over the same
//! lock-free cells the data path records into.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pard_cp::{CpHandle, StatsHandle};
use pard_icn::DsId;
use pard_sim::sync::Mutex;
use pard_sim::trace::TraceVal;
use pard_sim::{audit, Time};

/// Register-time cache of one plane's snapshot inputs.
struct RegisteredPlane {
    cpa: usize,
    ident: String,
    cp_type: char,
    columns: Vec<&'static str>,
    stats: StatsHandle,
}

/// A shareable registry of every control plane on the machine.
///
/// Cloning is cheap (the plane list is behind an `Arc`); the firmware
/// holds one clone and the `/sys/stats/snapshot` file hook another.
#[derive(Clone)]
pub struct MetricsRegistry {
    planes: Arc<Mutex<Vec<RegisteredPlane>>>,
    /// Last firmware time, in [`Time`] units; lets detached holders (the
    /// file-tree hook, the server's exit dump) stamp snapshots.
    clock: Arc<AtomicU64>,
    /// `taken_at` of the most recent snapshot, in [`Time`] units; only
    /// consulted when the invariant auditor is on (snapshots of one
    /// registry must never move backwards in firmware time).
    last_snapshot: Arc<AtomicU64>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            planes: Arc::new(Mutex::new(Vec::new())),
            clock: Arc::new(AtomicU64::new(0)),
            last_snapshot: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Advances the registry's clock (called from the firmware tick).
    pub fn set_now(&self, now: Time) {
        self.clock.store(now.units(), Ordering::Relaxed);
    }

    /// The last time recorded via [`MetricsRegistry::set_now`].
    pub fn now(&self) -> Time {
        Time::from_units(self.clock.load(Ordering::Relaxed))
    }

    /// Snapshot stamped with the registry's own clock.
    pub fn snapshot_now(&self) -> MetricsSnapshot {
        self.snapshot(self.now())
    }

    /// Registers control plane `plane` mounted as CPA index `cpa`.
    ///
    /// Takes the plane lock once, here, to cache its identity and grab a
    /// [`StatsHandle`]; snapshots never lock the plane again.
    pub fn register(&self, cpa: usize, plane: CpHandle) {
        let entry = {
            let guard = plane.lock();
            RegisteredPlane {
                cpa,
                ident: guard.ident().to_string(),
                cp_type: guard.cp_type().code(),
                columns: guard.stats().columns().iter().map(|c| c.name).collect(),
                stats: guard.stats_handle(),
            }
        };
        self.planes.lock().push(entry);
    }

    /// Number of registered planes.
    pub fn len(&self) -> usize {
        self.planes.lock().len()
    }

    /// Whether no planes are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Walks every registered plane's statistics table and returns the
    /// non-zero rows, stamped with `now`.
    pub fn snapshot(&self, now: Time) -> MetricsSnapshot {
        if audit::enabled() {
            let prev = self.last_snapshot.swap(now.units(), Ordering::Relaxed);
            if now.units() < prev {
                audit::violation(
                    audit::AuditKind::Clock,
                    now,
                    u16::MAX,
                    "snapshot_regression",
                    &[("prev_units", TraceVal::U(prev))],
                );
            }
        }
        let planes = self.planes.lock();
        let mut out = Vec::with_capacity(planes.len());
        for entry in planes.iter() {
            let cells = entry.stats.cells();
            let mut rows = Vec::new();
            for i in 0..cells.rows() {
                let ds = DsId::new(i as u16);
                let Ok(row) = cells.snapshot_row(ds) else {
                    continue;
                };
                if row.iter().all(|&v| v == 0) {
                    continue;
                }
                rows.push(DsRow {
                    ds: ds.raw(),
                    values: row,
                });
            }
            out.push(PlaneMetrics {
                cpa: entry.cpa,
                ident: entry.ident.clone(),
                cp_type: entry.cp_type,
                columns: entry.columns.clone(),
                rows,
            });
        }
        MetricsSnapshot {
            taken_at: now,
            planes: out,
        }
    }
}

/// One control plane's statistics at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaneMetrics {
    /// CPA index the plane is mounted at (`/sys/cpa/cpaN`).
    pub cpa: usize,
    /// The plane's identification string (e.g. `"CACHE_CP"`).
    pub ident: String,
    /// The plane's type code (e.g. `'C'`, `'M'`, `'I'`).
    pub cp_type: char,
    /// Statistics-column names, in table order.
    pub columns: Vec<&'static str>,
    /// Rows with at least one non-zero statistic, in DS-id order.
    pub rows: Vec<DsRow>,
}

/// One DS-id's statistics row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsRow {
    /// The DS-id.
    pub ds: u16,
    /// Cell values, parallel to [`PlaneMetrics::columns`].
    pub values: Vec<u64>,
}

/// A machine-wide per-DS-id statistics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Firmware time the snapshot was taken.
    pub taken_at: Time,
    /// Per-plane statistics, in CPA-index order.
    pub planes: Vec<PlaneMetrics>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a deterministic JSON document.
    ///
    /// Key order is fixed (insertion order mirrors the struct layout) so
    /// two snapshots of identical state render byte-identically.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"taken_at_ns\": {},", self.taken_at.as_ns());
        s.push_str("  \"planes\": [");
        for (pi, p) in self.planes.iter().enumerate() {
            if pi > 0 {
                s.push(',');
            }
            s.push_str("\n    {\n");
            let _ = writeln!(s, "      \"cpa\": {},", p.cpa);
            let _ = writeln!(s, "      \"ident\": \"{}\",", p.ident);
            let _ = writeln!(s, "      \"type\": \"{}\",", p.cp_type);
            let cols: Vec<String> = p.columns.iter().map(|c| format!("\"{c}\"")).collect();
            let _ = writeln!(s, "      \"columns\": [{}],", cols.join(", "));
            s.push_str("      \"rows\": [");
            for (ri, r) in p.rows.iter().enumerate() {
                if ri > 0 {
                    s.push(',');
                }
                let vals: Vec<String> = r.values.iter().map(u64::to_string).collect();
                let _ = write!(
                    s,
                    "\n        {{\"ds\": {}, \"values\": [{}]}}",
                    r.ds,
                    vals.join(", ")
                );
            }
            if !p.rows.is_empty() {
                s.push_str("\n      ");
            }
            s.push_str("]\n    }");
        }
        if !self.planes.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}");
        s
    }

    /// Total of column `column` summed across every row of every plane
    /// whose ident is `ident` (test/analysis convenience).
    pub fn column_total(&self, ident: &str, column: &str) -> u64 {
        self.planes
            .iter()
            .filter(|p| p.ident == ident)
            .flat_map(|p| {
                let idx = p.columns.iter().position(|c| *c == column);
                p.rows
                    .iter()
                    .filter_map(move |r| idx.and_then(|i| r.values.get(i)).copied())
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pard_cp::{shared, ColumnDef, ControlPlane, CpType, DsTable};

    fn plane() -> CpHandle {
        let params = DsTable::new("parameter", vec![ColumnDef::new("enable")], 4);
        let stats = DsTable::new(
            "statistics",
            vec![ColumnDef::new("hits"), ColumnDef::new("misses")],
            4,
        );
        shared(ControlPlane::new(
            "TEST_CP",
            CpType::Cache,
            params,
            stats,
            4,
        ))
    }

    #[test]
    fn snapshot_collects_only_nonzero_rows() {
        let reg = MetricsRegistry::new();
        let cp = plane();
        reg.register(0, cp.clone());
        let stats = cp.lock().stats_handle();
        let hits = stats.key("hits").unwrap();
        let misses = stats.key("misses").unwrap();
        stats.set(DsId::new(1), hits, 10).unwrap();
        stats.set(DsId::new(3), misses, 7).unwrap();

        let snap = reg.snapshot(Time::from_us(2));
        assert_eq!(snap.planes.len(), 1);
        let p = &snap.planes[0];
        assert_eq!(p.ident, "TEST_CP");
        assert_eq!(p.cp_type, 'C');
        assert_eq!(p.columns, vec!["hits", "misses"]);
        assert_eq!(
            p.rows,
            vec![
                DsRow {
                    ds: 1,
                    values: vec![10, 0]
                },
                DsRow {
                    ds: 3,
                    values: vec![0, 7]
                },
            ]
        );
        assert_eq!(snap.column_total("TEST_CP", "hits"), 10);
        assert_eq!(snap.column_total("TEST_CP", "misses"), 7);
        assert_eq!(snap.column_total("TEST_CP", "absent"), 0);
        assert_eq!(snap.column_total("OTHER", "hits"), 0);
    }

    #[test]
    fn json_rendering_is_deterministic_and_parseable_shape() {
        let reg = MetricsRegistry::new();
        let cp = plane();
        reg.register(2, cp.clone());
        let stats = cp.lock().stats_handle();
        stats
            .set(DsId::new(0), stats.key("hits").unwrap(), 1)
            .unwrap();

        let a = reg.snapshot(Time::from_ns(5)).to_json();
        let b = reg.snapshot(Time::from_ns(5)).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"taken_at_ns\": 5"));
        assert!(a.contains("\"cpa\": 2"));
        assert!(a.contains("\"ident\": \"TEST_CP\""));
        assert!(a.contains("{\"ds\": 0, \"values\": [1, 0]}"));
    }

    #[test]
    fn empty_registry_renders_empty_list() {
        let reg = MetricsRegistry::new();
        let json = reg.snapshot(Time::ZERO).to_json();
        assert!(json.contains("\"planes\": []"));
    }
}
