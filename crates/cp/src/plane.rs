//! The control plane proper: three tables + interrupt line.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pard_icn::DsId;
use pard_sim::sync::{unbounded, Mutex, Receiver, Sender, TryRecvError};
use pard_sim::{audit, trace, Time};

use crate::cells::{StatsCells, StatsHandle};
use crate::error::CpError;
use crate::policy::Program;
use crate::table::DsTable;
use crate::trigger::{Trigger, TriggerTable};

/// The kind of resource a control plane is embedded in.
///
/// The single-character codes match the firmware's `type` file
/// (paper Fig. 6: cache `C`, memory `M`, I/O bridge `B`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpType {
    /// Last-level cache control plane.
    Cache,
    /// Memory-controller control plane.
    Memory,
    /// I/O-bridge control plane.
    Bridge,
    /// Disk (IDE) control plane.
    Io,
    /// Network-interface control plane.
    Nic,
}

impl CpType {
    /// The single-character type code exposed through the device file tree.
    pub fn code(self) -> char {
        match self {
            CpType::Cache => 'C',
            CpType::Memory => 'M',
            CpType::Bridge => 'B',
            CpType::Io => 'I',
            CpType::Nic => 'N',
        }
    }

    /// Encodes the code for the CPA `type` register.
    pub fn encode(self) -> u32 {
        self.code() as u32
    }
}

/// An interrupt raised by a control plane toward the PRM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpInterrupt {
    /// Index of the control-plane adaptor (CPA) that raised the interrupt.
    pub cpa: usize,
    /// DS-id whose trigger fired.
    pub ds: DsId,
    /// Trigger-table slot that fired.
    pub slot: usize,
    /// Simulated time of the firing.
    pub at: Time,
}

/// The sending half of the control-plane-network interrupt wire.
#[derive(Debug, Clone)]
pub struct InterruptLine {
    tx: Sender<CpInterrupt>,
}

impl InterruptLine {
    /// Creates a connected `(line, sink)` pair.
    pub fn channel() -> (InterruptLine, InterruptSink) {
        let (tx, rx) = unbounded();
        (InterruptLine { tx }, InterruptSink { rx })
    }

    /// Raises an interrupt. Lost interrupts (disconnected PRM) are ignored,
    /// like a wire with nothing attached.
    pub fn raise(&self, irq: CpInterrupt) {
        let _ = self.tx.send(irq);
    }
}

/// The receiving half of the interrupt wire, polled by the PRM firmware.
#[derive(Debug)]
pub struct InterruptSink {
    rx: Receiver<CpInterrupt>,
}

impl InterruptSink {
    /// Takes one pending interrupt, if any.
    pub fn try_recv(&self) -> Option<CpInterrupt> {
        match self.rx.try_recv() {
            Ok(irq) => Some(irq),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Drains all pending interrupts.
    pub fn drain(&self) -> Vec<CpInterrupt> {
        std::iter::from_fn(|| self.try_recv()).collect()
    }
}

/// A programmable control plane: the basic structure of paper §3 ②,
/// instantiated by each shared resource with its own table schemas.
///
/// # Example
///
/// ```
/// use pard_cp::{ColumnDef, CmpOp, ControlPlane, CpType, DsTable, InterruptLine, Trigger};
/// use pard_icn::DsId;
/// use pard_sim::Time;
///
/// let params = DsTable::new("parameter", vec![ColumnDef::with_default("waymask", 0xFFFF)], 8);
/// let stats = DsTable::new("statistics", vec![ColumnDef::new("miss_rate")], 8);
/// let mut cp = ControlPlane::new("CACHE_CP", CpType::Cache, params, stats, 64);
/// let (line, sink) = InterruptLine::channel();
/// cp.attach(0, line);
///
/// cp.install_trigger(0, Trigger::new(DsId::new(2), 0, CmpOp::Gt, 30)).unwrap();
/// let miss_rate = cp.stats().key("miss_rate").unwrap();
/// cp.stats().set(DsId::new(2), miss_rate, 45).unwrap();
/// cp.evaluate_triggers(DsId::new(2), Time::from_us(100));
/// let irq = sink.try_recv().unwrap();
/// assert_eq!(irq.ds, DsId::new(2));
/// assert_eq!(irq.slot, 0);
/// ```
#[derive(Debug)]
pub struct ControlPlane {
    ident: String,
    cp_type: CpType,
    cpa_index: usize,
    params: DsTable,
    stats: Arc<StatsCells>,
    triggers: TriggerTable,
    generation: Arc<AtomicU64>,
    irq: Option<InterruptLine>,
    policy: Option<Arc<Program>>,
    default_policy: Option<Arc<Program>>,
    policy_epochs: u64,
}

impl ControlPlane {
    /// Creates a control plane with the given identity and tables.
    ///
    /// The statistics `DsTable` only contributes its schema: storage is
    /// re-homed into lock-free [`StatsCells`] so the data path can record
    /// through a [`StatsHandle`] without the `CpHandle` mutex.
    pub fn new(
        ident: impl Into<String>,
        cp_type: CpType,
        params: DsTable,
        stats: DsTable,
        trigger_slots: usize,
    ) -> Self {
        let stats = StatsCells::new(stats.columns().to_vec(), stats.rows());
        ControlPlane {
            ident: ident.into(),
            cp_type,
            cpa_index: usize::MAX,
            params,
            stats: Arc::new(stats),
            triggers: TriggerTable::new(trigger_slots),
            generation: Arc::new(AtomicU64::new(0)),
            irq: None,
            policy: None,
            default_policy: None,
            policy_epochs: 0,
        }
    }

    /// Connects this plane to CPA `cpa_index` with the given interrupt line.
    pub fn attach(&mut self, cpa_index: usize, irq: InterruptLine) {
        self.cpa_index = cpa_index;
        self.irq = Some(irq);
    }

    /// The plane's identity string (e.g. `"CACHE_CP"`).
    pub fn ident(&self) -> &str {
        &self.ident
    }

    /// The plane's resource type.
    pub fn cp_type(&self) -> CpType {
        self.cp_type
    }

    /// The CPA index assigned at [`attach`](Self::attach) time.
    pub fn cpa_index(&self) -> usize {
        self.cpa_index
    }

    /// The parameter table.
    pub fn params(&self) -> &DsTable {
        &self.params
    }

    /// The statistics cells.
    ///
    /// Reads are acquire-loads and writes go straight to the atomics, so
    /// this is usable through a shared reference; multi-column consumers
    /// must take one [`StatsCells::snapshot_row`] per evaluation.
    pub fn stats(&self) -> &StatsCells {
        &self.stats
    }

    /// A cheap cloneable handle for recording statistics without the
    /// `CpHandle` mutex (the data-path hot path).
    pub fn stats_handle(&self) -> StatsHandle {
        StatsHandle::new(Arc::clone(&self.stats))
    }

    /// The trigger table.
    pub fn triggers(&self) -> &TriggerTable {
        &self.triggers
    }

    /// Mutable trigger table (firmware-side installation path).
    pub fn triggers_mut(&mut self) -> &mut TriggerTable {
        &mut self.triggers
    }

    /// Monotonic counter bumped on every parameter write.
    ///
    /// Data-path components cache parameter values and re-read them only
    /// when the generation changes, keeping the hot path lock-free in
    /// spirit (the RTL reads parameters through a dedicated pipeline port).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// A shared watch on the generation counter.
    ///
    /// Data-path components keep a clone and compare it against their
    /// cached value on each access — a single atomic load — re-reading
    /// parameters only when the PRM has reprogrammed something.
    pub fn generation_watch(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.generation)
    }

    /// Reads a parameter cell.
    ///
    /// # Errors
    ///
    /// Propagates table range errors.
    pub fn param(&self, ds: DsId, column: &str) -> Result<u64, CpError> {
        self.params.get(ds, column)
    }

    /// Writes a parameter cell and bumps the generation.
    ///
    /// # Errors
    ///
    /// Propagates table range errors.
    pub fn set_param(&mut self, ds: DsId, column: &str, value: u64) -> Result<(), CpError> {
        self.params.set(ds, column, value)?;
        self.generation.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Reads a statistics cell by column name (acquire load).
    ///
    /// For hot-path reads resolve a [`StatKey`](crate::StatKey) once and
    /// use [`StatsCells::get`]; this name-based form is for tests and
    /// firmware paths where the string lookup is off the data path.
    ///
    /// # Errors
    ///
    /// Propagates table range errors.
    pub fn stat(&self, ds: DsId, column: &str) -> Result<u64, CpError> {
        let key = self.stats.key(column)?;
        self.stats.get(ds, key)
    }

    /// Installs a trigger in `slot`.
    ///
    /// # Errors
    ///
    /// Propagates trigger-table range errors, and rejects (with
    /// [`CpError::TriggerColumnOutOfRange`]) a trigger whose
    /// `stats_column` exceeds the width of this plane's statistics table —
    /// such a comparator could never observe a driven value, so installing
    /// one is a programming error.
    pub fn install_trigger(&mut self, slot: usize, trigger: Trigger) -> Result<(), CpError> {
        let width = self.stats.columns().len();
        if trigger.stats_column >= width {
            return Err(CpError::TriggerColumnOutOfRange {
                column: trigger.stats_column,
                width,
            });
        }
        self.triggers.install(slot, trigger)
    }

    /// Evaluates all triggers watching `ds` against its current statistics
    /// row, raising one interrupt per newly-firing slot. Returns the number
    /// of interrupts raised.
    ///
    /// Fire, re-arm, and skipped-column outcomes are traced under
    /// [`TraceCat::Trigger`](pard_sim::trace::TraceCat::Trigger).
    pub fn evaluate_triggers(&mut self, ds: DsId, now: Time) -> usize {
        // One acquire-consistent snapshot per evaluation: every predicate,
        // trace record, and audit re-check below sees the same row, so a
        // concurrent lock-free recorder can never tear a multi-column
        // comparison (satellite of the cells redesign).
        let Ok(row) = self.stats.snapshot_row(ds) else {
            return 0;
        };
        let outcome = self.triggers.evaluate_detailed(ds, &row);
        if trace::enabled(trace::TraceCat::Trigger) {
            for (what, slots) in [
                ("fire", &outcome.fired),
                ("rearm", &outcome.rearmed),
                ("skip", &outcome.skipped),
            ] {
                for &slot in slots {
                    // The comparison inputs (raw column, smoothed value,
                    // baseline) make premature or missing degradation
                    // firings diagnosable from the trace alone.
                    let (observed, obs_ema, baseline) = self
                        .triggers
                        .get(slot)
                        .map(|t| {
                            (
                                row.get(t.stats_column).copied().unwrap_or(0),
                                t.obs_ema,
                                t.baseline,
                            )
                        })
                        .unwrap_or((0, 0, 0));
                    trace::emit(
                        trace::TraceCat::Trigger,
                        now,
                        ds.raw(),
                        what,
                        &[
                            ("cpa", trace::TraceVal::U(self.cpa_index as u64)),
                            ("slot", trace::TraceVal::U(slot as u64)),
                            ("observed", trace::TraceVal::U(observed)),
                            ("smoothed", trace::TraceVal::U(obs_ema)),
                            ("baseline", trace::TraceVal::U(baseline)),
                        ],
                    );
                }
            }
        }
        if audit::enabled() {
            // Trigger soundness: a slot that fired must have a predicate
            // that re-evaluates true against the very row it fired on —
            // the latch logic may only suppress refires, never invent
            // one. `predicate_holds` is mode-aware (a degradation slot
            // re-checks percent growth over its frozen baseline, which
            // the firing pass left untouched).
            for &slot in &outcome.fired {
                let holds = self.triggers.get(slot).is_some_and(|t| {
                    row.get(t.stats_column)
                        .is_some_and(|&observed| t.predicate_holds(observed))
                });
                if !holds {
                    audit::violation(
                        audit::AuditKind::Trigger,
                        now,
                        ds.raw(),
                        "fired_predicate_false",
                        &[
                            ("cpa", trace::TraceVal::U(self.cpa_index as u64)),
                            ("slot", trace::TraceVal::U(slot as u64)),
                        ],
                    );
                }
            }
        }
        let n = outcome.fired.len();
        if let Some(irq) = &self.irq {
            for slot in outcome.fired {
                irq.raise(CpInterrupt {
                    cpa: self.cpa_index,
                    ds,
                    slot,
                    at: now,
                });
            }
        }
        n
    }

    /// Compiles policy `source` against this plane's schemas without
    /// installing it.
    ///
    /// # Errors
    ///
    /// Returns [`CpError::Policy`] naming the source line and offending
    /// token on any syntax error or unknown column reference.
    pub fn compile_policy(&self, source: &str) -> Result<Program, CpError> {
        Program::parse(source, &self.params, &self.stats)
    }

    /// Compiles and installs `source` as this plane's active policy,
    /// stamping a fresh epoch and bumping the generation so data-path
    /// caches refresh their engines.
    ///
    /// Installation is atomic: on a compile error the previously active
    /// program stays in force.
    ///
    /// # Errors
    ///
    /// Propagates [`compile_policy`](Self::compile_policy) errors.
    pub fn install_policy(&mut self, source: &str) -> Result<(), CpError> {
        let prog = self.compile_policy(source)?;
        self.policy_epochs += 1;
        self.policy = Some(Arc::new(prog.with_epoch(self.policy_epochs)));
        self.generation.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Removes any installed policy, reverting to the built-in default
    /// program, and bumps the generation.
    pub fn clear_policy(&mut self) {
        if self.policy.take().is_some() {
            self.generation.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Sets the built-in default program — the resource's previously
    /// hardcoded behavior re-expressed as policy text. Called once by the
    /// owning component at construction (so the default path dogfoods the
    /// same compiler as operator-installed programs).
    ///
    /// # Errors
    ///
    /// Propagates [`compile_policy`](Self::compile_policy) errors.
    pub fn set_default_policy(&mut self, source: &str) -> Result<(), CpError> {
        let prog = self.compile_policy(source)?;
        self.policy_epochs += 1;
        self.default_policy = Some(Arc::new(prog.with_epoch(self.policy_epochs)));
        self.generation.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// The program the data path should run: the installed policy if any,
    /// else the built-in default.
    pub fn active_policy(&self) -> Option<Arc<Program>> {
        self.policy
            .as_ref()
            .or(self.default_policy.as_ref())
            .map(Arc::clone)
    }

    /// Whether an operator-installed program (not the default) is active.
    pub fn policy_installed(&self) -> bool {
        self.policy.is_some()
    }

    /// The active program's source text (empty when this plane has no
    /// policy at all) — what `/sys/policy/cpa<N>/program` renders.
    pub fn policy_source(&self) -> &str {
        self.policy
            .as_ref()
            .or(self.default_policy.as_ref())
            .map(|p| p.source())
            .unwrap_or("")
    }

    /// Resets both data tables' rows for a departing LDom.
    ///
    /// # Errors
    ///
    /// Propagates table range errors.
    pub fn reset_ds(&mut self, ds: DsId) -> Result<(), CpError> {
        self.params.reset_row(ds)?;
        self.stats.reset_row(ds)?;
        self.generation.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }
}

/// A shareable handle to a control plane.
///
/// The resource's data path and the PRM's programming interface both hold
/// one; contention is negligible because the data path only locks at
/// statistics-window boundaries or parameter-generation changes.
pub type CpHandle = Arc<Mutex<ControlPlane>>;

/// Wraps a control plane in a [`CpHandle`].
pub fn shared(cp: ControlPlane) -> CpHandle {
    Arc::new(Mutex::new(cp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ColumnDef;
    use crate::trigger::CmpOp;

    fn plane() -> ControlPlane {
        let params = DsTable::new(
            "parameter",
            vec![ColumnDef::with_default("waymask", 0xFFFF)],
            4,
        );
        let stats = DsTable::new(
            "statistics",
            vec![ColumnDef::new("miss_rate"), ColumnDef::new("capacity")],
            4,
        );
        ControlPlane::new("CACHE_CP", CpType::Cache, params, stats, 8)
    }

    #[test]
    fn generation_bumps_only_on_param_writes() {
        let mut cp = plane();
        assert_eq!(cp.generation(), 0);
        let miss_rate = cp.stats().key("miss_rate").unwrap();
        let capacity = cp.stats().key("capacity").unwrap();
        cp.stats().set(DsId::new(0), miss_rate, 10).unwrap();
        cp.stats().add(DsId::new(0), capacity, 5).unwrap();
        assert_eq!(cp.generation(), 0);
        cp.set_param(DsId::new(0), "waymask", 0x00FF).unwrap();
        assert_eq!(cp.generation(), 1);
        assert_eq!(cp.param(DsId::new(0), "waymask").unwrap(), 0x00FF);
    }

    #[test]
    fn interrupts_carry_cpa_ds_slot_time() {
        let mut cp = plane();
        let (line, sink) = InterruptLine::channel();
        cp.attach(3, line);
        cp.install_trigger(5, Trigger::new(DsId::new(1), 0, CmpOp::Ge, 30))
            .unwrap();
        let miss_rate = cp.stats().key("miss_rate").unwrap();
        cp.stats().set(DsId::new(1), miss_rate, 30).unwrap();
        let n = cp.evaluate_triggers(DsId::new(1), Time::from_ms(2));
        assert_eq!(n, 1);
        let irq = sink.try_recv().unwrap();
        assert_eq!(irq.cpa, 3);
        assert_eq!(irq.ds, DsId::new(1));
        assert_eq!(irq.slot, 5);
        assert_eq!(irq.at, Time::from_ms(2));
        assert!(sink.try_recv().is_none());
    }

    #[test]
    fn evaluation_without_interrupt_line_is_safe() {
        let mut cp = plane();
        cp.install_trigger(0, Trigger::new(DsId::new(0), 0, CmpOp::Ge, 0))
            .unwrap();
        assert_eq!(cp.evaluate_triggers(DsId::new(0), Time::ZERO), 1);
    }

    #[test]
    fn out_of_range_ds_evaluates_to_nothing() {
        let mut cp = plane();
        assert_eq!(cp.evaluate_triggers(DsId::new(100), Time::ZERO), 0);
    }

    #[test]
    fn install_rejects_columns_beyond_the_stats_table() {
        let mut cp = plane();
        // The fixture's statistics table has 2 columns; column 2 is out.
        let err = cp
            .install_trigger(0, Trigger::new(DsId::new(0), 2, CmpOp::Gt, 0))
            .unwrap_err();
        assert_eq!(
            err,
            CpError::TriggerColumnOutOfRange {
                column: 2,
                width: 2
            }
        );
        assert!(cp.triggers().get(0).is_none());
        cp.install_trigger(0, Trigger::new(DsId::new(0), 1, CmpOp::Gt, 0))
            .unwrap();
    }

    #[test]
    fn reset_ds_restores_defaults_and_bumps_generation() {
        let mut cp = plane();
        cp.set_param(DsId::new(2), "waymask", 1).unwrap();
        let capacity = cp.stats().key("capacity").unwrap();
        cp.stats().set(DsId::new(2), capacity, 9).unwrap();
        let g = cp.generation();
        cp.reset_ds(DsId::new(2)).unwrap();
        assert_eq!(cp.param(DsId::new(2), "waymask").unwrap(), 0xFFFF);
        assert_eq!(cp.stat(DsId::new(2), "capacity").unwrap(), 0);
        assert!(cp.generation() > g);
    }

    #[test]
    fn drain_collects_multiple() {
        let mut cp = plane();
        let (line, sink) = InterruptLine::channel();
        cp.attach(0, line);
        cp.install_trigger(0, Trigger::new(DsId::new(0), 0, CmpOp::Ge, 0))
            .unwrap();
        cp.install_trigger(1, Trigger::new(DsId::new(0), 1, CmpOp::Ge, 0))
            .unwrap();
        cp.evaluate_triggers(DsId::new(0), Time::ZERO);
        assert_eq!(sink.drain().len(), 2);
    }

    #[test]
    fn type_codes_match_figure6() {
        assert_eq!(CpType::Cache.code(), 'C');
        assert_eq!(CpType::Memory.code(), 'M');
        assert_eq!(CpType::Bridge.code(), 'B');
        assert_eq!(CpType::Cache.encode(), 0x43);
    }

    #[test]
    fn stats_handle_records_without_the_plane_borrow() {
        let cp = plane();
        let handle = cp.stats_handle();
        let miss_rate = handle.key("miss_rate").unwrap();
        handle.add(DsId::new(1), miss_rate, 4).unwrap();
        handle.add(DsId::new(1), miss_rate, 3).unwrap();
        assert_eq!(cp.stat(DsId::new(1), "miss_rate").unwrap(), 7);
        assert_eq!(handle.get(DsId::new(1), miss_rate).unwrap(), 7);
    }

    #[test]
    fn stat_keys_cover_name_and_offset_writes() {
        let cp = plane();
        let miss_rate = cp.stats().key("miss_rate").unwrap();
        cp.stats().set(DsId::new(0), miss_rate, 10).unwrap();
        cp.stats().add(DsId::new(0), miss_rate, 5).unwrap();
        assert_eq!(cp.stat(DsId::new(0), "miss_rate").unwrap(), 15);
        // The CPA write path resolves raw offsets through `key_at`.
        let by_offset = cp.stats().key_at(1).unwrap();
        cp.stats().set(DsId::new(0), by_offset, 9).unwrap();
        assert_eq!(cp.stat(DsId::new(0), "capacity").unwrap(), 9);
        assert!(matches!(
            cp.stats().key_at(9),
            Err(CpError::BadColumn {
                offset: 9,
                width: 2,
                ..
            })
        ));
    }

    #[test]
    fn policy_install_clear_and_default_manage_epochs_and_generation() {
        let mut cp = plane();
        assert!(cp.active_policy().is_none());
        assert_eq!(cp.policy_source(), "");

        let g = cp.generation();
        cp.set_default_policy("when all do waymask param.waymask")
            .unwrap();
        assert!(cp.generation() > g);
        assert!(!cp.policy_installed());
        let default = cp.active_policy().unwrap();
        assert_eq!(cp.policy_source(), "when all do waymask param.waymask");

        cp.install_policy("when ds == 1 do waymask 0xFF00\nwhen all do waymask param.waymask")
            .unwrap();
        assert!(cp.policy_installed());
        let installed = cp.active_policy().unwrap();
        assert!(installed.epoch() > default.epoch());

        // A bad install leaves the active program untouched.
        let err = cp
            .install_policy("when all do waymask param.nope")
            .unwrap_err();
        assert!(matches!(err, CpError::Policy { ref token, .. } if token == "nope"));
        assert_eq!(cp.active_policy().unwrap().epoch(), installed.epoch());

        cp.clear_policy();
        assert!(!cp.policy_installed());
        assert_eq!(cp.active_policy().unwrap().epoch(), default.epoch());
    }

    #[test]
    fn shared_handle_is_cloneable() {
        let h = shared(plane());
        let h2 = h.clone();
        h.lock().set_param(DsId::new(0), "waymask", 7).unwrap();
        assert_eq!(h2.lock().param(DsId::new(0), "waymask").unwrap(), 7);
    }
}
