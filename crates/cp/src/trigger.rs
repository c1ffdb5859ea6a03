//! The trigger table: hardware performance triggers.

use pard_icn::DsId;

use crate::error::CpError;

/// Comparison operator of a trigger condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
}

impl CmpOp {
    /// Applies the operator.
    #[inline]
    pub fn eval(self, lhs: u64, rhs: u64) -> bool {
        match self {
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }

    /// Encodes the operator for table storage / the CPA interface.
    pub fn encode(self) -> u64 {
        match self {
            CmpOp::Gt => 0,
            CmpOp::Ge => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Eq => 4,
            CmpOp::Ne => 5,
        }
    }

    /// Decodes a table-stored operator.
    ///
    /// # Errors
    ///
    /// Returns [`CpError::BadCommand`] for undefined encodings.
    pub fn decode(raw: u64) -> Result<Self, CpError> {
        Ok(match raw {
            0 => CmpOp::Gt,
            1 => CmpOp::Ge,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Eq,
            5 => CmpOp::Ne,
            other => return Err(CpError::BadCommand(other as u32)),
        })
    }

    /// The shell-style mnemonic used by the `pardtrigger` command
    /// (`gt`, `ge`, `lt`, `le`, `eq`, `ne`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
        }
    }

    /// Parses a shell-style mnemonic.
    ///
    /// # Errors
    ///
    /// Returns [`CpError::UnknownColumn`] (reused as a generic parse error)
    /// for unknown mnemonics.
    pub fn from_mnemonic(s: &str) -> Result<Self, CpError> {
        Ok(match s {
            "gt" => CmpOp::Gt,
            "ge" => CmpOp::Ge,
            "lt" => CmpOp::Lt,
            "le" => CmpOp::Le,
            "eq" => CmpOp::Eq,
            "ne" => CmpOp::Ne,
            other => {
                return Err(CpError::UnknownColumn {
                    table: "trigger",
                    column: other.to_string(),
                })
            }
        })
    }
}

/// How a trigger interprets the monitored statistics column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TriggerMode {
    /// Compare the column's current value against the threshold directly
    /// (the original trigger semantics).
    #[default]
    Level,
    /// Latency-degradation comparison: the slot smooths the column with a
    /// fast EMA (1/2 gain, so a single noisy window of a small integer
    /// latency column cannot swing it) and tracks a slow healthy baseline
    /// (1/8-gain EMA updated only while the condition is false, so the
    /// baseline never chases a degraded value), then compares the percent
    /// growth of the smoothed value over the baseline against the
    /// threshold. A threshold of `50` with [`CmpOp::Ge`] reads "fire when
    /// the column is sustained ≥ 50 % worse than its own recent history"
    /// — the SLA-breach detector the fault-recovery experiments program
    /// on `avg_qlat`.
    DegradationPct,
}

impl TriggerMode {
    /// Encodes the mode for table storage / the CPA interface.
    pub fn encode(self) -> u64 {
        match self {
            TriggerMode::Level => 0,
            TriggerMode::DegradationPct => 1,
        }
    }

    /// Decodes a table-stored mode.
    ///
    /// # Errors
    ///
    /// Returns [`CpError::BadCommand`] for undefined encodings.
    pub fn decode(raw: u64) -> Result<Self, CpError> {
        Ok(match raw {
            0 => TriggerMode::Level,
            1 => TriggerMode::DegradationPct,
            other => return Err(CpError::BadCommand(other as u32)),
        })
    }
}

/// One installed trigger: "when `stats[ds][column] ⋄ value`, raise an
/// interrupt naming this slot".
///
/// Triggers are level-latched: a trigger fires once when its condition
/// becomes true and re-arms only after the condition is observed false
/// again (or the firmware rewrites the slot). This prevents interrupt
/// storms while a condition persists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trigger {
    /// The DS-id whose statistics row is monitored.
    pub ds: DsId,
    /// Offset of the monitored column in the statistics table.
    pub stats_column: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Comparison threshold (a raw value in [`TriggerMode::Level`], a
    /// percentage in [`TriggerMode::DegradationPct`]).
    pub value: u64,
    /// Whether the trigger participates in evaluation.
    pub enabled: bool,
    /// Internal latch; `true` after firing until the condition clears.
    pub latched: bool,
    /// How the monitored column is interpreted.
    pub mode: TriggerMode,
    /// Self-tracked healthy baseline for [`TriggerMode::DegradationPct`];
    /// `0` until the first non-zero observation seeds it.
    pub baseline: u64,
    /// Fast EMA of the observed column for
    /// [`TriggerMode::DegradationPct`]; `0` until the first non-zero
    /// observation.
    pub obs_ema: u64,
    /// Absolute floor for [`TriggerMode::DegradationPct`]: the smoothed
    /// observation must also reach this value before the slot may fire.
    /// Percent growth over a tiny baseline (a column idling at 1–2
    /// counts) is noise, not degradation; the floor anchors the relative
    /// comparison to a magnitude that matters. `0` disables the floor.
    pub floor: u64,
}

impl Trigger {
    /// Creates an enabled, unlatched level trigger.
    pub fn new(ds: DsId, stats_column: usize, op: CmpOp, value: u64) -> Self {
        Trigger {
            ds,
            stats_column,
            op,
            value,
            enabled: true,
            latched: false,
            mode: TriggerMode::Level,
            baseline: 0,
            obs_ema: 0,
            floor: 0,
        }
    }

    /// Creates an enabled, unlatched latency-degradation trigger that
    /// fires when the column grows at least `pct` percent over its
    /// self-tracked baseline.
    pub fn degradation(ds: DsId, stats_column: usize, pct: u64) -> Self {
        Trigger {
            ds,
            stats_column,
            op: CmpOp::Ge,
            value: pct,
            enabled: true,
            latched: false,
            mode: TriggerMode::DegradationPct,
            baseline: 0,
            obs_ema: 0,
            floor: 0,
        }
    }

    /// Sets the degradation floor (builder style): the smoothed
    /// observation must reach `floor` before the slot may fire.
    #[must_use]
    pub fn with_floor(mut self, floor: u64) -> Self {
        self.floor = floor;
        self
    }

    /// Re-evaluates the predicate against `observed` without touching
    /// latch, baseline, or smoothing state. Used by the evaluation pass
    /// and by the audit layer's firing-soundness re-check (which must
    /// agree with it, mode included). In [`TriggerMode::DegradationPct`]
    /// the smoothed observation (`obs_ema`) is authoritative, not the raw
    /// `observed` value — the re-check after an evaluation pass therefore
    /// reads the same state the pass fired on.
    pub fn predicate_holds(&self, observed: u64) -> bool {
        match self.mode {
            TriggerMode::Level => self.op.eval(observed, self.value),
            TriggerMode::DegradationPct => {
                if self.obs_ema == 0 || self.baseline == 0 || self.obs_ema < self.floor {
                    return false;
                }
                let growth_pct = self
                    .obs_ema
                    .saturating_mul(100)
                    .checked_div(self.baseline)
                    .unwrap_or(0)
                    .saturating_sub(100);
                self.op.eval(growth_pct, self.value)
            }
        }
    }
}

/// The trigger table: a fixed number of trigger slots, as synthesised in
/// the RTL (the paper evaluates 16-, 32- and 64-entry trigger tables).
///
/// # Example
///
/// ```
/// use pard_cp::{CmpOp, Trigger, TriggerTable};
/// use pard_icn::DsId;
///
/// let mut tt = TriggerTable::new(64);
/// tt.install(0, Trigger::new(DsId::new(2), 0, CmpOp::Gt, 30)).unwrap();
/// // stats row for ds2 has column0 = 45 -> fires slot 0
/// let fired = tt.evaluate(DsId::new(2), &[45]);
/// assert_eq!(fired, vec![0]);
/// // Still true: latched, no refire.
/// assert!(tt.evaluate(DsId::new(2), &[45]).is_empty());
/// // Condition clears, then fires again.
/// assert!(tt.evaluate(DsId::new(2), &[10]).is_empty());
/// assert_eq!(tt.evaluate(DsId::new(2), &[99]), vec![0]);
/// ```
#[derive(Debug, Clone)]
pub struct TriggerTable {
    slots: Vec<Option<Trigger>>,
}

impl TriggerTable {
    /// Creates a table with `slots` empty slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "trigger table needs at least one slot");
        TriggerTable {
            slots: vec![None; slots],
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Installs `trigger` in `slot`, replacing any previous occupant.
    ///
    /// # Errors
    ///
    /// Returns [`CpError::TriggerSlotOutOfRange`] if `slot` is out of range.
    pub fn install(&mut self, slot: usize, trigger: Trigger) -> Result<(), CpError> {
        let len = self.slots.len();
        let cell = self
            .slots
            .get_mut(slot)
            .ok_or(CpError::TriggerSlotOutOfRange { slot, slots: len })?;
        *cell = Some(trigger);
        Ok(())
    }

    /// Clears `slot`.
    ///
    /// # Errors
    ///
    /// Returns [`CpError::TriggerSlotOutOfRange`] if `slot` is out of range.
    pub fn clear(&mut self, slot: usize) -> Result<(), CpError> {
        let len = self.slots.len();
        let cell = self
            .slots
            .get_mut(slot)
            .ok_or(CpError::TriggerSlotOutOfRange { slot, slots: len })?;
        *cell = None;
        Ok(())
    }

    /// The trigger in `slot`, if any.
    pub fn get(&self, slot: usize) -> Option<&Trigger> {
        self.slots.get(slot).and_then(Option::as_ref)
    }

    /// Installed `(slot, trigger)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Trigger)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (i, t)))
    }

    /// Reads a raw trigger-row field through the CPA programming path.
    ///
    /// Field offsets: `0` = DS-id, `1` = statistics column, `2` = operator
    /// encoding, `3` = threshold value, `4` = enabled, `5` = latched,
    /// `6` = mode encoding ([`TriggerMode`]), `7` = degradation baseline,
    /// `8` = degradation floor. An empty slot reads as all-zeroes with
    /// `enabled = 0`.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range slots or fields.
    pub fn get_field(&self, slot: usize, field: usize) -> Result<u64, CpError> {
        let len = self.slots.len();
        let cell = self
            .slots
            .get(slot)
            .ok_or(CpError::TriggerSlotOutOfRange { slot, slots: len })?;
        let t = match cell {
            Some(t) => *t,
            None => Trigger {
                ds: DsId::DEFAULT,
                stats_column: 0,
                op: CmpOp::Gt,
                value: 0,
                enabled: false,
                latched: false,
                mode: TriggerMode::Level,
                baseline: 0,
                obs_ema: 0,
                floor: 0,
            },
        };
        Ok(match field {
            0 => u64::from(t.ds.raw()),
            1 => t.stats_column as u64,
            2 => t.op.encode(),
            3 => t.value,
            4 => u64::from(t.enabled),
            5 => u64::from(t.latched),
            6 => t.mode.encode(),
            7 => t.baseline,
            8 => t.floor,
            other => {
                return Err(CpError::UnknownColumn {
                    table: "trigger",
                    column: format!("field {other}"),
                })
            }
        })
    }

    /// Writes a raw trigger-row field through the CPA programming path.
    ///
    /// Writing to an empty slot materialises a disabled trigger first; the
    /// `pardtrigger` command programs fields 0–3 and enables the slot last.
    /// Writing `0` to the `latched` field re-arms a fired trigger.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range slots/fields or an undefined
    /// operator encoding.
    pub fn set_field(&mut self, slot: usize, field: usize, value: u64) -> Result<(), CpError> {
        let len = self.slots.len();
        let cell = self
            .slots
            .get_mut(slot)
            .ok_or(CpError::TriggerSlotOutOfRange { slot, slots: len })?;
        let t = cell.get_or_insert(Trigger {
            ds: DsId::DEFAULT,
            stats_column: 0,
            op: CmpOp::Gt,
            value: 0,
            enabled: false,
            latched: false,
            mode: TriggerMode::Level,
            baseline: 0,
            obs_ema: 0,
            floor: 0,
        });
        match field {
            0 => t.ds = DsId::new(value as u16),
            1 => t.stats_column = value as usize,
            2 => t.op = CmpOp::decode(value)?,
            3 => t.value = value,
            4 => t.enabled = value != 0,
            5 => t.latched = value != 0,
            6 => {
                t.mode = TriggerMode::decode(value)?;
                // A reprogrammed interpretation restarts baseline and
                // smoothing state from the next observation.
                t.baseline = 0;
                t.obs_ema = 0;
            }
            7 => t.baseline = value,
            8 => t.floor = value,
            other => {
                return Err(CpError::UnknownColumn {
                    table: "trigger",
                    column: format!("field {other}"),
                })
            }
        }
        Ok(())
    }

    /// Evaluates all triggers watching `ds` against its statistics row,
    /// returning the slots that fire (become true while unlatched).
    ///
    /// Conditions referencing columns beyond `stats_row` are **skipped**:
    /// the comparator has no driven value to observe, so the slot neither
    /// fires nor re-arms. (Earlier revisions read such columns as 0, which
    /// made `Eq 0` / `Lt` triggers fire spuriously.) See
    /// [`evaluate_detailed`](TriggerTable::evaluate_detailed) for the full
    /// per-slot outcome.
    pub fn evaluate(&mut self, ds: DsId, stats_row: &[u64]) -> Vec<usize> {
        self.evaluate_detailed(ds, stats_row).fired
    }

    /// Evaluates all triggers watching `ds`, reporting every slot outcome.
    ///
    /// * `fired` — the condition became true while the slot was unlatched;
    ///   an interrupt should be raised for each of these.
    /// * `rearmed` — a previously latched slot observed its condition false
    ///   and is armed again.
    /// * `skipped` — the slot references a statistics column beyond the
    ///   supplied row, so it was not evaluated and its latch is untouched.
    pub fn evaluate_detailed(&mut self, ds: DsId, stats_row: &[u64]) -> EvalOutcome {
        let mut outcome = EvalOutcome::default();
        for (slot, t) in self.slots.iter_mut().enumerate() {
            let Some(t) = t else { continue };
            if !t.enabled || t.ds != ds {
                continue;
            }
            let Some(observed) = stats_row.get(t.stats_column).copied() else {
                outcome.skipped.push(slot);
                continue;
            };
            let cond = match t.mode {
                TriggerMode::Level => t.op.eval(observed, t.value),
                TriggerMode::DegradationPct => {
                    // Zero observations (idle windows) neither seed nor
                    // erode the baseline: an idle span must not make the
                    // next healthy window look like a degradation.
                    if observed == 0 {
                        false
                    } else {
                        // Fast smoothing first (EMA, 1/2 gain): per-window
                        // latency columns are small noisy integers, and a
                        // single outlier window must not fire the slot; a
                        // sustained shift dominates within a few windows.
                        t.obs_ema = if t.obs_ema == 0 {
                            observed
                        } else {
                            ((t.obs_ema + observed) / 2).max(1)
                        };
                        if t.baseline == 0 {
                            t.baseline = t.obs_ema;
                            false
                        } else {
                            let cond = t.predicate_holds(observed);
                            if !cond {
                                // Track healthy drift only (EMA, 1/8
                                // gain): the baseline never chases the
                                // degraded value, so the slot keeps
                                // firing for the whole episode.
                                t.baseline = ((t.baseline * 7 + t.obs_ema) / 8).max(1);
                            }
                            cond
                        }
                    }
                }
            };
            if cond && !t.latched {
                t.latched = true;
                outcome.fired.push(slot);
            } else if !cond {
                if t.latched {
                    outcome.rearmed.push(slot);
                }
                t.latched = false;
            }
        }
        outcome
    }
}

/// Per-slot result of one [`TriggerTable::evaluate_detailed`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalOutcome {
    /// Slots whose condition became true while unlatched.
    pub fired: Vec<usize>,
    /// Previously latched slots whose condition was observed false.
    pub rearmed: Vec<usize>,
    /// Slots skipped because their column is beyond the statistics row.
    pub skipped: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_ops_evaluate_correctly() {
        assert!(CmpOp::Gt.eval(2, 1));
        assert!(!CmpOp::Gt.eval(1, 1));
        assert!(CmpOp::Ge.eval(1, 1));
        assert!(CmpOp::Lt.eval(0, 1));
        assert!(CmpOp::Le.eval(1, 1));
        assert!(CmpOp::Eq.eval(5, 5));
        assert!(CmpOp::Ne.eval(5, 6));
    }

    #[test]
    fn cmp_op_encoding_round_trips() {
        for op in [
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            assert_eq!(CmpOp::decode(op.encode()).unwrap(), op);
            assert_eq!(CmpOp::from_mnemonic(op.mnemonic()).unwrap(), op);
        }
        assert!(CmpOp::decode(99).is_err());
        assert!(CmpOp::from_mnemonic("??").is_err());
    }

    #[test]
    fn triggers_only_watch_their_ds() {
        let mut tt = TriggerTable::new(4);
        tt.install(1, Trigger::new(DsId::new(3), 0, CmpOp::Gt, 10))
            .unwrap();
        assert!(tt.evaluate(DsId::new(2), &[100]).is_empty());
        assert_eq!(tt.evaluate(DsId::new(3), &[100]), vec![1]);
    }

    #[test]
    fn disabled_triggers_stay_silent() {
        let mut tt = TriggerTable::new(2);
        let mut t = Trigger::new(DsId::new(0), 0, CmpOp::Gt, 0);
        t.enabled = false;
        tt.install(0, t).unwrap();
        assert!(tt.evaluate(DsId::new(0), &[5]).is_empty());
    }

    #[test]
    fn missing_column_is_skipped_not_read_as_zero() {
        // Regression: an out-of-range column used to be observed as 0,
        // making `Eq 0` fire spuriously. It must be skipped instead.
        let mut tt = TriggerTable::new(1);
        tt.install(0, Trigger::new(DsId::new(0), 9, CmpOp::Eq, 0))
            .unwrap();
        assert!(tt.evaluate(DsId::new(0), &[1, 2]).is_empty());
        let outcome = tt.evaluate_detailed(DsId::new(0), &[1, 2]);
        assert_eq!(outcome.skipped, vec![0]);
        assert!(outcome.fired.is_empty());
        // A skip leaves the latch untouched: once the row grows wide
        // enough, the trigger fires exactly once.
        assert_eq!(
            tt.evaluate(DsId::new(0), &[1, 2, 0, 0, 0, 0, 0, 0, 0, 0]),
            vec![0]
        );
    }

    #[test]
    fn evaluate_detailed_reports_rearm() {
        let mut tt = TriggerTable::new(2);
        tt.install(0, Trigger::new(DsId::new(1), 0, CmpOp::Gt, 10))
            .unwrap();
        assert_eq!(tt.evaluate_detailed(DsId::new(1), &[20]).fired, vec![0]);
        // Condition still true: latched, nothing reported.
        assert_eq!(
            tt.evaluate_detailed(DsId::new(1), &[20]),
            EvalOutcome::default()
        );
        // Condition clears: the slot re-arms.
        assert_eq!(tt.evaluate_detailed(DsId::new(1), &[5]).rearmed, vec![0]);
        assert_eq!(tt.evaluate_detailed(DsId::new(1), &[99]).fired, vec![0]);
    }

    #[test]
    fn multiple_slots_fire_together() {
        let mut tt = TriggerTable::new(4);
        tt.install(0, Trigger::new(DsId::new(1), 0, CmpOp::Gt, 10))
            .unwrap();
        tt.install(3, Trigger::new(DsId::new(1), 1, CmpOp::Lt, 5))
            .unwrap();
        assert_eq!(tt.evaluate(DsId::new(1), &[20, 1]), vec![0, 3]);
    }

    #[test]
    fn degradation_trigger_fires_on_growth_over_baseline() {
        let mut tt = TriggerTable::new(2);
        tt.install(0, Trigger::degradation(DsId::new(1), 0, 50))
            .unwrap();
        // First non-zero observation seeds smoothing and baseline, no fire.
        assert!(tt.evaluate(DsId::new(1), &[100]).is_empty());
        assert_eq!(tt.get(0).unwrap().baseline, 100);
        assert_eq!(tt.get(0).unwrap().obs_ema, 100);
        // Healthy drift tracks into the smoothed value and baseline.
        assert!(tt.evaluate(DsId::new(1), &[108]).is_empty());
        assert_eq!(tt.get(0).unwrap().obs_ema, 104);
        // A single elevated window is absorbed by the smoothing.
        assert!(tt.evaluate(DsId::new(1), &[150]).is_empty());
        // A sustained jump drives the smoothed value past +50 %: fires,
        // and the baseline stays frozen at its healthy value for the
        // whole degraded episode.
        let healthy = tt.get(0).unwrap().baseline;
        assert_eq!(tt.evaluate(DsId::new(1), &[300]), vec![0]);
        assert_eq!(tt.get(0).unwrap().baseline, healthy);
        // Latched while degraded; the smoothed value needs a couple of
        // healthy windows to decay back under the threshold, then the
        // slot re-arms and refires on the next sustained degradation.
        assert!(tt.evaluate(DsId::new(1), &[300]).is_empty());
        assert!(tt.evaluate(DsId::new(1), &[100]).is_empty());
        assert_eq!(tt.evaluate_detailed(DsId::new(1), &[100]).rearmed, vec![0]);
        assert_eq!(tt.evaluate(DsId::new(1), &[400]), vec![0]);
    }

    #[test]
    fn degradation_trigger_rides_out_window_noise() {
        // Per-window latency columns are small noisy integers; an
        // alternating 10/60 sequence is steady-state noise, not a
        // degradation, and must never fire — while a sustained 10×
        // shift fires immediately.
        let mut tt = TriggerTable::new(1);
        tt.install(0, Trigger::degradation(DsId::new(0), 0, 300))
            .unwrap();
        for observed in [10, 60, 10, 60, 10, 60] {
            assert!(
                tt.evaluate(DsId::new(0), &[observed]).is_empty(),
                "noise window {observed} must not fire"
            );
        }
        assert_eq!(tt.evaluate(DsId::new(0), &[600]), vec![0]);
    }

    #[test]
    fn degradation_trigger_ignores_idle_windows() {
        let mut tt = TriggerTable::new(1);
        tt.install(0, Trigger::degradation(DsId::new(0), 0, 50))
            .unwrap();
        // Idle windows neither seed nor erode the baseline.
        assert!(tt.evaluate(DsId::new(0), &[0]).is_empty());
        assert_eq!(tt.get(0).unwrap().baseline, 0);
        assert!(tt.evaluate(DsId::new(0), &[40]).is_empty());
        assert!(tt.evaluate(DsId::new(0), &[0]).is_empty());
        assert_eq!(tt.get(0).unwrap().baseline, 40);
    }

    #[test]
    fn trigger_mode_fields_round_trip_through_cpa_path() {
        let mut tt = TriggerTable::new(1);
        tt.install(0, Trigger::new(DsId::new(2), 1, CmpOp::Ge, 50))
            .unwrap();
        assert_eq!(tt.get_field(0, 6).unwrap(), 0);
        tt.set_field(0, 6, TriggerMode::DegradationPct.encode())
            .unwrap();
        assert_eq!(tt.get(0).unwrap().mode, TriggerMode::DegradationPct);
        tt.set_field(0, 7, 123).unwrap();
        assert_eq!(tt.get_field(0, 7).unwrap(), 123);
        tt.set_field(0, 8, 40).unwrap();
        assert_eq!(tt.get_field(0, 8).unwrap(), 40);
        // Reprogramming the mode restarts baseline tracking; the floor is
        // configuration, not tracking state, and survives.
        tt.set_field(0, 6, TriggerMode::Level.encode()).unwrap();
        assert_eq!(tt.get_field(0, 7).unwrap(), 0);
        assert_eq!(tt.get_field(0, 8).unwrap(), 40);
        assert!(TriggerMode::decode(9).is_err());
        assert!(tt.set_field(0, 9, 0).is_err());
        assert!(tt.get_field(0, 9).is_err());
    }

    #[test]
    fn install_and_clear_bounds() {
        let mut tt = TriggerTable::new(2);
        assert!(tt
            .install(5, Trigger::new(DsId::new(0), 0, CmpOp::Gt, 0))
            .is_err());
        assert!(tt.clear(5).is_err());
        tt.install(0, Trigger::new(DsId::new(0), 0, CmpOp::Gt, 0))
            .unwrap();
        assert!(tt.get(0).is_some());
        tt.clear(0).unwrap();
        assert!(tt.get(0).is_none());
        assert_eq!(tt.iter().count(), 0);
        assert_eq!(tt.slots(), 2);
    }
}
