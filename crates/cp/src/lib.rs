//! # pard-cp — the programmable control-plane framework
//!
//! PARD's second mechanism (§3 ②): every shared hardware resource embeds a
//! **programmable control plane** that processes DS-id-tagged packets
//! according to tag-based rules. All control planes share one basic
//! structure, instantiated with component-specific table columns:
//!
//! * a **parameter table** holding per-DS-id resource-allocation policy
//!   (LLC way masks, memory address maps and priorities, disk bandwidth),
//! * a **statistics table** holding per-DS-id usage information (hit/miss
//!   counts, bandwidth, average queueing latency),
//! * a **trigger table** holding per-DS-id performance triggers
//!   (`stats column ⋄ value` conditions that raise an interrupt to the
//!   platform resource manager when they become true),
//! * a **programming interface**: a 32-byte register file (Fig. 6) through
//!   which the PRM firmware reads and writes table cells, and
//! * an **interrupt line** to the PRM.
//!
//! The hot data path of a resource (e.g. the LLC lookup pipeline) does not
//! lock the control plane per access: resources cache parameters against a
//! [`generation`](ControlPlane::generation) counter, and statistics live in
//! lock-free sharded [`StatsCells`] that components record into through a
//! cheap [`StatsHandle`] clone (typed [`StatKey`] columns, relaxed
//! increments, acquire snapshot reads — see [`cells`]). The
//! `CpHandle` mutex remains only for structural mutations: parameter
//! writes, trigger install/evaluate, and DS row lifecycle. This mirrors how
//! the RTL hides control-plane work inside the cache pipeline (§7.2).
//!
//! # Paper mapping
//!
//! This crate is mechanism ② of the PAPER.md design overview — the
//! programmable control plane every shared resource embeds — and the
//! substrate of the paper's "trigger ⇒ action" methodology (§5): trigger
//! rows raise interrupts that the PRM firmware (crates/prm) turns into
//! device-file writes back into these same tables. Beyond the paper's
//! constant-threshold comparators, [`TriggerMode::DegradationPct`]
//! detects *relative* latency regressions against a self-learned healthy
//! baseline (smoothed observation, frozen-under-fault baseline, absolute
//! floor — DESIGN.md §11), which drives the fault-recovery figure
//! (`fig_fault`, EXPERIMENTS.md).

#![warn(missing_docs)]

pub mod cells;
mod error;
mod iface;
mod plane;
pub mod policy;
mod table;
mod trigger;

pub use cells::{StatKey, StatsCells, StatsHandle};
pub use error::CpError;
pub use iface::{
    CpAddr, CpCommand, CpaRegisterFile, TableSel, CPA_BYTES, REG_ADDR, REG_CMD, REG_DATA,
    REG_IDENT, REG_IDENT_HIGH, REG_TYPE,
};
pub use plane::{
    shared, ControlPlane, CpHandle, CpInterrupt, CpType, InterruptLine, InterruptSink,
};
pub use policy::{Decision, MicroOp, OnFail, Pifo, PolicyEngine, PolicyReq, Program, ReqClass};
pub use table::{ColumnDef, DsTable};
pub use trigger::{CmpOp, Trigger, TriggerMode, TriggerTable};
