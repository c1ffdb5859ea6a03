//! # pard-dram — the memory controller and its control plane
//!
//! Implements the paper's Figure 5: a DDR3-1600 memory controller whose
//! control plane provides, per DS-id:
//!
//! * **address mapping** — each fully-virtualised LDom sees a physical
//!   address space starting at zero; the parameter table holds the base /
//!   limit pair that translates LDom-physical to DRAM-physical addresses,
//! * **scheduling priority** — requests enter one of two priority queues;
//!   the arbiter serves *high-priority first*, then FR-FCFS [Rixner et al.]
//!   within a class,
//! * **row-buffer mask bits** — each bank carries one extra row buffer
//!   reserved for high-priority requests (the paper's nod to NEC VCM), so
//!   low-priority streams cannot destroy high-priority row locality,
//! * **statistics** — per-DS-id average queueing latency, served-request
//!   count, and bandwidth, feeding `memory latency ⇒ …` triggers (Table 3).
//!
//! The controller also exposes the per-request queueing-delay distribution
//! that Figure 11 plots (baseline vs. high/low priority with the control
//! plane enabled).
//!
//! # Paper mapping
//!
//! | paper | here |
//! |---|---|
//! | Fig. 5 (memory control plane, MEMORY_CP, cpa1) | `cpdef` tables |
//! | §3.3 per-LDom base/limit translation | parameter-table address map |
//! | §3.3 priority queues + FR-FCFS | the arbiter in `ctrl` |
//! | §3.3 reserved high-priority row buffer | per-bank HP buffer in `bank` |
//! | Table 3 `memory latency ⇒ …` triggers | `avg_qlat` / `bandwidth` columns |
//! | Fig. 11 queueing-delay CDF | the controller's delay distribution |

#![warn(missing_docs)]

mod bank;
mod cpdef;
mod ctrl;
mod geometry;
mod timing;

pub use bank::{Bank, RankTracker};
pub use cpdef::{
    mem_control_plane, MEM_BASELINE_POLICY, MEM_DEFAULT_POLICY, MEM_PARAM_COLUMNS,
    MEM_STATS_COLUMNS, MSTAT_AVG_QLAT, MSTAT_BANDWIDTH, MSTAT_COMP_SAVED, MSTAT_ROW_HITS,
    MSTAT_SERV_CNT,
};
pub use ctrl::{MemCtrl, MemCtrlConfig, QueueingStats};
pub use geometry::{BankAddr, DramGeometry};
pub use timing::DramTiming;
