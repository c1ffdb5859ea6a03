//! # pard-prm — the platform resource manager
//!
//! PARD's third and fourth mechanisms (§3 ③④, §5): an IPMI-like embedded
//! system running a Linux-based firmware that
//!
//! * connects to every control plane through **control-plane adaptors**
//!   (CPAs) mapped into a 64 KB I/O window,
//! * abstracts the control planes as a **device file tree**
//!   (`/sys/cpa/cpaN/ldoms/ldomM/{parameters,statistics,triggers}`)
//!   accessible with `cat`/`echo`-style operations ([`Firmware::read`],
//!   [`Firmware::write`], [`Firmware::shell`]),
//! * manages **logical domains** (LDoms): DS-id assignment, machine-memory
//!   allocation, control-plane programming, interrupt routing
//!   ([`Firmware::create_ldom`]),
//! * implements the **"trigger ⇒ action"** methodology: triggers installed
//!   into control-plane trigger tables (via [`Firmware::pardtrigger`])
//!   raise interrupts that the firmware dispatches to *actions* — either
//!   [`pardscript`](crate::script) shell scripts (the paper's Example 2)
//!   or native Rust hooks.
//!
//! The [`Prm`] component gives the firmware its place on the simulated
//! machine: it polls the interrupt sink at the firmware's service interval
//! (modelling the 100 MHz management core's latency) and issues queued
//! core-control commands.
//!
//! # Paper mapping
//!
//! | paper | here |
//! |---|---|
//! | §3 ③ control-plane adaptors, Fig. 6 register window | `cpa` |
//! | §5 device file tree (`/sys/cpa/...`) | [`Firmware`] tree + hooks |
//! | §5 LDom lifecycle (create/launch/destroy) | the LDom manager |
//! | Fig. 6 Example 1 (`pardtrigger`) | [`Firmware::pardtrigger`] |
//! | Fig. 6 Example 2 (pardscript action) | the [`script`] module |
//! | §3.4 "trigger ⇒ action" | trigger interrupts → action dispatch |
//! | beyond the paper: PRM federation | [`federation`] (escalations up to a fleet manager, DESIGN.md §15) |

#![warn(missing_docs)]

mod alloc;
mod error;
pub mod federation;
mod firmware;
mod ldom;
mod metrics;
mod prm;
pub mod recovery;
pub mod script;
mod tree;

pub use alloc::MemAllocator;
pub use error::FwError;
pub use firmware::{
    Action, ActionEnv, Escalation, Firmware, FirmwareConfig, FwHandle, NativeAction,
};
pub use ldom::{LDomInfo, LDomSpec, Priority};
pub use metrics::{DsRow, MetricsRegistry, MetricsSnapshot, PlaneMetrics};
pub use prm::Prm;
pub use tree::{DeviceFileTree, Node};
