//! # pard-sim — discrete-event simulation kernel
//!
//! This crate is the foundation of the PARD reproduction: a deterministic,
//! cycle-level discrete-event simulation kernel plus the statistics toolkit
//! used by every modelled hardware component.
//!
//! A simulated machine is a set of [`Component`]s registered with a
//! [`Simulation`]. Components communicate exclusively by scheduling events
//! for each other through [`Ctx`]; the kernel delivers events in
//! `(time, insertion order)` order, which makes every run deterministic for
//! a given seed.
//!
//! Time is measured in quarter-nanoseconds (see [`Time`]) so that both the
//! 2 GHz CPU clock (0.5 ns) and the DDR3-1600 I/O clock (1.25 ns) of the
//! paper's Table 2 are exact integer multiples of the base unit.
//!
//! ## Example
//!
//! ```
//! use pard_sim::{Component, Ctx, Simulation, Time};
//!
//! struct Ping { count: u32 }
//!
//! impl Component<u32> for Ping {
//!     fn name(&self) -> &str { "ping" }
//!     fn handle(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
//!         self.count += ev;
//!         if self.count < 3 {
//!             ctx.send(ctx.self_id(), Time::from_ns(10), 1);
//!         }
//!     }
//!     pard_sim::impl_as_any!();
//! }
//!
//! let mut sim = Simulation::new();
//! let id = sim.add_component(Box::new(Ping { count: 0 }));
//! sim.post(id, Time::ZERO, 1);
//! sim.run();
//! sim.with_component::<Ping, _, _>(id, |p| assert_eq!(p.count, 3));
//! ```
//!
//! # Paper mapping
//!
//! The kernel plays the role of the paper's gem5 substrate (§6: a
//! simulator "based on gem5" with full-system checkpoints): where the
//! authors forked an existing simulator, this reproduction builds the
//! event core from scratch so that determinism, parallel execution across
//! machines and experiment points ([`par`]), statistics ([`stats`]),
//! tracing ([`trace`]), and invariant auditing ([`audit`]) are designed
//! in rather than bolted on. Nothing in this crate models a PARD
//! mechanism itself — it is the vessel every mechanism crate
//! (`pard-cache`, `pard-dram`, `pard-io`, `pard-prm`) runs inside.

#![warn(missing_docs)]

pub mod audit;
pub mod check;
mod component;
mod event;
pub mod fault;
pub mod hash;
mod kernel;
pub mod par;
pub mod rng;
pub mod run;
pub mod stats;
pub mod store;
pub mod sync;
mod time;
pub mod trace;

pub use component::{Component, ComponentId};
pub use event::{EventQueue, ScheduledEvent};
pub use kernel::{Ctx, Simulation};
pub use run::{RunConfig, RunState};
pub use time::Time;
