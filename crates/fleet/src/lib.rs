//! `pard-fleet` — rack-scale PARD: a fleet of simulated PARD machines
//! under one federated resource manager.
//!
//! Each [`FleetMachine`] is a full [`pard::PardServer`] — cores, tagged
//! LLC, DRAM scheduler, I/O bridge, and PRM firmware on its own
//! sequential kernel; machines advance in parallel. The fleet layer adds
//! what a single machine cannot express:
//!
//! * a **multi-tenant request population** ([`population`]) with Zipf
//!   tenant popularity, phase-shifted diurnal swings, and a flash crowd,
//!   split into per-machine replicas via seeded modulated arrivals;
//! * a **seeded load balancer**: each replica's dispatch scale is the
//!   share of the tenant's traffic routed to that machine, replayable
//!   bit-for-bit from the fleet seed;
//! * **federated PRMs** ([`run_fleet`]): machine-local triggers escalate
//!   control plane → PRM → fleet through the firmware's
//!   `/sys/fleet/escalate` hook, and the fleet manager reacts by
//!   re-sharding a tenant's traffic or migrating its LDom (drain, retire
//!   on the source, re-register the DS-id's service classes on the target
//!   through the same pardscript builders an operator would use).
//!
//! Machines advance in parallel between epoch boundaries, each epoch cut
//! into [`EPOCH_SLICES`] `run_until` slices that workers pick least
//! advanced first ([`pard_sim::par::par_slices`]); all manager decisions
//! happen serially at the boundary, so a run is deterministic for a given
//! seed regardless of `PARD_THREADS`.
//!
//! # Paper mapping
//!
//! PARD's motivation (§1–2) is datacenter consolidation: utilization in
//! shared clusters stays low because co-located tenants destroy each
//! other's tail latency, and the paper's answer is hardware
//! differentiated services *within* one machine. This crate scales that
//! answer out: the fleet experiment (`fig_fleet`) sweeps the
//! consolidation ratio and measures per-tier SLO attainment with the
//! fleet manager armed vs disarmed — the rack-level analogue of the
//! paper's Table 5 consolidation argument, with the PRM's "trigger ⇒
//! action" chain (§3.4) extended one level up into a federation of PRMs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod machine;
mod manager;
mod tenants;

pub use config::{apply_env, FleetConfig, TierSlos};
pub use machine::{FleetMachine, MachineEpoch, Replica, ESCALATE_ACTION, ESCALATE_FACTOR};
pub use manager::{run_consolidation, run_fleet, FleetOutcome, TierOutcome, EPOCH_SLICES};
pub use tenants::{population, TenantSpec, Tier, GUARANTEED_RATE_FACTOR};
