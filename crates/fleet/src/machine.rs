//! One PARD machine of the fleet.

use pard::{Action, CmpOp, DsId, LDomSpec, PardServer, SystemConfig, Time};
use pard_prm::federation::{self, AdmitClasses};
use pard_prm::{ActionEnv, Escalation};
use pard_sim::stats::LatencySample;
use pard_workloads::{
    ArrivalSource, Memcached, MemcachedConfig, ModulatedArrivals, Op, TimeShared, WorkloadEngine,
};

use crate::config::FleetConfig;
use crate::tenants::{TenantSpec, Tier};

/// Name under which the fleet escalation script is registered on every
/// machine's firmware; calibration binds each generation-0 best-effort
/// replica's memory-bandwidth trigger to it.
pub const ESCALATE_ACTION: &str = "/fleet_escalate.sh";

/// Escalation threshold as a multiple of the tenant's *measured* mean
/// memory bandwidth over the fleet's warm-up epoch(s). Diurnal swings
/// stay within ~±15 % of the mean and a flash crowd multiplies the rate
/// severalfold, so 1.8× separates the two cleanly — and a re-sharded
/// tenant (half its traffic elsewhere) lands back under it, while a
/// still-breaching one does not. The absolute floor
/// ([`FleetConfig::escalate_mbps`]) keeps near-idle tenants from firing
/// on noise.
pub const ESCALATE_FACTOR: f64 = 1.8;

/// Round-robin slice of the per-core OS scheduler model.
const SLICE: Time = Time::from_us(50);

/// Memory capacity of one tenant LDom.
const TENANT_MEM: u64 = 16 << 20;

/// The per-core keep-alive "host OS" process: always blocked on a 1 ms
/// timer, so the core's [`TimeShared`] rotation never runs dry while
/// tenants come and go, yet consumes no slices while any tenant is
/// runnable (blocked processes are skipped).
struct HostIdle;

impl WorkloadEngine for HostIdle {
    fn name(&self) -> &str {
        "host-idle"
    }

    fn next_op(&mut self, now: Time) -> Op {
        Op::IdleUntil(now + Time::from_ms(1))
    }

    pard_workloads::impl_engine_any!();
}

/// One tenant replica placed on this machine.
#[derive(Debug, Clone)]
pub struct Replica {
    /// Fleet-wide tenant id.
    pub tenant: usize,
    /// The tenant's tier.
    pub tier: Tier,
    /// DS-id of the replica's LDom on *this* machine.
    pub ds: DsId,
    /// Core whose scheduler rotation hosts the replica's process.
    pub core: usize,
    /// Current dispatch scale (the load balancer's traffic share).
    pub scale: f64,
    /// Replica generation: 0 is the original placement, higher values are
    /// re-shard/migration copies.
    pub generation: u32,
    /// Baseline offered load of the tenant (for load-aware placement).
    pub weight: f64,
    /// Whether the replica is still placed here.
    pub live: bool,
    /// Calibrated escalation threshold (MB/s) once the machine-local
    /// trigger has been armed; `None` before calibration and for replicas
    /// that never get one (guaranteed tier, re-shard/migration copies).
    pub trigger_mbps: Option<u64>,
}

/// Everything one machine reports to the fleet manager at an epoch
/// boundary.
#[derive(Debug)]
pub struct MachineEpoch {
    /// Per-tenant response-time samples drained from each live replica.
    pub samples: Vec<(usize, LatencySample)>,
    /// Escalations the machine's PRM queued for the fleet, mapped to
    /// fleet tenant ids.
    pub escalations: Vec<(usize, Escalation)>,
    /// Cumulative CPU busy fraction of the machine.
    pub utilization: f64,
}

/// One PARD server of the fleet: a full machine simulation (cores, LLC,
/// DRAM, I/O, PRM) plus the fleet-side
/// bookkeeping of which tenant replicas it hosts.
pub struct FleetMachine {
    idx: usize,
    server: PardServer,
    replicas: Vec<Replica>,
}

/// Per-request memcached shape shared by every fleet tenant: a light
/// request (small values, little compute) so a test-scale two-core machine
/// sustains tens of thousands of requests per second and the interesting
/// contention is *across* tenants, not inside one request. The value
/// population is deliberately large and flat (4096 items, Zipf 0.6): the
/// per-replica working set dwarfs the shared LLC at every offered rate,
/// so misses per request — and with them the memory `bandwidth` column
/// the escalation trigger watches — track offered load instead of
/// flattening out as a small hot set becomes cache-resident. `rps` is set
/// for documentation but unused — fleet replicas run on externally
/// modulated arrivals ([`ArrivalSource::Modulated`]), and the warm-up is
/// handled at the fleet layer (whole epochs), not per engine.
fn tenant_workload(cfg: &FleetConfig, spec: &TenantSpec) -> MemcachedConfig {
    MemcachedConfig {
        rps: spec.profile.base_rps,
        items: 4096,
        zipf_s: 0.6,
        value_lines: 32,
        meta_loads: 6,
        client_compute: 4_000,
        hash_compute: 1_500,
        resp_compute: 4_500,
        store_base: 8 << 20,
        meta_base: 4 << 20,
        meta_bytes: 1 << 20,
        buffer_lines: 24,
        buffer_base: 2 << 20,
        buffer_ring_bytes: 64 * 1024,
        warmup: Time::ZERO,
        seed: cfg.seed.wrapping_add(spec.id as u64),
    }
}

impl FleetMachine {
    /// Builds machine `idx` of the fleet: a two-core test-scale PARD
    /// server whose host LDom owns all cores, each running a [`TimeShared`]
    /// scheduler seeded with the keep-alive host process, and whose
    /// firmware has the fleet escalation action registered.
    pub fn new(idx: usize, cfg: &FleetConfig) -> Self {
        let mut sys = SystemConfig::small_test();
        sys.seed = cfg.seed.wrapping_add(idx as u64);
        sys.run = cfg.run.clone();
        // Fleet-scale statistics cadence: the escalation trigger reads the
        // memory `bandwidth` column, and at tens of kilo-requests per
        // second a 20 µs window holds only a couple of requests — pure
        // shot noise that would cross any usable threshold. 1 ms windows
        // hold ~40+ requests (window σ ≈ 15 % of the mean, so the 1.8×
        // calibrated threshold sits >5σ out), while the PRM still reacts
        // well within one fleet epoch.
        sys.llc.window = Time::from_ms(1);
        sys.mem.window = Time::from_ms(1);
        sys.prm_poll = Time::from_ms(1);
        let mut server = PardServer::new(sys);
        let cores: Vec<usize> = (0..server.core_count()).collect();
        let host = server
            .create_ldom(LDomSpec::new(format!("host{idx}"), cores.clone(), 1 << 20))
            .expect("host LDom fits");
        for core in cores {
            let ts = TimeShared::new(
                vec![(host.raw(), Box::new(HostIdle) as Box<dyn WorkloadEngine>)],
                SLICE,
            );
            server.install_engine(core, Box::new(ts));
        }
        server.launch(host).expect("host LDom launches");
        federation::install_escalate(&mut server.firmware().lock(), ESCALATE_ACTION, "overload");
        FleetMachine {
            idx,
            server,
            replicas: Vec::new(),
        }
    }

    /// The machine's fleet index.
    pub fn idx(&self) -> usize {
        self.idx
    }

    /// The replicas ever placed here (including retired ones, `live =
    /// false`).
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// Current simulated time of the machine.
    pub fn now(&self) -> Time {
        self.server.now()
    }

    /// Total baseline offered load of the live replicas, weighted by
    /// dispatch scale — the static load signal the manager's placement
    /// decisions use.
    pub fn load(&self) -> f64 {
        self.replicas
            .iter()
            .filter(|r| r.live)
            .map(|r| r.weight * r.scale)
            .sum()
    }

    /// A no-op, kept for callers written against the retired
    /// domain-partitioned kernel (see [`PardServer::partition`]).
    pub fn partition(&mut self) {}

    /// Admits a replica of `spec` at `scale`: creates its LDom, programs
    /// its tier's service classes through the [`federation::admit`]
    /// pardscript (exactly what an operator at this machine's PRM console
    /// would run), builds its memcached engine over a seeded modulated
    /// arrival stream, and adds the process to the next core's scheduler
    /// rotation (round-robin packing). No escalation trigger is installed
    /// here — thresholds are *measured*, not guessed, so arming waits for
    /// [`FleetMachine::calibrate_escalations`] at the end of warm-up.
    pub fn admit(&mut self, spec: &TenantSpec, cfg: &FleetConfig, scale: f64, generation: u32) {
        let mut ldom = LDomSpec::new(format!("t{}g{}", spec.id, generation), vec![], TENANT_MEM);
        if spec.tier == Tier::Guaranteed {
            ldom = ldom.high_priority();
        }
        let ds = self.server.create_ldom(ldom).expect("tenant LDom fits");

        // Service classes, via the federation pardscript.
        let classes = match spec.tier {
            Tier::Guaranteed => AdmitClasses::guaranteed(),
            Tier::BestEffort => AdmitClasses::best_effort(),
        };
        let now = self.server.now();
        {
            let mut fw = self.server.firmware().lock();
            let action = format!("/fleet_admit_t{}g{generation}.sh", spec.id);
            fw.register_action(
                &action,
                Action::Script(federation::admit(ds.raw(), classes)),
            );
            fw.run_action(
                &action,
                ActionEnv {
                    cpa: 0,
                    ds,
                    slot: 0,
                    now,
                },
            )
            .expect("admit script runs");
        }

        // The replica's engine: memcached over the tenant's modulated
        // arrival stream, seeded per (tenant, machine, generation) so every
        // replica is an independent — but exactly replayable — split of
        // the tenant's traffic.
        let stream = format!("fleet.t{}.m{}.g{generation}", spec.id, self.idx);
        let mut arrivals = ModulatedArrivals::new(spec.profile.clone(), cfg.seed, &stream);
        arrivals.set_scale(scale);
        arrivals.skip_until(now);
        let engine = Memcached::with_arrivals(
            tenant_workload(cfg, spec),
            ArrivalSource::Modulated(arrivals),
        );

        // Consolidation-blind round-robin packing, like a scheduler that
        // places by slot count rather than load: the whole point of the
        // experiment is that *bad packings happen*, and the disarmed fleet
        // has no way to react when one does.
        let core = self.replicas.len() % self.server.core_count();
        self.server.with_engine::<TimeShared, _>(core, move |ts| {
            ts.add_process(ds.raw(), Box::new(engine))
        });

        self.replicas.push(Replica {
            tenant: spec.id,
            tier: spec.tier,
            ds,
            core,
            scale,
            generation,
            weight: spec.profile.base_rps,
            live: true,
            trigger_mbps: None,
        });
    }

    /// Sets the dispatch scale of `tenant`'s live replica here (the
    /// re-shard/drain half of a fleet reaction). Returns `false` when the
    /// tenant has no live replica on this machine.
    pub fn set_scale(&mut self, tenant: usize, scale: f64) -> bool {
        let Some(i) = self
            .replicas
            .iter()
            .position(|r| r.live && r.tenant == tenant)
        else {
            return false;
        };
        let (core, ds) = (self.replicas[i].core, self.replicas[i].ds);
        let applied = self.server.with_engine::<TimeShared, _>(core, |ts| {
            ts.with_engine_of::<Memcached, _>(ds.raw(), |mc| mc.set_arrival_scale(scale))
                .is_some()
        });
        if applied {
            self.replicas[i].scale = scale;
        }
        applied
    }

    /// Retires `tenant`'s replica: removes its process from the scheduler
    /// rotation, demotes the DS-id to best-effort defaults through the
    /// [`federation::drain`] pardscript, and destroys the LDom (which also
    /// flushes its LLC lines and frees its memory). Returns `false` when
    /// the tenant has no live replica here.
    pub fn retire(&mut self, tenant: usize) -> bool {
        let Some(i) = self
            .replicas
            .iter()
            .position(|r| r.live && r.tenant == tenant)
        else {
            return false;
        };
        let (core, ds) = (self.replicas[i].core, self.replicas[i].ds);
        self.server
            .with_engine::<TimeShared, _>(core, |ts| ts.retire(ds.raw()));
        let now = self.server.now();
        {
            let mut fw = self.server.firmware().lock();
            let action = format!("/fleet_drain_ldom{}.sh", ds.raw());
            fw.register_action(&action, Action::Script(federation::drain(ds.raw())));
            fw.run_action(
                &action,
                ActionEnv {
                    cpa: 0,
                    ds,
                    slot: 0,
                    now,
                },
            )
            .expect("drain script runs");
        }
        self.server.destroy_ldom(ds).expect("tenant LDom exists");
        self.replicas[i].live = false;
        true
    }

    /// Re-arms `tenant`'s escalation trigger after the fleet manager has
    /// reacted, so a still-breaching condition raises a fresh escalation
    /// at the next statistics window.
    pub fn rearm(&mut self, tenant: usize) {
        let Some(r) = self
            .replicas
            .iter()
            .find(|r| r.live && r.tenant == tenant && r.generation == 0)
        else {
            return;
        };
        let ds = r.ds;
        let _ = self.server.firmware().lock().rearm_triggers(1, ds);
    }

    /// Arms the machine-local escalation trigger of every live
    /// generation-0 best-effort replica that does not have one yet, at a
    /// *measured* threshold: the memory control plane's cumulative
    /// `serv_cnt` column (DRAM lines serviced since boot, never reset)
    /// times 64 B over elapsed time gives the replica's mean bandwidth
    /// free of per-window shot noise, and the trigger is a plain
    /// [`TriggerMode::Level`](pard::TriggerMode::Level) compare on the
    /// `bandwidth` column at [`ESCALATE_FACTOR`] times that mean, floored
    /// at [`FleetConfig::escalate_mbps`]. The fleet manager calls this
    /// once, at the end of warm-up — measuring first is what makes the
    /// threshold robust where a guessed absolute (or a self-tracked
    /// relative baseline seeded during cold-cache start-up) is not.
    /// Returns the number of triggers armed.
    pub fn calibrate_escalations(&mut self, cfg: &FleetConfig) -> usize {
        let elapsed = self.server.now().as_secs();
        if elapsed <= 0.0 {
            return 0;
        }
        let mut armed = 0;
        for i in 0..self.replicas.len() {
            let r = &self.replicas[i];
            if !r.live
                || r.tier != Tier::BestEffort
                || r.generation != 0
                || r.trigger_mbps.is_some()
            {
                continue;
            }
            let ds = r.ds;
            let served = self
                .server
                .mem_cp()
                .lock()
                .stat(ds, "serv_cnt")
                .expect("memory CP knows the replica's DS-id");
            let mean_mbps = served as f64 * 64.0 / elapsed / 1e6;
            let threshold = ((mean_mbps * ESCALATE_FACTOR) as u64).max(cfg.escalate_mbps);
            {
                let mut fw = self.server.firmware().lock();
                fw.pardtrigger(1, ds, 0, "bandwidth", CmpOp::Gt, threshold)
                    .expect("memory CP has a free trigger slot");
                fw.write(
                    &format!("/sys/cpa/cpa1/ldoms/ldom{}/triggers/0", ds.raw()),
                    ESCALATE_ACTION,
                )
                .expect("trigger leaf exists");
            }
            self.replicas[i].trigger_mbps = Some(threshold);
            armed += 1;
        }
        armed
    }

    /// Runs the machine until the absolute simulated time `deadline`.
    pub fn advance_to(&mut self, deadline: Time) {
        self.server.run_until(deadline);
    }

    /// The memory control plane's `bandwidth` statistics column (MB/s over
    /// the last statistics window) for `tenant`'s live replica here —
    /// the very signal its escalation trigger watches.
    pub fn bandwidth_mbps(&self, tenant: usize) -> Option<u64> {
        let r = self
            .replicas
            .iter()
            .find(|r| r.live && r.tenant == tenant)?;
        self.server.mem_cp().lock().stat(r.ds, "bandwidth").ok()
    }

    /// Drains the epoch's observations: per-replica latency samples, the
    /// PRM's queued fleet escalations (mapped to tenant ids; escalations
    /// whose DS-id no longer maps to a replica are dropped), and the
    /// machine's CPU utilization.
    pub fn drain_epoch(&mut self) -> MachineEpoch {
        let mut samples = Vec::new();
        for i in 0..self.replicas.len() {
            if !self.replicas[i].live {
                continue;
            }
            let (tenant, core, ds) = (
                self.replicas[i].tenant,
                self.replicas[i].core,
                self.replicas[i].ds,
            );
            let taken = self.server.with_engine::<TimeShared, _>(core, |ts| {
                ts.with_engine_of::<Memcached, _>(ds.raw(), Memcached::take_sample)
            });
            if let Some(s) = taken {
                samples.push((tenant, s));
            }
        }
        let escalations = self
            .server
            .firmware()
            .lock()
            .take_escalations()
            .into_iter()
            .filter_map(|e| {
                self.replicas
                    .iter()
                    .find(|r| r.ds.raw() == e.ds)
                    .map(|r| (r.tenant, e))
            })
            .collect();
        MachineEpoch {
            samples,
            escalations,
            utilization: self.server.cpu_utilization(),
        }
    }
}
