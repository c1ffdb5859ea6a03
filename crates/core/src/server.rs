//! The assembled PARD server.

use pard_cache::Llc;
use pard_cp::CpHandle;
use pard_dram::{MemCtrl, QueueingStats};
use pard_icn::{Crossbar, DsId, PardEvent, TickKind};
use pard_io::{Apic, ApicRoutes, IdeCtrl, IoBridge, Nic};
use pard_prm::{Firmware, FirmwareConfig, FwError, FwHandle, LDomSpec, MetricsSnapshot, Prm};
use pard_sim::trace::{self, TraceCat, TraceVal, Tracer};
use pard_sim::{ComponentId, Simulation, Time};
use pard_workloads::WorkloadEngine;

use crate::config::SystemConfig;
use crate::core_model::{Core, CoreStats};

/// A fully wired PARD server: cores + LLC + DRAM + I/O + PRM on the
/// simulation kernel.
///
/// Construction mirrors the paper's Figure 2: every shared resource gets a
/// control plane, every control plane is registered with the PRM firmware
/// as a CPA (cpa0 = LLC, cpa1 = memory, cpa2 = I/O bridge, cpa3 = IDE —
/// matching the `cpa3` disk-bandwidth path of Figure 10 — cpa4 = NIC), and
/// the firmware's device file tree is ready for `cat`/`echo`/`pardtrigger`.
///
/// See the [crate-level example](crate) for usage.
pub struct PardServer {
    sim: Simulation<PardEvent>,
    cores: Vec<ComponentId>,
    llc: ComponentId,
    mem: ComponentId,
    #[allow(dead_code)]
    bridge: ComponentId,
    ide: ComponentId,
    nic: ComponentId,
    #[allow(dead_code)]
    apic: ComponentId,
    prm: ComponentId,
    fw: FwHandle,
    llc_cp: CpHandle,
    mem_cp: CpHandle,
    bridge_cp: CpHandle,
    ide_cp: CpHandle,
    nic_cp: CpHandle,
}

impl PardServer {
    /// Builds and wires the whole machine. It traces, audits and injects
    /// faults as `cfg.run` says — by default, as the environment asks.
    /// The machine's ledger, trace sample countdowns and fault decisions
    /// live in its simulation, so none carry over between machines.
    pub fn new(cfg: SystemConfig) -> Self {
        // The kernel trace category is fed through the simulation's event
        // hook, which the kernel calls only for kept deliveries; the raw
        // kernel stays hook-free when the category is off.
        let hook = Self::kernel_hook(cfg.run.tracer.as_deref());
        let mut sim: Simulation<PardEvent> = Simulation::with_config(cfg.run.clone());
        sim.set_event_hook(hook);

        // Memory controller.
        let mem_cfg = pard_dram::MemCtrlConfig {
            priorities_enabled: cfg.pard_enabled && cfg.mem.priorities_enabled,
            ..cfg.mem.clone()
        };
        let (mem_ctrl, mem_cp) = MemCtrl::new(mem_cfg);
        let mem = sim.add_component(Box::new(mem_ctrl));

        // Shared LLC.
        let (mut llc_model, llc_cp) = Llc::new(cfg.llc.clone());
        llc_model.set_mem_ctrl(mem);
        let llc = sim.add_component(Box::new(llc_model));

        // Request crossbar between the cores and the LLC (Fig. 1); the
        // per-hop latency that CoreConfig::link_to_llc names is spent
        // here, so cores send into the crossbar with zero extra delay.
        let crossbar = sim.add_component(Box::new(Crossbar::new(
            pard_icn::CrossbarConfig {
                latency: cfg.core.link_to_llc,
                ..pard_icn::CrossbarConfig::default()
            },
            llc,
        )));

        // Interrupt fabric.
        let routes = ApicRoutes::new(cfg.max_ds);
        let apic = sim.add_component(Box::new(Apic::new(routes.clone())));

        // I/O bridge, IDE, NIC (wired after registration).
        let (bridge_model, bridge_cp) = IoBridge::new(cfg.bridge.clone());
        let bridge = sim.add_component(Box::new(bridge_model));
        let (ide_model, ide_cp) = IdeCtrl::new(cfg.ide.clone());
        let ide = sim.add_component(Box::new(ide_model));
        let (nic_model, nic_cp) = Nic::new(cfg.nic.clone());
        let nic = sim.add_component(Box::new(nic_model));

        sim.with_component::<IoBridge, _, _>(bridge, |b| {
            b.set_ide(ide);
            b.set_mem_ctrl(mem);
        });
        sim.with_component::<IdeCtrl, _, _>(ide, |i| {
            i.set_bridge(bridge);
            i.set_apic(apic);
        });
        sim.with_component::<Nic, _, _>(nic, |n| {
            n.set_bridge(bridge);
            n.set_apic(apic);
        });

        // Cores (their LLC port is the crossbar; the hop latency lives
        // there, so the cores' own link delay is zero).
        let core_cfg = crate::core_model::CoreConfig {
            link_to_llc: Time::ZERO,
            ..cfg.core.clone()
        };
        let cores: Vec<ComponentId> = (0..cfg.cores)
            .map(|i| {
                sim.add_component(Box::new(Core::new(
                    format!("core{i}"),
                    core_cfg.clone(),
                    crossbar,
                    bridge,
                )))
            })
            .collect();

        // PRM firmware: register the CPAs in the canonical order.
        let mut fw = Firmware::new(FirmwareConfig {
            mem_capacity: cfg.mem.geometry.capacity_bytes,
            max_ds: cfg.max_ds,
        });
        fw.register_cpa(llc_cp.clone()); // cpa0 — CACHE_CP
        fw.register_cpa(mem_cp.clone()); // cpa1 — MEMORY_CP
        fw.register_cpa(bridge_cp.clone()); // cpa2 — BRIDGE_CP
        fw.register_cpa(ide_cp.clone()); // cpa3 — IDE_CP (Figure 10)
        fw.register_cpa(nic_cp.clone()); // cpa4 — NIC_CP
        fw.set_cores(cores.clone());
        fw.set_apic_routes(routes);
        let fw = fw.into_handle();

        let prm = sim.add_component(Box::new(Prm::new(fw.clone(), cfg.prm_poll)));
        sim.post(prm, Time::ZERO, PardEvent::Tick(TickKind::Prm));

        PardServer {
            sim,
            cores,
            llc,
            mem,
            bridge,
            ide,
            nic,
            apic,
            prm,
            fw,
            llc_cp,
            mem_cp,
            bridge_cp,
            ide_cp,
            nic_cp,
        }
    }

    /// The kernel trace category's event-loop observer, when `tracer`
    /// traces that category.
    fn kernel_hook(
        tracer: Option<&Tracer>,
    ) -> Option<Box<dyn FnMut(Time, ComponentId, &PardEvent) + Send>> {
        if !tracer.is_some_and(|t| t.enabled(TraceCat::Kernel)) {
            return None;
        }
        Some(Box::new(|now, dst, ev: &PardEvent| {
            trace::emit(
                TraceCat::Kernel,
                now,
                ev.ds().map_or(u16::MAX, DsId::raw),
                ev.kind_label(),
                &[("dst", TraceVal::U(u64::from(dst.raw())))],
            );
        }))
    }

    /// A no-op, kept for callers written against the retired
    /// domain-partitioned kernel. Every machine runs on the one sequential
    /// [`Simulation`]: its parts are coupled at nanosecond latencies, so
    /// parallelism pays only across machines (DESIGN.md §12).
    pub fn partition(&mut self) {}

    // -------------------------------------------------------------- time

    /// Runs the machine for `span` of simulated time.
    pub fn run_for(&mut self, span: Time) {
        self.sim.run_for(span);
    }

    /// Runs until the absolute time `deadline`.
    pub fn run_until(&mut self, deadline: Time) {
        self.sim.run_until(deadline);
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// Events processed so far (simulation throughput metric).
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    // ------------------------------------------------------------- ldoms

    /// Creates an LDom through the firmware (tag registers and control
    /// planes are programmed at the next PRM poll).
    ///
    /// # Errors
    ///
    /// Propagates firmware errors (out of DS-ids / memory).
    pub fn create_ldom(&mut self, spec: LDomSpec) -> Result<DsId, FwError> {
        self.with_firmware(|fw| fw.create_ldom(spec))
    }

    /// Starts an LDom's workload at the next PRM poll.
    ///
    /// # Errors
    ///
    /// Fails for unknown DS-ids.
    pub fn launch(&mut self, ds: DsId) -> Result<(), FwError> {
        self.with_firmware(|fw| fw.launch_ldom(ds))
    }

    /// Destroys an LDom: firmware teardown (cores stopped, memory freed,
    /// control-plane rows reset, subtrees unmounted) plus an LLC flush of
    /// the departing DS-id's lines — the hardware half of reclamation.
    ///
    /// # Errors
    ///
    /// Fails for unknown DS-ids.
    pub fn destroy_ldom(&mut self, ds: DsId) -> Result<(), FwError> {
        self.with_firmware(|fw| fw.destroy_ldom(ds))?;
        self.sim
            .with_component::<Llc, _, _>(self.llc, |l| l.flush_ds(ds));
        Ok(())
    }

    /// Installs the workload engine on core `core_idx`.
    ///
    /// # Panics
    ///
    /// Panics if the core index is out of range.
    pub fn install_engine(&mut self, core_idx: usize, engine: Box<dyn WorkloadEngine>) {
        let id = self.cores[core_idx];
        self.sim
            .with_component::<Core, _, _>(id, |c| c.install_engine(engine));
    }

    // ------------------------------------------------------------ access

    /// The firmware handle (for `shell`, `pardtrigger`, action
    /// registration, logs). Calls through it run outside the machine's
    /// lend, so whatever they emit is not observed; [`shell`](Self::shell)
    /// and the other firmware calls of `PardServer` are.
    pub fn firmware(&self) -> &FwHandle {
        &self.fw
    }

    /// Runs `f` on the locked firmware with the machine's run state lent
    /// to this thread, so the trace events and violations of firmware
    /// actions reach the machine's tracer and auditor.
    fn with_firmware<R>(&mut self, f: impl FnOnce(&mut Firmware) -> R) -> R {
        let _lend = self.sim.lend();
        f(&mut self.fw.lock())
    }

    /// Runs an operator shell command against the firmware.
    ///
    /// # Errors
    ///
    /// Propagates firmware errors.
    pub fn shell(&mut self, line: &str) -> Result<String, FwError> {
        self.with_firmware(|fw| fw.shell(line))
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Component id of core `core_idx` — the core's crossbar *port*
    /// identity (the crossbar serialises per requesting component). The
    /// fault experiments target a specific core's port with injected
    /// backpressure; construction order is deterministic, so this is
    /// stable for a given [`SystemConfig`](crate::SystemConfig).
    pub fn core_component_id(&self, core_idx: usize) -> ComponentId {
        self.cores[core_idx]
    }

    /// Typed access to core `core_idx`.
    pub fn with_core<R>(&mut self, core_idx: usize, f: impl FnOnce(&mut Core) -> R) -> R {
        let id = self.cores[core_idx];
        self.sim.with_component::<Core, _, _>(id, f)
    }

    /// Typed access to core `core_idx`'s installed engine.
    pub fn with_engine<T: 'static, R>(
        &mut self,
        core_idx: usize,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        self.with_core(core_idx, |c| c.with_engine::<T, R>(f))
    }

    /// Execution statistics of core `core_idx`.
    pub fn core_stats(&mut self, core_idx: usize) -> CoreStats {
        self.with_core(core_idx, |c| c.stats())
    }

    /// Average busy fraction across all cores (the paper's server CPU
    /// utilisation).
    pub fn cpu_utilization(&mut self) -> f64 {
        let now = self.now();
        let n = self.cores.len();
        (0..n)
            .map(|i| self.with_core(i, |c| c.busy_fraction(now)))
            .sum::<f64>()
            / n as f64
    }

    /// Bytes of LLC currently occupied by `ds` (live tag-array count,
    /// the paper's footnote 6 statistic).
    pub fn llc_occupancy_bytes(&mut self, ds: DsId) -> u64 {
        self.sim
            .with_component::<Llc, _, _>(self.llc, |l| l.occupancy_bytes(ds))
    }

    /// Cumulative LLC `(hits, misses)` for `ds`.
    pub fn llc_counts(&mut self, ds: DsId) -> (u64, u64) {
        self.sim
            .with_component::<Llc, _, _>(self.llc, |l| l.counts(ds))
    }

    /// Memory-controller queueing statistics (Figure 11; requires
    /// `record_queueing` in the memory config).
    pub fn mem_queueing(&mut self) -> QueueingStats {
        self.sim
            .with_component::<MemCtrl, _, _>(self.mem, |m| m.queueing_stats())
    }

    /// Drains and returns the memory controller's queueing-latency sample
    /// for one DS-id (requires `record_queueing`). Draining at phase
    /// boundaries yields per-phase percentiles — the measurement the
    /// fault-recovery experiment (`fig_fault`) is built on.
    pub fn take_mem_queueing(&mut self, ds: DsId) -> pard_sim::stats::LatencySample {
        self.sim
            .with_component::<MemCtrl, _, _>(self.mem, |m| m.take_ds_queueing(ds))
    }

    /// Mean memory queueing delay per priority class `(high, low)` in
    /// memory cycles.
    pub fn mem_queueing_means(&mut self) -> (f64, f64) {
        self.sim
            .with_component::<MemCtrl, _, _>(self.mem, |m| m.mean_queueing_cycles())
    }

    /// Total requests served by the memory controller across every DS-id
    /// (live cumulative counter, independent of the statistics windows).
    pub fn mem_served_total(&mut self) -> u64 {
        self.sim
            .with_component::<MemCtrl, _, _>(self.mem, |m| m.served_total())
    }

    /// Per-DS disk progress.
    pub fn disk_progress(&mut self, ds: DsId) -> pard_io::DiskProgress {
        self.sim
            .with_component::<IdeCtrl, _, _>(self.ide, |i| i.progress(ds))
    }

    /// The LLC control plane.
    pub fn llc_cp(&self) -> &CpHandle {
        &self.llc_cp
    }

    /// The memory control plane.
    pub fn mem_cp(&self) -> &CpHandle {
        &self.mem_cp
    }

    /// The I/O-bridge control plane.
    pub fn bridge_cp(&self) -> &CpHandle {
        &self.bridge_cp
    }

    /// The IDE control plane.
    pub fn ide_cp(&self) -> &CpHandle {
        &self.ide_cp
    }

    /// The NIC control plane.
    pub fn nic_cp(&self) -> &CpHandle {
        &self.nic_cp
    }

    /// Component id of the NIC (for injecting [`PardEvent::NetFrame`]s).
    pub fn nic_id(&self) -> ComponentId {
        self.nic
    }

    /// Component id of the PRM.
    pub fn prm_id(&self) -> ComponentId {
        self.prm
    }

    /// Posts a raw event into the machine (test harnesses: network frames,
    /// manual interrupts).
    pub fn post(&mut self, dst: ComponentId, delay: Time, ev: PardEvent) {
        self.sim.post(dst, delay, ev);
    }

    /// Mutable access to the underlying simulation (advanced harnesses
    /// that reach into the raw kernel).
    pub fn sim_mut(&mut self) -> &mut Simulation<PardEvent> {
        &mut self.sim
    }

    /// A machine-wide per-DS-id statistics snapshot (every control
    /// plane's non-zero rows), stamped with the firmware's current time.
    pub fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        self.with_firmware(|fw| fw.metrics_snapshot())
    }
}

impl Drop for PardServer {
    fn drop(&mut self) {
        // Exit-time observability: dump the final metrics snapshot when
        // the configuration names a file (`PARD_METRICS`), and flush any
        // buffered trace lines.
        let run = self.sim.run_config().clone();
        run.write_metrics(|| self.metrics_snapshot().to_json());
        if let Some(auditor) = &run.auditor {
            auditor.emit_summary(self.sim.now());
        }
        if let Some(tracer) = &run.tracer {
            tracer.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pard_workloads::{CacheFlush, Stream, StreamConfig};

    fn small() -> PardServer {
        PardServer::new(SystemConfig::small_test())
    }

    #[test]
    fn builds_and_mounts_all_five_cpas() {
        let server = small();
        let mut fw = server.fw.lock();
        assert_eq!(fw.read("/sys/cpa/cpa0/ident").unwrap(), "CACHE_CP");
        assert_eq!(fw.read("/sys/cpa/cpa1/ident").unwrap(), "MEMORY_CP");
        assert_eq!(fw.read("/sys/cpa/cpa2/ident").unwrap(), "BRIDGE_CP");
        assert_eq!(fw.read("/sys/cpa/cpa3/ident").unwrap(), "IDE_CP");
        assert_eq!(fw.read("/sys/cpa/cpa4/ident").unwrap(), "NIC_CP");
    }

    #[test]
    fn ldom_lifecycle_runs_a_workload() {
        let mut server = small();
        let ds = server
            .create_ldom(LDomSpec::new("w", vec![0], 16 << 20))
            .unwrap();
        server.install_engine(
            0,
            Box::new(Stream::new(StreamConfig {
                array_bytes: 256 * 1024,
                base: 0,
                compute_per_block: 8,
            })),
        );
        server.launch(ds).unwrap();
        server.run_for(Time::from_ms(2));

        let stats = server.core_stats(0);
        assert!(stats.loads > 1000, "stream made progress: {stats:?}");
        assert!(server.llc_occupancy_bytes(ds) > 0);
        let (hits, misses) = server.llc_counts(ds);
        assert!(hits + misses > 0);
        assert!(server.cpu_utilization() > 0.2);
    }

    #[test]
    fn two_ldoms_compete_for_llc() {
        let mut server = small();
        let a = server
            .create_ldom(LDomSpec::new("a", vec![0], 16 << 20))
            .unwrap();
        let b = server
            .create_ldom(LDomSpec::new("b", vec![1], 16 << 20))
            .unwrap();
        // Both flush buffers larger than the 256 KB test LLC.
        server.install_engine(0, Box::new(CacheFlush::new(0, 1 << 20)));
        server.install_engine(1, Box::new(CacheFlush::new(0, 1 << 20)));
        server.launch(a).unwrap();
        server.launch(b).unwrap();
        server.run_for(Time::from_ms(3));

        let occ_a = server.llc_occupancy_bytes(a);
        let occ_b = server.llc_occupancy_bytes(b);
        assert!(occ_a > 0 && occ_b > 0);
        // Unpartitioned: both occupy substantial shares of 256 KB.
        assert!(occ_a + occ_b > 128 * 1024);
    }

    #[test]
    fn waymask_programming_constrains_occupancy() {
        let mut server = small();
        let a = server
            .create_ldom(LDomSpec::new("a", vec![0], 16 << 20))
            .unwrap();
        let b = server
            .create_ldom(LDomSpec::new("b", vec![1], 16 << 20))
            .unwrap();
        server.install_engine(0, Box::new(CacheFlush::new(0, 1 << 20)));
        server.install_engine(1, Box::new(CacheFlush::new(0, 1 << 20)));
        // Partition: ldom0 -> 12 ways, ldom1 -> 4 ways.
        server
            .shell("echo 0x0FFF > /sys/cpa/cpa0/ldoms/ldom0/parameters/waymask")
            .unwrap();
        server
            .shell("echo 0xF000 > /sys/cpa/cpa0/ldoms/ldom1/parameters/waymask")
            .unwrap();
        server.launch(a).unwrap();
        server.launch(b).unwrap();
        server.run_for(Time::from_ms(3));

        let occ_a = server.llc_occupancy_bytes(a) as f64;
        let occ_b = server.llc_occupancy_bytes(b) as f64;
        let ratio = occ_a / occ_b;
        assert!(
            (2.0..=4.5).contains(&ratio),
            "expected ~3:1 partition, got {ratio:.2} ({occ_a} vs {occ_b})"
        );
    }

    #[test]
    fn disjoint_memory_allocations() {
        let mut server = small();
        let a = server
            .create_ldom(LDomSpec::new("a", vec![0], 16 << 20))
            .unwrap();
        let b = server
            .create_ldom(LDomSpec::new("b", vec![1], 16 << 20))
            .unwrap();
        let fw = server.fw.lock();
        let base_a = fw.ldom(a).unwrap().mem_base;
        let base_b = fw.ldom(b).unwrap().mem_base;
        assert_eq!(base_a, 0);
        assert_eq!(base_b, 16 << 20);
    }
}
