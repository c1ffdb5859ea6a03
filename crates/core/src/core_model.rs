//! The CPU core model with its DS-id tag register.

use pard_cache::{CacheGeometry, L1Cache};
use pard_icn::{
    cpu_cycles, CoreCommand, DiskRequest, DsId, MemKind, MemPacket, PacketId, PacketIdGen,
    PardEvent, TickKind,
};
use pard_sim::hash::WordMap;
use pard_sim::stats::LatencySample;
use pard_sim::{audit, Component, ComponentId, Ctx, Time};
use pard_workloads::{Op, WorkloadEngine};

/// Configuration of a [`Core`].
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Private L1 data-cache geometry (Table 2: 64 KB 2-way).
    pub l1: CacheGeometry,
    /// L1 hit latency (Table 2: 2 cycles).
    pub l1_hit: Time,
    /// Memory-level parallelism: maximum outstanding LLC requests (models
    /// the 4-issue out-of-order window's MSHRs).
    pub mlp: usize,
    /// Link latency to the LLC (NoC hop).
    pub link_to_llc: Time,
    /// Maximum compute time executed per scheduling slice before yielding
    /// to the event loop (keeps the event queue responsive; purely a
    /// simulation batching knob).
    pub slice: Time,
    /// Record the round-trip service latency of every L1 miss (issue to
    /// [`PardEvent::MemResp`] — an LLC hit and a DRAM round trip alike,
    /// i.e. the latency the workload actually experiences). Off by
    /// default; the fault experiments drain the sample per phase via
    /// [`Core::take_miss_latency`].
    pub record_miss_latency: bool,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            l1: CacheGeometry::new(64 * 1024, 2, 64),
            l1_hit: cpu_cycles(2),
            mlp: 8,
            link_to_llc: cpu_cycles(4),
            slice: Time::from_us(2),
            record_miss_latency: false,
        }
    }
}

/// Execution statistics of a core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// L1 hits (loads + stores).
    pub l1_hits: u64,
    /// L1 misses (traffic sent to the LLC).
    pub l1_misses: u64,
    /// Operations executed in total.
    pub ops: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// Ready to execute (used transiently).
    None,
    /// A self-scheduled resume tick is in flight.
    Resume,
    /// Blocked on a specific load.
    Load(PacketId),
    /// Blocked on MLP: resumes when any load returns.
    Mlp,
    /// Blocked on a disk completion interrupt.
    Disk(PacketId),
}

/// A CPU core: the paper's request *source*, carrying the **DS-id tag
/// register** that labels every packet it emits (§3 ①).
///
/// The core executes a [`WorkloadEngine`]'s operation stream against the
/// real memory system: L1 hits cost [`CoreConfig::l1_hit`], misses travel
/// to the LLC as tagged packets, blocking loads stall the pipeline,
/// non-blocking loads overlap up to [`CoreConfig::mlp`]. Compute spans are
/// batched up to [`CoreConfig::slice`] per event to keep simulation cost
/// proportional to *memory traffic*, not instructions.
pub struct Core {
    name: String,
    cfg: CoreConfig,
    tag: DsId,
    engine: Option<Box<dyn WorkloadEngine>>,
    l1: L1Cache,
    llc: ComponentId,
    bridge: ComponentId,
    running: bool,
    halted: bool,
    ever_started: bool,
    wait: Wait,
    cursor: Time,
    outstanding: WordMap<u64, Time>,
    ids: PacketIdGen,
    stats: CoreStats,
    started_at: Time,
    idle_accum: Time,
    halted_at: Option<Time>,
    rec_miss: LatencySample,
}

impl Core {
    /// Creates a core wired to the LLC and I/O bridge.
    pub fn new(
        name: impl Into<String>,
        cfg: CoreConfig,
        llc: ComponentId,
        bridge: ComponentId,
    ) -> Self {
        Core {
            name: name.into(),
            l1: L1Cache::new(cfg.l1),
            cfg,
            tag: DsId::DEFAULT,
            engine: None,
            llc,
            bridge,
            running: false,
            halted: false,
            ever_started: false,
            wait: Wait::None,
            cursor: Time::ZERO,
            outstanding: WordMap::default(),
            ids: PacketIdGen::new(),
            stats: CoreStats::default(),
            started_at: Time::ZERO,
            idle_accum: Time::ZERO,
            halted_at: None,
            rec_miss: LatencySample::new(),
        }
    }

    /// Drains and returns the recorded L1-miss service latencies (empty
    /// unless [`CoreConfig::record_miss_latency`] is set). The fault
    /// experiments drain this per phase: it is the latency the workload
    /// itself experiences, so it recovers when trigger-driven recovery
    /// stops the high-priority domain's requests from reaching the
    /// faulted resource at all.
    pub fn take_miss_latency(&mut self) -> LatencySample {
        std::mem::take(&mut self.rec_miss)
    }

    /// Installs the workload engine (before or after launch).
    pub fn install_engine(&mut self, engine: Box<dyn WorkloadEngine>) {
        self.engine = Some(engine);
    }

    /// The tag register's current DS-id.
    pub fn tag(&self) -> DsId {
        self.tag
    }

    /// Whether the core is executing a workload.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Whether the workload ran to completion ([`Op::Halt`]).
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Execution statistics.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Busy fraction since launch: 1.0 means never idle (stalls on memory
    /// count as busy, like OS-level CPU utilisation).
    pub fn busy_fraction(&self, now: Time) -> f64 {
        if !self.ever_started {
            return 0.0;
        }
        let end = self.halted_at.unwrap_or(now);
        let total = now.saturating_sub(self.started_at);
        if total == Time::ZERO {
            return 0.0;
        }
        let idle = self.idle_accum + now.saturating_sub(end);
        1.0 - idle.units() as f64 / total.units() as f64
    }

    /// Typed access to the installed engine (harness-side reporting).
    ///
    /// # Panics
    ///
    /// Panics if no engine is installed or it is not a `T`.
    pub fn with_engine<T: 'static, R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        let engine = self
            .engine
            .as_mut()
            .expect("no workload engine installed on this core");
        let typed = engine
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("engine is not the requested type");
        f(typed)
    }

    /// Borrow of the installed engine, if any.
    pub fn engine(&self) -> Option<&dyn WorkloadEngine> {
        self.engine.as_deref()
    }

    fn resume(&mut self, ctx: &mut Ctx<'_, PardEvent>) {
        self.wait = Wait::None;
        self.run_slice(ctx);
    }

    fn send_llc(
        &mut self,
        ctx: &mut Ctx<'_, PardEvent>,
        at: Time,
        kind: MemKind,
        addr: pard_icn::LAddr,
    ) -> PacketId {
        let id = self.ids.next_id();
        let pkt = MemPacket {
            id,
            ds: self.tag,
            addr,
            kind,
            size: self.cfg.l1.line_bytes(),
            reply_to: ctx.self_id(),
            issued_at: at,
            dma: false,
        };
        ctx.send_at(self.llc, at + self.cfg.link_to_llc, PardEvent::MemReq(pkt));
        id
    }

    fn run_slice(&mut self, ctx: &mut Ctx<'_, PardEvent>) {
        const MAX_OPS_PER_SLICE: u32 = 100_000;
        let now = ctx.now();
        let mut cursor = self.cursor.max(now);
        let slice_end = now + self.cfg.slice;

        for _ in 0..MAX_OPS_PER_SLICE {
            if !self.running {
                self.cursor = cursor;
                return;
            }
            if self.outstanding.len() >= self.cfg.mlp {
                self.wait = Wait::Mlp;
                self.cursor = cursor;
                return;
            }
            let Some(engine) = self.engine.as_mut() else {
                self.running = false;
                self.cursor = cursor;
                return;
            };
            let op = engine.next_op(cursor);
            self.stats.ops += 1;
            match op {
                Op::Compute(cycles) => {
                    cursor += cpu_cycles(cycles);
                    if cursor >= slice_end {
                        self.wait = Wait::Resume;
                        self.cursor = cursor;
                        ctx.send_at(ctx.self_id(), cursor, PardEvent::Tick(TickKind::Core));
                        return;
                    }
                }
                Op::Load { addr, blocking } => {
                    self.stats.loads += 1;
                    let outcome = self.l1.access(addr, false);
                    if outcome.hit {
                        self.stats.l1_hits += 1;
                        cursor += self.cfg.l1_hit;
                    } else {
                        self.stats.l1_misses += 1;
                        if let Some(wb) = outcome.writeback {
                            self.send_llc(ctx, cursor, MemKind::Writeback, wb);
                        }
                        let id = self.send_llc(ctx, cursor, MemKind::Read, addr);
                        self.outstanding.insert(id.0, cursor);
                        cursor += self.cfg.l1_hit; // miss-detect latency
                        if blocking {
                            self.wait = Wait::Load(id);
                            self.cursor = cursor;
                            return;
                        }
                    }
                }
                Op::Store { addr } => {
                    self.stats.stores += 1;
                    let outcome = self.l1.access(addr, true);
                    cursor += self.cfg.l1_hit;
                    if outcome.hit {
                        self.stats.l1_hits += 1;
                    } else {
                        self.stats.l1_misses += 1;
                        if let Some(wb) = outcome.writeback {
                            self.send_llc(ctx, cursor, MemKind::Writeback, wb);
                        }
                        // Write-allocate: fetch ownership of the line.
                        let id = self.send_llc(ctx, cursor, MemKind::Write, addr);
                        self.outstanding.insert(id.0, cursor);
                    }
                }
                Op::IdleUntil(t) => {
                    if t > cursor {
                        self.idle_accum += t - cursor;
                        self.wait = Wait::Resume;
                        self.cursor = t;
                        ctx.send_at(ctx.self_id(), t, PardEvent::Tick(TickKind::Core));
                        return;
                    }
                }
                Op::Disk {
                    disk,
                    kind,
                    buffer,
                    bytes,
                } => {
                    let id = self.ids.next_id();
                    let req = DiskRequest {
                        id,
                        ds: self.tag,
                        disk,
                        kind,
                        buffer,
                        bytes,
                        reply_to: ctx.self_id(),
                        issued_at: cursor,
                    };
                    if audit::enabled() {
                        // Injection point of the core → bridge → IDE
                        // ("disk") conservation domain.
                        audit::packet_inject(
                            audit::Domain::Disk,
                            req.reply_to.raw(),
                            req.id.0,
                            req.ds.raw(),
                            cursor,
                        );
                    }
                    ctx.send_at(self.bridge, cursor, PardEvent::DiskReq(req));
                    self.wait = Wait::Disk(id);
                    self.cursor = cursor;
                    return;
                }
                Op::SetTag(raw) => {
                    // Context switch: retag the core. The untagged private
                    // L1 must be flushed so the next process cannot hit the
                    // previous one's lines (a DS-id-tagged L1 would avoid
                    // this; we take the conservative VIVT-style flush).
                    self.tag = DsId::new(raw);
                    self.l1.flush();
                }
                Op::Halt => {
                    self.running = false;
                    self.halted = true;
                    self.halted_at = Some(cursor);
                    self.cursor = cursor;
                    return;
                }
            }
        }
        // Op-count safety valve: yield and continue next tick.
        self.wait = Wait::Resume;
        self.cursor = cursor;
        let resume_at = cursor.max(now + cpu_cycles(1));
        ctx.send_at(ctx.self_id(), resume_at, PardEvent::Tick(TickKind::Core));
    }
}

impl Component<PardEvent> for Core {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, ev: PardEvent, ctx: &mut Ctx<'_, PardEvent>) {
        match ev {
            PardEvent::CoreCtl(CoreCommand::SetTag(raw)) => {
                self.tag = DsId::new(raw);
                self.l1.flush();
            }
            PardEvent::CoreCtl(CoreCommand::Start) => {
                if !self.running && !self.halted {
                    self.running = true;
                    self.ever_started = true;
                    self.started_at = ctx.now();
                    self.cursor = ctx.now();
                    self.resume(ctx);
                }
            }
            PardEvent::CoreCtl(CoreCommand::Stop) => {
                self.running = false;
            }
            PardEvent::MemResp(resp) => {
                if let Some(issued) = self.outstanding.remove(&resp.id.0) {
                    if self.cfg.record_miss_latency {
                        self.rec_miss.record(ctx.now().saturating_sub(issued));
                    }
                }
                match self.wait {
                    Wait::Load(id) if id == resp.id => self.resume(ctx),
                    Wait::Mlp if self.outstanding.len() < self.cfg.mlp => self.resume(ctx),
                    _ => {}
                }
            }
            PardEvent::Tick(TickKind::Core) => {
                if self.wait == Wait::Resume {
                    self.resume(ctx);
                }
            }
            PardEvent::Interrupt(irq) => {
                if let (Wait::Disk(id), Some(done)) = (self.wait, irq.disk_done) {
                    if done.id == id {
                        self.resume(ctx);
                    }
                }
            }
            other => audit::unexpected_event(
                "core",
                other.kind_label(),
                ctx.now(),
                other.ds().map_or(u16::MAX, DsId::raw),
            ),
        }
    }

    pard_sim::impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use pard_icn::{LAddr, MemResp};
    use pard_sim::Simulation;
    use pard_workloads::impl_engine_any;

    /// Serves every memory request after a fixed latency.
    struct MemStub {
        latency: Time,
        seen: Vec<(DsId, u64, MemKind)>,
    }

    impl Component<PardEvent> for MemStub {
        fn name(&self) -> &str {
            "memstub"
        }
        fn handle(&mut self, ev: PardEvent, ctx: &mut Ctx<'_, PardEvent>) {
            if let PardEvent::MemReq(pkt) = ev {
                self.seen.push((pkt.ds, pkt.addr.raw(), pkt.kind));
                if pkt.kind.wants_response() {
                    let resp = MemResp {
                        id: pkt.id,
                        ds: pkt.ds,
                        addr: pkt.addr,
                        llc_hit: false,
                    };
                    let latency = self.latency;
                    ctx.send(pkt.reply_to, latency, PardEvent::MemResp(resp));
                }
            }
        }
        pard_sim::impl_as_any!();
    }

    struct ScriptedEngine {
        ops: Vec<Op>,
        cursor: usize,
        completion_times: Vec<Time>,
    }

    impl ScriptedEngine {
        fn new(ops: Vec<Op>) -> Self {
            ScriptedEngine {
                ops,
                cursor: 0,
                completion_times: Vec::new(),
            }
        }
    }

    impl WorkloadEngine for ScriptedEngine {
        fn name(&self) -> &str {
            "scripted"
        }
        fn next_op(&mut self, now: Time) -> Op {
            self.completion_times.push(now);
            let op = self.ops.get(self.cursor).copied().unwrap_or(Op::Halt);
            self.cursor += 1;
            op
        }
        impl_engine_any!();
    }

    struct Rig {
        sim: Simulation<PardEvent>,
        core: ComponentId,
        mem: ComponentId,
    }

    fn rig(ops: Vec<Op>) -> Rig {
        let mut sim = Simulation::new();
        let mem = sim.add_component(Box::new(MemStub {
            latency: Time::from_ns(100),
            seen: Vec::new(),
        }));
        let mut core = Core::new("core0", CoreConfig::default(), mem, mem);
        core.install_engine(Box::new(ScriptedEngine::new(ops)));
        let core = sim.add_component(Box::new(core));
        sim.post(core, Time::ZERO, PardEvent::CoreCtl(CoreCommand::SetTag(3)));
        sim.post(core, Time::ZERO, PardEvent::CoreCtl(CoreCommand::Start));
        Rig { sim, core, mem }
    }

    #[test]
    fn tag_register_labels_all_packets() {
        let mut r = rig(vec![
            Op::Load {
                addr: LAddr::new(0x1000),
                blocking: true,
            },
            Op::Store {
                addr: LAddr::new(0x2000),
            },
        ]);
        r.sim.run_until(Time::from_us(10));
        r.sim.with_component::<MemStub, _, _>(r.mem, |m| {
            assert!(!m.seen.is_empty());
            assert!(m.seen.iter().all(|&(ds, _, _)| ds == DsId::new(3)));
        });
    }

    #[test]
    fn blocking_load_stalls_for_memory_latency() {
        let mut r = rig(vec![
            Op::Load {
                addr: LAddr::new(0x1000),
                blocking: true,
            },
            Op::Compute(1),
        ]);
        r.sim.run_until(Time::from_us(10));
        r.sim.with_component::<Core, _, _>(r.core, |c| {
            c.with_engine::<ScriptedEngine, _>(|e| {
                // next_op after the blocking load sees time >= 100 ns.
                let after_load = e.completion_times[1];
                assert!(after_load >= Time::from_ns(100));
            });
            assert!(c.is_halted());
            assert_eq!(c.stats().loads, 1);
            assert_eq!(c.stats().l1_misses, 1);
        });
    }

    #[test]
    fn nonblocking_loads_overlap_up_to_mlp() {
        // 7 (< mlp) non-blocking loads to distinct lines + compute: the
        // engine should reach the compute op well before 7 x 100 ns.
        let mut ops: Vec<Op> = (0..7)
            .map(|i| Op::Load {
                addr: LAddr::new(0x1000 + i * 64),
                blocking: false,
            })
            .collect();
        ops.push(Op::Compute(1));
        let mut r = rig(ops);
        r.sim.run_until(Time::from_us(10));
        r.sim.with_component::<Core, _, _>(r.core, |c| {
            c.with_engine::<ScriptedEngine, _>(|e| {
                let compute_issued = e.completion_times[7];
                assert!(
                    compute_issued < Time::from_ns(100),
                    "loads did not overlap: {compute_issued:?}"
                );
            });
        });
    }

    #[test]
    fn mlp_limit_stalls_the_ninth_load() {
        let ops: Vec<Op> = (0..9)
            .map(|i| Op::Load {
                addr: LAddr::new(0x1000 + i * 64),
                blocking: false,
            })
            .collect();
        let mut r = rig(ops);
        r.sim.run_until(Time::from_us(10));
        r.sim.with_component::<Core, _, _>(r.core, |c| {
            c.with_engine::<ScriptedEngine, _>(|e| {
                // Op index 8 (the 9th load) waits for a response (~100 ns).
                assert!(e.completion_times[8] >= Time::from_ns(100));
            });
        });
    }

    #[test]
    fn l1_absorbs_repeated_accesses() {
        let mut r = rig(vec![
            Op::Load {
                addr: LAddr::new(0x40),
                blocking: true,
            },
            Op::Load {
                addr: LAddr::new(0x40),
                blocking: true,
            },
            Op::Load {
                addr: LAddr::new(0x44),
                blocking: true,
            },
        ]);
        r.sim.run_until(Time::from_us(10));
        r.sim.with_component::<Core, _, _>(r.core, |c| {
            let s = c.stats();
            assert_eq!(s.loads, 3);
            assert_eq!(s.l1_misses, 1, "only the first access misses");
            assert_eq!(s.l1_hits, 2);
        });
        r.sim.with_component::<MemStub, _, _>(r.mem, |m| {
            assert_eq!(m.seen.len(), 1);
        });
    }

    #[test]
    fn idle_until_accounts_utilization() {
        let mut r = rig(vec![
            Op::Compute(2_000), // 1 µs busy
            Op::IdleUntil(Time::from_us(10)),
            Op::Compute(2_000),
        ]);
        r.sim.run_until(Time::from_us(20));
        r.sim.with_component::<Core, _, _>(r.core, |c| {
            assert!(c.is_halted());
            let busy = c.busy_fraction(Time::from_us(20));
            // 2 µs busy of 20 µs total.
            assert!((0.05..=0.2).contains(&busy), "busy fraction {busy}");
        });
    }

    #[test]
    fn stop_command_freezes_the_core() {
        let mut r = rig(vec![Op::Compute(2_000_000_000)]);
        r.sim.post(
            r.core,
            Time::from_us(1),
            PardEvent::CoreCtl(CoreCommand::Stop),
        );
        r.sim.run_until(Time::from_ms(2));
        r.sim.with_component::<Core, _, _>(r.core, |c| {
            assert!(!c.is_running());
            assert!(!c.is_halted());
        });
    }

    #[test]
    fn disk_op_blocks_until_the_completion_interrupt() {
        use pard_icn::{DiskDone, DiskKind, InterruptPacket};

        // Bridge stub: answers every DiskRequest with a completion
        // interrupt after 5 µs (as the APIC would deliver it).
        struct BridgeStub;
        impl Component<PardEvent> for BridgeStub {
            fn name(&self) -> &str {
                "bridgestub"
            }
            fn handle(&mut self, ev: PardEvent, ctx: &mut Ctx<'_, PardEvent>) {
                if let PardEvent::DiskReq(req) = ev {
                    let irq = InterruptPacket {
                        ds: req.ds,
                        vector: 14,
                        disk_done: Some(DiskDone {
                            id: req.id,
                            ds: req.ds,
                            bytes: req.bytes,
                        }),
                    };
                    ctx.send(req.reply_to, Time::from_us(5), PardEvent::Interrupt(irq));
                }
            }
            pard_sim::impl_as_any!();
        }

        let mut sim = Simulation::new();
        let bridge = sim.add_component(Box::new(BridgeStub));
        let mut core = Core::new("core0", CoreConfig::default(), bridge, bridge);
        core.install_engine(Box::new(ScriptedEngine::new(vec![
            Op::Disk {
                disk: 0,
                kind: DiskKind::Write,
                buffer: LAddr::new(0),
                bytes: 4096,
            },
            Op::Compute(2),
        ])));
        let core = sim.add_component(Box::new(core));
        sim.post(core, Time::ZERO, PardEvent::CoreCtl(CoreCommand::Start));
        sim.run_until(Time::from_ms(1));
        sim.with_component::<Core, _, _>(core, |c| {
            assert!(c.is_halted());
            c.with_engine::<ScriptedEngine, _>(|e| {
                // The op after Disk was issued only once the interrupt
                // arrived, ~5 µs in.
                assert!(e.completion_times[1] >= Time::from_us(5));
            });
        });
    }

    #[test]
    fn unrelated_interrupts_do_not_resume_a_disk_wait() {
        use pard_icn::{DiskKind, InterruptPacket};

        struct SilentBridge;
        impl Component<PardEvent> for SilentBridge {
            fn name(&self) -> &str {
                "silent"
            }
            fn handle(&mut self, _ev: PardEvent, _ctx: &mut Ctx<'_, PardEvent>) {}
            pard_sim::impl_as_any!();
        }

        let mut sim = Simulation::new();
        let bridge = sim.add_component(Box::new(SilentBridge));
        let mut core = Core::new("core0", CoreConfig::default(), bridge, bridge);
        core.install_engine(Box::new(ScriptedEngine::new(vec![Op::Disk {
            disk: 0,
            kind: DiskKind::Write,
            buffer: LAddr::new(0),
            bytes: 4096,
        }])));
        let core = sim.add_component(Box::new(core));
        sim.post(core, Time::ZERO, PardEvent::CoreCtl(CoreCommand::Start));
        // A NIC-style interrupt with no disk payload must not unblock it.
        sim.post(
            core,
            Time::from_us(1),
            PardEvent::Interrupt(InterruptPacket {
                ds: DsId::new(0),
                vector: 11,
                disk_done: None,
            }),
        );
        sim.run_until(Time::from_ms(1));
        sim.with_component::<Core, _, _>(core, |c| {
            assert!(!c.is_halted(), "must still be waiting on the disk");
            assert!(c.is_running());
        });
    }

    #[test]
    fn settag_flushes_the_l1() {
        let mut r = rig(vec![
            Op::Load {
                addr: LAddr::new(0x40),
                blocking: true,
            },
            Op::IdleUntil(Time::from_us(5)),
            Op::Load {
                addr: LAddr::new(0x40),
                blocking: true,
            },
        ]);
        r.sim.run_until(Time::from_us(2));
        r.sim.post(
            r.core,
            Time::ZERO,
            PardEvent::CoreCtl(CoreCommand::SetTag(9)),
        );
        r.sim.run_until(Time::from_us(20));
        r.sim.with_component::<Core, _, _>(r.core, |c| {
            assert_eq!(c.stats().l1_misses, 2, "retag flushed the L1");
            assert_eq!(c.tag(), DsId::new(9));
        });
    }
}
