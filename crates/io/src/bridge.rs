//! The I/O bridge and its control plane.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pard_cp::policy::{Decision, PolicyEngine, PolicyReq, ReqClass};
use pard_cp::{shared, ColumnDef, ControlPlane, CpHandle, CpType, DsTable, StatKey, StatsHandle};
use pard_icn::{cpu_cycles, DsId, PardEvent, TickKind};
use pard_sim::trace::{self, TraceCat, TraceVal};
use pard_sim::{audit, Component, ComponentId, Ctx, Time};

/// Configuration of the [`IoBridge`].
#[derive(Debug, Clone)]
pub struct IoBridgeConfig {
    /// Latency added per forwarded packet (PCIe-ish hop).
    pub hop_latency: Time,
    /// Statistics-window length.
    pub window: Time,
    /// DS-id rows in the control-plane tables.
    pub max_ds: usize,
    /// Trigger-table slots.
    pub trigger_slots: usize,
}

impl Default for IoBridgeConfig {
    fn default() -> Self {
        IoBridgeConfig {
            hop_latency: cpu_cycles(200),
            window: Time::from_us(100),
            max_ds: 256,
            trigger_slots: 16,
        }
    }
}

/// The built-in bridge policy: traffic for a disabled DS-id is dropped,
/// everything else forwards — the pre-policy `enable` gate re-expressed as
/// a match-action program. Installed programs can add per-class admission
/// control (e.g. a token-bucket `charge … else defer` on DMA only).
pub const BRIDGE_DEFAULT_POLICY: &str = "when param.enable == 0 do drop\nwhen all do rank 0";

/// Key of `dma_bytes` in the bridge statistics table.
pub const BSTAT_DMA_BYTES: StatKey = StatKey::at(0);
/// Key of `reqs`.
pub const BSTAT_REQS: StatKey = StatKey::at(1);

/// Builds the I/O-bridge control plane (`type` code `B`, Fig. 6).
///
/// Parameters: `enable` (1 = forward traffic for the DS-id; 0 = drop — the
/// bridge-level isolation knob). Statistics: per-DS-id `dma_bytes` and
/// `reqs` over the run.
pub fn bridge_control_plane(max_ds: usize, trigger_slots: usize) -> ControlPlane {
    let params = DsTable::new(
        "parameter",
        vec![ColumnDef::with_default("enable", 1)],
        max_ds,
    );
    let stats = DsTable::new(
        "statistics",
        vec![ColumnDef::new("dma_bytes"), ColumnDef::new("reqs")],
        max_ds,
    );
    ControlPlane::new("BRIDGE_CP", CpType::Bridge, params, stats, trigger_slots)
}

/// The I/O bridge: the accounting hop between cores, devices, and memory.
///
/// * Core-to-device traffic ([`PardEvent::DiskReq`], [`PardEvent::Pio`]) is
///   forwarded to the IDE controller.
/// * Device-to-memory DMA ([`PardEvent::MemReq`] with `dma = true`) is
///   forwarded to the memory controller, accumulating per-DS-id byte
///   counts in the control plane's statistics table. Responses flow from
///   the memory controller straight back to the device (`reply_to` is
///   preserved), so the bridge is a one-way accounting hop.
pub struct IoBridge {
    cfg: IoBridgeConfig,
    cp: CpHandle,
    /// Lock-free accounting path into the control plane's stats cells.
    stats: StatsHandle,
    gen_watch: Arc<AtomicU64>,
    cached_gen: u64,
    /// Parameter rows cached flat against the generation counter, so the
    /// per-packet policy decision takes no lock.
    prows: Vec<u64>,
    pstride: usize,
    engine: PolicyEngine,
    ide: ComponentId,
    mem_ctrl: ComponentId,
    /// Per-window activity marker: which DS-ids saw DMA this window (the
    /// rollover only evaluates triggers for rows that moved).
    win_reqs: Vec<u64>,
    dropped: u64,
    window_armed: bool,
}

impl IoBridge {
    /// Creates a bridge and returns it with its control-plane handle.
    pub fn new(cfg: IoBridgeConfig) -> (Self, CpHandle) {
        let cp = shared(bridge_control_plane(cfg.max_ds, cfg.trigger_slots));
        let (gen_watch, stats, pstride, initial) = {
            let mut guard = cp.lock();
            guard
                .set_default_policy(BRIDGE_DEFAULT_POLICY)
                .expect("built-in bridge policy compiles against its own schema");
            (
                guard.generation_watch(),
                guard.stats_handle(),
                guard.params().columns().len(),
                guard
                    .active_policy()
                    .expect("default policy installed above"),
            )
        };
        let bridge = IoBridge {
            stats,
            gen_watch,
            cached_gen: u64::MAX,
            prows: vec![0; cfg.max_ds * pstride],
            pstride,
            engine: PolicyEngine::new(initial, cfg.max_ds),
            ide: ComponentId::UNWIRED,
            mem_ctrl: ComponentId::UNWIRED,
            win_reqs: vec![0; cfg.max_ds],
            dropped: 0,
            window_armed: false,
            cp: cp.clone(),
            cfg,
        };
        (bridge, cp)
    }

    /// Wires the downstream IDE controller.
    pub fn set_ide(&mut self, id: ComponentId) {
        self.ide = id;
    }

    /// Wires the memory controller.
    pub fn set_mem_ctrl(&mut self, id: ComponentId) {
        self.mem_ctrl = id;
    }

    /// The control-plane handle.
    pub fn control_plane(&self) -> &CpHandle {
        &self.cp
    }

    /// Packets dropped because their DS-id was disabled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Evaluates the active policy against one packet. Out-of-table
    /// DS-ids forward with the default decision (admitted, undeferred) —
    /// the bridge cannot police rows it has no table state for.
    fn decide(&mut self, ds: DsId, class: ReqClass, size: u64, now: Time) -> Decision {
        let gen = self.gen_watch.load(Ordering::Acquire);
        if gen != self.cached_gen {
            let cp = self.cp.lock();
            for i in 0..self.cfg.max_ds {
                let row = cp
                    .params()
                    .row(DsId::new(i as u16))
                    .expect("parameter table is sized to max_ds rows");
                self.prows[i * self.pstride..(i + 1) * self.pstride].copy_from_slice(row);
            }
            self.engine.refresh(
                cp.active_policy()
                    .expect("bridge plane always carries a default policy"),
            );
            self.cached_gen = gen;
        }
        let i = ds.index();
        if i >= self.cfg.max_ds {
            return Decision::default();
        }
        let req = PolicyReq { ds, class, size };
        let srow = if self.engine.program().uses_stats() {
            self.stats.cells().snapshot_row(ds).unwrap_or_default()
        } else {
            Vec::new()
        };
        let prow = &self.prows[i * self.pstride..(i + 1) * self.pstride];
        let decision = self.engine.decide(&req, prow, &srow, now);
        if let Some(key) = decision.bump {
            let _ = self.stats.add(ds, key, 1);
        }
        decision
    }

    /// The forwarding hop for a decision: `defer` doubles the latency (the
    /// bridge has no queue to push to the back of, so deferral is modelled
    /// as an extra hop).
    fn hop_for(&self, decision: Decision) -> Time {
        if decision.deferred {
            self.cfg.hop_latency + self.cfg.hop_latency
        } else {
            self.cfg.hop_latency
        }
    }

    fn account(&mut self, ds: DsId, bytes: u64) {
        if ds.index() < self.cfg.max_ds {
            // Straight into the lock-free cells; win_reqs only marks the
            // row active for trigger evaluation at rollover.
            let _ = self.stats.add(ds, BSTAT_DMA_BYTES, bytes);
            let _ = self.stats.add(ds, BSTAT_REQS, 1);
            self.win_reqs[ds.index()] += 1;
        }
    }

    fn on_window(&mut self, ctx: &mut Ctx<'_, PardEvent>) {
        let now = ctx.now();
        {
            let mut cp = self.cp.lock();
            for i in 0..self.cfg.max_ds {
                if self.win_reqs[i] == 0 {
                    continue;
                }
                cp.evaluate_triggers(DsId::new(i as u16), now);
                self.win_reqs[i] = 0;
            }
        }
        let window = self.cfg.window;
        ctx.send(ctx.self_id(), window, PardEvent::Tick(TickKind::CpWindow));
    }
}

impl Component<PardEvent> for IoBridge {
    fn name(&self) -> &str {
        "io-bridge"
    }

    fn handle(&mut self, ev: PardEvent, ctx: &mut Ctx<'_, PardEvent>) {
        if !self.window_armed {
            self.window_armed = true;
            let window = self.cfg.window;
            ctx.send(ctx.self_id(), window, PardEvent::Tick(TickKind::CpWindow));
        }
        match ev {
            PardEvent::DiskReq(req) => {
                let decision = self.decide(req.ds, ReqClass::Disk, req.bytes, ctx.now());
                if decision.admit {
                    if audit::enabled() {
                        audit::packet_hop(
                            audit::Domain::Disk,
                            req.reply_to.raw(),
                            req.id.0,
                            req.ds.raw(),
                            ctx.now(),
                            "bridge",
                        );
                    }
                    let hop = self.hop_for(decision);
                    ctx.send(self.ide, hop, PardEvent::DiskReq(req));
                } else {
                    if audit::enabled() {
                        audit::packet_drop(audit::Domain::Disk, req.reply_to.raw(), req.id.0);
                    }
                    self.dropped += 1;
                }
            }
            PardEvent::Pio(pio) => {
                let decision = self.decide(pio.ds, ReqClass::Pio, 0, ctx.now());
                if decision.admit {
                    let hop = self.hop_for(decision);
                    ctx.send(self.ide, hop, PardEvent::Pio(pio));
                } else {
                    self.dropped += 1;
                }
            }
            PardEvent::MemReq(pkt) => {
                debug_assert!(pkt.dma, "non-DMA memory traffic through the bridge");
                let decision = self.decide(pkt.ds, ReqClass::Dma, u64::from(pkt.size), ctx.now());
                if decision.admit {
                    if audit::enabled() {
                        audit::packet_hop(
                            audit::Domain::Dma,
                            pkt.reply_to.raw(),
                            pkt.id.0,
                            pkt.ds.raw(),
                            ctx.now(),
                            "bridge",
                        );
                    }
                    self.account(pkt.ds, u64::from(pkt.size));
                    if trace::enabled(TraceCat::Io) {
                        trace::emit(
                            TraceCat::Io,
                            ctx.now(),
                            pkt.ds.raw(),
                            "dma",
                            &[("bytes", TraceVal::U(u64::from(pkt.size)))],
                        );
                    }
                    let hop = self.hop_for(decision);
                    ctx.send(self.mem_ctrl, hop, PardEvent::MemReq(pkt));
                } else {
                    if audit::enabled() {
                        audit::packet_drop(audit::Domain::Dma, pkt.reply_to.raw(), pkt.id.0);
                    }
                    self.dropped += 1;
                    if trace::enabled(TraceCat::Io) {
                        trace::emit(
                            TraceCat::Io,
                            ctx.now(),
                            pkt.ds.raw(),
                            "drop",
                            &[("bytes", TraceVal::U(u64::from(pkt.size)))],
                        );
                    }
                }
            }
            PardEvent::Tick(TickKind::CpWindow) => self.on_window(ctx),
            other => audit::unexpected_event(
                "bridge",
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
    use pard_icn::{DiskKind, DiskRequest, LAddr, MemKind, MemPacket, PacketId};
    use pard_sim::Simulation;

    struct Sink {
        disk_reqs: u64,
        mem_reqs: u64,
    }

    impl Component<PardEvent> for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn handle(&mut self, ev: PardEvent, _ctx: &mut Ctx<'_, PardEvent>) {
            match ev {
                PardEvent::DiskReq(_) => self.disk_reqs += 1,
                PardEvent::MemReq(_) => self.mem_reqs += 1,
                _ => {}
            }
        }
        pard_sim::impl_as_any!();
    }

    fn rig() -> (Simulation<PardEvent>, ComponentId, ComponentId, CpHandle) {
        let mut sim = Simulation::new();
        let (mut bridge, cp) = IoBridge::new(IoBridgeConfig {
            max_ds: 8,
            ..IoBridgeConfig::default()
        });
        let sink = sim.add_component(Box::new(Sink {
            disk_reqs: 0,
            mem_reqs: 0,
        }));
        bridge.set_ide(sink);
        bridge.set_mem_ctrl(sink);
        let bridge = sim.add_component(Box::new(bridge));
        (sim, bridge, sink, cp)
    }

    fn disk_req(ds: u16, reply: ComponentId) -> PardEvent {
        PardEvent::DiskReq(DiskRequest {
            id: PacketId(1),
            ds: DsId::new(ds),
            disk: 0,
            kind: DiskKind::Write,
            buffer: LAddr::ZERO,
            bytes: 4096,
            reply_to: reply,
            issued_at: Time::ZERO,
        })
    }

    fn dma(ds: u16, reply: ComponentId, size: u32) -> PardEvent {
        PardEvent::MemReq(MemPacket {
            id: PacketId(2),
            ds: DsId::new(ds),
            addr: LAddr::ZERO,
            kind: MemKind::Read,
            size,
            reply_to: reply,
            issued_at: Time::ZERO,
            dma: true,
        })
    }

    #[test]
    fn forwards_and_accounts_dma_traffic() {
        let (mut sim, bridge, sink, cp) = rig();
        sim.post(bridge, Time::ZERO, disk_req(1, sink));
        sim.post(bridge, Time::ZERO, dma(1, sink, 4096));
        sim.post(bridge, Time::ZERO, dma(1, sink, 4096));
        sim.run_until(Time::from_ms(1));
        sim.with_component::<Sink, _, _>(sink, |s| {
            assert_eq!(s.disk_reqs, 1);
            assert_eq!(s.mem_reqs, 2);
        });
        let cp = cp.lock();
        assert_eq!(cp.stat(DsId::new(1), "dma_bytes").unwrap(), 8192);
        assert_eq!(cp.stat(DsId::new(1), "reqs").unwrap(), 2);
    }

    #[test]
    fn token_bucket_policy_gates_dma_admission() {
        let (mut sim, bridge, sink, cp) = rig();
        // 4 KB burst bucket on DMA only: the second back-to-back 4 KB DMA
        // burst overflows it and is dropped; disk requests are untouched.
        cp.lock()
            .install_policy(
                "when param.enable == 0 do drop\n\
                 when class == dma do charge size rate 1000000 burst 4096 else drop\n\
                 when all do rank 0",
            )
            .unwrap();
        sim.post(bridge, Time::ZERO, dma(1, sink, 4096));
        sim.post(bridge, Time::ZERO, dma(1, sink, 4096));
        sim.post(bridge, Time::ZERO, disk_req(1, sink));
        sim.run_until(Time::from_ms(1));
        sim.with_component::<Sink, _, _>(sink, |s| {
            assert_eq!(s.mem_reqs, 1, "second DMA burst over the bucket drops");
            assert_eq!(s.disk_reqs, 1, "disk path is not charged");
        });
        sim.with_component::<IoBridge, _, _>(bridge, |b| assert_eq!(b.dropped(), 1));
    }

    #[test]
    fn defer_policy_doubles_the_forwarding_hop() {
        struct TimedSink {
            arrivals: Vec<Time>,
        }
        impl Component<PardEvent> for TimedSink {
            fn name(&self) -> &str {
                "timed-sink"
            }
            fn handle(&mut self, ev: PardEvent, ctx: &mut Ctx<'_, PardEvent>) {
                if matches!(ev, PardEvent::MemReq(_)) {
                    self.arrivals.push(ctx.now());
                }
            }
            pard_sim::impl_as_any!();
        }

        let mut sim = Simulation::new();
        let hop = Time::from_us(1);
        let (mut bridge, cp) = IoBridge::new(IoBridgeConfig {
            max_ds: 8,
            hop_latency: hop,
            ..IoBridgeConfig::default()
        });
        let sink = sim.add_component(Box::new(TimedSink {
            arrivals: Vec::new(),
        }));
        bridge.set_ide(sink);
        bridge.set_mem_ctrl(sink);
        let bridge = sim.add_component(Box::new(bridge));
        cp.lock().install_policy("when all do defer").unwrap();
        sim.post(bridge, Time::ZERO, dma(1, sink, 64));
        sim.run_until(Time::from_ms(1));
        sim.with_component::<TimedSink, _, _>(sink, |s| {
            assert_eq!(s.arrivals, vec![hop + hop], "deferred DMA takes two hops");
        });
    }

    #[test]
    fn disabled_ds_is_dropped() {
        let (mut sim, bridge, sink, cp) = rig();
        cp.lock().set_param(DsId::new(2), "enable", 0).unwrap();
        sim.post(bridge, Time::ZERO, disk_req(2, sink));
        sim.post(bridge, Time::ZERO, dma(2, sink, 64));
        sim.run_until(Time::from_ms(1));
        sim.with_component::<Sink, _, _>(sink, |s| {
            assert_eq!(s.disk_reqs, 0);
            assert_eq!(s.mem_reqs, 0);
        });
        sim.with_component::<IoBridge, _, _>(bridge, |b| assert_eq!(b.dropped(), 2));
    }
}
