//! The multi-queue NIC virtualised into v-NICs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pard_cp::policy::{PolicyEngine, PolicyReq, ReqClass};
use pard_cp::{shared, ColumnDef, ControlPlane, CpHandle, CpType, DsTable, StatKey, StatsHandle};
use pard_icn::{
    DsId, InterruptPacket, LAddr, MemKind, MemPacket, NetFrame, PacketIdGen, PardEvent, TickKind,
};
use pard_sim::fault::{self, FaultClass};
use pard_sim::{audit, Component, ComponentId, Ctx, Time};

use crate::apic::VEC_NIC;

/// Packs a MAC address into a `u64` for parameter-table storage.
///
/// # Example
///
/// ```
/// let mac = [0x02, 0x00, 0x00, 0x00, 0x00, 0x07];
/// let raw = pard_io::mac_to_u64(mac);
/// assert_eq!(pard_io::u64_to_mac(raw), mac);
/// ```
pub fn mac_to_u64(mac: [u8; 6]) -> u64 {
    let mut out = 0u64;
    for b in mac {
        out = (out << 8) | u64::from(b);
    }
    out
}

/// Unpacks a parameter-table MAC back into bytes.
pub fn u64_to_mac(raw: u64) -> [u8; 6] {
    let mut mac = [0u8; 6];
    for (i, b) in mac.iter_mut().enumerate() {
        *b = ((raw >> (8 * (5 - i))) & 0xFF) as u8;
    }
    mac
}

/// The built-in NIC policy: a frame for a disabled v-NIC is dropped, all
/// others are admitted — the pre-policy `enabled` gate re-expressed as a
/// match-action program. Installed programs can add admission control
/// (token-bucket `charge … else drop`) per v-NIC.
pub const NIC_DEFAULT_POLICY: &str = "when param.enabled == 0 do drop\nwhen all do rank 0";

/// Key of `frames` in the NIC statistics table.
pub const NSTAT_FRAMES: StatKey = StatKey::at(0);
/// Key of `bytes`.
pub const NSTAT_BYTES: StatKey = StatKey::at(1);
/// Key of `dropped`.
pub const NSTAT_DROPPED: StatKey = StatKey::at(2);

/// Builds the NIC control plane (`type` code `N`).
///
/// Each DS-id row *is* a v-NIC: `mac` (the v-NIC's MAC address), `enabled`,
/// and `rx_base` (LDom-physical base of the receive ring). Statistics:
/// `frames`, `bytes` per v-NIC; drops are accounted to the default row.
pub fn nic_control_plane(max_ds: usize, trigger_slots: usize) -> ControlPlane {
    let params = DsTable::new(
        "parameter",
        vec![
            ColumnDef::new("mac"),
            ColumnDef::new("enabled"),
            ColumnDef::new("rx_base"),
        ],
        max_ds,
    );
    let stats = DsTable::new(
        "statistics",
        vec![
            ColumnDef::new("frames"),
            ColumnDef::new("bytes"),
            ColumnDef::new("dropped"),
        ],
        max_ds,
    );
    ControlPlane::new("NIC_CP", CpType::Nic, params, stats, trigger_slots)
}

/// Configuration of the [`Nic`].
#[derive(Debug, Clone)]
pub struct NicConfig {
    /// Receive-ring size per v-NIC (offsets wrap modulo this).
    pub rx_ring_bytes: u64,
    /// Statistics-window length.
    pub window: Time,
    /// DS-id rows (= maximum v-NICs).
    pub max_ds: usize,
    /// Trigger-table slots.
    pub trigger_slots: usize,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            rx_ring_bytes: 1 << 20,
            window: Time::from_ms(1),
            max_ds: 256,
            trigger_slots: 16,
        }
    }
}

/// The physical NIC with its control plane of v-NIC tag registers.
///
/// An incoming frame's destination MAC selects a v-NIC; the v-NIC's DS-id
/// (its table row) tags the receive DMA into the LDom's ring and the
/// completion interrupt (paper §4.1, "tagging I/O requests" for the
/// from-device direction).
pub struct Nic {
    cfg: NicConfig,
    cp: CpHandle,
    /// Lock-free read path into the statistics cells, for policy programs
    /// matching on `stat.*` columns.
    stats: StatsHandle,
    gen_watch: Arc<AtomicU64>,
    cached_gen: u64,
    /// Flat copy of the parameter table (`max_ds` rows × `pstride`),
    /// refreshed on generation change.
    prows: Vec<u64>,
    pstride: usize,
    mac_off: usize,
    rx_base_off: usize,
    engine: PolicyEngine,
    rx_offsets: Vec<u64>,
    bridge: ComponentId,
    apic: ComponentId,
    observer: Option<ComponentId>,
    ids: PacketIdGen,
    win_frames: Vec<u64>,
    win_bytes: Vec<u64>,
    dropped: u64,
    window_armed: bool,
}

impl Nic {
    /// Creates a NIC and returns it with its control-plane handle.
    pub fn new(cfg: NicConfig) -> (Self, CpHandle) {
        let cp = shared(nic_control_plane(cfg.max_ds, cfg.trigger_slots));
        let (gen_watch, stats, pstride, mac_off, rx_base_off, initial) = {
            let mut guard = cp.lock();
            guard
                .set_default_policy(NIC_DEFAULT_POLICY)
                .expect("built-in NIC policy compiles against its own schema");
            (
                guard.generation_watch(),
                guard.stats_handle(),
                guard.params().columns().len(),
                guard.params().must_offset("mac"),
                guard.params().must_offset("rx_base"),
                guard
                    .active_policy()
                    .expect("default policy installed above"),
            )
        };
        let nic = Nic {
            gen_watch,
            stats,
            cached_gen: u64::MAX,
            prows: vec![0; cfg.max_ds * pstride],
            pstride,
            mac_off,
            rx_base_off,
            engine: PolicyEngine::new(initial, cfg.max_ds),
            rx_offsets: vec![0; cfg.max_ds],
            bridge: ComponentId::UNWIRED,
            apic: ComponentId::UNWIRED,
            observer: None,
            ids: PacketIdGen::new(),
            win_frames: vec![0; cfg.max_ds],
            win_bytes: vec![0; cfg.max_ds],
            dropped: 0,
            window_armed: false,
            cp: cp.clone(),
            cfg,
        };
        (nic, cp)
    }

    /// Wires the I/O bridge for receive DMA.
    pub fn set_bridge(&mut self, id: ComponentId) {
        self.bridge = id;
    }

    /// Wires the APIC for receive interrupts.
    pub fn set_apic(&mut self, id: ComponentId) {
        self.apic = id;
    }

    /// Optional observer that receives each demultiplexed frame (tests,
    /// network workloads).
    pub fn set_observer(&mut self, id: ComponentId) {
        self.observer = Some(id);
    }

    /// The control-plane handle.
    pub fn control_plane(&self) -> &CpHandle {
        &self.cp
    }

    /// Frames dropped because no enabled v-NIC matched.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn refresh_params(&mut self) {
        let gen = self.gen_watch.load(Ordering::Acquire);
        if gen == self.cached_gen {
            return;
        }
        {
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
                    .expect("NIC plane always carries a default policy"),
            );
        }
        self.cached_gen = gen;
    }

    /// Demultiplexes a destination MAC to its v-NIC row. Matching is by
    /// MAC alone; whether the matched v-NIC accepts the frame is the
    /// policy program's decision (the built-in program drops when
    /// `enabled == 0`). With duplicate MACs the lowest row wins.
    fn vnic_for(&self, mac: [u8; 6]) -> Option<usize> {
        let raw = mac_to_u64(mac);
        (0..self.cfg.max_ds).find(|&i| self.prows[i * self.pstride + self.mac_off] == raw)
    }

    fn on_frame(&mut self, frame: NetFrame, ctx: &mut Ctx<'_, PardEvent>) {
        self.refresh_params();
        if fault::enabled(FaultClass::Nic) && fault::nic_frame_lost(ctx.now()) {
            // Injected link flap: the frame is lost before any DMA or
            // interrupt is generated, so no conservation domain ever
            // sees it — only the drop counter does.
            self.dropped += 1;
            return;
        }
        let Some(i) = self.vnic_for(frame.dst_mac) else {
            self.dropped += 1;
            return;
        };
        let ds = DsId::new(i as u16);
        let req = PolicyReq {
            ds,
            class: ReqClass::Frame,
            size: u64::from(frame.bytes),
        };
        let srow = if self.engine.program().uses_stats() {
            self.stats.cells().snapshot_row(ds).unwrap_or_default()
        } else {
            Vec::new()
        };
        let prow = &self.prows[i * self.pstride..(i + 1) * self.pstride];
        let decision = self.engine.decide(&req, prow, &srow, ctx.now());
        if let Some(key) = decision.bump {
            let _ = self.stats.add(ds, key, 1);
        }
        if !decision.admit {
            self.dropped += 1;
            return;
        }
        self.win_frames[i] += 1;
        self.win_bytes[i] += u64::from(frame.bytes);

        // Receive DMA into the LDom's ring, tagged with the v-NIC's DS-id.
        let offset = self.rx_offsets[i];
        self.rx_offsets[i] = (offset + u64::from(frame.bytes))
            .checked_rem(self.cfg.rx_ring_bytes.max(1))
            .unwrap_or(0);
        let pkt = MemPacket {
            id: self.ids.next_id(),
            ds,
            addr: LAddr::new(self.prows[i * self.pstride + self.rx_base_off] + offset),
            kind: MemKind::Write,
            size: frame.bytes,
            reply_to: ctx.self_id(),
            issued_at: ctx.now(),
            dma: true,
        };
        if audit::enabled() {
            audit::packet_inject(
                audit::Domain::Dma,
                pkt.reply_to.raw(),
                pkt.id.0,
                pkt.ds.raw(),
                ctx.now(),
            );
        }
        ctx.send(self.bridge, Time::ZERO, PardEvent::MemReq(pkt));

        // Tagged receive interrupt through the APIC.
        let irq = InterruptPacket {
            ds,
            vector: VEC_NIC,
            disk_done: None,
        };
        if audit::enabled() {
            audit::irq_inject(VEC_NIC, ds.raw());
        }
        ctx.send(self.apic, Time::ZERO, PardEvent::Interrupt(irq));

        if let Some(obs) = self.observer {
            // Forward the demuxed frame to the observer (tests, network
            // workloads); its v-NIC attribution is visible in the stats.
            ctx.send(obs, Time::ZERO, PardEvent::NetFrame(frame));
        }
    }

    fn on_window(&mut self, ctx: &mut Ctx<'_, PardEvent>) {
        let now = ctx.now();
        {
            let mut cp = self.cp.lock();
            for i in 0..self.cfg.max_ds {
                if self.win_frames[i] == 0 {
                    continue;
                }
                let ds = DsId::new(i as u16);
                // Window-latched on purpose: fault experiments sample
                // `frames` at phase boundaries and expect the last
                // rollover's value, not a live counter.
                let _ = cp.stats().add(ds, NSTAT_FRAMES, self.win_frames[i]);
                let _ = cp.stats().add(ds, NSTAT_BYTES, self.win_bytes[i]);
                cp.evaluate_triggers(ds, now);
                self.win_frames[i] = 0;
                self.win_bytes[i] = 0;
            }
            let _ = cp.stats().set(DsId::DEFAULT, NSTAT_DROPPED, self.dropped);
        }
        let window = self.cfg.window;
        ctx.send(ctx.self_id(), window, PardEvent::Tick(TickKind::CpWindow));
    }
}

impl Component<PardEvent> for Nic {
    fn name(&self) -> &str {
        "nic"
    }

    fn handle(&mut self, ev: PardEvent, ctx: &mut Ctx<'_, PardEvent>) {
        if !self.window_armed {
            self.window_armed = true;
            let window = self.cfg.window;
            ctx.send(ctx.self_id(), window, PardEvent::Tick(TickKind::CpWindow));
        }
        match ev {
            PardEvent::NetFrame(frame) => self.on_frame(frame, ctx),
            PardEvent::Tick(TickKind::CpWindow) => self.on_window(ctx),
            PardEvent::MemResp(_) => {} // DMA ack; ring pacing not modelled
            other => audit::unexpected_event(
                "nic",
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
    use pard_sim::Simulation;

    struct Sink {
        dma_by_ds: Vec<u64>,
        irqs: Vec<DsId>,
    }

    impl Component<PardEvent> for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn handle(&mut self, ev: PardEvent, _ctx: &mut Ctx<'_, PardEvent>) {
            match ev {
                PardEvent::MemReq(pkt) => self.dma_by_ds[pkt.ds.index()] += u64::from(pkt.size),
                PardEvent::Interrupt(irq) => self.irqs.push(irq.ds),
                _ => {}
            }
        }
        pard_sim::impl_as_any!();
    }

    const MAC_LDOM2: [u8; 6] = [0x02, 0, 0, 0, 0, 2];

    fn rig() -> (Simulation<PardEvent>, ComponentId, ComponentId, CpHandle) {
        let mut sim = Simulation::new();
        let (mut nic, cp) = Nic::new(NicConfig {
            max_ds: 8,
            ..NicConfig::default()
        });
        let sink = sim.add_component(Box::new(Sink {
            dma_by_ds: vec![0; 8],
            irqs: Vec::new(),
        }));
        nic.set_bridge(sink);
        nic.set_apic(sink);
        let nic = sim.add_component(Box::new(nic));
        {
            let mut cp = cp.lock();
            cp.set_param(DsId::new(2), "mac", mac_to_u64(MAC_LDOM2))
                .unwrap();
            cp.set_param(DsId::new(2), "enabled", 1).unwrap();
            cp.set_param(DsId::new(2), "rx_base", 0x10000).unwrap();
        }
        (sim, nic, sink, cp)
    }

    fn frame(mac: [u8; 6], bytes: u32) -> PardEvent {
        PardEvent::NetFrame(NetFrame {
            dst_mac: mac,
            bytes,
            arrived_at: Time::ZERO,
        })
    }

    #[test]
    fn frames_demux_to_vnic_and_tag_dma() {
        let (mut sim, nic, sink, _cp) = rig();
        sim.post(nic, Time::ZERO, frame(MAC_LDOM2, 1500));
        sim.post(nic, Time::ZERO, frame(MAC_LDOM2, 500));
        sim.run_until(Time::from_ms(2));
        sim.with_component::<Sink, _, _>(sink, |s| {
            assert_eq!(s.dma_by_ds[2], 2000, "rx DMA tagged with v-NIC ds");
            assert_eq!(s.irqs, vec![DsId::new(2), DsId::new(2)]);
        });
    }

    #[test]
    fn unknown_mac_is_dropped_and_counted() {
        let (mut sim, nic, sink, cp) = rig();
        sim.post(nic, Time::ZERO, frame([0xFF; 6], 100));
        sim.run_until(Time::from_ms(2));
        sim.with_component::<Sink, _, _>(sink, |s| assert!(s.irqs.is_empty()));
        sim.with_component::<Nic, _, _>(nic, |n| assert_eq!(n.dropped(), 1));
        assert_eq!(cp.lock().stat(DsId::DEFAULT, "dropped").unwrap(), 1);
    }

    #[test]
    fn disabled_vnic_drops() {
        let (mut sim, nic, _sink, cp) = rig();
        cp.lock().set_param(DsId::new(2), "enabled", 0).unwrap();
        sim.post(nic, Time::ZERO, frame(MAC_LDOM2, 100));
        sim.run_until(Time::from_ms(1));
        sim.with_component::<Nic, _, _>(nic, |n| assert_eq!(n.dropped(), 1));
    }

    #[test]
    fn installed_admission_policy_rate_limits_frames() {
        let (mut sim, nic, sink, cp) = rig();
        // 1500-byte burst bucket refilled at 1 KB/s: of three back-to-back
        // 1000-byte frames only the first fits.
        cp.lock()
            .install_policy(
                "when param.enabled == 0 do drop\n\
                 when all do charge size rate 1000 burst 1500 else drop",
            )
            .unwrap();
        for _ in 0..3 {
            sim.post(nic, Time::ZERO, frame(MAC_LDOM2, 1000));
        }
        sim.run_until(Time::from_ms(2));
        sim.with_component::<Nic, _, _>(nic, |n| assert_eq!(n.dropped(), 2));
        sim.with_component::<Sink, _, _>(sink, |s| assert_eq!(s.dma_by_ds[2], 1000));
    }

    #[test]
    fn clearing_an_installed_policy_restores_the_enabled_gate() {
        let (mut sim, nic, _sink, cp) = rig();
        {
            let mut cp = cp.lock();
            cp.install_policy("when all do drop").unwrap();
            cp.clear_policy();
        }
        sim.post(nic, Time::ZERO, frame(MAC_LDOM2, 100));
        sim.run_until(Time::from_ms(1));
        sim.with_component::<Nic, _, _>(nic, |n| assert_eq!(n.dropped(), 0));
    }

    #[test]
    fn stats_accumulate_per_vnic() {
        let (mut sim, nic, _sink, cp) = rig();
        for _ in 0..3 {
            sim.post(nic, Time::ZERO, frame(MAC_LDOM2, 1000));
        }
        sim.run_until(Time::from_ms(3));
        let cp = cp.lock();
        assert_eq!(cp.stat(DsId::new(2), "frames").unwrap(), 3);
        assert_eq!(cp.stat(DsId::new(2), "bytes").unwrap(), 3000);
    }

    #[test]
    fn mac_codec_round_trips() {
        for mac in [[0u8; 6], [0xFF; 6], [1, 2, 3, 4, 5, 6]] {
            assert_eq!(u64_to_mac(mac_to_u64(mac)), mac);
        }
    }
}
