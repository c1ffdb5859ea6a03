//! The IDE disk controller: DMA tag registers + bandwidth quotas.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pard_cp::policy::{PolicyEngine, PolicyReq, ReqClass};
use pard_cp::{shared, ColumnDef, ControlPlane, CpHandle, CpType, DsTable, StatKey, StatsHandle};
use pard_icn::DsId;
use pard_icn::{
    DiskDone, DiskKind, DiskRequest, LAddr, MemKind, MemPacket, PacketIdGen, PardEvent, PioResp,
    TickKind,
};
use pard_sim::fault::{self, FaultClass};
use pard_sim::stats::WindowedCounter;
use pard_sim::trace::{self, TraceCat, TraceVal};
use pard_sim::{audit, Component, ComponentId, Ctx, Time};

use crate::apic::ide_interrupt;

/// Device-register offset of the DMA descriptor register: a PIO write here
/// initialises the channel's DMA tag register from the write's DS-id
/// (paper §4.1 step 1).
pub const REG_DESC: u64 = 8;

/// Configuration of the [`IdeCtrl`].
#[derive(Debug, Clone)]
pub struct IdeConfig {
    /// DMA channels (Table 2: a 4-channel IDE controller).
    pub channels: u32,
    /// Attached disks (Table 2: 8 disks).
    pub disks: u32,
    /// Aggregate sustained controller bandwidth in bytes/second.
    pub aggregate_bandwidth: f64,
    /// Service-loop quantum: bandwidth is granted per quantum according to
    /// the per-DS-id quotas.
    pub quantum: Time,
    /// DMA burst size toward memory.
    pub dma_chunk: u32,
    /// Statistics-window length.
    pub window: Time,
    /// DS-id rows in the control-plane tables.
    pub max_ds: usize,
    /// Trigger-table slots.
    pub trigger_slots: usize,
}

impl Default for IdeConfig {
    fn default() -> Self {
        IdeConfig {
            channels: 4,
            disks: 8,
            aggregate_bandwidth: 640e6, // 8 disks x 80 MB/s
            quantum: Time::from_us(100),
            dma_chunk: 64 * 1024,
            window: Time::from_ms(1),
            max_ds: 256,
            trigger_slots: 16,
        }
    }
}

/// The built-in IDE policy: each DS-id's service weight is its `bandwidth`
/// quota parameter — the pre-policy quota engine re-expressed as a one-rule
/// match-action program. Weight 0 means "fair share of the leftover".
pub const IDE_DEFAULT_POLICY: &str = "when all do weight param.bandwidth";

/// Key of `bandwidth` in the IDE statistics table.
pub const ISTAT_BANDWIDTH: StatKey = StatKey::at(0);
/// Key of `bytes`.
pub const ISTAT_BYTES: StatKey = StatKey::at(1);
/// Key of `reqs`.
pub const ISTAT_REQS: StatKey = StatKey::at(2);
/// Key of `drops`.
pub const ISTAT_DROPS: StatKey = StatKey::at(3);

/// Builds the IDE control plane (`type` code `I`).
///
/// Parameters: `bandwidth` — the DS-id's share of controller bandwidth in
/// percent; `0` means "fair share of whatever explicit quotas leave over"
/// (the initial state of the Figure 10 experiment). Statistics:
/// `bandwidth` (MB/s over the last window), `bytes`, `reqs`, and `drops`
/// (requests aborted by injected quota-engine faults — zero outside
/// fault experiments).
pub fn ide_control_plane(max_ds: usize, trigger_slots: usize) -> ControlPlane {
    let params = DsTable::new("parameter", vec![ColumnDef::new("bandwidth")], max_ds);
    let stats = DsTable::new(
        "statistics",
        vec![
            ColumnDef::new("bandwidth"),
            ColumnDef::new("bytes"),
            ColumnDef::new("reqs"),
            ColumnDef::new("drops"),
        ],
        max_ds,
    );
    ControlPlane::new("IDE_CP", CpType::Io, params, stats, trigger_slots)
}

#[derive(Debug)]
struct ActiveReq {
    req: DiskRequest,
    /// DS-id captured from the channel's DMA tag register at descriptor
    /// time; tags every transfer and the completion interrupt.
    tag: DsId,
    remaining: u64,
    next_buf_offset: u64,
}

/// Per-DS-id progress snapshot (observability for Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskProgress {
    /// Bytes transferred in total.
    pub bytes_done: u64,
    /// Requests completed.
    pub requests_done: u64,
}

/// The IDE controller component.
///
/// Disk requests are queued per DS-id. Every service quantum the
/// controller distributes `aggregate_bandwidth × quantum` bytes among the
/// DS-ids with queued work, proportionally to their `bandwidth` quota from
/// the control plane (unquota'd DS-ids share the remainder equally —
/// "sharing without partitioning"). Data movement generates DS-id-tagged
/// DMA traffic through the I/O bridge, and completions raise DS-id-tagged
/// interrupts through the APIC (§4.1).
pub struct IdeCtrl {
    cfg: IdeConfig,
    cp: CpHandle,
    /// Lock-free read path into the statistics cells, for policy programs
    /// whose weight expressions reference `stat.*` columns.
    stats: StatsHandle,
    gen_watch: Arc<AtomicU64>,
    cached_gen: u64,
    /// Per-DS-id service weights, computed by the policy engine (the
    /// built-in program reduces them to the `bandwidth` quota column).
    quotas: Vec<u64>,
    /// Flat copy of the parameter table (`max_ds` rows × `pstride`),
    /// refreshed on generation change.
    prows: Vec<u64>,
    pstride: usize,
    engine: PolicyEngine,
    tag_regs: Vec<DsId>,
    queues: Vec<VecDeque<ActiveReq>>,
    bridge: ComponentId,
    apic: ComponentId,
    ids: PacketIdGen,
    tick_armed: bool,
    window_armed: bool,
    win_bytes: Vec<u64>,
    cum_bytes: Vec<u64>,
    cum_reqs: Vec<u64>,
    cum_drops: Vec<u64>,
    active_ds: Vec<bool>,
    /// Tracks the real span of each closed statistics window so bandwidth
    /// divides by observed time, not the configured width.
    window_clock: WindowedCounter,
}

impl IdeCtrl {
    /// Creates a controller and returns it with its control-plane handle.
    pub fn new(cfg: IdeConfig) -> (Self, CpHandle) {
        let cp = shared(ide_control_plane(cfg.max_ds, cfg.trigger_slots));
        let (gen_watch, stats, pstride, initial) = {
            let mut guard = cp.lock();
            guard
                .set_default_policy(IDE_DEFAULT_POLICY)
                .expect("built-in IDE policy compiles against its own schema");
            (
                guard.generation_watch(),
                guard.stats_handle(),
                guard.params().columns().len(),
                guard
                    .active_policy()
                    .expect("default policy installed above"),
            )
        };
        let ide = IdeCtrl {
            gen_watch,
            stats,
            cached_gen: u64::MAX,
            quotas: vec![0; cfg.max_ds],
            prows: vec![0; cfg.max_ds * pstride],
            pstride,
            engine: PolicyEngine::new(initial, cfg.max_ds),
            tag_regs: vec![DsId::DEFAULT; cfg.channels as usize],
            queues: (0..cfg.max_ds).map(|_| VecDeque::new()).collect(),
            bridge: ComponentId::UNWIRED,
            apic: ComponentId::UNWIRED,
            ids: PacketIdGen::new(),
            tick_armed: false,
            window_armed: false,
            win_bytes: vec![0; cfg.max_ds],
            cum_bytes: vec![0; cfg.max_ds],
            cum_reqs: vec![0; cfg.max_ds],
            cum_drops: vec![0; cfg.max_ds],
            active_ds: vec![false; cfg.max_ds],
            window_clock: WindowedCounter::new(),
            cp: cp.clone(),
            cfg,
        };
        (ide, cp)
    }

    /// Wires the I/O bridge (for DMA memory traffic).
    pub fn set_bridge(&mut self, id: ComponentId) {
        self.bridge = id;
    }

    /// Wires the APIC (for completion interrupts).
    pub fn set_apic(&mut self, id: ComponentId) {
        self.apic = id;
    }

    /// The control-plane handle.
    pub fn control_plane(&self) -> &CpHandle {
        &self.cp
    }

    /// Progress snapshot for `ds`.
    pub fn progress(&self, ds: DsId) -> DiskProgress {
        DiskProgress {
            bytes_done: self.cum_bytes.get(ds.index()).copied().unwrap_or(0),
            requests_done: self.cum_reqs.get(ds.index()).copied().unwrap_or(0),
        }
    }

    /// The DMA tag register of `channel` (test observability for §4.1).
    pub fn tag_register(&self, channel: u32) -> DsId {
        self.tag_regs[channel as usize]
    }

    /// Re-derives the per-DS-id service weights from the active policy.
    ///
    /// Parameter rows and the program itself refresh only on a
    /// generation change; the weight evaluation additionally re-runs
    /// every quantum when the program reads `stat.*` columns (so
    /// stat-reactive policies track live usage).
    fn refresh_params(&mut self, now: Time) {
        let gen = self.gen_watch.load(Ordering::Acquire);
        if gen == self.cached_gen && !self.engine.program().uses_stats() {
            return;
        }
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
                    .expect("IDE plane always carries a default policy"),
            );
            self.cached_gen = gen;
        }
        let live_stats = self.engine.program().uses_stats();
        for i in 0..self.cfg.max_ds {
            let ds = DsId::new(i as u16);
            let req = PolicyReq {
                ds,
                class: ReqClass::Disk,
                size: 0,
            };
            let srow = if live_stats {
                self.stats.cells().snapshot_row(ds).unwrap_or_default()
            } else {
                Vec::new()
            };
            let prow = &self.prows[i * self.pstride..(i + 1) * self.pstride];
            self.quotas[i] = self.engine.decide(&req, prow, &srow, now).weight;
        }
    }

    fn channel_of(&self, disk: u8) -> usize {
        (u32::from(disk) % self.cfg.channels) as usize
    }

    fn on_disk_req(&mut self, req: DiskRequest, ctx: &mut Ctx<'_, PardEvent>) {
        if audit::enabled() {
            // The controller is the terminal consumer of the core → bridge
            // → IDE ("disk") conservation domain.
            audit::packet_retire(
                audit::Domain::Disk,
                req.reply_to.raw(),
                req.id.0,
                req.ds.raw(),
                ctx.now(),
                "ide",
            );
        }
        // The descriptor write initialises the channel's DMA tag register
        // with the DS-id that rode on the write (§4.1 step 1) …
        let ch = self.channel_of(req.disk);
        self.tag_regs[ch] = req.ds;
        // … and the engine uses that register to tag all data transfers.
        let tag = self.tag_regs[ch];
        let i = tag.index().min(self.cfg.max_ds - 1);
        self.active_ds[i] = true;
        self.queues[i].push_back(ActiveReq {
            remaining: req.bytes,
            next_buf_offset: 0,
            req,
            tag,
        });
        self.arm_tick(ctx);
    }

    fn arm_tick(&mut self, ctx: &mut Ctx<'_, PardEvent>) {
        if self.tick_armed {
            return;
        }
        self.tick_armed = true;
        let quantum = self.cfg.quantum;
        ctx.send(ctx.self_id(), quantum, PardEvent::Tick(TickKind::Ide));
    }

    /// Computes each active DS-id's share of the quantum in percent.
    fn shares(&self, active: &[usize]) -> Vec<(usize, f64)> {
        let explicit_sum: u64 = active.iter().map(|&i| self.quotas[i]).sum();
        let implicit_count = active.iter().filter(|&&i| self.quotas[i] == 0).count();
        let norm = explicit_sum.max(100) as f64;
        let leftover = (100u64.saturating_sub(explicit_sum)) as f64;
        active
            .iter()
            .map(|&i| {
                let share = if self.quotas[i] > 0 {
                    self.quotas[i] as f64 / norm * 100.0
                } else if implicit_count > 0 {
                    leftover / implicit_count as f64
                } else {
                    0.0
                };
                (i, share)
            })
            .collect()
    }

    /// Injected quota-engine request drops: at each scheduling
    /// opportunity every queued head request is considered once; a hit
    /// aborts it. The aborted request completes immediately with the
    /// bytes moved so far — the issuing engine never hangs, every DMA
    /// packet already injected still retires normally, and the `disk`
    /// conservation domain is untouched (its packets retire on arrival).
    fn apply_fault_drops(&mut self, ctx: &mut Ctx<'_, PardEvent>) {
        let now = ctx.now();
        for i in 0..self.cfg.max_ds {
            if self.queues[i].is_empty() || !fault::ide_should_drop(now) {
                continue;
            }
            let dropped = self.queues[i].pop_front().expect("non-empty queue");
            self.cum_drops[i] += 1;
            let moved = dropped.req.bytes - dropped.remaining;
            if trace::enabled(TraceCat::Ide) {
                trace::emit(
                    TraceCat::Ide,
                    now,
                    dropped.tag.raw(),
                    "drop",
                    &[("bytes_moved", TraceVal::U(moved))],
                );
            }
            let done = DiskDone {
                id: dropped.req.id,
                ds: dropped.tag,
                bytes: moved,
            };
            if audit::enabled() {
                audit::irq_inject(crate::apic::VEC_IDE, dropped.tag.raw());
            }
            ctx.send(
                self.apic,
                Time::ZERO,
                PardEvent::Interrupt(ide_interrupt(dropped.tag, done)),
            );
        }
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_, PardEvent>) {
        self.tick_armed = false;
        self.refresh_params(ctx.now());
        if fault::enabled(FaultClass::Ide) {
            self.apply_fault_drops(ctx);
        }

        let active: Vec<usize> = (0..self.cfg.max_ds)
            .filter(|&i| !self.queues[i].is_empty())
            .collect();
        if active.is_empty() {
            return;
        }

        let mut quantum_bytes = self.cfg.aggregate_bandwidth * self.cfg.quantum.as_secs();
        if fault::enabled(FaultClass::Ide) {
            // Injected quota-engine degradation: the whole quantum
            // shrinks. The overgrant audit ceiling below derives from the
            // same (degraded) value, so the quota invariant stays sound
            // under fault.
            quantum_bytes *= f64::from(fault::ide_quota_pct(ctx.now())) / 100.0;
        }
        let mut granted_total = 0u64;
        for (i, share_pct) in self.shares(&active) {
            let mut budget = (quantum_bytes * share_pct / 100.0) as u64;
            if trace::enabled(TraceCat::Ide) {
                trace::emit(
                    TraceCat::Ide,
                    ctx.now(),
                    i as u16,
                    "grant",
                    &[
                        ("share_pct", TraceVal::F(share_pct)),
                        ("budget_bytes", TraceVal::U(budget)),
                    ],
                );
            }
            while budget > 0 {
                let Some(head) = self.queues[i].front_mut() else {
                    break;
                };
                let granted = budget.min(head.remaining);
                head.remaining -= granted;
                budget -= granted;
                granted_total += granted;
                self.win_bytes[i] += granted;
                self.cum_bytes[i] += granted;

                // Generate the DS-id-tagged DMA traffic for this slice.
                let mut moved = 0u64;
                while moved < granted {
                    let chunk = (granted - moved).min(u64::from(self.cfg.dma_chunk)) as u32;
                    let kind = match head.req.kind {
                        DiskKind::Write => MemKind::Read, // memory -> device
                        DiskKind::Read => MemKind::Write, // device -> memory
                    };
                    let pkt = MemPacket {
                        id: self.ids.next_id(),
                        ds: head.tag,
                        addr: LAddr::new(head.req.buffer.raw() + head.next_buf_offset),
                        kind,
                        size: chunk,
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
                    head.next_buf_offset += u64::from(chunk);
                    moved += u64::from(chunk);
                }

                if head.remaining == 0 {
                    let finished = self.queues[i].pop_front().expect("head exists");
                    self.cum_reqs[i] += 1;
                    if trace::enabled(TraceCat::Ide) {
                        trace::emit(
                            TraceCat::Ide,
                            ctx.now(),
                            finished.tag.raw(),
                            "done",
                            &[("bytes", TraceVal::U(finished.req.bytes))],
                        );
                    }
                    let done = DiskDone {
                        id: finished.req.id,
                        ds: finished.tag,
                        bytes: finished.req.bytes,
                    };
                    if audit::enabled() {
                        audit::irq_inject(crate::apic::VEC_IDE, finished.tag.raw());
                    }
                    ctx.send(
                        self.apic,
                        Time::ZERO,
                        PardEvent::Interrupt(ide_interrupt(finished.tag, done)),
                    );
                } else {
                    break; // budget exhausted on the head request
                }
            }
        }

        if audit::enabled() {
            // Quota soundness: the shares computed for one quantum are
            // normalised to 100%, so the bytes granted in this tick can
            // never exceed the controller's aggregate quantum budget
            // (+1 byte of float-truncation slack).
            let ceiling = quantum_bytes as u64 + 1;
            if granted_total > ceiling {
                audit::violation(
                    audit::AuditKind::Quota,
                    ctx.now(),
                    u16::MAX,
                    "ide_quantum_overgrant",
                    &[
                        ("granted_bytes", TraceVal::U(granted_total)),
                        ("quantum_bytes", TraceVal::U(ceiling)),
                    ],
                );
            }
        }

        if self.queues.iter().any(|q| !q.is_empty()) {
            self.arm_tick(ctx);
        }
    }

    fn on_window(&mut self, ctx: &mut Ctx<'_, PardEvent>) {
        let now = ctx.now();
        self.window_clock.roll(now);
        let span = self.window_clock.last_window_span();
        let secs = if span == Time::ZERO {
            self.cfg.window.as_secs()
        } else {
            span.as_secs()
        };
        {
            let mut cp = self.cp.lock();
            for i in 0..self.cfg.max_ds {
                if !self.active_ds[i] {
                    continue;
                }
                let ds = DsId::new(i as u16);
                let mbps = (self.win_bytes[i] as f64 / secs / 1e6) as u64;
                // Published window-latched (not live): fault experiments
                // sample `bytes`/`drops` at phase boundaries and expect
                // the value frozen at the last rollover.
                let _ = cp.stats().set(ds, ISTAT_BANDWIDTH, mbps);
                let _ = cp.stats().set(ds, ISTAT_BYTES, self.cum_bytes[i]);
                let _ = cp.stats().set(ds, ISTAT_REQS, self.cum_reqs[i]);
                let _ = cp.stats().set(ds, ISTAT_DROPS, self.cum_drops[i]);
                cp.evaluate_triggers(ds, now);
                self.win_bytes[i] = 0;
            }
        }
        let window = self.cfg.window;
        ctx.send(ctx.self_id(), window, PardEvent::Tick(TickKind::CpWindow));
    }
}

impl Component<PardEvent> for IdeCtrl {
    fn name(&self) -> &str {
        "ide"
    }

    fn handle(&mut self, ev: PardEvent, ctx: &mut Ctx<'_, PardEvent>) {
        if !self.window_armed {
            self.window_armed = true;
            self.window_clock.open_window_at(ctx.now());
            let window = self.cfg.window;
            ctx.send(ctx.self_id(), window, PardEvent::Tick(TickKind::CpWindow));
        }
        match ev {
            PardEvent::DiskReq(req) => self.on_disk_req(req, ctx),
            PardEvent::Tick(TickKind::Ide) => self.on_tick(ctx),
            PardEvent::Tick(TickKind::CpWindow) => self.on_window(ctx),
            PardEvent::Pio(pio) => {
                // Device-register access; the descriptor register updates
                // the channel tag register (channel 0 for simplicity).
                if pio.reg == REG_DESC && pio.write.is_some() {
                    self.tag_regs[0] = pio.ds;
                }
                let resp = PioResp {
                    id: pio.id,
                    value: pio.write.unwrap_or(0x50),
                };
                ctx.send(pio.reply_to, Time::ZERO, PardEvent::PioResp(resp));
            }
            PardEvent::MemResp(_) => {
                // DMA read data returning from memory; transfer pacing is
                // bandwidth-driven, so nothing to do.
            }
            other => audit::unexpected_event(
                "ide",
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
    use pard_icn::PacketId;
    use pard_sim::Simulation;

    struct Sink {
        dma_bytes_by_ds: Vec<u64>,
        interrupts: Vec<DsId>,
    }

    impl Component<PardEvent> for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn handle(&mut self, ev: PardEvent, _ctx: &mut Ctx<'_, PardEvent>) {
            match ev {
                PardEvent::MemReq(pkt) => {
                    self.dma_bytes_by_ds[pkt.ds.index()] += u64::from(pkt.size);
                }
                PardEvent::Interrupt(irq) => self.interrupts.push(irq.ds),
                _ => {}
            }
        }
        pard_sim::impl_as_any!();
    }

    struct Rig {
        sim: Simulation<PardEvent>,
        ide: ComponentId,
        sink: ComponentId,
        cp: CpHandle,
    }

    fn rig() -> Rig {
        let mut sim = Simulation::new();
        let (mut ide, cp) = IdeCtrl::new(IdeConfig {
            max_ds: 8,
            aggregate_bandwidth: 100e6, // 100 MB/s
            quantum: Time::from_us(100),
            ..IdeConfig::default()
        });
        let sink = sim.add_component(Box::new(Sink {
            dma_bytes_by_ds: vec![0; 8],
            interrupts: Vec::new(),
        }));
        ide.set_bridge(sink);
        ide.set_apic(sink);
        let ide = sim.add_component(Box::new(ide));
        Rig { sim, ide, sink, cp }
    }

    fn dd(rig: &Rig, id: u64, ds: u16, bytes: u64) -> PardEvent {
        PardEvent::DiskReq(DiskRequest {
            id: PacketId(id),
            ds: DsId::new(ds),
            disk: 1,
            kind: DiskKind::Write,
            buffer: LAddr::ZERO,
            bytes,
            reply_to: rig.sink,
            issued_at: Time::ZERO,
        })
    }

    #[test]
    fn equal_share_without_quotas() {
        let mut r = rig();
        let total = 1_000_000u64; // 1 MB each
        r.sim.post(r.ide, Time::ZERO, dd(&r, 1, 1, total));
        r.sim.post(r.ide, Time::ZERO, dd(&r, 2, 2, total));
        // 100 MB/s shared: 2 MB total takes ~20 ms; run 12 ms and compare.
        r.sim.run_until(Time::from_ms(12));
        r.sim.with_component::<IdeCtrl, _, _>(r.ide, |ide| {
            let p1 = ide.progress(DsId::new(1)).bytes_done;
            let p2 = ide.progress(DsId::new(2)).bytes_done;
            assert!(p1 > 0 && p2 > 0);
            let ratio = p1 as f64 / p2 as f64;
            assert!((0.95..=1.05).contains(&ratio), "unfair split: {ratio}");
        });
    }

    #[test]
    fn quota_shifts_bandwidth_80_20() {
        let mut r = rig();
        r.cp.lock()
            .set_param(DsId::new(1), "bandwidth", 80)
            .unwrap();
        let total = 10_000_000u64;
        r.sim.post(r.ide, Time::ZERO, dd(&r, 1, 1, total));
        r.sim.post(r.ide, Time::ZERO, dd(&r, 2, 2, total));
        r.sim.run_until(Time::from_ms(50));
        r.sim.with_component::<IdeCtrl, _, _>(r.ide, |ide| {
            let p1 = ide.progress(DsId::new(1)).bytes_done as f64;
            let p2 = ide.progress(DsId::new(2)).bytes_done as f64;
            let share = p1 / (p1 + p2);
            assert!(
                (0.75..=0.85).contains(&share),
                "expected ~80% share, got {share:.3}"
            );
        });
    }

    #[test]
    fn installed_policy_reshapes_quotas() {
        let mut r = rig();
        // No `bandwidth` quota is programmed; the installed program alone
        // gives DS 1 an 80% service weight.
        r.cp.lock()
            .install_policy("when ds == 1 do weight 80\nwhen all do weight 0")
            .unwrap();
        let total = 10_000_000u64;
        r.sim.post(r.ide, Time::ZERO, dd(&r, 1, 1, total));
        r.sim.post(r.ide, Time::ZERO, dd(&r, 2, 2, total));
        r.sim.run_until(Time::from_ms(50));
        r.sim.with_component::<IdeCtrl, _, _>(r.ide, |ide| {
            let p1 = ide.progress(DsId::new(1)).bytes_done as f64;
            let p2 = ide.progress(DsId::new(2)).bytes_done as f64;
            let share = p1 / (p1 + p2);
            assert!(
                (0.75..=0.85).contains(&share),
                "expected ~80% share, got {share:.3}"
            );
        });
    }

    #[test]
    fn clearing_an_installed_policy_restores_the_quota_column() {
        let mut r = rig();
        {
            let mut cp = r.cp.lock();
            cp.set_param(DsId::new(1), "bandwidth", 80).unwrap();
            // An installed flat policy overrides the quota column …
            cp.install_policy("when all do weight 0").unwrap();
            cp.clear_policy();
            // … but clearing reverts to the built-in quota-column program.
        }
        let total = 10_000_000u64;
        r.sim.post(r.ide, Time::ZERO, dd(&r, 1, 1, total));
        r.sim.post(r.ide, Time::ZERO, dd(&r, 2, 2, total));
        r.sim.run_until(Time::from_ms(50));
        r.sim.with_component::<IdeCtrl, _, _>(r.ide, |ide| {
            let p1 = ide.progress(DsId::new(1)).bytes_done as f64;
            let p2 = ide.progress(DsId::new(2)).bytes_done as f64;
            let share = p1 / (p1 + p2);
            assert!(
                (0.75..=0.85).contains(&share),
                "expected ~80% share, got {share:.3}"
            );
        });
    }

    #[test]
    fn completion_interrupt_carries_dma_tag() {
        let mut r = rig();
        r.sim.post(r.ide, Time::ZERO, dd(&r, 9, 3, 10_000));
        r.sim.run_until(Time::from_ms(5));
        r.sim.with_component::<Sink, _, _>(r.sink, |s| {
            assert_eq!(s.interrupts, vec![DsId::new(3)]);
            assert_eq!(s.dma_bytes_by_ds[3], 10_000);
        });
    }

    #[test]
    fn descriptor_write_sets_tag_register() {
        let mut r = rig();
        r.sim.post(r.ide, Time::ZERO, dd(&r, 1, 5, 1));
        r.sim.run_until(Time::from_ms(1));
        r.sim.with_component::<IdeCtrl, _, _>(r.ide, |ide| {
            // disk 1 -> channel 1.
            assert_eq!(ide.tag_register(1), DsId::new(5));
        });
    }

    #[test]
    fn stats_table_reports_bandwidth() {
        let mut r = rig();
        r.sim.post(r.ide, Time::ZERO, dd(&r, 1, 1, 50_000_000));
        r.sim.run_until(Time::from_ms(10));
        let cp = r.cp.lock();
        let mbps = cp.stat(DsId::new(1), "bandwidth").unwrap();
        // Alone on a 100 MB/s controller: ~100 MB/s.
        assert!((90..=110).contains(&mbps), "got {mbps} MB/s");
    }
}
