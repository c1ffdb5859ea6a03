//! The shared last-level cache component (Fig. 4).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pard_cp::{shared, CpHandle, StatsHandle};
use pard_icn::{cpu_cycles, DsId, MemKind, MemPacket, MemResp, PacketIdGen, PardEvent, TickKind};
use pard_sim::hash::WordMap;
use pard_sim::trace::{self, TraceCat, TraceVal};
use pard_sim::{audit, Component, ComponentId, Ctx, Time};

use crate::array::TagArray;
use crate::cpdef::{llc_control_plane, STAT_CAPACITY, STAT_HIT_CNT, STAT_MISS_CNT, STAT_MISS_RATE};
use crate::geometry::CacheGeometry;
use crate::mshr::{mshr_waiter, Mshr, MshrKey, MshrOutcome};

/// Configuration of the [`Llc`] component.
#[derive(Debug, Clone)]
pub struct LlcConfig {
    /// Cache geometry (Table 2 default: 4 MB, 16-way, 64 B lines).
    pub geometry: CacheGeometry,
    /// Hit latency (Table 2: 20 cycles).
    pub hit_latency: Time,
    /// Extra latency from fill to waiter response.
    pub fill_latency: Time,
    /// Statistics-window length for miss-rate computation and trigger
    /// evaluation.
    pub window: Time,
    /// Number of DS-id rows in the control-plane tables.
    pub max_ds: usize,
    /// Trigger-table slots.
    pub trigger_slots: usize,
    /// MSHR entries.
    pub mshr_entries: usize,
    /// Minimum accesses in a statistics window for the `miss_rate` column
    /// to be refreshed; windows with fewer hold the previous value
    /// (hardware would gate the divider the same way to avoid noise).
    pub window_min_accesses: u64,
    /// ABLATION ONLY: tag writebacks with the *requesting* DS-id instead
    /// of the evicted block's owner DS-id. This is the incorrect design
    /// §4.1 warns against — downstream control planes then mis-attribute
    /// the writeback to the wrong LDom and apply the wrong rules. Kept as
    /// a switch so the effect is demonstrable.
    pub naive_writeback_tagging: bool,
}

impl Default for LlcConfig {
    fn default() -> Self {
        LlcConfig {
            geometry: CacheGeometry::new(4 * 1024 * 1024, 16, 64),
            hit_latency: cpu_cycles(20),
            fill_latency: cpu_cycles(4),
            window: Time::from_us(50),
            max_ds: 256,
            trigger_slots: 64,
            mshr_entries: 256,
            window_min_accesses: 32,
            naive_writeback_tagging: false,
        }
    }
}

/// The shared LLC with its embedded control plane.
///
/// Data-path behaviour (Fig. 4):
///
/// 1. On request arrival the requester's DS-id selects the way mask from
///    the parameter table (cached against the generation counter — a
///    pipeline-hidden read in hardware).
/// 2. A hit requires both tag and owner-DS-id match; hits respond after
///    the pipelined hit latency.
/// 3. Misses allocate an MSHR entry keyed by `(DS-id, line)` and fetch
///    from the memory controller; the DS-id travels with the fetch.
/// 4. Fills install the requesting DS-id as the block's owner; a displaced
///    dirty block is written back **tagged with its owner DS-id** (§4.1).
/// 5. Statistics/trigger work happens at window boundaries, off the
///    critical path (§7.2: the control plane adds no extra cycles).
pub struct Llc {
    cfg: LlcConfig,
    array: TagArray,
    mshr: Mshr,
    cp: CpHandle,
    /// Lock-free recording path into the control plane's stats cells; the
    /// `cp` mutex is only taken at window boundaries (trigger evaluation)
    /// and parameter-generation refreshes.
    stats: StatsHandle,
    gen_watch: Arc<AtomicU64>,
    cached_gen: u64,
    waymasks: Vec<u64>,
    mem_ctrl: ComponentId,
    ids: PacketIdGen,
    outstanding: WordMap<u64, MshrKey>,
    win_hits: Vec<u64>,
    win_misses: Vec<u64>,
    active_ds: Vec<bool>,
    window_armed: bool,
    /// Total responses sent (observability for tests).
    responses_sent: u64,
}

impl Llc {
    /// Creates an LLC and returns it with a handle to its control plane.
    pub fn new(cfg: LlcConfig) -> (Self, CpHandle) {
        let cp = shared(llc_control_plane(cfg.max_ds, cfg.trigger_slots));
        let (gen_watch, stats) = {
            let guard = cp.lock();
            (guard.generation_watch(), guard.stats_handle())
        };
        let llc = Llc {
            stats,
            array: TagArray::new(cfg.geometry, cfg.max_ds),
            mshr: Mshr::new(cfg.mshr_entries),
            gen_watch,
            cached_gen: u64::MAX,
            waymasks: vec![u64::MAX; cfg.max_ds],
            mem_ctrl: ComponentId::UNWIRED,
            ids: PacketIdGen::new(),
            outstanding: WordMap::default(),
            win_hits: vec![0; cfg.max_ds],
            win_misses: vec![0; cfg.max_ds],
            active_ds: vec![false; cfg.max_ds],
            window_armed: false,
            responses_sent: 0,
            cp: cp.clone(),
            cfg,
        };
        (llc, cp)
    }

    /// Wires the downstream memory controller.
    pub fn set_mem_ctrl(&mut self, id: ComponentId) {
        self.mem_ctrl = id;
    }

    /// The control-plane handle (also returned by [`Llc::new`]).
    pub fn control_plane(&self) -> &CpHandle {
        &self.cp
    }

    /// Lines currently owned by `ds` (reads the live tag array).
    pub fn occupancy_bytes(&self, ds: DsId) -> u64 {
        self.array.occupancy_bytes(ds)
    }

    /// Total responses sent to requesters so far.
    pub fn responses_sent(&self) -> u64 {
        self.responses_sent
    }

    /// Cumulative `(hits, misses)` for `ds`, read from the stats cells.
    pub fn counts(&self, ds: DsId) -> (u64, u64) {
        (
            self.stats.get(ds, STAT_HIT_CNT).unwrap_or(0),
            self.stats.get(ds, STAT_MISS_CNT).unwrap_or(0),
        )
    }

    /// Invalidates every line owned by `ds` (LDom teardown). Dirty lines
    /// are dropped rather than written back: the domain's memory is being
    /// reclaimed, so the data has no owner left. Returns the number of
    /// dirty lines discarded.
    pub fn flush_ds(&mut self, ds: DsId) -> u64 {
        self.array.invalidate_ds(ds).len() as u64
    }

    fn refresh_params(&mut self) {
        let gen = self.gen_watch.load(Ordering::Acquire);
        if gen == self.cached_gen {
            return;
        }
        let cp = self.cp.lock();
        for ds in 0..self.cfg.max_ds {
            self.waymasks[ds] = cp
                .param(DsId::new(ds as u16), "waymask")
                .expect("LLC parameter table always has a waymask column sized to max_ds");
        }
        self.cached_gen = gen;
    }

    fn mask_for(&self, ds: DsId) -> u64 {
        self.waymasks.get(ds.index()).copied().unwrap_or(u64::MAX)
    }

    fn arm_window(&mut self, ctx: &mut Ctx<'_, PardEvent>) {
        if !self.window_armed {
            self.window_armed = true;
            let window = self.cfg.window;
            ctx.send(ctx.self_id(), window, PardEvent::Tick(TickKind::CpWindow));
        }
    }

    fn on_mem_req(&mut self, pkt: MemPacket, ctx: &mut Ctx<'_, PardEvent>) {
        self.refresh_params();
        let ds = pkt.ds;
        if audit::enabled() {
            // The LLC is the terminal consumer of the core → crossbar
            // conservation domain.
            audit::packet_retire(
                audit::Domain::Xbar,
                pkt.reply_to.raw(),
                pkt.id.0,
                ds.raw(),
                ctx.now(),
                "llc",
            );
        }
        if ds.index() < self.cfg.max_ds {
            self.active_ds[ds.index()] = true;
        }

        match pkt.kind {
            MemKind::Writeback => {
                // L1 dirty eviction: absorb if present, else forward to
                // DRAM without allocating (no-allocate for writebacks).
                if !self.array.mark_dirty(ds, pkt.addr) {
                    let fwd = MemPacket {
                        id: self.ids.next_id(),
                        reply_to: ctx.self_id(),
                        issued_at: ctx.now(),
                        ..pkt
                    };
                    if audit::enabled() {
                        audit::packet_inject(
                            audit::Domain::Mem,
                            fwd.reply_to.raw(),
                            fwd.id.0,
                            fwd.ds.raw(),
                            ctx.now(),
                        );
                    }
                    let hit_latency = self.cfg.hit_latency;
                    ctx.send(self.mem_ctrl, hit_latency, PardEvent::MemReq(fwd));
                }
            }
            MemKind::Read | MemKind::Write => {
                let is_write = pkt.kind == MemKind::Write;
                if self.array.access(ds, pkt.addr, is_write) {
                    self.record(ds, true);
                    if trace::enabled(TraceCat::Llc) {
                        trace::emit(
                            TraceCat::Llc,
                            ctx.now(),
                            ds.raw(),
                            "hit",
                            &[("addr", TraceVal::U(pkt.addr.raw()))],
                        );
                    }
                    let resp = MemResp {
                        id: pkt.id,
                        ds,
                        addr: pkt.addr,
                        llc_hit: true,
                    };
                    self.responses_sent += 1;
                    let hit_latency = self.cfg.hit_latency;
                    ctx.send(pkt.reply_to, hit_latency, PardEvent::MemResp(resp));
                } else {
                    self.record(ds, false);
                    if trace::enabled(TraceCat::Llc) {
                        trace::emit(
                            TraceCat::Llc,
                            ctx.now(),
                            ds.raw(),
                            "miss",
                            &[("addr", TraceVal::U(pkt.addr.raw()))],
                        );
                    }
                    let key = MshrKey {
                        ds,
                        line: pkt.addr.line_base(),
                    };
                    let waiter = mshr_waiter(pkt.id, pkt.reply_to, is_write);
                    match self.mshr.try_insert(key, waiter) {
                        MshrOutcome::Merged => {}
                        MshrOutcome::Allocated => {
                            let fetch_id = self.ids.next_id();
                            self.outstanding.insert(fetch_id.0, key);
                            let fetch = MemPacket {
                                id: fetch_id,
                                ds,
                                addr: key.line,
                                kind: MemKind::Read,
                                size: self.cfg.geometry.line_bytes(),
                                reply_to: ctx.self_id(),
                                issued_at: ctx.now(),
                                dma: false,
                            };
                            if audit::enabled() {
                                audit::packet_inject(
                                    audit::Domain::Mem,
                                    fetch.reply_to.raw(),
                                    fetch.id.0,
                                    fetch.ds.raw(),
                                    ctx.now(),
                                );
                            }
                            let hit_latency = self.cfg.hit_latency;
                            ctx.send(self.mem_ctrl, hit_latency, PardEvent::MemReq(fetch));
                        }
                        MshrOutcome::Full => {
                            // The core-side MLP caps make this unreachable in
                            // configured systems; fail loudly if violated.
                            panic!("LLC MSHR overflow: raise LlcConfig::mshr_entries");
                        }
                    }
                }
            }
        }
    }

    fn on_mem_resp(&mut self, resp: MemResp, ctx: &mut Ctx<'_, PardEvent>) {
        let Some(key) = self.outstanding.remove(&resp.id.0) else {
            // A response for a forwarded writeback or stale fetch: ignore.
            return;
        };
        let waiters = self.mshr.complete(key).unwrap_or_default();
        let dirty = waiters.iter().any(|w| w.is_write);
        let mask = self.mask_for(key.ds);
        let outcome = self.array.fill(key.ds, key.line, mask, dirty);
        if audit::enabled() {
            // Way-mask exclusivity: the fill must land inside the DS-id's
            // effective mask (the configured mask clipped to the real
            // associativity; an empty clip falls back to all ways, the
            // tag array's own semantics).
            let ways = self.cfg.geometry.ways();
            let full = if ways >= 64 {
                u64::MAX
            } else {
                (1u64 << ways) - 1
            };
            let clipped = mask & full;
            let effective = if clipped == 0 { full } else { clipped };
            if effective & (1u64 << outcome.way) == 0 {
                audit::violation(
                    audit::AuditKind::Waymask,
                    ctx.now(),
                    key.ds.raw(),
                    "fill_outside_mask",
                    &[
                        ("way", TraceVal::U(u64::from(outcome.way))),
                        ("mask", TraceVal::U(effective)),
                    ],
                );
            }
        }

        if let Some(victim) = outcome.evicted {
            if victim.dirty {
                // Writeback tagged with the *owner* DS-id (§4.1) — unless
                // the ablation switch reproduces the naive design.
                let wb_ds = if self.cfg.naive_writeback_tagging {
                    key.ds
                } else {
                    victim.owner
                };
                if trace::enabled(TraceCat::Llc) {
                    trace::emit(
                        TraceCat::Llc,
                        ctx.now(),
                        wb_ds.raw(),
                        "evict",
                        &[
                            ("addr", TraceVal::U(victim.addr.raw())),
                            ("dirty", TraceVal::B(true)),
                        ],
                    );
                }
                let wb = MemPacket {
                    id: self.ids.next_id(),
                    ds: wb_ds,
                    addr: victim.addr,
                    kind: MemKind::Writeback,
                    size: self.cfg.geometry.line_bytes(),
                    reply_to: ctx.self_id(),
                    issued_at: ctx.now(),
                    dma: false,
                };
                if audit::enabled() {
                    audit::packet_inject(
                        audit::Domain::Mem,
                        wb.reply_to.raw(),
                        wb.id.0,
                        wb.ds.raw(),
                        ctx.now(),
                    );
                }
                ctx.send(self.mem_ctrl, Time::ZERO, PardEvent::MemReq(wb));
            }
        }

        let fill_latency = self.cfg.fill_latency;
        for w in &waiters {
            let out = MemResp {
                id: w.id,
                ds: key.ds,
                addr: key.line,
                llc_hit: false,
            };
            self.responses_sent += 1;
            ctx.send(w.reply_to, fill_latency, PardEvent::MemResp(out));
        }
        self.mshr.recycle(waiters);
    }

    #[inline]
    fn record(&mut self, ds: DsId, hit: bool) {
        let i = ds.index();
        if i >= self.cfg.max_ds {
            return;
        }
        // Cumulative counters accumulate straight into the lock-free
        // stats cells (the paper's premise: per-access accounting without
        // serialising the pipeline). The window counters stay local — the
        // miss-rate divider at rollover needs a private epoch.
        if hit {
            self.win_hits[i] += 1;
            let _ = self.stats.add(ds, STAT_HIT_CNT, 1);
        } else {
            self.win_misses[i] += 1;
            let _ = self.stats.add(ds, STAT_MISS_CNT, 1);
        }
    }

    fn on_window(&mut self, ctx: &mut Ctx<'_, PardEvent>) {
        let now = ctx.now();
        {
            let mut cp = self.cp.lock();
            for i in 0..self.cfg.max_ds {
                if !self.active_ds[i] {
                    continue;
                }
                let ds = DsId::new(i as u16);
                let total = self.win_hits[i] + self.win_misses[i];
                if total >= self.cfg.window_min_accesses.max(1) {
                    let rate = 100 * self.win_misses[i] / total;
                    let _ = cp.stats().set(ds, STAT_MISS_RATE, rate);
                }
                let _ = cp
                    .stats()
                    .set(ds, STAT_CAPACITY, self.array.occupancy_bytes(ds));
                if audit::enabled() {
                    // Capacity accounting: the published statistic must read
                    // back as exactly the live tag-array occupancy.
                    let live = self.array.occupancy_bytes(ds);
                    let published = cp.stat(ds, "capacity").unwrap_or(u64::MAX);
                    if published != live {
                        audit::violation(
                            audit::AuditKind::Waymask,
                            now,
                            ds.raw(),
                            "capacity_mismatch",
                            &[
                                ("published", TraceVal::U(published)),
                                ("live", TraceVal::U(live)),
                            ],
                        );
                    }
                }
                cp.evaluate_triggers(ds, now);
                self.win_hits[i] = 0;
                self.win_misses[i] = 0;
            }
        }
        if audit::enabled() {
            // Capacity accounting: ownership never exceeds the physical
            // array (each valid line has exactly one owner DS-id).
            let valid = self.array.total_valid_lines();
            let lines = self.cfg.geometry.lines();
            if valid > lines {
                audit::violation(
                    audit::AuditKind::Waymask,
                    now,
                    u16::MAX,
                    "occupancy_overflow",
                    &[
                        ("valid_lines", TraceVal::U(valid)),
                        ("total_lines", TraceVal::U(lines)),
                    ],
                );
            }
        }
        let window = self.cfg.window;
        ctx.send(ctx.self_id(), window, PardEvent::Tick(TickKind::CpWindow));
    }
}

impl Component<PardEvent> for Llc {
    fn name(&self) -> &str {
        "llc"
    }

    fn handle(&mut self, ev: PardEvent, ctx: &mut Ctx<'_, PardEvent>) {
        self.arm_window(ctx);
        match ev {
            PardEvent::MemReq(pkt) => self.on_mem_req(pkt, ctx),
            PardEvent::MemResp(resp) => self.on_mem_resp(resp, ctx),
            PardEvent::Tick(TickKind::CpWindow) => self.on_window(ctx),
            other => audit::unexpected_event(
                "llc",
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
    use pard_icn::{LAddr, PacketId};
    use pard_sim::Simulation;

    /// A memory-controller stub answering every read after a fixed delay.
    struct MemStub {
        latency: Time,
        reads: u64,
        writebacks_by_ds: Vec<u64>,
    }

    impl Component<PardEvent> for MemStub {
        fn name(&self) -> &str {
            "memstub"
        }
        fn handle(&mut self, ev: PardEvent, ctx: &mut Ctx<'_, PardEvent>) {
            if let PardEvent::MemReq(pkt) = ev {
                match pkt.kind {
                    MemKind::Writeback => {
                        self.writebacks_by_ds[pkt.ds.index()] += 1;
                    }
                    _ => {
                        self.reads += 1;
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
        }
        pard_sim::impl_as_any!();
    }

    /// Records responses for assertions.
    struct Requester {
        responses: Vec<(PacketId, bool, Time)>,
    }

    impl Component<PardEvent> for Requester {
        fn name(&self) -> &str {
            "requester"
        }
        fn handle(&mut self, ev: PardEvent, ctx: &mut Ctx<'_, PardEvent>) {
            if let PardEvent::MemResp(r) = ev {
                self.responses.push((r.id, r.llc_hit, ctx.now()));
            }
        }
        pard_sim::impl_as_any!();
    }

    struct Rig {
        sim: Simulation<PardEvent>,
        llc: ComponentId,
        requester: ComponentId,
        mem: ComponentId,
        cp: CpHandle,
    }

    fn rig() -> Rig {
        rig_with(LlcConfig {
            geometry: CacheGeometry::new(4 * 64 * 2, 4, 64), // 2 sets × 4 ways
            max_ds: 8,
            window: Time::from_us(10),
            window_min_accesses: 1,
            ..LlcConfig::default()
        })
    }

    fn rig_with(cfg: LlcConfig) -> Rig {
        let mut sim = Simulation::new();
        let (mut llc, cp) = Llc::new(cfg);
        let mem = sim.add_component(Box::new(MemStub {
            latency: Time::from_ns(50),
            reads: 0,
            writebacks_by_ds: vec![0; 8],
        }));
        llc.set_mem_ctrl(mem);
        let llc = sim.add_component(Box::new(llc));
        let requester = sim.add_component(Box::new(Requester {
            responses: Vec::new(),
        }));
        Rig {
            sim,
            llc,
            requester,
            mem,
            cp,
        }
    }

    fn req(rig: &Rig, id: u64, ds: u16, addr: u64, kind: MemKind) -> PardEvent {
        PardEvent::MemReq(MemPacket {
            id: PacketId(id),
            ds: DsId::new(ds),
            addr: LAddr::new(addr),
            kind,
            size: 64,
            reply_to: rig.requester,
            issued_at: Time::ZERO,
            dma: false,
        })
    }

    #[test]
    fn miss_then_hit_latency() {
        let mut r = rig();
        let e = req(&r, 1, 1, 0x40, MemKind::Read);
        r.sim.post(r.llc, Time::ZERO, e);
        r.sim.run_until(Time::from_us(1));
        let e = req(&r, 2, 1, 0x40, MemKind::Read);
        r.sim.post(r.llc, Time::ZERO, e);
        r.sim.run_until(Time::from_us(2));

        let hit_latency = cpu_cycles(20);
        r.sim.with_component::<Requester, _, _>(r.requester, |q| {
            assert_eq!(q.responses.len(), 2);
            let (_, hit0, _) = q.responses[0];
            let (_, hit1, t1) = q.responses[1];
            assert!(!hit0, "first access misses");
            assert!(hit1, "second access hits");
            // Hit latency = exactly the configured pipeline latency:
            // the control plane adds no extra cycles (§7.2).
            assert_eq!(t1, Time::from_us(1) + hit_latency);
        });
    }

    #[test]
    fn llc_control_plane_adds_no_latency() {
        // Install triggers and nonzero stats traffic; hit latency unchanged.
        let mut r = rig();
        {
            let mut cp = r.cp.lock();
            for slot in 0..4 {
                cp.install_trigger(
                    slot,
                    pard_cp::Trigger::new(DsId::new(1), 0, pard_cp::CmpOp::Gt, 1),
                )
                .unwrap();
            }
        }
        let e = req(&r, 1, 1, 0x40, MemKind::Read);
        r.sim.post(r.llc, Time::ZERO, e);
        r.sim.run_until(Time::from_us(1));
        let e = req(&r, 2, 1, 0x40, MemKind::Read);
        r.sim.post(r.llc, Time::ZERO, e);
        r.sim.run_until(Time::from_us(2));
        r.sim.with_component::<Requester, _, _>(r.requester, |q| {
            let (_, hit, t) = q.responses[1];
            assert!(hit);
            assert_eq!(t, Time::from_us(1) + cpu_cycles(20));
        });
    }

    #[test]
    fn same_address_different_ds_fetches_twice() {
        let mut r = rig();
        let a = req(&r, 1, 1, 0x80, MemKind::Read);
        let b = req(&r, 2, 2, 0x80, MemKind::Read);
        r.sim.post(r.llc, Time::ZERO, a);
        r.sim.post(r.llc, Time::ZERO, b);
        r.sim.run_until(Time::from_us(1));
        r.sim
            .with_component::<MemStub, _, _>(r.mem, |m| assert_eq!(m.reads, 2));
    }

    #[test]
    fn mshr_merges_same_line_same_ds() {
        let mut r = rig();
        let a = req(&r, 1, 1, 0x80, MemKind::Read);
        let b = req(&r, 2, 1, 0x84, MemKind::Read); // same line
        r.sim.post(r.llc, Time::ZERO, a);
        r.sim.post(r.llc, Time::ZERO, b);
        r.sim.run_until(Time::from_us(1));
        r.sim
            .with_component::<MemStub, _, _>(r.mem, |m| assert_eq!(m.reads, 1));
        r.sim.with_component::<Requester, _, _>(r.requester, |q| {
            assert_eq!(q.responses.len(), 2, "both waiters answered");
        });
    }

    #[test]
    fn eviction_writeback_carries_owner_ds() {
        let mut r = rig();
        // ds1 dirties 4 lines of set 0 (tags 1..=4); then ds2 floods set 0.
        for (i, tag) in (1u64..=4).enumerate() {
            let e = req(&r, i as u64, 1, tag * 2 * 64, MemKind::Write);
            r.sim.post(r.llc, Time::from_ns(i as u64 * 200), e);
        }
        r.sim.run_until(Time::from_us(2));
        for (i, tag) in (5u64..=8).enumerate() {
            let e = req(&r, 100 + i as u64, 2, tag * 2 * 64, MemKind::Read);
            r.sim.post(r.llc, Time::from_ns(i as u64 * 200), e);
        }
        r.sim.run_until(Time::from_us(4));
        r.sim.with_component::<MemStub, _, _>(r.mem, |m| {
            assert_eq!(
                m.writebacks_by_ds[1], 4,
                "all writebacks tagged with owner ds1"
            );
            assert_eq!(m.writebacks_by_ds[2], 0);
        });
    }

    #[test]
    fn waymask_partitions_capacity() {
        let mut r = rig();
        // Partition: ds1 gets ways {0,1}, ds2 gets ways {2,3}.
        {
            let mut cp = r.cp.lock();
            cp.set_param(DsId::new(1), "waymask", 0b0011).unwrap();
            cp.set_param(DsId::new(2), "waymask", 0b1100).unwrap();
        }
        // Each ds touches 8 distinct lines of set 0.
        let mut t = Time::ZERO;
        for tag in 1u64..=8 {
            for ds in [1u16, 2] {
                let e = req(
                    &r,
                    tag * 10 + u64::from(ds),
                    ds,
                    tag * 2 * 64,
                    MemKind::Read,
                );
                r.sim.post(r.llc, t, e);
                t += Time::from_ns(300);
            }
        }
        r.sim.run_until(t + Time::from_us(5));
        r.sim.with_component::<Llc, _, _>(r.llc, |llc| {
            assert_eq!(llc.occupancy_bytes(DsId::new(1)), 2 * 64);
            assert_eq!(llc.occupancy_bytes(DsId::new(2)), 2 * 64);
        });
    }

    #[test]
    fn window_publishes_stats_and_fires_triggers() {
        let mut r = rig();
        {
            let mut cp = r.cp.lock();
            cp.install_trigger(
                0,
                pard_cp::Trigger::new(
                    DsId::new(1),
                    crate::STAT_MISS_RATE.offset(),
                    pard_cp::CmpOp::Gt,
                    30,
                ),
            )
            .unwrap();
        }
        let (_, sink) = {
            let mut cp = r.cp.lock();
            let (line, sink) = pard_cp::InterruptLine::channel();
            cp.attach(0, line.clone());
            (line, sink)
        };
        // All misses -> 100% miss rate in the first window.
        for i in 0..10u64 {
            let e = req(&r, i, 1, i * 2 * 64, MemKind::Read);
            r.sim.post(r.llc, Time::from_ns(i * 100), e);
        }
        r.sim.run_until(Time::from_us(30));
        {
            let cp = r.cp.lock();
            assert_eq!(cp.stat(DsId::new(1), "miss_rate").unwrap(), 100);
            assert_eq!(cp.stat(DsId::new(1), "miss_cnt").unwrap(), 10);
            assert!(cp.stat(DsId::new(1), "capacity").unwrap() >= 64);
        }
        let irqs = sink.drain();
        assert_eq!(irqs.len(), 1, "miss-rate trigger fired once (latched)");
        assert_eq!(irqs[0].ds, DsId::new(1));
    }

    #[test]
    fn naive_writeback_tagging_misattributes_traffic() {
        // The §4.1 ablation: with the naive design, writebacks caused by
        // ds2's fills are charged to ds2 even though the dirty data is
        // ds1's — the exact statistics corruption the paper warns about.
        let mut r = rig_with(LlcConfig {
            geometry: CacheGeometry::new(4 * 64 * 2, 4, 64),
            max_ds: 8,
            window: Time::from_us(10),
            window_min_accesses: 1,
            naive_writeback_tagging: true,
            ..LlcConfig::default()
        });
        for (i, tag) in (1u64..=4).enumerate() {
            let e = req(&r, i as u64, 1, tag * 2 * 64, MemKind::Write);
            r.sim.post(r.llc, Time::from_ns(i as u64 * 200), e);
        }
        r.sim.run_until(Time::from_us(2));
        for (i, tag) in (5u64..=8).enumerate() {
            let e = req(&r, 100 + i as u64, 2, tag * 2 * 64, MemKind::Read);
            r.sim.post(r.llc, Time::from_ns(i as u64 * 200), e);
        }
        r.sim.run_until(Time::from_us(4));
        r.sim.with_component::<MemStub, _, _>(r.mem, |m| {
            assert_eq!(m.writebacks_by_ds[1], 0, "owner loses its traffic");
            assert_eq!(
                m.writebacks_by_ds[2], 4,
                "requester is wrongly charged for the owner's dirty data"
            );
        });
    }

    #[test]
    fn writeback_from_l1_absorbed_when_present() {
        let mut r = rig();
        // Load a line, then send an L1 writeback for it: no DRAM traffic.
        let e = req(&r, 1, 1, 0x40, MemKind::Read);
        r.sim.post(r.llc, Time::ZERO, e);
        r.sim.run_until(Time::from_us(1));
        let wb = req(&r, 2, 1, 0x40, MemKind::Writeback);
        r.sim.post(r.llc, Time::ZERO, wb);
        r.sim.run_until(Time::from_us(2));
        r.sim.with_component::<MemStub, _, _>(r.mem, |m| {
            assert_eq!(m.writebacks_by_ds[1], 0, "absorbed in LLC");
        });
        // Unknown line: forwarded to DRAM.
        let wb = req(&r, 3, 1, 0x9999C0, MemKind::Writeback);
        r.sim.post(r.llc, Time::ZERO, wb);
        r.sim.run_until(Time::from_us(3));
        r.sim.with_component::<MemStub, _, _>(r.mem, |m| {
            assert_eq!(m.writebacks_by_ds[1], 1);
        });
    }
}
