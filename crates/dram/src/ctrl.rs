//! The memory-controller component (Fig. 5).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pard_cp::policy::{Decision, Pifo, PolicyEngine, PolicyReq, Program, ReqClass};
use pard_cp::{shared, CpHandle, StatsHandle};
use pard_icn::{to_mem_cycles, DsId, MemPacket, MemResp, PardEvent, TickKind, MEM_CYCLE};
use pard_sim::stats::{LatencySample, WindowedCounter};
use pard_sim::trace::{self, TraceCat, TraceVal};
use pard_sim::fault::{self, FaultClass};
use pard_sim::{audit, Component, Ctx, Time};

use crate::bank::{Bank, RankTracker};
use crate::cpdef::{
    mem_control_plane, MEM_BASELINE_POLICY, MEM_DEFAULT_POLICY, MSTAT_AVG_QLAT, MSTAT_BANDWIDTH,
    MSTAT_COMP_SAVED, MSTAT_ROW_HITS, MSTAT_SERV_CNT,
};
use crate::geometry::{BankAddr, DramGeometry};
use crate::timing::DramTiming;

/// Configuration of the [`MemCtrl`] component.
#[derive(Debug, Clone)]
pub struct MemCtrlConfig {
    /// DDR timing parameters.
    pub timing: DramTiming,
    /// DRAM organisation.
    pub geometry: DramGeometry,
    /// Statistics-window length.
    pub window: Time,
    /// DS-id rows in the control-plane tables.
    pub max_ds: usize,
    /// Trigger-table slots.
    pub trigger_slots: usize,
    /// Whether the control plane's priority queues and high-priority row
    /// buffers are active on the data path. `false` models the baseline
    /// ("w/o control plane") memory controller of Figure 11: a stock
    /// MIG-style controller that services requests **in order** from a
    /// single queue, so every request queues behind all earlier ones.
    pub priorities_enabled: bool,
    /// Whether to record the per-request queueing-delay distribution
    /// (costs memory; used by the Figure 11 harness).
    pub record_queueing: bool,
    /// FR-FCFS lookahead window of the single-queue scheduler used when
    /// `priorities_enabled` is false. The default (16) models a competent
    /// conventional controller (the gem5-style baseline of Figure 8); the
    /// Figure 11 harness sets 2 to model the stock MIG-style controller
    /// the paper's FPGA baseline used.
    pub baseline_window: usize,
}

impl Default for MemCtrlConfig {
    fn default() -> Self {
        MemCtrlConfig {
            timing: DramTiming::ddr3_1600_11(),
            geometry: DramGeometry::table2(),
            window: Time::from_us(50),
            max_ds: 256,
            trigger_slots: 64,
            priorities_enabled: true,
            record_queueing: false,
            baseline_window: 16,
        }
    }
}

/// Summary of recorded queueing delays, split by priority class.
#[derive(Debug, Clone)]
pub struct QueueingStats {
    /// Delays of high-priority requests, in memory cycles.
    pub high: Vec<u64>,
    /// Delays of low-priority requests, in memory cycles.
    pub low: Vec<u64>,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    pkt: MemPacket,
    loc: BankAddr,
    enqueued_at: Time,
    high: bool,
    use_hp_buffer: bool,
}

/// The DDR3 memory controller with its embedded control plane.
///
/// Request flow (Fig. 5):
///
/// 1. The DS-id selects address mapping and scheduling treatment: the
///    plane's active match-action [`Program`] assigns each request a PIFO
///    rank (the built-in program re-expresses the paper's two priority
///    classes as ranks 0/1).
/// 2. The LDom-physical address is translated to a DRAM physical address.
/// 3. The request enters the [`Pifo`] at its assigned rank.
/// 4. The arbiter serves the lowest present rank, FR-FCFS within it, among
///    requests whose banks are ready — with the built-in program this is
///    exactly *high-priority first, FR-FCFS within a class*.
/// 5. Statistics update and trigger checks happen at window boundaries.
pub struct MemCtrl {
    cfg: MemCtrlConfig,
    cp: CpHandle,
    gen_watch: Arc<AtomicU64>,
    cached_gen: u64,
    /// Flat per-DS parameter rows in schema order (stride `pstride`),
    /// refreshed on generation change. Offsets below are resolved once at
    /// construction against the plane's schema — a missing column is a
    /// loud wiring bug, never a silent zero.
    prows: Vec<u64>,
    pstride: usize,
    base_off: usize,
    limit_off: usize,
    rowbuf_off: usize,
    compress_off: usize,
    engine: PolicyEngine,
    /// Per-DS decisions memoized at refresh time when the active program
    /// is [`Program::per_ds_pure`] (both built-in memory programs are):
    /// the per-request path then reduces to one indexed copy. Empty when
    /// the program must be interpreted per request.
    dec_cache: Vec<Decision>,
    baseline: Arc<Program>,
    banks: Vec<Bank>,
    ranks: Vec<RankTracker>,
    bus_free_at: Time,
    queue: Pifo<Pending>,
    wb_q: VecDeque<Pending>,
    policy_dropped: u64,
    tick_armed: bool,
    next_tick_at: Time,
    window_armed: bool,
    // Per-DS window statistics.
    qlat_sum: Vec<u64>,
    qlat_cnt: Vec<u64>,
    win_bytes: Vec<u64>,
    active_ds: Vec<bool>,
    /// Lock-free recording path for the cumulative counters
    /// (`serv_cnt`/`row_hits`/`comp_saved`); the `cp` mutex is only taken
    /// at window boundaries.
    stats: StatsHandle,
    /// Measures the real span of each statistics window, so bandwidth
    /// divides by the time actually covered rather than the configured
    /// width (they differ when a window closes irregularly).
    window_clock: WindowedCounter,
    // Figure 11 recorders.
    rec_high: LatencySample,
    rec_low: LatencySample,
    // Per-DS-id recorders (fig_fault phase measurements).
    rec_ds: Vec<LatencySample>,
    served_total: u64,
}

impl MemCtrl {
    /// Creates a controller and returns it with its control-plane handle.
    pub fn new(cfg: MemCtrlConfig) -> (Self, CpHandle) {
        let cp = shared(mem_control_plane(cfg.max_ds, cfg.trigger_slots));
        let (gen_watch, stats, pstride, base_off, limit_off, rowbuf_off, compress_off) = {
            let mut guard = cp.lock();
            // The previously hardcoded two-class arbitration, as data: the
            // default program compiles through the same pipeline as
            // operator-installed policies.
            guard
                .set_default_policy(MEM_DEFAULT_POLICY)
                .expect("built-in memory policy compiles");
            let p = guard.params();
            (
                guard.generation_watch(),
                guard.stats_handle(),
                p.columns().len(),
                p.must_offset("addr_base"),
                p.must_offset("addr_limit"),
                p.must_offset("rowbuf"),
                p.must_offset("compress"),
            )
        };
        let baseline = Arc::new(
            cp.lock()
                .compile_policy(MEM_BASELINE_POLICY)
                .expect("baseline memory policy compiles"),
        );
        let initial = if cfg.priorities_enabled {
            cp.lock()
                .active_policy()
                .expect("default policy installed above")
        } else {
            Arc::clone(&baseline)
        };
        let nbanks = cfg.geometry.total_banks() as usize;
        let nranks = cfg.geometry.ranks as usize;
        let ctrl = MemCtrl {
            gen_watch,
            cached_gen: u64::MAX,
            prows: vec![0; cfg.max_ds * pstride],
            pstride,
            base_off,
            limit_off,
            rowbuf_off,
            compress_off,
            engine: PolicyEngine::new(initial, cfg.max_ds),
            dec_cache: Vec::new(),
            baseline,
            banks: vec![Bank::default(); nbanks],
            ranks: vec![RankTracker::default(); nranks],
            bus_free_at: Time::ZERO,
            queue: Pifo::new(),
            wb_q: VecDeque::new(),
            policy_dropped: 0,
            tick_armed: false,
            next_tick_at: Time::MAX,
            window_armed: false,
            qlat_sum: vec![0; cfg.max_ds],
            qlat_cnt: vec![0; cfg.max_ds],
            win_bytes: vec![0; cfg.max_ds],
            active_ds: vec![false; cfg.max_ds],
            stats,
            window_clock: WindowedCounter::new(),
            rec_high: LatencySample::new(),
            rec_low: LatencySample::new(),
            rec_ds: vec![LatencySample::new(); cfg.max_ds],
            served_total: 0,
            cp: cp.clone(),
            cfg,
        };
        (ctrl, cp)
    }

    /// The control-plane handle.
    pub fn control_plane(&self) -> &CpHandle {
        &self.cp
    }

    /// Total requests served.
    pub fn served_total(&self) -> u64 {
        self.served_total
    }

    /// Current queue depths `(urgent, rest)` — with the built-in program
    /// these are the paper's high and low priority classes.
    pub fn queue_depths(&self) -> (usize, usize) {
        let urgent = self.queue.urgent_len();
        (urgent, self.queue.len() - urgent)
    }

    /// Requests denied by a `drop` micro-op of the active policy (the
    /// built-in programs never drop).
    pub fn policy_dropped(&self) -> u64 {
        self.policy_dropped
    }

    /// Current write-buffer depth.
    pub fn write_queue_depth(&self) -> usize {
        self.wb_q.len()
    }

    /// The recorded queueing-delay samples in memory cycles (requires
    /// [`MemCtrlConfig::record_queueing`]).
    pub fn queueing_stats(&self) -> QueueingStats {
        let to_cycles = |s: &LatencySample| -> Vec<u64> {
            let mut s = s.clone();
            s.cdf()
                .into_iter()
                .flat_map(|(t, _)| std::iter::once(to_mem_cycles(t)))
                .collect()
        };
        QueueingStats {
            high: to_cycles(&self.rec_high),
            low: to_cycles(&self.rec_low),
        }
    }

    /// Mean queueing delay in memory cycles per priority class
    /// `(high, low)`.
    pub fn mean_queueing_cycles(&self) -> (f64, f64) {
        (
            self.rec_high.mean().as_ns() / self.cfg.timing.tck.as_ns(),
            self.rec_low.mean().as_ns() / self.cfg.timing.tck.as_ns(),
        )
    }

    /// Raw per-class latency samples (for CDF plotting).
    pub fn queueing_samples(&self) -> (&LatencySample, &LatencySample) {
        (&self.rec_high, &self.rec_low)
    }

    /// Drains and returns the queueing-delay samples recorded for `ds`
    /// since the last drain (requires [`MemCtrlConfig::record_queueing`]).
    /// Draining at phase boundaries gives per-phase percentiles — the
    /// fault experiments drain before/during/after an injection window.
    pub fn take_ds_queueing(&mut self, ds: DsId) -> LatencySample {
        let i = ds.index().min(self.cfg.max_ds - 1);
        std::mem::take(&mut self.rec_ds[i])
    }

    fn refresh_params(&mut self) {
        let gen = self.gen_watch.load(Ordering::Acquire);
        if gen == self.cached_gen {
            return;
        }
        let cp = self.cp.lock();
        for i in 0..self.cfg.max_ds {
            let row = cp
                .params()
                .row(DsId::new(i as u16))
                .expect("parameter table sized to max_ds rows");
            self.prows[i * self.pstride..(i + 1) * self.pstride].copy_from_slice(row);
        }
        // Baseline mode models the stock controller of Figure 11: no
        // control plane, so installed policies are ignored too.
        let prog = if self.cfg.priorities_enabled {
            cp.active_policy()
                .expect("memctrl sets a default policy at construction")
        } else {
            Arc::clone(&self.baseline)
        };
        self.engine.refresh(prog);
        self.dec_cache.clear();
        if self.engine.program().per_ds_pure() {
            // The request fields below are never read by a per-DS-pure
            // program; `decide` is a function of the parameter row alone.
            for i in 0..self.cfg.max_ds {
                let req = PolicyReq {
                    ds: DsId::new(i as u16),
                    class: ReqClass::Read,
                    size: 0,
                };
                let prow = &self.prows[i * self.pstride..(i + 1) * self.pstride];
                self.dec_cache
                    .push(self.engine.decide(&req, prow, &[], Time::ZERO));
            }
        }
        self.cached_gen = gen;
    }

    fn on_mem_req(&mut self, pkt: MemPacket, ctx: &mut Ctx<'_, PardEvent>) {
        self.refresh_params();
        if audit::enabled() {
            // The controller is the terminal consumer of both the LLC →
            // DRAM ("mem") and the device → bridge → DRAM ("dma")
            // conservation domains.
            let domain = if pkt.dma {
                audit::Domain::Dma
            } else {
                audit::Domain::Mem
            };
            audit::packet_retire(
                domain,
                pkt.reply_to.raw(),
                pkt.id.0,
                pkt.ds.raw(),
                ctx.now(),
                "memctrl",
            );
        }
        let i = pkt.ds.index().min(self.cfg.max_ds - 1);
        self.active_ds[i] = true;

        let row = i * self.pstride;
        // LDom-physical -> machine-physical translation (parameter table).
        let limit = self.prows[row + self.limit_off].max(1);
        let base = self.prows[row + self.base_off];
        let maddr = pard_icn::MAddr::new(base.wrapping_add(pkt.addr.raw() % limit));
        let loc = self.cfg.geometry.decompose(maddr);

        // The active match-action program assigns the scheduling
        // treatment: rank + urgency with the built-in two-class program,
        // WFQ tags / drops / token-bucket charges with installed ones.
        // Per-DS-pure programs were evaluated once at refresh time.
        let decision = if let Some(cached) = self.dec_cache.get(i) {
            *cached
        } else {
            let class = if pkt.kind == pard_icn::MemKind::Writeback {
                ReqClass::Writeback
            } else if pkt.dma {
                ReqClass::Dma
            } else if pkt.kind == pard_icn::MemKind::Write {
                ReqClass::Write
            } else {
                ReqClass::Read
            };
            let req = PolicyReq {
                ds: DsId::new(i as u16),
                class,
                size: u64::from(pkt.size),
            };
            let srow = if self.engine.program().uses_stats() {
                self.stats
                    .cells()
                    .snapshot_row(req.ds)
                    .unwrap_or_default()
            } else {
                Vec::new()
            };
            let prow = &self.prows[row..row + self.pstride];
            self.engine.decide(&req, prow, &srow, ctx.now())
        };
        if let Some(key) = decision.bump {
            let _ = self.stats.add(DsId::new(i as u16), key, 1);
        }
        if !decision.admit {
            // A policy drop is a terminal denial: the packet was already
            // retired on arrival above, and requesters waiting on a
            // response get an immediate one so they never hang.
            self.policy_dropped += 1;
            if trace::enabled(TraceCat::Dram) {
                trace::emit(
                    TraceCat::Dram,
                    ctx.now(),
                    pkt.ds.raw(),
                    "drop",
                    &[("bytes", TraceVal::U(u64::from(pkt.size)))],
                );
            }
            if pkt.kind.wants_response() {
                let resp = MemResp {
                    id: pkt.id,
                    ds: pkt.ds,
                    addr: pkt.addr,
                    llc_hit: false,
                };
                ctx.send_at(pkt.reply_to, ctx.now(), PardEvent::MemResp(resp));
            }
            return;
        }

        let high = decision.urgent;
        let use_hp_buffer = self.cfg.priorities_enabled && self.prows[row + self.rowbuf_off] != 0;
        let pending = Pending {
            pkt,
            loc,
            enqueued_at: ctx.now(),
            high,
            use_hp_buffer,
        };
        // Writebacks drain from a separate write buffer with read priority
        // (standard controller practice); demand reads never queue behind
        // them.
        if pkt.kind == pard_icn::MemKind::Writeback {
            self.wb_q.push_back(pending);
        } else {
            self.queue.push(decision.rank, high, pending);
        }
        if trace::enabled(TraceCat::Dram) {
            trace::emit(
                TraceCat::Dram,
                ctx.now(),
                pkt.ds.raw(),
                "queue",
                &[
                    ("bank", TraceVal::U(u64::from(loc.bank))),
                    ("high", TraceVal::B(high)),
                    ("bytes", TraceVal::U(u64::from(pkt.size))),
                ],
            );
        }
        self.arm_tick(ctx);
    }

    /// Arms (or pulls forward) the scheduler wake-up. A request arriving
    /// while the controller sleeps until a far-future bank-ready time must
    /// be able to issue at the next cycle edge, so an earlier tick is
    /// scheduled alongside; stale ticks are harmless (they arbitrate and
    /// find nothing new to do).
    fn arm_tick(&mut self, ctx: &mut Ctx<'_, PardEvent>) {
        let at = ctx.now().align_up(MEM_CYCLE);
        if self.tick_armed && self.next_tick_at <= at {
            return;
        }
        self.tick_armed = true;
        self.next_tick_at = at;
        ctx.send_at(ctx.self_id(), at, PardEvent::Tick(TickKind::Dram));
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_, PardEvent>) {
        let now = ctx.now();
        if self.next_tick_at <= now {
            self.tick_armed = false;
            self.next_tick_at = Time::MAX;
        }

        // Data-bus admission: a column command only issues if its data
        // slot is not hopelessly behind the bus schedule — otherwise the
        // command queue stalls, which is where bus-bound queueing delay
        // comes from on real controllers. With the control plane enabled,
        // urgent entries (the built-in program's high class) bypass the
        // gate: the controller reserves data slots for them (the
        // data-path half of DiffServ).
        let gated = if self.cfg.priorities_enabled && self.queue.urgent_len() > 0 {
            false
        } else {
            !self.queue.is_empty() || !self.wb_q.is_empty()
        };
        if gated && self.bus_free_at > now + self.cfg.timing.tcl {
            let resume = (self.bus_free_at - self.cfg.timing.tcl).align_up(MEM_CYCLE);
            if !self.tick_armed || resume < self.next_tick_at {
                self.tick_armed = true;
                self.next_tick_at = resume;
                ctx.send_at(ctx.self_id(), resume, PardEvent::Tick(TickKind::Dram));
            }
            return;
        }

        // The arbiter serves the PIFO's lowest present rank, FR-FCFS
        // within it. With the built-in program that is §4.2 verbatim:
        // urgent entries rank 0, the rest rank 1, so while any
        // high-priority request is pending the low class does not issue —
        // which is what buys the 5.6x for high priority at the cost of
        // the paper's +33.6% for low priority. The baseline program ranks
        // everything 0: strict in-order service from one queue, like the
        // stock controller.
        //
        // FR-FCFS over a bounded reorder window (`fr_fcfs`) on the front
        // rank bucket only — a lower rank must fully stall before the
        // next rank gets a turn.
        const CLASS_WINDOW: usize = 16;
        // Forced write drain: if the write buffer is deep, writes take a
        // turn even while reads are pending (real controllers bound their
        // write occupancy the same way).
        let mut chosen = if self.wb_q.len() > 64 {
            fr_fcfs(self.wb_q.iter(), &self.banks, now, CLASS_WINDOW)
                .and_then(|i| self.wb_q.remove(i))
        } else {
            None
        };
        if chosen.is_none() {
            let window = if self.cfg.priorities_enabled {
                CLASS_WINDOW
            } else {
                self.cfg.baseline_window
            };
            let pick = fr_fcfs(self.queue.front_iter(), &self.banks, now, window);
            if let Some((rank, p)) = pick.and_then(|i| self.queue.remove_front(i)) {
                // WFQ-ranked programs advance their virtual clock on
                // service. Per-DS-pure programs (decision cache active)
                // cannot contain `wfq`, so their virtual clock is dead
                // state — skip the bookkeeping on that hot path.
                if self.dec_cache.is_empty() {
                    self.engine.note_serve(rank);
                }
                chosen = Some(p);
            }
        }
        // Otherwise the write buffer drains when no read can issue.
        if chosen.is_none() {
            chosen = fr_fcfs(self.wb_q.iter(), &self.banks, now, CLASS_WINDOW)
                .and_then(|i| self.wb_q.remove(i));
        }

        if let Some(p) = chosen {
            self.serve(p, now, ctx);
        }

        if !self.queue.is_empty() || !self.wb_q.is_empty() {
            let next = self.next_interesting_time(now);
            if !self.tick_armed || next < self.next_tick_at || self.next_tick_at <= now {
                self.tick_armed = true;
                self.next_tick_at = next;
                ctx.send_at(ctx.self_id(), next, PardEvent::Tick(TickKind::Dram));
            }
        } else {
            self.tick_armed = false;
            self.next_tick_at = Time::MAX;
        }
    }

    fn next_interesting_time(&self, now: Time) -> Time {
        // Earliest time a schedulable request's bank frees, but no sooner
        // than the next memory cycle. Only requests the arbiter could
        // actually pick next matter: the reorder window of the PIFO's
        // front rank bucket (lower ranks fully shadow higher ones), plus
        // the write buffer when it could drain.
        let floor = (now + MEM_CYCLE).align_up(MEM_CYCLE);
        let mut earliest = Time::MAX;
        let mut consider = |p: &Pending| {
            let b = &self.banks[p.loc.bank as usize];
            let t = if b.busy_until <= now {
                floor
            } else {
                b.busy_until.align_up(MEM_CYCLE)
            };
            earliest = earliest.min(t);
        };
        const WINDOW: usize = 16;
        if !self.queue.is_empty() {
            let window = if self.cfg.priorities_enabled {
                WINDOW
            } else {
                self.cfg.baseline_window
            };
            self.queue.front_iter().take(window).for_each(&mut consider);
        }
        if earliest == Time::MAX || self.wb_q.len() > 64 {
            for p in self.wb_q.iter().take(WINDOW) {
                let b = &self.banks[p.loc.bank as usize];
                let t = if b.busy_until <= now {
                    floor
                } else {
                    b.busy_until.align_up(MEM_CYCLE)
                };
                earliest = earliest.min(t);
            }
        }
        earliest.max(floor)
    }

    fn serve(&mut self, p: Pending, now: Time, ctx: &mut Ctx<'_, PardEvent>) {
        let timing = self.cfg.timing;
        let rank = p.loc.rank as usize;
        let bank_idx = p.loc.bank as usize;
        let service = self.banks[bank_idx].schedule(
            p.loc.row,
            now,
            p.high,
            p.use_hp_buffer,
            &timing,
            &mut self.ranks[rank],
        );

        // MXT-style compression (paper §8): transfers of DS-ids with the
        // `compress` parameter set move half the bus beats (2:1 typical
        // MXT ratio), modelled as halved burst counts. Enabled per DS-id,
        // differentiated like every other PARD service.
        let raw_bursts = timing.bursts_for(p.pkt.size);
        let i0 = p.pkt.ds.index().min(self.cfg.max_ds - 1);
        let compress_on = self.prows[i0 * self.pstride + self.compress_off] != 0;
        let nbursts = if self.cfg.priorities_enabled && compress_on {
            let compressed = raw_bursts.div_ceil(2);
            let saved = (raw_bursts - compressed) * u64::from(timing.burst_bytes());
            let _ = self
                .stats
                .add(DsId::new(i0 as u16), MSTAT_COMP_SAVED, saved);
            compressed
        } else {
            raw_bursts
        };
        let mut transfer = timing.burst_time() * nbursts;
        if fault::enabled(FaultClass::Dram) {
            // Injected bank slowdown / transient stall: the extra service
            // latency rides on the transfer, so it extends data-bus
            // occupancy (and the bank hold for long bursts) and
            // backpressures the command queues — no packet is created,
            // dropped, or reordered.
            transfer += fault::dram_extra_delay(u32::from(p.loc.bank), now);
        }
        let mut data_done = service.data_ready + transfer;
        // Data-bus serialisation across banks.
        if self.bus_free_at > service.data_ready {
            data_done += self.bus_free_at - service.data_ready;
        }
        self.bus_free_at = data_done;
        // A single-burst access frees the bank after tCCD (DDR allows
        // back-to-back column commands); a long DMA burst streams from the
        // sense amplifiers and holds the bank to the end.
        self.banks[bank_idx].busy_until = if nbursts <= 1 {
            service.bank_free
        } else {
            data_done
        };

        // Statistics: queueing delay is enqueue -> command issue.
        let qdelay = now - p.enqueued_at;
        let i = p.pkt.ds.index().min(self.cfg.max_ds - 1);
        self.qlat_sum[i] += qdelay.units();
        self.qlat_cnt[i] += 1;
        self.win_bytes[i] += u64::from(p.pkt.size);
        // Cumulative counters go straight into the lock-free stats cells;
        // the window-rate columns (avg_qlat, bandwidth) still need the
        // local epoch accumulators above.
        let ds_row = DsId::new(i as u16);
        let _ = self.stats.add(ds_row, MSTAT_SERV_CNT, 1);
        if service.row_hit {
            let _ = self.stats.add(ds_row, MSTAT_ROW_HITS, 1);
        }
        self.served_total += 1;
        if trace::enabled(TraceCat::Dram) {
            trace::emit(
                TraceCat::Dram,
                now,
                p.pkt.ds.raw(),
                "issue",
                &[
                    ("bank", TraceVal::U(u64::from(p.loc.bank))),
                    ("qdelay_cycles", TraceVal::U(to_mem_cycles(qdelay))),
                    ("row_hit", TraceVal::B(service.row_hit)),
                    ("high", TraceVal::B(p.high)),
                ],
            );
        }
        if self.cfg.record_queueing {
            if p.high {
                self.rec_high.record(qdelay);
            } else {
                self.rec_low.record(qdelay);
            }
            self.rec_ds[i].record(qdelay);
        }

        if p.pkt.kind.wants_response() {
            let resp = MemResp {
                id: p.pkt.id,
                ds: p.pkt.ds,
                addr: p.pkt.addr,
                llc_hit: false,
            };
            ctx.send_at(p.pkt.reply_to, data_done, PardEvent::MemResp(resp));
        }
    }

    fn arm_window(&mut self, ctx: &mut Ctx<'_, PardEvent>) {
        if !self.window_armed {
            self.window_armed = true;
            self.window_clock.open_window_at(ctx.now());
            let window = self.cfg.window;
            ctx.send(ctx.self_id(), window, PardEvent::Tick(TickKind::CpWindow));
        }
    }

    fn on_window(&mut self, ctx: &mut Ctx<'_, PardEvent>) {
        let now = ctx.now();
        // Divide by the real span of the window just closed: a window that
        // closes irregularly (e.g. a delayed tick) must not be rated as if
        // it covered the configured width.
        self.window_clock.roll(now);
        let span = self.window_clock.last_window_span();
        let secs = if span == Time::ZERO {
            self.cfg.window.as_secs()
        } else {
            span.as_secs()
        };
        let mut window_bytes_total = 0u64;
        {
            let mut cp = self.cp.lock();
            for i in 0..self.cfg.max_ds {
                if !self.active_ds[i] {
                    continue;
                }
                let ds = DsId::new(i as u16);
                if let Some(avg_units) = self.qlat_sum[i].checked_div(self.qlat_cnt[i]) {
                    let avg_cycles = avg_units / MEM_CYCLE.units();
                    let _ = cp.stats().set(ds, MSTAT_AVG_QLAT, avg_cycles);
                }
                let mbps = (self.win_bytes[i] as f64 / secs / 1e6) as u64;
                let _ = cp.stats().set(ds, MSTAT_BANDWIDTH, mbps);
                cp.evaluate_triggers(ds, now);
                self.qlat_sum[i] = 0;
                self.qlat_cnt[i] = 0;
                window_bytes_total += self.win_bytes[i];
                self.win_bytes[i] = 0;
            }
        }
        if audit::enabled() {
            // Windowed-bandwidth ceiling: the bytes served in a window
            // cannot exceed what the data bus can physically move in its
            // real span. MXT compression halves bus beats, so delivered
            // (uncompressed) bytes may reach 2x the wire rate; one extra
            // max-size DMA chunk of slack absorbs window-edge transfers.
            let timing = self.cfg.timing;
            let peak_bps =
                f64::from(timing.burst_bytes()) / timing.burst_time().as_secs().max(1e-12);
            let ceiling = (2.0 * peak_bps * secs) as u64 + (128 << 10);
            if window_bytes_total > ceiling {
                audit::violation(
                    audit::AuditKind::Quota,
                    now,
                    u16::MAX,
                    "dram_bandwidth_ceiling",
                    &[
                        ("window_bytes", TraceVal::U(window_bytes_total)),
                        ("ceiling_bytes", TraceVal::U(ceiling)),
                    ],
                );
            }
        }
        let window = self.cfg.window;
        ctx.send(ctx.self_id(), window, PardEvent::Tick(TickKind::CpWindow));
    }
}

/// FR-FCFS over a bounded reorder window: the index of the first ready
/// row-hit among the first `window` entries, else of the oldest ready
/// entry among them.
fn fr_fcfs<'a>(
    entries: impl Iterator<Item = &'a Pending>,
    banks: &[Bank],
    now: Time,
    window: usize,
) -> Option<usize> {
    let mut pick = None;
    for (i, p) in entries.enumerate().take(window) {
        let bank = &banks[p.loc.bank as usize];
        if !bank.ready_at(now) {
            continue;
        }
        if bank.would_hit(p.loc.row, p.high) {
            return Some(i);
        }
        if pick.is_none() {
            pick = Some(i);
        }
    }
    pick
}

impl Component<PardEvent> for MemCtrl {
    fn name(&self) -> &str {
        "memctrl"
    }

    fn handle(&mut self, ev: PardEvent, ctx: &mut Ctx<'_, PardEvent>) {
        self.arm_window(ctx);
        match ev {
            PardEvent::MemReq(pkt) => self.on_mem_req(pkt, ctx),
            PardEvent::Tick(TickKind::Dram) => self.on_tick(ctx),
            PardEvent::Tick(TickKind::CpWindow) => self.on_window(ctx),
            PardEvent::MemResp(_) => {} // loop-back responses are ignorable
            other => audit::unexpected_event(
                "memctrl",
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
    use pard_icn::{LAddr, MemKind, PacketId};
    use pard_sim::{ComponentId, Simulation};

    struct Collector {
        responses: Vec<(PacketId, Time)>,
    }

    impl Component<PardEvent> for Collector {
        fn name(&self) -> &str {
            "collector"
        }
        fn handle(&mut self, ev: PardEvent, ctx: &mut Ctx<'_, PardEvent>) {
            if let PardEvent::MemResp(r) = ev {
                self.responses.push((r.id, ctx.now()));
            }
        }
        pard_sim::impl_as_any!();
    }

    struct Rig {
        sim: Simulation<PardEvent>,
        ctrl: ComponentId,
        collector: ComponentId,
        cp: CpHandle,
    }

    fn rig(cfg: MemCtrlConfig) -> Rig {
        let mut sim = Simulation::new();
        let (ctrl, cp) = MemCtrl::new(cfg);
        let ctrl = sim.add_component(Box::new(ctrl));
        let collector = sim.add_component(Box::new(Collector {
            responses: Vec::new(),
        }));
        Rig {
            sim,
            ctrl,
            collector,
            cp,
        }
    }

    fn read(rig: &Rig, id: u64, ds: u16, addr: u64) -> PardEvent {
        PardEvent::MemReq(MemPacket {
            id: PacketId(id),
            ds: DsId::new(ds),
            addr: LAddr::new(addr),
            kind: MemKind::Read,
            size: 64,
            reply_to: rig.collector,
            issued_at: Time::ZERO,
            dma: false,
        })
    }

    #[test]
    fn single_read_latency_is_activate_cas_burst() {
        let mut r = rig(MemCtrlConfig::default());
        r.sim.post(r.ctrl, Time::ZERO, read(&r, 1, 0, 0));
        r.sim.run_until(Time::from_us(1));
        let t = DramTiming::ddr3_1600_11();
        r.sim.with_component::<Collector, _, _>(r.collector, |c| {
            assert_eq!(c.responses.len(), 1);
            let (_, at) = c.responses[0];
            assert_eq!(at, t.trcd + t.tcl + t.burst_time());
        });
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut r = rig(MemCtrlConfig::default());
        // Same row twice, then a different row in the same bank.
        r.sim.post(r.ctrl, Time::ZERO, read(&r, 1, 0, 0));
        r.sim.run_until(Time::from_us(1));
        let t0 = Time::from_us(1);
        r.sim.post(r.ctrl, Time::ZERO, read(&r, 2, 0, 64));
        r.sim.run_until(Time::from_us(2));
        let t1 = Time::from_us(2);
        // 16 KB stride = same bank (16 banks x 1 KB rows), different row.
        r.sim.post(r.ctrl, Time::ZERO, read(&r, 3, 0, 16 * 1024));
        r.sim.run_until(Time::from_us(3));
        r.sim.with_component::<Collector, _, _>(r.collector, |c| {
            let hit_latency = c.responses[1].1 - t0;
            let miss_latency = c.responses[2].1 - t1;
            assert!(
                hit_latency < miss_latency,
                "row hit {hit_latency:?} !< row miss {miss_latency:?}"
            );
        });
    }

    #[test]
    fn address_translation_separates_ldoms() {
        let mut r = rig(MemCtrlConfig::default());
        {
            let mut cp = r.cp.lock();
            cp.set_param(DsId::new(1), "addr_base", 0).unwrap();
            cp.set_param(DsId::new(1), "addr_limit", 1 << 30).unwrap();
            cp.set_param(DsId::new(2), "addr_base", 1 << 30).unwrap();
            cp.set_param(DsId::new(2), "addr_limit", 1 << 30).unwrap();
        }
        // Both LDoms read "address 0"; they land in different DRAM rows,
        // observable through bank behaviour: ds2's read of laddr 0 should
        // open a different row than ds1's (no row hit).
        r.sim.post(r.ctrl, Time::ZERO, read(&r, 1, 1, 0));
        r.sim.run_until(Time::from_us(1));
        r.sim.post(r.ctrl, Time::ZERO, read(&r, 2, 2, 0));
        r.sim.run_until(Time::from_us(2));
        let t = DramTiming::ddr3_1600_11();
        r.sim.with_component::<Collector, _, _>(r.collector, |c| {
            // ds2 at 1 GiB maps to bank 0 row 65536: same bank as ds1's
            // row 0 (1 GiB / 1 KiB / 16 banks = 65536) -> row conflict.
            let lat = c.responses[1].1 - Time::from_us(1);
            assert!(lat >= t.trp + t.trcd + t.tcl, "expected a row conflict");
        });
    }

    #[test]
    fn high_priority_jumps_the_queue() {
        let cfg = MemCtrlConfig {
            record_queueing: true,
            ..MemCtrlConfig::default()
        };
        let mut r = rig(cfg);
        {
            let mut cp = r.cp.lock();
            cp.set_param(DsId::new(7), "priority", 1).unwrap();
            cp.set_param(DsId::new(7), "rowbuf", 1).unwrap();
        }
        // Flood with low-priority traffic to one bank region, inject
        // high-priority requests mid-stream.
        for i in 0..50u64 {
            r.sim
                .post(r.ctrl, Time::from_ns(i), read(&r, i, 1, (i % 4) * 64));
        }
        for i in 0..5u64 {
            r.sim.post(
                r.ctrl,
                Time::from_ns(200 + i),
                read(&r, 100 + i, 7, 1024 + i * 64),
            );
        }
        r.sim.run_until(Time::from_us(50));
        r.sim.with_component::<MemCtrl, _, _>(r.ctrl, |m| {
            let (high, low) = m.mean_queueing_cycles();
            assert!(
                high < low,
                "high-priority mean {high:.1} !< low-priority mean {low:.1}"
            );
            assert_eq!(m.served_total(), 55);
            assert_eq!(m.queue_depths(), (0, 0));
        });
    }

    #[test]
    fn baseline_mode_ignores_priorities() {
        let cfg = MemCtrlConfig {
            priorities_enabled: false,
            record_queueing: true,
            ..MemCtrlConfig::default()
        };
        let mut r = rig(cfg);
        {
            let mut cp = r.cp.lock();
            cp.set_param(DsId::new(7), "priority", 1).unwrap();
        }
        r.sim.post(r.ctrl, Time::ZERO, read(&r, 1, 7, 0));
        r.sim.run_until(Time::from_us(1));
        r.sim.with_component::<MemCtrl, _, _>(r.ctrl, |m| {
            let stats = m.queueing_stats();
            assert!(stats.high.is_empty(), "everything is low in baseline");
            assert!(!stats.low.is_empty());
        });
    }

    #[test]
    fn writebacks_get_no_response_but_count() {
        let mut r = rig(MemCtrlConfig::default());
        let wb = PardEvent::MemReq(MemPacket {
            id: PacketId(1),
            ds: DsId::new(1),
            addr: LAddr::new(0),
            kind: MemKind::Writeback,
            size: 64,
            reply_to: r.collector,
            issued_at: Time::ZERO,
            dma: false,
        });
        r.sim.post(r.ctrl, Time::ZERO, wb);
        r.sim.run_until(Time::from_us(1));
        r.sim.with_component::<Collector, _, _>(r.collector, |c| {
            assert!(c.responses.is_empty());
        });
        r.sim
            .with_component::<MemCtrl, _, _>(r.ctrl, |m| assert_eq!(m.served_total(), 1));
    }

    #[test]
    fn window_publishes_statistics() {
        let cfg = MemCtrlConfig {
            window: Time::from_us(10),
            ..MemCtrlConfig::default()
        };
        let mut r = rig(cfg);
        for i in 0..16u64 {
            r.sim
                .post(r.ctrl, Time::from_ns(i * 10), read(&r, i, 3, i * 1024));
        }
        r.sim.run_until(Time::from_us(40));
        let cp = r.cp.lock();
        assert_eq!(cp.stat(DsId::new(3), "serv_cnt").unwrap(), 16);
        // 16 x 64B in one window; bandwidth was recorded in some window.
        // (value may be 0 in later windows; serv_cnt is cumulative).
        assert!(cp.stat(DsId::new(3), "row_hits").is_ok());
    }

    #[test]
    fn compression_halves_burst_occupancy_for_designated_ds() {
        // The §8 MXT extension: identical DMA bursts, one DS-id compressed.
        let mut r = rig(MemCtrlConfig::default());
        r.cp.lock().set_param(DsId::new(2), "compress", 1).unwrap();
        let burst = |id, ds| {
            PardEvent::MemReq(MemPacket {
                id: PacketId(id),
                ds: DsId::new(ds),
                addr: LAddr::new(0),
                kind: MemKind::Read,
                size: 4096,
                reply_to: r.collector,
                issued_at: Time::ZERO,
                dma: true,
            })
        };
        r.sim.post(r.ctrl, Time::ZERO, burst(1, 1));
        r.sim.run_until(Time::from_us(2));
        r.sim.post(r.ctrl, Time::ZERO, burst(2, 2));
        r.sim.run_until(Time::from_us(4));
        r.sim.with_component::<Collector, _, _>(r.collector, |c| {
            let plain = c.responses[0].1;
            let compressed = c.responses[1].1 - Time::from_us(2);
            assert!(
                compressed < plain,
                "compressed {compressed:?} !< plain {plain:?}"
            );
        });
        // The saved bytes show up in the statistics table at the window.
        r.sim.run_until(Time::from_ms(1));
        assert_eq!(r.cp.lock().stat(DsId::new(2), "comp_saved").unwrap(), 2048);
        assert_eq!(r.cp.lock().stat(DsId::new(1), "comp_saved").unwrap(), 0);
    }

    #[test]
    fn installed_wfq_policy_favors_the_heavier_flow() {
        let cfg = MemCtrlConfig {
            record_queueing: true,
            ..MemCtrlConfig::default()
        };
        let mut r = rig(cfg);
        {
            let mut cp = r.cp.lock();
            cp.set_param(DsId::new(1), "wfq_weight", 1).unwrap();
            cp.set_param(DsId::new(2), "wfq_weight", 8).unwrap();
            cp.install_policy("when all do rank wfq(param.wfq_weight)")
                .unwrap();
        }
        // An interleaved backlog from both DS-ids arrives at once; the
        // weight-8 flow's start tags advance 8x slower, so its requests
        // consistently outrank (and outrun) the weight-1 flow's.
        for i in 0..40u64 {
            r.sim.post(r.ctrl, Time::from_ns(i), read(&r, i, 1, i * 64));
            r.sim
                .post(r.ctrl, Time::from_ns(i), read(&r, 100 + i, 2, (1 << 20) | (i * 64)));
        }
        r.sim.run_until(Time::from_us(50));
        r.sim.with_component::<MemCtrl, _, _>(r.ctrl, |m| {
            let light = m.take_ds_queueing(DsId::new(1)).mean();
            let heavy = m.take_ds_queueing(DsId::new(2)).mean();
            assert!(
                heavy < light,
                "weight-8 mean queueing {heavy:?} !< weight-1 mean {light:?}"
            );
        });
    }

    #[test]
    fn installed_drop_policy_denies_with_immediate_response() {
        let mut r = rig(MemCtrlConfig::default());
        r.cp.lock()
            .install_policy("when ds == 5 do drop\nwhen all do rank 0")
            .unwrap();
        r.sim.post(r.ctrl, Time::ZERO, read(&r, 1, 5, 0));
        r.sim.post(r.ctrl, Time::ZERO, read(&r, 2, 1, 64));
        r.sim.run_until(Time::from_us(1));
        r.sim.with_component::<Collector, _, _>(r.collector, |c| {
            // Both requesters got responses: the denial immediately, the
            // admitted one after DRAM service.
            assert_eq!(c.responses.len(), 2);
            assert_eq!(c.responses[0], (PacketId(1), Time::ZERO));
        });
        r.sim.with_component::<MemCtrl, _, _>(r.ctrl, |m| {
            assert_eq!(m.policy_dropped(), 1);
            assert_eq!(m.served_total(), 1);
        });
    }

    #[test]
    fn clearing_an_installed_policy_reverts_to_the_builtin() {
        let mut r = rig(MemCtrlConfig::default());
        r.cp.lock()
            .install_policy("when all do drop")
            .unwrap();
        r.sim.post(r.ctrl, Time::ZERO, read(&r, 1, 1, 0));
        r.sim.run_until(Time::from_us(1));
        r.cp.lock().clear_policy();
        r.sim.post(r.ctrl, Time::from_us(1), read(&r, 2, 1, 64));
        r.sim.run_until(Time::from_us(2));
        r.sim.with_component::<MemCtrl, _, _>(r.ctrl, |m| {
            assert_eq!(m.policy_dropped(), 1);
            assert_eq!(m.served_total(), 1);
        });
    }

    #[test]
    fn dma_bursts_occupy_the_bus_longer() {
        let mut r = rig(MemCtrlConfig::default());
        let burst = PardEvent::MemReq(MemPacket {
            id: PacketId(1),
            ds: DsId::new(1),
            addr: LAddr::new(0),
            kind: MemKind::Read,
            size: 4096,
            reply_to: r.collector,
            issued_at: Time::ZERO,
            dma: true,
        });
        r.sim.post(r.ctrl, Time::ZERO, burst);
        r.sim.run_until(Time::from_us(2));
        let t = DramTiming::ddr3_1600_11();
        r.sim.with_component::<Collector, _, _>(r.collector, |c| {
            let (_, at) = c.responses[0];
            assert_eq!(at, t.trcd + t.tcl + t.burst_time() * 64);
        });
    }
}
