//! The kernel's event queue.
//!
//! [`EventQueue`] is the hot path of every simulation: the packet-level
//! inner loop does one push and one pop per hop, so scheduler cost
//! dominates wall-clock exactly as it does in ns-3-class network
//! simulators. The queue orders packed `u128` keys,
//!
//! ```text
//! key = time << 64 | seq << 24 | slot
//! ```
//!
//! where `seq` is the monotonic insertion number and `slot` indexes a
//! payload slab holding each pending event's payload and destination.
//! The queue moves 16-byte keys instead of whole events, and one integer
//! compare orders two events: `seq` is unique and sits above `slot`, so
//! key order is exactly `(time, seq)` order. Popped slots go on a free
//! list and are reused by the next push, so the slab never grows past the
//! peak number of pending events and steady-state operation allocates
//! nothing.
//!
//! The keys are held in one of two layouts, chosen by how many are
//! pending:
//!
//! * **A sorted run** of at most `RUN` keys, latest first. A push scans
//!   from the end (the earliest key) and shifts the few earlier keys up
//!   by one; a pop takes the last key. The simulator's workloads hold a
//!   mean of 6.5–9.7 pending events and at most 22–32, and a new key lands
//!   behind only 1.3–2.6 of them on average (instrumented builds of the
//!   perfbench workloads, `fig08`, `fig09` and `fig_fleet --quick`), so
//!   a push moves two or three keys and a pop moves none. This is the
//!   layout of a PIFO (push-in, first-out) queue.
//! * **A four-ary min-heap** once a push would exceed `RUN` keys. The
//!   run is reversed in place, which already is a valid min-heap. A pop
//!   leaves the root vacant and the next push sifts its key down from
//!   there: a delivered event usually schedules the next one a few
//!   nanoseconds later, so that key settles within a level or two, and
//!   the pop-then-push pair costs one short sift instead of a full
//!   sift-down of the last leaf plus a sift-up of the new key. When a pop
//!   leaves at most `RUN / 4` keys, they are sorted back into a run.
//!
//! Both conversions are out of line and rare (the gap between the two
//! bounds keeps a pending set near one of them from switching back and
//! forth), and both layouts deliver in exact `(time, seq)` order.
//!
//! Each payload is written once and read once. [`EventQueue::push`] is a
//! small inlined body — an out-of-line slot claim, the payload store, an
//! out-of-line key insert — so a sender's freshly built event is stored
//! straight into its slot. The kernel pops only the key ([`Due`]), shows
//! its observer the payload in place, and then [`takes`](EventQueue::take)
//! it out of the slot straight into the handler call. Copying the payload
//! between temporaries instead costs a store-forwarding stall per copy:
//! each wide load spans the narrower stores that built the event just
//! before (`DESIGN.md` §8). For the same reason a slot marks itself
//! occupied outside the payload ([`Slot`]), so the payload moves as one
//! contiguous block.

use std::cmp::Ordering;

use crate::component::ComponentId;
use crate::time::Time;

/// An event scheduled for delivery to a component.
#[derive(Debug)]
pub struct ScheduledEvent<E> {
    /// Delivery time.
    pub time: Time,
    /// Monotonic insertion sequence number; breaks ties deterministically.
    pub seq: u64,
    /// Destination component.
    pub dst: ComponentId,
    /// Payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so a `std::collections::BinaryHeap` (a max-heap) pops
        // the earliest event — the queue's original single-heap layout,
        // kept as public API for reference implementations and benches;
        // ties broken by insertion order for determinism.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A popped event's key: when and where it is due. Its payload stays in
/// the queue's slab until [`EventQueue::take`] moves it out, so the
/// kernel reads each payload once, straight into the handler call.
#[must_use = "a popped event's payload must be taken"]
pub(crate) struct Due {
    /// Delivery time.
    pub(crate) time: Time,
    /// Monotonic insertion sequence number.
    pub(crate) seq: u64,
    /// Destination component.
    pub(crate) dst: ComponentId,
    /// The payload's slot.
    slot: u32,
}

/// An occupied slab slot.
#[derive(Debug)]
struct Slot<E> {
    event: E,
    dst: ComponentId,
    /// Gives `Option<Slot<E>>` its niche here rather than in `event`'s
    /// own tag: an enum payload's niche would make emptying the slot
    /// overwrite the payload's first byte, and the move out of the slot
    /// would then copy the payload as that byte plus misaligned chunks,
    /// which the handler's reads of the fields cannot be forwarded from.
    _occupied: Occupied,
}

/// A one-byte marker with 255 invalid values: a larger niche than any
/// enum tag with two or more variants offers.
#[derive(Debug)]
#[repr(u8)]
enum Occupied {
    Yes = 1,
}

/// Bits of a key holding the payload slot: at most `2^24` pending events.
const SLOT_BITS: u32 = 24;
/// Bits of a key holding `seq`: at most `2^40` pushes per queue.
const SEQ_BITS: u32 = 64 - SLOT_BITS;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// Most keys the queue holds as a sorted run: twice the largest pending
/// set measured on the simulator's workloads (32). A push beyond it
/// turns the run into a heap; a pop that leaves `RUN / 4` keys or fewer
/// turns the heap back into a run.
const RUN: usize = 64;

/// A deterministic time-ordered event queue.
///
/// Events with equal timestamps are delivered in insertion order, which
/// (combined with seeded RNGs) makes every simulation run reproducible.
/// Internally packed `(time, seq, slot)` keys over a payload slab, held
/// as a sorted run while few are pending and as a four-ary heap beyond
/// that; the comment at the top of `crates/sim/src/event.rs` describes
/// the layout.
///
/// # Example
///
/// ```
/// use pard_sim::{ComponentId, EventQueue, Time};
/// let mut q: EventQueue<&str> = EventQueue::new();
/// let dst = ComponentId::from_raw(0);
/// q.push(Time::from_ns(5), dst, "later");
/// q.push(Time::from_ns(1), dst, "sooner");
/// assert_eq!(q.pop().unwrap().event, "sooner");
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pending keys. Unless `heap` is set, a run sorted latest first, so
    /// the earliest key is last; otherwise a four-ary min-heap whose
    /// `keys[0]` is the earliest key unless `vacant_root` is set.
    keys: Vec<u128>,
    /// `keys` is a heap, not a run.
    heap: bool,
    /// Heap only: `keys[0]` was popped and not yet refilled. The next
    /// push sifts its key down from the root instead of sifting up from a
    /// new leaf, so the kernel's usual pop-then-push costs one short sift,
    /// not two; any other access refills the root from the last leaf
    /// first.
    vacant_root: bool,
    /// Payload slab, indexed by a key's low [`SLOT_BITS`] bits. `None`
    /// marks a free slot.
    slots: Vec<Option<Slot<E>>>,
    /// Free slot indices, reused last-freed first.
    free: Vec<u32>,
    next_seq: u64,
}

/// The time field of a key.
#[inline]
fn key_time(key: u128) -> u64 {
    (key >> 64) as u64
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` pending events before
    /// the first reallocation.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            // A full run fits from the start, so a run push never grows.
            keys: Vec::with_capacity(cap.max(RUN)),
            heap: false,
            vacant_root: false,
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedules `event` for `dst` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is [`ComponentId::UNWIRED`] — that means wiring code
    /// forgot to connect a port — or if the queue would exceed its packing
    /// limits of `2^24` pending events or `2^40` pushes.
    #[inline]
    pub fn push(&mut self, time: Time, dst: ComponentId, event: E) {
        // Only the payload store is inlined into the sender, so the
        // event is built directly in its slot.
        let key = self.claim(time, dst);
        self.slots[(key as u64 & SLOT_MASK) as usize] = Some(Slot {
            event,
            dst,
            _occupied: Occupied::Yes,
        });
        self.insert(key);
    }

    /// Claims a free slot for an event due at `time` for `dst` and returns
    /// the event's key. The slot store is the caller's.
    #[inline(never)]
    fn claim(&mut self, time: Time, dst: ComponentId) -> u128 {
        assert!(
            !dst.is_unwired(),
            "event scheduled for an unwired component port"
        );
        let seq = self.next_seq;
        assert!(
            seq >> SEQ_BITS == 0,
            "event queue exhausted its 2^{SEQ_BITS} sequence numbers"
        );
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => slot as u64,
            None => {
                let slot = self.slots.len() as u64;
                assert!(
                    slot <= SLOT_MASK,
                    "event queue exceeded 2^{SLOT_BITS} pending events"
                );
                self.slots.push(None);
                slot
            }
        };
        (time.units() as u128) << 64 | (seq << SLOT_BITS | slot) as u128
    }

    /// Inserts a claimed key: at its rank in the run, or into the heap
    /// once the run is full. Both heap paths are calls in tail position,
    /// so the run path saves no registers.
    #[inline(never)]
    fn insert(&mut self, key: u128) {
        if self.heap {
            self.heap_insert(key);
        } else if self.keys.len() < RUN {
            self.run_insert(key);
        } else {
            self.run_to_heap(key);
        }
    }

    /// Inserts a claimed key into the heap: into a vacant root, or as a
    /// new leaf.
    #[inline(never)]
    fn heap_insert(&mut self, key: u128) {
        if self.vacant_root {
            self.vacant_root = false;
            self.sift_down_root(key);
        } else {
            self.sift_up(key);
        }
    }

    /// Adds `key` to a run with room for it: the earlier keys at its end
    /// shift up by one, and `key` is written once at its rank.
    #[inline]
    fn run_insert(&mut self, key: u128) {
        let len = self.keys.len();
        debug_assert!(len < RUN && self.keys.capacity() >= RUN);
        let k = self.keys.as_mut_ptr();
        // SAFETY: `keys` holds room for `RUN` keys from construction on
        // (it never shrinks) and `len < RUN`, so index `len` is inside the
        // allocation; `i` only moves down from there while above zero,
        // and every key below `len + 1` is initialised when `len` grows.
        unsafe {
            let mut i = len;
            while i > 0 {
                let prev = *k.add(i - 1);
                if prev > key {
                    break;
                }
                *k.add(i) = prev;
                i -= 1;
            }
            *k.add(i) = key;
            self.keys.set_len(len + 1);
        }
    }

    /// Turns the full run into a heap and inserts `key` into it:
    /// reversed, the run is sorted earliest first, which is a valid
    /// min-heap.
    #[cold]
    #[inline(never)]
    fn run_to_heap(&mut self, key: u128) {
        self.keys.reverse();
        self.heap = true;
        self.heap_insert(key);
    }

    /// Turns a heap whose root was just popped back into a run: the root
    /// is dropped and the rest sorted latest first.
    #[cold]
    #[inline(never)]
    fn heap_to_run(&mut self) {
        self.keys.swap_remove(0);
        self.keys.sort_unstable_by(|a, b| b.cmp(a));
        self.vacant_root = false;
        self.heap = false;
    }

    /// Refills a vacant root with the last leaf.
    #[cold]
    fn fill_root(&mut self) {
        self.vacant_root = false;
        let last = self.keys.pop().expect("a vacant root is in the heap");
        if !self.keys.is_empty() {
            self.sift_down_root(last);
        }
    }

    /// Appends `key` to the heap and sifts it up: ancestors later than
    /// `key` shift down one level into the hole, and `key` is written once
    /// at its final position.
    #[inline]
    fn sift_up(&mut self, key: u128) {
        let mut i = self.keys.len();
        self.keys.push(key);
        let h = self.keys.as_mut_ptr();
        // SAFETY: `i` starts at the last index and only moves to parents,
        // so every access is below `keys.len()`.
        unsafe {
            while i > 0 {
                let parent = (i - 1) / 4;
                let pk = *h.add(parent);
                if pk <= key {
                    break;
                }
                *h.add(i) = pk;
                i = parent;
            }
            *h.add(i) = key;
        }
    }

    /// Fills the heap's vacant root with `key` and sifts it down. A full
    /// set of four children is reduced without branches: the lesser of
    /// each pair by index arithmetic on the comparison result, then the
    /// lesser of the two winners.
    #[inline]
    fn sift_down_root(&mut self, key: u128) {
        let len = self.keys.len();
        assert!(len > 0, "sifting into an empty heap");
        let h = self.keys.as_mut_ptr();
        let mut i = 0;
        // SAFETY: the hole `i` starts at the root, which exists (`len > 0`),
        // and only moves to a child below `len`; children are read only
        // below `len` (`c + 3 < len` for the four-way case, `j < len` for a
        // partial last family).
        unsafe {
            loop {
                let c = 4 * i + 1;
                let best = if c + 3 < len {
                    let a = c + (*h.add(c + 1) < *h.add(c)) as usize;
                    let b = c + 2 + (*h.add(c + 3) < *h.add(c + 2)) as usize;
                    if *h.add(b) < *h.add(a) {
                        b
                    } else {
                        a
                    }
                } else if c < len {
                    let mut best = c;
                    for j in c + 1..len {
                        if *h.add(j) < *h.add(best) {
                            best = j;
                        }
                    }
                    best
                } else {
                    break;
                };
                let bk = *h.add(best);
                if key <= bk {
                    break;
                }
                *h.add(i) = bk;
                i = best;
            }
            *h.add(i) = key;
        }
    }

    /// Removes and returns the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.pop_until(Time::MAX)
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `deadline`; otherwise leaves the queue untouched and returns `None`.
    #[inline]
    pub fn pop_until(&mut self, deadline: Time) -> Option<ScheduledEvent<E>> {
        let due = self.pop_due(deadline)?;
        let (time, seq, dst) = (due.time, due.seq, due.dst);
        Some(ScheduledEvent {
            time,
            seq,
            dst,
            event: self.take(due),
        })
    }

    /// Removes the earliest event's key if it is due at or before
    /// `deadline`, leaving its payload in its slot for [`payload`] and
    /// [`take`]; otherwise leaves the queue untouched and returns `None`.
    ///
    /// [`payload`]: EventQueue::payload
    /// [`take`]: EventQueue::take
    #[inline]
    pub(crate) fn pop_due(&mut self, deadline: Time) -> Option<Due> {
        let top = if self.heap {
            if self.vacant_root {
                self.fill_root();
            }
            let top = *self.keys.first()?;
            if key_time(top) > deadline.units() {
                return None;
            }
            self.vacant_root = true;
            if self.keys.len() <= RUN / 4 + 1 {
                self.heap_to_run();
            }
            top
        } else {
            let top = *self.keys.last()?;
            if key_time(top) > deadline.units() {
                return None;
            }
            self.keys.pop();
            top
        };
        let low = top as u64;
        let slot = (low & SLOT_MASK) as u32;
        Some(Due {
            time: Time::from_units(key_time(top)),
            seq: low >> SLOT_BITS,
            dst: self.slot(slot).dst,
            slot,
        })
    }

    /// The occupied slot `slot`.
    #[inline]
    fn slot(&self, slot: u32) -> &Slot<E> {
        self.slots[slot as usize]
            .as_ref()
            .expect("a queued key owns its slot")
    }

    /// The payload of a popped event, in place.
    #[inline]
    pub(crate) fn payload(&self, due: &Due) -> &E {
        &self.slot(due.slot).event
    }

    /// Moves a popped event's payload out of its slot and frees the slot
    /// for the next push.
    #[inline]
    pub(crate) fn take(&mut self, due: Due) -> E {
        // Free the slot first: the free list's possible growth then
        // cannot separate the payload's load from its use.
        self.free.push(due.slot);
        self.slots[due.slot as usize]
            .take()
            .expect("a popped key owns its slot")
            .event
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        // Under a vacant root the earliest key is the least of its
        // children.
        let top = if !self.heap {
            self.keys.last()
        } else if self.vacant_root {
            self.keys.iter().skip(1).take(4).min()
        } else {
            self.keys.first()
        };
        top.map(|&k| Time::from_units(key_time(k)))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.keys.len() - self.vacant_root as usize
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dst(i: u32) -> ComponentId {
        ComponentId::from_raw(i)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), dst(0), 30);
        q.push(Time::from_ns(10), dst(0), 10);
        q.push(Time::from_ns(20), dst(0), 20);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_ns(7), dst(0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_ns(9), dst(1), ());
        q.push(Time::from_ns(3), dst(1), ());
        assert_eq!(q.peek_time(), Some(Time::from_ns(3)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    #[should_panic(expected = "unwired")]
    fn pushing_to_unwired_port_panics() {
        let mut q = EventQueue::new();
        q.push(Time::ZERO, ComponentId::UNWIRED, ());
    }

    #[test]
    fn events_far_beyond_the_ring_come_back_in_order() {
        // Near, mid-range and far-future events pushed out of order.
        let mut q = EventQueue::with_capacity(8);
        q.push(Time::from_us(500), dst(0), "far");
        q.push(Time::from_ns(1), dst(0), "near");
        q.push(Time::from_ns(300), dst(0), "mid");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["near", "mid", "far"]);
    }

    #[test]
    fn equal_time_ties_survive_tier_migration() {
        // Push a far-future event, drain up to it, and interleave a
        // same-time push: `seq` order must still decide.
        let far = Time::from_us(300);
        let mut q = EventQueue::new();
        q.push(far, dst(0), 0u32); // seq 0
        q.push(Time::from_ns(1), dst(0), 99);
        assert_eq!(q.pop().unwrap().event, 99);
        // A fresh push at the same instant gets a later seq and must pop
        // second.
        q.push(far, dst(0), 1u32); // seq 2
        assert_eq!(q.pop().unwrap().event, 0);
        assert_eq!(q.pop().unwrap().event, 1);
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop_tracks_reference_order() {
        // Deterministic mixed workload: dense near traffic plus far timers.
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (time units, seq)
        let mut seq = 0u64;
        let mut push = |q: &mut EventQueue<u64>, reference: &mut Vec<(u64, u64)>, units: u64| {
            q.push(Time::from_units(units), dst(0), seq);
            reference.push((units, seq));
            seq += 1;
        };
        for i in 0..2_000u64 {
            // Cluster near the front, sprinkle far-future timers.
            push(&mut q, &mut reference, (i * 7) % 257);
            if i % 5 == 0 {
                push(&mut q, &mut reference, 10_000 + (i * 31) % 5_000);
            }
            if i % 3 == 0 {
                let popped = q.pop().unwrap();
                reference.sort();
                let expect = reference.remove(0);
                assert_eq!((popped.time.units(), popped.seq), expect);
            }
        }
        reference.sort();
        for expect in reference {
            let popped = q.pop().unwrap();
            assert_eq!((popped.time.units(), popped.seq), expect);
        }
        assert!(q.pop().is_none());
    }

    /// Hold-`k` churn against a sort oracle: `steps` pop+push rounds with
    /// per-step delays from `delay(i)`, verifying exact `(time, seq)`
    /// order throughout. Returns the drained queue.
    fn churn_oracle(k: u64, steps: u64, delay: impl Fn(u64) -> u64) -> EventQueue<u64> {
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0u64;
        for i in 0..k {
            let t = delay(i);
            q.push(Time::from_units(t), dst(0), seq);
            reference.push((t, seq));
            seq += 1;
        }
        for i in 0..steps {
            let popped = q.pop().unwrap();
            reference.sort_unstable();
            let expect = reference.remove(0);
            assert_eq!((popped.time.units(), popped.seq), expect, "step {i}");
            let t = popped.time.units() + delay(i);
            q.push(Time::from_units(t), dst(0), seq);
            reference.push((t, seq));
            seq += 1;
        }
        reference.sort_unstable();
        for expect in reference {
            let popped = q.pop().unwrap();
            assert_eq!((popped.time.units(), popped.seq), expect);
        }
        assert!(q.pop().is_none());
        q
    }

    #[test]
    fn dense_churn_at_hold_512_keeps_order() {
        // 512 pending events, far past the run, spread over <256 units:
        // the heap resolves dense near-ties. A deterministic LCG supplies
        // deltas in 1..=16.
        let mut x = 0x9e3779b97f4a7c15u64;
        let deltas: Vec<u64> = (0..1024)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 60) + 1
            })
            .collect();
        churn_oracle(512, 4096, |i| deltas[(i % 1024) as usize]);
    }

    #[test]
    fn sparse_churn_after_dense_churn_keeps_order() {
        // A dense phase followed by a sparse phase (deltas ~40x wider)
        // keeps exact order across the change of density.
        churn_oracle(
            256,
            8192,
            |i| {
                if i < 4096 {
                    1 + i % 8
                } else {
                    300 + i % 200
                }
            },
        );
    }

    #[test]
    fn timers_sprinkled_in_dense_churn_come_back_in_order() {
        // Dense traffic with mid-range timers sprinkled in, then a sparse
        // phase: every timer comes back in order, none skipped. (This
        // pattern once lost events in an earlier bucketed layout.)
        churn_oracle(256, 12_288, |i| {
            if i < 8192 {
                if i % 16 == 0 {
                    300 + (i % 7) * 100
                } else {
                    1 + i % 8
                }
            } else {
                400 + i % 300
            }
        });
    }

    #[test]
    fn deferred_overflow_pushes_pop_in_order() {
        // A burst of far-future timers pushed unsorted must drain in
        // exact order.
        let mut q = EventQueue::new();
        q.push(Time::from_ns(1), dst(0), 0u64);
        let times = [900u64, 300, 700, 300, 500, 100, 800];
        for (i, &us) in times.iter().enumerate() {
            q.push(Time::from_us(us), dst(0), i as u64 + 1);
        }
        assert_eq!(q.len(), times.len() + 1);
        let mut order: Vec<u64> = Vec::new();
        while let Some(ev) = q.pop() {
            order.push(ev.event);
        }
        // Sorted by (time, seq): the tie at 300 µs keeps insertion order.
        assert_eq!(order, vec![0, 6, 2, 4, 5, 3, 7, 1]);
    }

    #[test]
    fn len_counts_all_tiers() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(1), dst(0), ());
        q.push(Time::from_ns(200), dst(0), ());
        q.push(Time::from_ms(5), dst(0), ());
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn equal_time_ties_at_the_top_of_the_clock_pop_in_seq_order() {
        // Times near u64::MAX fill the key's whole time field: ties there
        // must still fall back to seq, and an earlier time still wins.
        let mut q = EventQueue::new();
        for k in [0u64, 1, 2] {
            let t = Time::from_units(u64::MAX - k);
            for i in 0..4u64 {
                q.push(t, dst(0), (k, i));
            }
        }
        q.push(Time::MAX, dst(0), (0, 4));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        let expect: Vec<(u64, u64)> = [2u64, 1, 0]
            .iter()
            .flat_map(|&k| (0..4).map(move |i| (k, i)))
            .chain([(0, 4)])
            .collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn a_vacant_root_is_invisible_to_peek_len_and_pop() {
        let mut q = EventQueue::new();
        for t in [40u64, 10, 30, 20, 50, 60] {
            q.push(Time::from_units(t), dst(0), t);
        }
        assert_eq!(q.pop().unwrap().event, 10);
        // The root is vacant until the next push or pop.
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(Time::from_units(20)));
        assert_eq!(q.pop().unwrap().event, 20);
        // A push fills the vacant root, earlier or later than the rest.
        q.push(Time::from_units(25), dst(0), 25);
        assert_eq!(q.pop().unwrap().event, 25);
        q.push(Time::from_units(99), dst(0), 99);
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(rest, vec![30, 40, 50, 60, 99]);
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pop_until_leaves_later_events_queued() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(5), dst(0), 5);
        q.push(Time::from_ns(9), dst(0), 9);
        assert!(q.pop_until(Time::from_ns(4)).is_none());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_until(Time::from_ns(5)).unwrap().event, 5);
        assert!(q.pop_until(Time::from_ns(8)).is_none());
        assert_eq!(q.pop_until(Time::MAX).unwrap().event, 9);
        assert!(q.pop_until(Time::MAX).is_none());
    }

    /// A payload that counts its own drops.
    struct Counted(std::rc::Rc<std::cell::Cell<u32>>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn payloads_are_dropped_exactly_once() {
        let drops = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.push(Time::from_units(i * 3 % 7), dst(0), Counted(drops.clone()));
        }
        // Popped payloads belong to the receiver, which drops them.
        for n in 1..=4 {
            drop(q.pop().unwrap());
            assert_eq!(drops.get(), n);
        }
        // Freed slots are refilled without dropping anything twice.
        q.push(Time::from_units(1), dst(0), Counted(drops.clone()));
        assert_eq!(drops.get(), 4);
        // The queue drops the 7 still pending, once each.
        drop(q);
        assert_eq!(drops.get(), 11);
    }

    #[test]
    fn hold_k_churn_never_grows_the_slab_past_k() {
        // One k the run holds and one only the heap does.
        for k in [RUN / 2, 2 * RUN] {
            let q = churn_oracle(k as u64, 10_000, |i| 1 + (i * 37) % 500);
            assert_eq!(q.slots.len(), k);
            assert!(q.slots.iter().all(Option::is_none));
            assert_eq!(q.free.len(), k);
        }
    }

    /// Random `push`/`pop`/`pop_until`/`peek_time`/`len` sequences
    /// against a sorted `Vec` of `(time, seq)`. Each case swings the
    /// pending count between a few keys and a few times `RUN`, so it
    /// crosses `RUN` and `RUN / 4` in both directions many times, with
    /// equal-time ties pushed on both sides of each conversion and
    /// far-future timers that stay pending through them.
    #[test]
    fn random_ops_across_run_and_heap_match_a_sorted_vec() {
        crate::check::cases("event.run_heap_oracle", 64, |rng| {
            use crate::rng::Rng;
            let mut q = EventQueue::new();
            let mut reference: Vec<(u64, u64)> = Vec::new();
            let (mut seq, mut now) = (0u64, 0u64);
            let (mut to_heap, mut to_run) = (0u32, 0u32);
            for phase in 0..rng.gen_range(6u32..12) {
                // Grow to a target on one side of the bounds, then shrink
                // to one on the other.
                let target = if phase % 2 == 0 {
                    rng.gen_range(RUN + 1..4 * RUN)
                } else {
                    rng.gen_range(0..RUN / 4)
                };
                while reference.len() != target {
                    let was_heap = q.heap;
                    // Mostly towards the target, sometimes away from it.
                    let toward = rng.gen_bool(0.8);
                    if reference.is_empty() || (reference.len() < target) == toward {
                        let delay = match rng.gen_range(0u32..8) {
                            0..=2 => 0,                              // a tie with now
                            3..=5 => rng.gen_range(0u64..16),        // near hops
                            6 => rng.gen_range(0u64..2_000),         // mid-range
                            _ => rng.gen_range(1u64 << 30..1 << 40), // far timers
                        };
                        let t = now + delay;
                        q.push(Time::from_units(t), dst(0), seq);
                        let at = reference.partition_point(|&e| e < (t, seq));
                        reference.insert(at, (t, seq));
                        seq += 1;
                    } else {
                        // A deadline just before, at or after the front.
                        let front = reference[0].0;
                        let deadline = front.saturating_sub(1) + rng.gen_range(0u64..3);
                        let until = rng.gen_bool(0.5);
                        let popped = if until {
                            q.pop_until(Time::from_units(deadline))
                        } else {
                            q.pop()
                        };
                        match popped {
                            Some(popped) => {
                                let expect = reference.remove(0);
                                assert_eq!((popped.time.units(), popped.seq), expect);
                                assert_eq!(popped.event, expect.1, "payload follows its key");
                                now = expect.0;
                            }
                            None => assert!(until && front > deadline, "a due event was missed"),
                        }
                    }
                    assert_eq!(q.len(), reference.len());
                    assert_eq!(q.is_empty(), reference.is_empty());
                    assert_eq!(
                        q.peek_time(),
                        reference.first().map(|&(t, _)| Time::from_units(t))
                    );
                    to_heap += u32::from(!was_heap && q.heap);
                    to_run += u32::from(was_heap && !q.heap);
                }
            }
            assert!(
                to_heap >= 3 && to_run >= 3,
                "{to_heap} to heap, {to_run} to run"
            );
            while let Some(popped) = q.pop() {
                assert_eq!((popped.time.units(), popped.seq), reference.remove(0));
            }
            assert!(reference.is_empty());
        });
    }

    #[test]
    fn equal_time_ties_straddling_both_conversions_pop_in_seq_order() {
        // RUN keys at one instant fill the run; the next push at the same
        // instant turns it into a heap, and popping down to RUN / 4 turns
        // it back while more same-instant keys arrive.
        let t = Time::from_units(7);
        let mut q = EventQueue::new();
        for i in 0..=RUN as u64 {
            q.push(t, dst(0), i);
        }
        assert!(q.heap);
        let mut next = 0;
        while q.heap {
            assert_eq!(q.pop().unwrap().event, next);
            next += 1;
        }
        assert_eq!(q.len(), RUN / 4);
        for i in 0..3 {
            q.push(t, dst(0), RUN as u64 + 1 + i);
        }
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(rest, (next..RUN as u64 + 4).collect::<Vec<_>>());
    }
}
