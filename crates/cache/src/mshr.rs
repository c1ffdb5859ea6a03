//! Miss-status holding registers.

use pard_icn::{DsId, LAddr, PacketId};
use pard_sim::hash::WordMap;
use pard_sim::ComponentId;

/// Identifies an outstanding miss: the pair `(DS-id, line address)`.
///
/// Two LDoms missing on the same numeric address are *different* misses —
/// they fetch different data (their address spaces are disjoint after
/// translation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MshrKey {
    /// Owner DS-id of the future fill.
    pub ds: DsId,
    /// Line-aligned address.
    pub line: LAddr,
}

/// A requester parked on an MSHR entry.
#[derive(Debug, Clone, Copy)]
pub struct Waiter {
    /// The original request's id (echoed in the response).
    pub id: PacketId,
    /// Where to send the response.
    pub reply_to: ComponentId,
    /// Whether the original request was a write (the filled line becomes
    /// dirty).
    pub is_write: bool,
}

/// Outcome of registering a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the caller must issue the fetch.
    Allocated,
    /// An entry for this line already existed; the waiter was merged.
    Merged,
    /// The MSHR file is full; the caller must stall or retry.
    Full,
}

/// The MSHR file: outstanding misses with merged waiters.
///
/// # Example
///
/// ```
/// use pard_cache::{Mshr, MshrKey, MshrOutcome};
/// use pard_icn::{DsId, LAddr, PacketId};
/// use pard_sim::ComponentId;
///
/// let mut m = Mshr::new(4);
/// let key = MshrKey { ds: DsId::new(1), line: LAddr::new(0x100) };
/// let w = |i| pard_cache::mshr_waiter(PacketId(i), ComponentId::from_raw(0), false);
/// assert_eq!(m.try_insert(key, w(1)), MshrOutcome::Allocated);
/// assert_eq!(m.try_insert(key, w(2)), MshrOutcome::Merged);
/// assert_eq!(m.complete(key).unwrap().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Mshr {
    entries: WordMap<MshrKey, Vec<Waiter>>,
    capacity: usize,
}

/// Constructs a [`Waiter`] (free-function constructor keeps the struct's
/// fields public and `Copy` while staying doc-testable).
pub fn mshr_waiter(id: PacketId, reply_to: ComponentId, is_write: bool) -> Waiter {
    Waiter {
        id,
        reply_to,
        is_write,
    }
}

impl Mshr {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be non-zero");
        Mshr {
            entries: WordMap::default(),
            capacity,
        }
    }

    /// Registers a miss for `key`.
    pub fn try_insert(&mut self, key: MshrKey, waiter: Waiter) -> MshrOutcome {
        if let Some(waiters) = self.entries.get_mut(&key) {
            waiters.push(waiter);
            return MshrOutcome::Merged;
        }
        if self.entries.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        self.entries.insert(key, vec![waiter]);
        MshrOutcome::Allocated
    }

    /// Completes the miss for `key`, returning its waiters.
    pub fn complete(&mut self, key: MshrKey) -> Option<Vec<Waiter>> {
        self.entries.remove(&key)
    }

    /// Number of outstanding entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(ds: u16, line: u64) -> MshrKey {
        MshrKey {
            ds: DsId::new(ds),
            line: LAddr::new(line),
        }
    }

    fn w(i: u64) -> Waiter {
        mshr_waiter(PacketId(i), ComponentId::from_raw(0), false)
    }

    #[test]
    fn allocate_merge_complete() {
        let mut m = Mshr::new(2);
        assert_eq!(m.try_insert(key(1, 0x40), w(1)), MshrOutcome::Allocated);
        assert_eq!(m.try_insert(key(1, 0x40), w(2)), MshrOutcome::Merged);
        assert_eq!(m.len(), 1);
        let waiters = m.complete(key(1, 0x40)).unwrap();
        assert_eq!(waiters.len(), 2);
        assert!(m.is_empty());
        assert!(m.complete(key(1, 0x40)).is_none());
    }

    #[test]
    fn same_line_different_ds_are_distinct_entries() {
        let mut m = Mshr::new(4);
        assert_eq!(m.try_insert(key(1, 0x40), w(1)), MshrOutcome::Allocated);
        assert_eq!(m.try_insert(key(2, 0x40), w(2)), MshrOutcome::Allocated);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn full_rejects_new_lines_but_merges_existing() {
        let mut m = Mshr::new(1);
        assert_eq!(m.try_insert(key(1, 0x40), w(1)), MshrOutcome::Allocated);
        assert_eq!(m.try_insert(key(1, 0x80), w(2)), MshrOutcome::Full);
        assert_eq!(m.try_insert(key(1, 0x40), w(3)), MshrOutcome::Merged);
        assert_eq!(m.capacity(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = Mshr::new(0);
    }
}
