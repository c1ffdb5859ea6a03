//! A multiplicative hasher for the simulator's small integer keys.
//!
//! The per-packet maps on the memory path (the audit ledger, the LLC's
//! outstanding fetches, the MSHR file, the cores' in-flight requests) are
//! keyed by packet ids, line addresses and DS-ids. `std`'s default
//! SipHash spends several rounds per key on DoS resistance these keys do
//! not need; [`WordHasher`] (the Fx-hash recipe) spends one rotate, xor
//! and multiply per word.
//!
//! Nothing may depend on a [`WordMap`]'s iteration order: the maps it
//! replaces were seeded per process, so no modelled output ever did.
//!
//! ```
//! use pard_sim::hash::WordMap;
//!
//! let mut m: WordMap<u64, &str> = WordMap::default();
//! m.insert(17, "fetch");
//! assert_eq!(m.remove(&17), Some("fetch"));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One rotate, xor and multiply per word written (the Fx-hash recipe).
#[derive(Default, Clone, Copy)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;
