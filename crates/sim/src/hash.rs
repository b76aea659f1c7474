//! The one in-tree hasher for maps keyed by process-internal integers.
//!
//! The datapath's map keys — flow, connection and message ids, host
//! pairs, steering keys, queue numbers — are integers this process
//! made up itself. Nothing an outside party sends chooses them, so the
//! keyed SipHash `std` defaults to protects against nothing here and
//! costs more than the lookup it guards. [`IntHasher`] is one folded
//! 64 × 64 → 128-bit multiply per integer written; [`IntMap`] and
//! [`IntSet`] are the `std` containers over it. The hasher is fixed
//! (no per-process key), so iteration order repeats from run to run.
//!
//! Keep `std`'s default for keys that arrive from outside the program.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over [`IntHasher`]; build one with `IntMap::default()`.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;
/// A `HashSet` over [`IntHasher`]; build one with `IntSet::default()`.
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// 2^64 / golden ratio, odd.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folded-multiply hasher for integer keys and tuples of them.
///
/// `std`'s table takes the bucket from the hash's low bits and the
/// in-group tag from its top seven, so both ends must mix. A bare
/// multiply leaves the low bits a function of the key's low bits alone
/// (every multiple of 1500 would share them); folding the product's
/// high half onto its low half carries every key bit to both ends.
#[derive(Debug, Clone, Copy)]
pub struct IntHasher(u64);

impl Default for IntHasher {
    /// Starts from a non-zero state so a zero key does not hash to 0.
    fn default() -> Self {
        IntHasher(MULTIPLIER)
    }
}

impl IntHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(MULTIPLIER);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Byte strings (not what this hasher is for, but `Hash` may send
    /// them): eight bytes at a time, the tail zero-padded, then the
    /// length so that padding cannot collide with real zeroes.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
        self.mix(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    const KEYS: u64 = 10_000;
    /// Buckets `std` gives a table of `KEYS` entries (7/8 load, rounded
    /// up to a power of two).
    const BUCKETS: usize = 16_384;

    /// Worst bucket load (bucket = low bits) and worst tag load (tag =
    /// top seven bits) over `keys`.
    fn worst_loads<K: Hash>(keys: impl Iterator<Item = K>) -> (usize, usize) {
        let build = BuildHasherDefault::<IntHasher>::default();
        let mut buckets = vec![0usize; BUCKETS];
        let mut tags = [0usize; 128];
        for key in keys {
            let h = build.hash_one(&key);
            buckets[h as usize & (BUCKETS - 1)] += 1;
            tags[(h >> 57) as usize] += 1;
        }
        (
            buckets.into_iter().max().expect("buckets"),
            tags.into_iter().max().expect("tags"),
        )
    }

    /// Every key shape the datapath uses spreads like a random function
    /// would: 10 000 balls into 16 384 bins put at most six or seven in
    /// the fullest, and about 78 ± 9 on each of the 128 tags.
    #[test]
    fn datapath_key_shapes_spread_over_buckets_and_tags() {
        let shapes: Vec<(&str, (usize, usize))> = vec![
            // Flow ids: engine uid in the high half, a counter below.
            (
                "uid << 32 | n",
                worst_loads((0..KEYS).map(|n| (7u64 << 32) | n)),
            ),
            // The same with the uid varying and the counter small.
            (
                "uid << 32 | small",
                worst_loads((0..KEYS).map(|n| ((n / 4) << 32) | (n % 4))),
            ),
            // Chunk offsets: multiples of the MTU.
            ("k * 1500", worst_loads((0..KEYS).map(|k| k * 1500))),
            ("k * 4096", worst_loads((0..KEYS).map(|k| k * 4096))),
            // (conn, stream, msg) message keys.
            (
                "(conn, stream, msg)",
                worst_loads((0..KEYS).map(|n| (n % 100, (n / 100 % 4) as u32, n / 400))),
            ),
            // Directed host pairs.
            (
                "(src, dst)",
                worst_loads((0..KEYS).map(|n| ((n % 100) as u32, (n / 100) as u32))),
            ),
            // Small dense ids: connections, sessions, queues.
            ("dense u64", worst_loads(0..KEYS)),
            ("dense u16", worst_loads((0..KEYS).map(|n| n as u16))),
            // Engine keys: host << 16 | n.
            (
                "host << 16 | n",
                worst_loads((0..KEYS).map(|n| ((n / 8) << 16) | (n % 8 + 1))),
            ),
        ];
        for (shape, (bucket, tag)) in shapes {
            assert!(bucket <= 8, "{shape}: {bucket} keys in one bucket");
            assert!(tag <= 125, "{shape}: {tag} keys on one tag");
        }
    }

    #[test]
    fn tuples_do_not_commute_and_zero_is_not_sticky() {
        let build = BuildHasherDefault::<IntHasher>::default();
        assert_ne!(build.hash_one((1u64, 2u64)), build.hash_one((2u64, 1u64)));
        assert_ne!(build.hash_one(0u64), 0);
        assert_ne!(build.hash_one((0u64, 0u64)), build.hash_one(0u64));
    }

    #[test]
    fn byte_strings_hash_by_content_and_length() {
        let build = BuildHasherDefault::<IntHasher>::default();
        assert_eq!(build.hash_one("container"), build.hash_one("container"));
        assert_ne!(
            build.hash_one([0u8; 3].as_slice()),
            build.hash_one([0u8; 4].as_slice())
        );
        assert_ne!(build.hash_one("ab"), build.hash_one("ba"));
    }

    #[test]
    fn maps_iterate_in_the_same_order_every_time() {
        let order = || {
            let mut m: IntMap<u64, ()> = IntMap::default();
            for k in 0..1000u64 {
                m.insert(k * 1500, ());
            }
            m.keys().copied().collect::<Vec<_>>()
        };
        assert_eq!(order(), order());
    }
}
