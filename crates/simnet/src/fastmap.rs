//! A fixed multiplicative hasher and the map and set types built on it.
//!
//! The std `HashMap` defaults to SipHash-1-3 with a per-process random
//! key: robust against adversarial keys, but several times the cost of a
//! multiply per word. Every key this workspace hashes is produced by the
//! simulation itself (user and tweet ids, invite codes, phone hashes,
//! vocabulary words), so the hot maps use [`FastHasher`] instead: one
//! add and one multiply per word, FxHash-style, with the final value
//! rotated so that the well-mixed high bits land where the table takes
//! its bucket index from.
//!
//! The hasher has no key, so a map's iteration order is the same in every
//! process. Results still must not depend on it: lint rule D2 tracks
//! [`FastMap`] and [`FastSet`] exactly as it tracks `HashMap` and `HashSet`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FastHasher`]; build one with `default()`
/// or `with_capacity_and_hasher(n, Default::default())`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` hashed through [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// Odd multiplier with well-spread bits (the constant of rustc-hash 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A deterministic multiplicative hasher: each word `w` updates the state
/// to `(state + w) * K`, and [`finish`](Hasher::finish) rotates the state
/// left by 26 bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    /// Eight bytes per word (little-endian); a short tail is one more
    /// word carrying its length in the top byte.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            word[7] = tail.len() as u8;
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    #[test]
    fn known_answers() {
        // One word: (0 + w) * K, rotated left by 26.
        assert_eq!(hash_of(&0u32), 0);
        assert_eq!(hash_of(&1u32), K.rotate_left(26));
        assert_eq!(hash_of(&1u32), 0xa8b9_8aa7_17c4_d5eb);
        assert_eq!(hash_of(&u64::MAX), K.wrapping_neg().rotate_left(26));
        // Two words: a `(u32, u32)` key hashes field by field.
        let two = (7u64.wrapping_mul(K).wrapping_add(9)).wrapping_mul(K);
        assert_eq!(hash_of(&(7u32, 9u32)), two.rotate_left(26));
        // `str` writes its bytes (a tail word tagged with its length),
        // then a 0xff terminator.
        let tail = (u64::from_le_bytes(*b"abc\0\0\0\0\x03")).wrapping_mul(K);
        let want = tail.wrapping_add(0xff).wrapping_mul(K).rotate_left(26);
        assert_eq!(hash_of("abc"), want);
        assert_eq!(hash_of("abc"), 0xf15d_ebe0_d129_dc61);
    }

    #[test]
    fn a_zero_tail_is_not_the_shorter_string() {
        assert_ne!(hash_of(&b"a"[..]), hash_of(&b"a\0"[..]));
        assert_ne!(hash_of("abcdefgh"), hash_of("abcdefgh\0"));
    }

    #[test]
    fn maps_and_sets_behave_as_std_ones() {
        let mut m: FastMap<u32, u64> = FastMap::default();
        for i in 0..10_000u32 {
            *m.entry(i % 997).or_insert(0) += u64::from(i);
        }
        assert_eq!(m.len(), 997);
        assert_eq!(m[&0], (0..10_000u64).filter(|i| i % 997 == 0).sum::<u64>());
        let s: FastSet<String> = (0..100).map(|i| format!("k{i}")).collect();
        assert!(s.contains("k42") && !s.contains("k100"));
    }

    #[test]
    fn aligned_keys_spread_over_buckets() {
        // Keys with many low zero bits are where a plain multiply without
        // the final rotation collapses onto one bucket.
        let buckets: FastSet<u64> = (0..1024u64).map(|i| hash_of(&(i << 32)) & 1023).collect();
        assert!(buckets.len() > 256, "{} distinct buckets", buckets.len());
    }
}
