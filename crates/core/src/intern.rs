//! String interning for the campaign hot path.
//!
//! The collectors address every group by its dedup key (`"<platform
//! index>:<code>"`), and the pre-rewrite representation re-rendered and
//! re-hashed that `String` on every probe, timeline lookup, and ledger
//! append — the dominant allocation in the monitor's steady state. The
//! [`Interner`] maps each distinct string to a dense [`Sym`] (a `u32`
//! assigned in first-intern order) so the hot path can carry a `Copy` id
//! and index straight into `Vec`-shaped tables.
//!
//! Determinism contract: symbol ids are a pure function of the sequence
//! of *distinct* strings interned, independent of how often a string is
//! re-interned. Discovery interns each group exactly once at first
//! sighting, so a group's `Sym` equals its slot in the discovery-order
//! group table — the same order every thread count and every resume
//! replays. The table is persisted wholesale through checkpoint format
//! v4 and rebuilt index-for-index on load.
//!
//! The reverse index is a `FastMap` used only for point lookups, never
//! iterated (lint rule D2): every traversal goes over the dense
//! insertion-ordered `Vec`.

use chatlens_simnet::fastmap::FastMap;
use std::fmt;

/// A dense interned-string id. `Sym(i)` resolves to the `i`-th distinct
/// string ever interned.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl Sym {
    /// The id as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({})", self.0)
    }
}

/// Insertion-ordered string → [`Sym`] table.
///
/// Equality compares the dense table only (the hash index is derived
/// state), so two interners are equal iff they assign every id to the
/// same string — the property the resume-equivalence tests compare.
#[derive(Default)]
pub struct Interner {
    strings: Vec<String>,
    index: FastMap<String, u32>,
}

impl Interner {
    /// An empty table.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Intern `s`, returning its stable id. First sighting appends; every
    /// later call with an equal string returns the same id.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&i) = self.index.get(s) {
            return Sym(i);
        }
        let i = u32::try_from(self.strings.len()).expect("interner overflow");
        self.strings.push(s.to_string());
        self.index.insert(s.to_string(), i);
        Sym(i)
    }

    /// Id of an already-interned string, if any. Never allocates.
    #[inline]
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.index.get(s).copied().map(Sym)
    }

    /// The string behind `sym`.
    ///
    /// # Panics
    /// If `sym` was not produced by this table (or a checkpoint of it).
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.index()]
    }

    /// Non-panicking [`Interner::resolve`].
    #[inline]
    pub fn try_resolve(&self, sym: Sym) -> Option<&str> {
        self.strings.get(sym.index()).map(String::as_str)
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The dense table in id order — the checkpoint serialization.
    pub fn symbols(&self) -> &[String] {
        &self.strings
    }

    /// Rebuild from a checkpointed table. Ids are positions, so the
    /// rebuilt interner is bit-for-bit the one that was saved.
    ///
    /// # Panics
    /// If the table contains a duplicate (a corrupted checkpoint: ids
    /// would no longer be stable).
    pub fn from_symbols(strings: Vec<String>) -> Interner {
        let mut index = FastMap::with_capacity_and_hasher(strings.len(), Default::default());
        for (i, s) in strings.iter().enumerate() {
            let i = u32::try_from(i).expect("interner overflow");
            assert!(
                index.insert(s.clone(), i).is_none(),
                "duplicate interned string {s:?} in checkpoint"
            );
        }
        Interner { strings, index }
    }
}

/// `Debug` shows the dense table only; the derived hash index would leak
/// hasher order into debug output (lint rule D2).
impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner")
            .field("strings", &self.strings)
            .finish_non_exhaustive()
    }
}

impl PartialEq for Interner {
    fn eq(&self, other: &Interner) -> bool {
        self.strings == other.strings
    }
}

impl Eq for Interner {}

impl Clone for Interner {
    fn clone(&self) -> Interner {
        Interner {
            strings: self.strings.clone(),
            index: self.index.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{collection::vec, prop_assert, prop_assert_eq, proptest};

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut t = Interner::new();
        let a = t.intern("0:AAAA");
        let b = t.intern("1:BBBB");
        assert_eq!(a, Sym(0));
        assert_eq!(b, Sym(1));
        assert_eq!(t.intern("0:AAAA"), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), "0:AAAA");
        assert_eq!(t.resolve(b), "1:BBBB");
        assert_eq!(t.get("1:BBBB"), Some(b));
        assert_eq!(t.get("2:CCCC"), None);
        assert_eq!(t.try_resolve(Sym(7)), None);
    }

    #[test]
    #[should_panic(expected = "duplicate interned string")]
    fn duplicate_checkpoint_table_is_rejected() {
        Interner::from_symbols(vec!["x".into(), "x".into()]);
    }

    proptest! {
        /// Intern/resolve round-trip identity over arbitrary strings,
        /// including repeats: every returned id resolves to the string
        /// that produced it, and equal strings share one id.
        #[test]
        fn roundtrip_identity(words in vec("[a-z0-9:]{0,12}", 0..64)) {
            let mut t = Interner::new();
            let syms: Vec<Sym> = words.iter().map(|w| t.intern(w)).collect();
            for (w, s) in words.iter().zip(&syms) {
                prop_assert_eq!(t.resolve(*s), w.as_str());
                prop_assert_eq!(t.get(w), Some(*s));
            }
            for (i, a) in words.iter().enumerate() {
                for (j, b) in words.iter().enumerate() {
                    prop_assert_eq!(a == b, syms[i] == syms[j]);
                }
            }
            prop_assert!(t.len() <= words.len());
        }

        /// Ids already assigned are stable under any insertion-order
        /// permutation of a *disjoint* suffix: interning more strings
        /// never moves an existing id, whatever order they arrive in.
        #[test]
        fn prefix_ids_stable_under_suffix_permutation(
            prefix in vec("p[a-z]{1,8}", 1..16),
            suffix in vec("s[a-z]{1,8}", 0..16),
            rot in 0usize..16,
        ) {
            let mut base = Interner::new();
            for w in &prefix {
                base.intern(w);
            }
            let assigned: Vec<(String, Sym)> = prefix
                .iter()
                .map(|w| (w.clone(), base.get(w).expect("just interned")))
                .collect();

            // Two different arrival orders of the same suffix set.
            let mut rotated = suffix.clone();
            if !rotated.is_empty() {
                let k = rot % rotated.len();
                rotated.rotate_left(k);
            }
            let mut t1 = base.clone();
            let mut t2 = base;
            for w in &suffix {
                t1.intern(w);
            }
            for w in &rotated {
                t2.intern(w);
            }
            // The prefix ids never moved, in either table.
            for (w, s) in &assigned {
                prop_assert_eq!(t1.get(w), Some(*s));
                prop_assert_eq!(t2.get(w), Some(*s));
                prop_assert_eq!(t1.resolve(*s), w.as_str());
                prop_assert_eq!(t2.resolve(*s), w.as_str());
            }
        }

        /// Saving the dense table and rebuilding preserves every id and
        /// every string — the checkpoint round-trip at the data level.
        #[test]
        fn symbol_table_roundtrip(words in vec("[a-z0-9:]{0,12}", 0..64)) {
            let mut t = Interner::new();
            for w in &words {
                t.intern(w);
            }
            let restored = Interner::from_symbols(t.symbols().to_vec());
            prop_assert_eq!(&restored, &t);
            for w in &words {
                prop_assert_eq!(restored.get(w), t.get(w));
            }
            for i in 0..t.len() {
                prop_assert_eq!(restored.resolve(Sym(i as u32)), t.resolve(Sym(i as u32)));
            }
        }
    }
}
