//! Deterministic pseudo-random number generation.
//!
//! Every stochastic decision in the simulation flows from a single `u64`
//! seed: the seed initialises a SplitMix64 stream, which in turn seeds a
//! Xoshiro256\*\* generator. Subsystems receive *forked* generators
//! ([`Rng::fork`]) keyed by a label hash, so adding draws to one subsystem
//! never perturbs another — the property that keeps scenario outputs stable
//! as the codebase evolves.
//!
//! The generators are the public-domain reference algorithms of Blackman &
//! Vigna; both are implemented from scratch because the offline crate set
//! has no `rand` requirement here and owning the implementation guarantees
//! cross-version reproducibility.

/// SplitMix64: a tiny, high-quality 64-bit generator used for seeding.
///
/// One SplitMix64 step is also the recommended way to expand a single `u64`
/// seed into the 256-bit Xoshiro state.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a new stream from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The simulation's workhorse generator: Xoshiro256\*\* seeded via SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

/// The declared RNG stream registry: every static `Rng::fork` label in
/// the workspace, paired with the subsystem (crate) that owns it.
///
/// The lint's D11 rule enforces that a fork label is a string literal
/// drawn from this table and that no label is claimed by two subsystems —
/// two call sites sharing a stream is a silent determinism hazard the
/// moment call order changes. Dynamic label *families* (per-platform
/// transport streams, per-topic LDA sweeps) are audited at their call
/// sites with justified pragmas instead.
///
/// Entries are `(subsystem, label)`; the label strings feed the FNV hash
/// in [`Rng::fork`], so renaming one changes every downstream draw — the
/// golden-output suite pins them.
pub const STREAM_REGISTRY: &[(&str, &str)] = &[
    ("simnet", "burst"),
    ("simnet", "corruption"),
    ("core", "twitter"),
    ("core", "whatsapp"),
    ("core", "telegram"),
    ("core", "discord"),
    ("workload", "control"),
    ("workload", "cross-platform"),
    ("checkpoint", "disk"),
];

impl Rng {
    /// Construct from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // An all-zero state is the one invalid Xoshiro state; SplitMix64
        // cannot produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Rng { s }
    }

    /// Export the full 256-bit generator state (checkpointing).
    ///
    /// Restoring the returned words with [`Rng::from_state`] resumes the
    /// stream at exactly this position — the property crash-safe campaign
    /// snapshots rely on.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from a previously exported [`Rng::state`].
    ///
    /// The all-zero state (invalid for Xoshiro) is mapped to the same
    /// non-zero fallback that [`Rng::new`] uses, so a round-trip through a
    /// snapshot can never produce a stuck generator.
    pub fn from_state(mut s: [u64; 4]) -> Self {
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Rng { s }
    }

    /// Derive an independent generator for the subsystem named `label`.
    ///
    /// Forking hashes the label (FNV-1a) together with fresh output from
    /// `self`, so distinct labels — and successive forks under the same
    /// label — yield decorrelated streams.
    pub fn fork(&mut self, label: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        Rng::new(h ^ self.next_u64())
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range({lo}, {hi}) is empty");
        lo + self.below(hi - lo + 1)
    }

    /// Uniform usize index in `[0, len)` — convenience for slice indexing.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.f64() < p
    }

    /// Pick a uniformly random element of `items`, or `None` if empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.index(items.len())])
        }
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` uniformly without
    /// replacement (Floyd's algorithm); the result is sorted.
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut chosen = std::collections::BTreeSet::new();
        for j in (n - k)..n {
            let t = self.index(j + 1);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }

    /// A standard normal draw (Box–Muller; one of the pair is discarded to
    /// keep the generator stateless beyond its core state).
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let u1 = if u1 <= 0.0 { f64::MIN_POSITIVE } else { u1 };
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain C code.
        let mut sm = SplitMix64::new(1234567);
        let outs: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(
            outs,
            vec![
                6457827717110365317,
                3203168211198807973,
                9817491932198370423
            ]
        );
    }

    #[test]
    fn deterministic_across_clones() {
        let mut a = Rng::new(42);
        let mut b = a.clone();
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_labels_decorrelate() {
        let mut root = Rng::new(7);
        let mut a = root.clone().fork("alpha");
        let mut b = root.fork("beta");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn range_inclusive_bounds() {
        let mut r = Rng::new(4);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..2000 {
            let v = r.range(5, 8);
            assert!((5..=8).contains(&v));
            lo_seen |= v == 5;
            hi_seen |= v == 8;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn f64_unit_interval_mean() {
        let mut r = Rng::new(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(6);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_rate_roughly_matches() {
        let mut r = Rng::new(7);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(8);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut r = Rng::new(9);
        for _ in 0..100 {
            let s = r.sample_indices(50, 10);
            assert_eq!(s.len(), 10);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted & distinct");
            assert!(s.iter().all(|&i| i < 50));
        }
        // Degenerate cases.
        assert_eq!(r.sample_indices(5, 5), vec![0, 1, 2, 3, 4]);
        assert!(r.sample_indices(5, 0).is_empty());
    }

    #[test]
    fn sample_indices_uniformity() {
        // Each index of 0..10 should be chosen ~ k/n of the time.
        let mut r = Rng::new(10);
        let mut counts = [0u32; 10];
        let trials = 20_000;
        for _ in 0..trials {
            for i in r.sample_indices(10, 3) {
                counts[i] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let rate = f64::from(c) / trials as f64;
            assert!((rate - 0.3).abs() < 0.02, "index {i} rate {rate}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(11);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn pick_empty_and_nonempty() {
        let mut r = Rng::new(12);
        let empty: [u8; 0] = [];
        assert!(r.pick(&empty).is_none());
        let items = [10, 20, 30];
        assert!(items.contains(r.pick(&items).unwrap()));
    }
}
