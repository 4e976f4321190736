//! Deterministic random number generation.
//!
//! The experiment must be bit-for-bit reproducible across runs, platforms and
//! thread counts, so we implement our own small generator rather than depend
//! on an external crate whose output may change between versions:
//!
//! * state initialization via **splitmix64** (tested against the published
//!   reference vectors), and
//! * generation via **xoshiro256++**.
//!
//! The crucial feature is [`SimRng::fork`]: a child generator derived from
//! the *root seed* and a stream identifier, independent of how many values
//! the parent has already produced. Every entity in the simulation (client,
//! site, fault process, ...) forks its own stream from the experiment seed,
//! which keeps the schedule of one entity invariant under changes to any
//! other entity.

use model::{Fnv, SimDuration};
use std::hash::Hasher as _;

/// The splitmix64 mixer: advances `state` and returns the next output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless mix of two words, used for stream derivation.
#[inline]
fn mix(a: u64, b: u64) -> u64 {
    let mut s = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// A deterministic xoshiro256++ generator with hierarchical forking.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
    /// The seed this generator was created from; forks derive from it, not
    /// from the evolving state, so forking is draw-order independent.
    origin: u64,
}

impl SimRng {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s, origin: seed }
    }

    /// The seed this generator (or fork) was created from.
    pub fn origin(&self) -> u64 {
        self.origin
    }

    /// Derive an independent child stream for numeric stream id `id`.
    ///
    /// Forking depends only on `(origin, id)`, never on how many values have
    /// been drawn, so sibling entities cannot perturb each other.
    pub fn fork(&self, id: u64) -> SimRng {
        SimRng::new(mix(self.origin, id))
    }

    /// Derive an independent child stream named by a string label: the
    /// stream id is the FNV-1a hash of the label's bytes.
    pub fn fork_str(&self, label: &str) -> SimRng {
        let mut id = Fnv::new();
        id.write(label.as_bytes());
        self.fork(id.finish())
    }

    /// Next raw 64-bit value (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
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
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` (multiply-shift; `n` must be non-zero).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0)");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`; panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Exponentially distributed value with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // 1 - f64() is in (0, 1], so ln() is finite.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Exponentially distributed duration with the given mean.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_micros(self.exp(mean.as_micros() as f64).round() as u64)
    }

    /// Pareto-distributed value with scale `xm > 0` and shape `alpha > 0`
    /// (heavy-tailed; used for fault episode durations).
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        debug_assert!(xm > 0.0 && alpha > 0.0);
        xm / (1.0 - self.f64()).powf(1.0 / alpha)
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.f64(); // (0, 1]
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * r * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `0..n` (k ≤ n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample {k} from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_reference_vectors() {
        // Published reference sequence for seed 0.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_draw_order_independent() {
        let mut parent1 = SimRng::new(7);
        let parent2 = SimRng::new(7);
        // Drain some values from parent1 before forking.
        for _ in 0..10 {
            parent1.next_u64();
        }
        let mut f1 = parent1.fork(3);
        let mut f2 = parent2.fork(3);
        for _ in 0..10 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_streams() {
        let root = SimRng::new(7);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let mut c = root.fork_str("client-1");
        let mut d = root.fork_str("client-2");
        assert_ne!(a.next_u64(), b.next_u64());
        assert_ne!(c.next_u64(), d.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(9);
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn below_bounds_and_coverage() {
        let mut r = SimRng::new(11);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = r.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(1);
        assert!(!r.chance(0.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_frequency() {
        let mut r = SimRng::new(5);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn exp_mean() {
        let mut r = SimRng::new(13);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.exp(3.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn pareto_at_least_scale() {
        let mut r = SimRng::new(17);
        for _ in 0..10_000 {
            assert!(r.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(19);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(29);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left input unchanged");
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = SimRng::new(31);
        let s = r.sample_indices(50, 10);
        assert_eq!(s.len(), 10);
        let mut uniq = s.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 10);
        assert!(uniq.iter().all(|&i| i < 50));
    }

    #[test]
    fn exp_duration_positive_mean() {
        let mut r = SimRng::new(41);
        let mean = SimDuration::from_secs(100);
        let n = 50_000;
        let total: u64 = (0..n).map(|_| r.exp_duration(mean).as_micros()).sum();
        let avg = total as f64 / n as f64;
        let expect = mean.as_micros() as f64;
        assert!((avg - expect).abs() / expect < 0.02, "avg {avg}");
    }
}
