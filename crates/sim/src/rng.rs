//! Deterministic pseudo-random numbers.

/// An xorshift64* pseudo-random number generator.
///
/// The simulator must be reproducible across runs and platforms, and the
/// statistical demands are modest (timing jitter, workload shuffles), so
/// a tiny self-contained generator is preferable to pulling in `rand`
/// as a core dependency. The sequence is fixed for a given seed forever.
///
/// # Example
///
/// ```
/// use specdsm_sim::Xorshift64Star;
///
/// let mut a = Xorshift64Star::new(42);
/// let mut b = Xorshift64Star::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let jitter = a.range(0, 100);
/// assert!(jitter < 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xorshift64Star {
    state: u64,
}

impl Xorshift64Star {
    /// Creates a generator from a seed. A zero seed is remapped to a
    /// fixed non-zero constant (xorshift has an all-zero fixed point).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let state = if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        };
        Xorshift64Star { state }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits, as in the standard conversion.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli trial with probability `p`.
    ///
    /// In debug builds, panics if `p` is outside `[0, 1]` (or NaN) —
    /// such a probability is always a caller bug, silently clamping it
    /// would hide miscomputed fault/jitter rates.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Xorshift64Star::new(7);
        let mut b = Xorshift64Star::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xorshift64Star::new(1);
        let mut b = Xorshift64Star::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = Xorshift64Star::new(0);
        // The all-zero state is the xorshift fixed point: were it not
        // remapped, every draw would be zero forever. Demand distinct
        // non-zero outputs.
        let draws: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(draws.iter().all(|&v| v != 0), "degenerate stream");
        let distinct: std::collections::HashSet<_> = draws.iter().collect();
        assert_eq!(distinct.len(), draws.len(), "stream does not repeat");
        assert_eq!(Xorshift64Star::new(0), Xorshift64Star::new(0));
    }

    #[test]
    fn range_bounds() {
        let mut r = Xorshift64Star::new(3);
        for _ in 0..10_000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Xorshift64Star::new(1).range(5, 5);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xorshift64Star::new(11);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Xorshift64Star::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle changed order");
    }

    #[test]
    fn chance_extremes() {
        let mut r = Xorshift64Star::new(13);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn chance_above_one_panics() {
        Xorshift64Star::new(1).chance(1.5);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn chance_negative_panics() {
        Xorshift64Star::new(1).chance(-0.1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn chance_nan_panics() {
        Xorshift64Star::new(1).chance(f64::NAN);
    }
}
