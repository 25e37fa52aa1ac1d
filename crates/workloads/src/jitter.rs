//! Stateless deterministic timing jitter.

use specdsm_sim::Xorshift64Star;
use specdsm_types::splitmix_fold;

/// Deterministic per-(proc, iteration) jitter source.
///
/// In the paper's runs, message re-ordering comes from network races,
/// queueing, and application load imbalance. Our simulator is
/// deterministic, so workloads inject the imbalance explicitly: compute
/// phases are stretched by a pseudo-random factor derived *statelessly*
/// from `(seed, tags...)`. Statelessness matters: the jitter for
/// processor 3 in iteration 17 is the same no matter in which order
/// streams are generated, so Base-, FR-, and SWI-DSM runs execute the
/// identical program.
///
/// # Example
///
/// ```
/// use specdsm_workloads::Jitter;
///
/// let j = Jitter::new(42);
/// let a = j.stretch(1000, 0.2, &[3, 17]);
/// assert_eq!(a, j.stretch(1000, 0.2, &[3, 17])); // pure function
/// assert!((800..=1200).contains(&a));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jitter {
    seed: u64,
}

impl Jitter {
    /// Creates a jitter source from a workload seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Jitter { seed }
    }

    /// A uniform `u64` in `[0, bound)` derived from the tags.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[must_use]
    pub fn pick(&self, bound: u64, tags: &[u64]) -> u64 {
        assert!(bound > 0, "empty jitter range");
        self.rng(tags).range(0, bound)
    }

    /// Stretches `base` cycles by a uniform factor in
    /// `[1 - amplitude, 1 + amplitude]`.
    #[must_use]
    pub fn stretch(&self, base: u64, amplitude: f64, tags: &[u64]) -> u64 {
        let f = 1.0 + amplitude * (2.0 * self.rng(tags).next_f64() - 1.0);
        (base as f64 * f).round().max(0.0) as u64
    }

    /// A deterministic permutation of `0..n` for the tags (used to vary
    /// e.g. traversal order per iteration).
    #[must_use]
    pub fn permutation(&self, n: usize, tags: &[u64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        self.rng(tags).shuffle(&mut order);
        order
    }

    /// Bernoulli trial with probability `p`.
    #[must_use]
    pub fn chance(&self, p: f64, tags: &[u64]) -> bool {
        self.rng(tags).chance(p)
    }

    /// An RNG deterministically derived from `(seed, tags)`.
    #[must_use]
    pub fn rng(&self, tags: &[u64]) -> Xorshift64Star {
        Xorshift64Star::new(splitmix_fold(self.seed, tags.iter().copied()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stateless_and_deterministic() {
        let j = Jitter::new(7);
        assert_eq!(j.pick(100, &[1, 2]), j.pick(100, &[1, 2]));
        assert_eq!(j.permutation(10, &[5]), j.permutation(10, &[5]));
    }

    #[test]
    fn different_tags_differ() {
        let j = Jitter::new(7);
        let vals: Vec<u64> = (0..32).map(|i| j.pick(1_000_000, &[i])).collect();
        let distinct: std::collections::HashSet<_> = vals.iter().collect();
        assert!(distinct.len() > 20, "tags decorrelate draws");
    }

    #[test]
    fn stretch_bounds() {
        let j = Jitter::new(3);
        for i in 0..1000 {
            let v = j.stretch(1000, 0.25, &[i]);
            assert!((750..=1250).contains(&v), "{v}");
        }
    }

    #[test]
    fn stretch_zero_amplitude_is_identity() {
        let j = Jitter::new(3);
        assert_eq!(j.stretch(1234, 0.0, &[9]), 1234);
    }

    #[test]
    fn permutation_is_valid() {
        let j = Jitter::new(11);
        let p = j.permutation(50, &[1]);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn permutations_vary_by_iteration() {
        let j = Jitter::new(11);
        assert_ne!(j.permutation(20, &[1]), j.permutation(20, &[2]));
    }

    #[test]
    #[should_panic(expected = "empty jitter range")]
    fn zero_bound_panics() {
        let _ = Jitter::new(1).pick(0, &[]);
    }
}
