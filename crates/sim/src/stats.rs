//! Statistics primitives.

use std::fmt;

/// A named event counter.
///
/// # Example
///
/// ```
/// use specdsm_sim::StatCounter;
/// let mut c = StatCounter::new("read_misses");
/// c.add(3);
/// c.incr();
/// assert_eq!(c.value(), 4);
/// assert_eq!(c.to_string(), "read_misses: 4");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatCounter {
    name: String,
    value: u64,
}

impl StatCounter {
    /// Creates a zeroed counter.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        StatCounter {
            name: name.into(),
            value: 0,
        }
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Counter name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This counter as a fraction of `denom` (0 when `denom` is 0).
    #[must_use]
    pub fn fraction_of(&self, denom: u64) -> f64 {
        if denom == 0 {
            0.0
        } else {
            self.value as f64 / denom as f64
        }
    }
}

impl fmt::Display for StatCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.value)
    }
}

/// A power-of-two bucketed latency histogram.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))`, except bucket 0 which
/// also counts zero.
///
/// # Example
///
/// ```
/// use specdsm_sim::Histogram;
/// let mut h = Histogram::new();
/// h.record(1);
/// h.record(418);
/// h.record(418);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.mean(), (1.0 + 418.0 + 418.0) / 3.0);
/// assert_eq!(h.max(), 418);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample (0 for an empty histogram).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample (0 for an empty histogram).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// `(bucket_floor, count)` pairs for non-empty buckets.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} max={}",
            self.count,
            self.mean(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = StatCounter::new("x");
        c.incr();
        c.add(9);
        assert_eq!(c.value(), 10);
        assert_eq!(c.name(), "x");
    }

    #[test]
    fn counter_fraction() {
        let mut c = StatCounter::new("x");
        c.add(25);
        assert!((c.fraction_of(100) - 0.25).abs() < 1e-12);
        assert_eq!(c.fraction_of(0), 0.0);
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        // 0 and 1 land in bucket 0; 2 and 3 in bucket [2,4); 1024 alone.
        assert_eq!(buckets, vec![(0, 2), (2, 2), (1024, 1)]);
    }

    #[test]
    fn histogram_summary_stats() {
        let mut h = Histogram::new();
        for v in [10, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 60);
        assert_eq!(h.mean(), 20.0);
        assert_eq!(h.max(), 30);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.buckets().count(), 0);
    }

    #[test]
    fn display_nonempty() {
        let mut h = Histogram::new();
        h.record(5);
        assert!(!h.to_string().is_empty());
        assert!(!StatCounter::new("c").to_string().is_empty());
    }
}
