//! Simulation time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in processor cycles.
///
/// `Cycle` is a newtype over `u64` so that simulated time cannot be
/// confused with durations, counters, or addresses. Adding a `u64`
/// duration to a `Cycle` yields a later `Cycle`; subtracting two
/// `Cycle`s yields the `u64` duration between them.
///
/// Cycles are also the scheduling granularity of the calendar-queue
/// [`KeyedQueue`](crate::KeyedQueue): its timing wheel uses one bucket
/// per cycle, so two events are "simultaneous" (and ordered by their
/// [`SchedKey`](crate::SchedKey)) exactly when their `Cycle` values
/// are equal.
///
/// # Example
///
/// ```
/// use specdsm_sim::Cycle;
/// let start = Cycle(100);
/// let end = start + 418;
/// assert_eq!(end - start, 418);
/// assert_eq!(end.max(start), end);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Time zero.
    pub const ZERO: Cycle = Cycle(0);

    /// The raw cycle count.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Saturating difference: `self - earlier`, or zero if `earlier`
    /// is later than `self`.
    #[must_use]
    pub fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, dur: u64) -> Cycle {
        Cycle(self.0 + dur)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, dur: u64) {
        self.0 += dur;
    }
}

impl Sub for Cycle {
    type Output = u64;
    /// Duration between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Cycle) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}c", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Cycle(10);
        assert_eq!(t + 5, Cycle(15));
        assert_eq!(Cycle(15) - t, 5);
        let mut u = t;
        u += 90;
        assert_eq!(u, Cycle(100));
    }

    #[test]
    fn since_saturates() {
        assert_eq!(Cycle(5).since(Cycle(10)), 0);
        assert_eq!(Cycle(10).since(Cycle(5)), 5);
    }

    #[test]
    fn ordering() {
        assert!(Cycle(1) < Cycle(2));
        assert_eq!(Cycle::ZERO, Cycle(0));
    }

    #[test]
    fn display() {
        assert_eq!(Cycle(418).to_string(), "418c");
    }
}
