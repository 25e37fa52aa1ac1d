//! Occupancy-based contention modeling.

use crate::clock::Cycle;

/// A FIFO-served resource with per-use occupancy, e.g. a memory bank or
/// a network interface.
///
/// A request arriving at time `t` starts service at
/// `max(t, next_free)` and holds the resource for `occupancy` cycles.
/// This is the standard M/D/1-style serialization model the paper uses
/// for "contention at the network interfaces" and "contention at the
/// memory bus".
///
/// # Example
///
/// ```
/// use specdsm_sim::{Cycle, FifoResource};
///
/// let mut ni = FifoResource::new();
/// // Two messages arrive back-to-back; the second waits for the first.
/// assert_eq!(ni.acquire(Cycle(100), 8), Cycle(100));
/// assert_eq!(ni.acquire(Cycle(100), 8), Cycle(108));
/// // A later arrival after the queue drains sees no waiting.
/// assert_eq!(ni.acquire(Cycle(200), 8), Cycle(200));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoResource {
    next_free: Cycle,
    busy_cycles: u64,
    wait_cycles: u64,
}

impl FifoResource {
    /// Creates an idle resource.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests the resource at time `at` for `occupancy` cycles.
    ///
    /// Returns the service start; the resource is held until
    /// `start + occupancy`.
    pub fn acquire(&mut self, at: Cycle, occupancy: u64) -> Cycle {
        let start = at.max(self.next_free);
        self.wait_cycles += start.since(at);
        self.next_free = start + occupancy;
        self.busy_cycles += occupancy;
        start
    }

    /// Total cycles spent serving requests.
    #[must_use]
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Total cycles requests spent queued before service.
    #[must_use]
    pub fn wait_cycles(&self) -> u64 {
        self.wait_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_contending_requests() {
        let mut r = FifoResource::new();
        let a = r.acquire(Cycle(0), 10);
        let b = r.acquire(Cycle(0), 10);
        let c = r.acquire(Cycle(0), 10);
        assert_eq!((a, b, c), (Cycle(0), Cycle(10), Cycle(20)));
        assert_eq!(r.wait_cycles(), 10 + 20);
    }

    #[test]
    fn idle_resource_has_no_wait() {
        let mut r = FifoResource::new();
        assert_eq!(r.acquire(Cycle(50), 4), Cycle(50));
        assert_eq!(r.acquire(Cycle(60), 4), Cycle(60));
        assert_eq!(r.wait_cycles(), 0);
        // The second request found the resource free again at 64.
        assert_eq!(r.acquire(Cycle(60), 4), Cycle(64));
    }

    #[test]
    fn zero_occupancy_passes_through() {
        let mut r = FifoResource::new();
        assert_eq!(r.acquire(Cycle(5), 0), Cycle(5));
        assert_eq!(r.acquire(Cycle(5), 0), Cycle(5));
        assert_eq!(r.busy_cycles(), 0);
    }
}
