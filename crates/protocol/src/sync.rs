//! Barrier and lock arbitration: the managers, and the handlers that
//! resolve a processor's sync op inline, in the event that reaches it.
//!
//! Synchronization is implemented directly in the simulator rather than
//! through shared memory; time spent waiting is charged to the
//! "computation" component of the Figure 9 breakdown, exactly as the
//! paper does ("computation time including barrier synchronization and
//! spinning on locks").

use std::collections::{HashMap, VecDeque};

use specdsm_sim::Cycle;
use specdsm_types::{LockId, ProcId};

use crate::processor::{Blocked, SyncKind};
use crate::system::{Event, System};

/// A single global sense-reversing barrier over `n` processors.
#[derive(Debug, Clone)]
pub struct BarrierManager {
    n: usize,
    waiting: Vec<ProcId>,
}

impl BarrierManager {
    /// Creates a barrier over `n` processors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one processor");
        BarrierManager {
            n,
            waiting: Vec::with_capacity(n),
        }
    }

    /// Processor `p` arrives. Returns all released processors (in
    /// arrival order, `p` last) when `p` is the final arrival, `None`
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `p` arrives twice in one episode (workload bug).
    pub fn arrive(&mut self, p: ProcId) -> Option<Vec<ProcId>> {
        assert!(
            !self.waiting.contains(&p),
            "{p} arrived twice at the barrier"
        );
        self.waiting.push(p);
        if self.waiting.len() == self.n {
            Some(std::mem::take(&mut self.waiting))
        } else {
            None
        }
    }
}

/// FIFO locks.
#[derive(Debug, Clone, Default)]
pub struct LockManager {
    locks: HashMap<LockId, LockState>,
}

#[derive(Debug, Clone, Default)]
struct LockState {
    holder: Option<ProcId>,
    queue: VecDeque<ProcId>,
}

impl LockManager {
    /// Creates a manager with no locks held.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to acquire `lock` for `p`. Returns `true` on immediate
    /// grant; otherwise `p` is queued FIFO.
    pub fn acquire(&mut self, lock: LockId, p: ProcId) -> bool {
        let state = self.locks.entry(lock).or_default();
        match state.holder {
            None => {
                state.holder = Some(p);
                true
            }
            Some(holder) => {
                assert_ne!(holder, p, "{p} re-acquired {lock} it already holds");
                state.queue.push_back(p);
                false
            }
        }
    }

    /// Releases `lock`, which `p` must hold. Returns the next waiter,
    /// which becomes the new holder.
    ///
    /// # Panics
    ///
    /// Panics if `p` does not hold `lock`.
    pub fn release(&mut self, lock: LockId, p: ProcId) -> Option<ProcId> {
        let state = self
            .locks
            .get_mut(&lock)
            .unwrap_or_else(|| panic!("{p} released unknown lock {lock}"));
        assert_eq!(
            state.holder,
            Some(p),
            "{p} released {lock} it does not hold"
        );
        state.holder = state.queue.pop_front();
        state.holder
    }
}

impl System {
    /// Resolves a barrier arrival, lock acquire or lock release of `p`
    /// at `now`. Each processor it lets go resumes at `now + 1`, in the
    /// order the managers release them.
    pub(crate) fn sync(&mut self, now: Cycle, p: ProcId, kind: SyncKind) {
        match kind {
            SyncKind::Barrier => match self.barrier.arrive(p) {
                // The last arriver comes last and was never blocked.
                Some(released) => {
                    for w in released {
                        self.wake(now, w);
                    }
                }
                None => self.proc_mut(p).blocked = Blocked::Barrier(now),
            },
            SyncKind::Lock(lock) => {
                if self.locks.acquire(lock, p) {
                    self.wake(now, p);
                } else {
                    self.proc_mut(p).blocked = Blocked::Lock(lock, now);
                }
            }
            SyncKind::Unlock(lock) => {
                if let Some(next) = self.locks.release(lock, p) {
                    self.wake(now, next);
                }
                self.wake(now, p);
            }
        }
    }

    /// Lets `p` go at `now`: charges its barrier or lock wait, if it
    /// waited, and resumes it at `now + 1`.
    fn wake(&mut self, now: Cycle, p: ProcId) {
        let pr = self.proc_mut(p);
        if let Blocked::Barrier(since) | Blocked::Lock(_, since) = pr.blocked {
            pr.stats.sync_wait += now.since(since);
            pr.blocked = Blocked::No;
        }
        self.sched(now + 1, Event::Resume(p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_releases_in_arrival_order() {
        let mut b = BarrierManager::new(3);
        assert!(b.arrive(ProcId(2)).is_none());
        assert!(b.arrive(ProcId(0)).is_none());
        assert_eq!(b.waiting, [ProcId(2), ProcId(0)]);
        let released = b.arrive(ProcId(1)).unwrap();
        assert_eq!(released, vec![ProcId(2), ProcId(0), ProcId(1)]);
        assert!(b.waiting.is_empty(), "barrier resets");
    }

    #[test]
    fn barrier_reusable_across_episodes() {
        let mut b = BarrierManager::new(2);
        for _ in 0..5 {
            assert!(b.arrive(ProcId(0)).is_none());
            assert!(b.arrive(ProcId(1)).is_some());
        }
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut b = BarrierManager::new(3);
        b.arrive(ProcId(0));
        b.arrive(ProcId(0));
    }

    #[test]
    fn single_proc_barrier_releases_immediately() {
        let mut b = BarrierManager::new(1);
        assert_eq!(b.arrive(ProcId(0)), Some(vec![ProcId(0)]));
    }

    #[test]
    fn locks_grant_fifo() {
        let mut l = LockManager::new();
        assert!(l.acquire(LockId(1), ProcId(0)));
        assert!(!l.acquire(LockId(1), ProcId(1)));
        assert!(!l.acquire(LockId(1), ProcId(2)));
        assert_eq!(l.locks[&LockId(1)].queue.len(), 2);
        assert_eq!(l.release(LockId(1), ProcId(0)), Some(ProcId(1)));
        assert_eq!(l.locks[&LockId(1)].holder, Some(ProcId(1)));
        assert_eq!(l.release(LockId(1), ProcId(1)), Some(ProcId(2)));
        assert_eq!(l.release(LockId(1), ProcId(2)), None);
        assert_eq!(l.locks[&LockId(1)].holder, None);
    }

    #[test]
    fn independent_locks() {
        let mut l = LockManager::new();
        assert!(l.acquire(LockId(1), ProcId(0)));
        assert!(l.acquire(LockId(2), ProcId(1)));
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn release_without_hold_panics() {
        let mut l = LockManager::new();
        l.acquire(LockId(1), ProcId(0));
        l.release(LockId(1), ProcId(1));
    }

    #[test]
    #[should_panic(expected = "re-acquired")]
    fn reacquire_held_lock_panics() {
        let mut l = LockManager::new();
        l.acquire(LockId(1), ProcId(0));
        l.acquire(LockId(1), ProcId(0));
    }
}
