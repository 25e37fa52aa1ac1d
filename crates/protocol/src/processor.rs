//! The blocking in-order processor model.

use std::iter::Peekable;

use specdsm_sim::Cycle;
use specdsm_types::{BlockAddr, LockId, Op, OpStream, ProcId, ReqKind};

use crate::cache::Cache;
use crate::stats::ProcStats;

/// What the processor wants to do next; the system turns this into
/// events and protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcAction {
    /// Busy for the given cycles (compute or cache hits).
    Busy(u64),
    /// A miss: issue a request of this kind for the block (a read, a
    /// write with no cached copy, or an upgrade of a read-only copy).
    Miss(BlockAddr, ReqKind),
    /// A synchronization operation the engine arbitrates.
    Sync(SyncKind),
    /// The operation stream is exhausted.
    Done,
}

/// The synchronization operations a processor can reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SyncKind {
    /// Arrive at the global barrier.
    Barrier,
    /// Acquire a lock.
    Lock(LockId),
    /// Release a lock.
    Unlock(LockId),
}

/// Why the processor is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Blocked {
    /// Running or runnable (a resume event is pending).
    No,
    /// Waiting for a memory reply for this block; `since` starts the
    /// request-wait clock. The request kind and sequence number are
    /// retained so a retransmission timeout can rebuild the exact
    /// request message, and so a grant can tell whether the wait
    /// included retries (`retried`).
    Mem {
        /// The block being fetched.
        block: BlockAddr,
        /// Issue time.
        since: Cycle,
        /// The kind of request outstanding.
        kind: ReqKind,
        /// Sequence number of the outstanding request.
        seq: u64,
        /// Whether the request was retransmitted at least once.
        retried: bool,
    },
    /// Waiting at the barrier since the given cycle.
    Barrier(Cycle),
    /// Waiting for the lock since the given cycle.
    Lock(LockId, Cycle),
    /// Finished.
    Done,
}

/// One simulated processor: an in-order core that blocks on memory
/// requests (one outstanding request), with its cache.
pub struct Processor {
    id: ProcId,
    stream: Peekable<OpStream>,
    /// The processor's cache (processor cache + remote cache combined).
    pub(crate) cache: Cache,
    pub(crate) blocked: Blocked,
    pub(crate) stats: ProcStats,
    /// Sequence number of the most recent request (pre-incremented at
    /// issue, so live requests are numbered from 1). Strictly monotone
    /// per processor; with one outstanding request per core this makes
    /// "accept each `(requester, seq)` at most once" a complete
    /// duplicate-suppression rule at the home.
    pub(crate) req_seq: u64,
    cache_hit_cycles: u64,
}

impl std::fmt::Debug for Processor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Processor")
            .field("id", &self.id)
            .field("blocked", &self.blocked)
            .field("cached_blocks", &self.cache.len())
            .finish()
    }
}

impl Processor {
    /// Creates a processor executing `stream`.
    #[must_use]
    pub fn new(id: ProcId, stream: OpStream, cache_hit_cycles: u64) -> Self {
        Processor {
            id,
            stream: stream.peekable(),
            cache: Cache::new(),
            blocked: Blocked::No,
            stats: ProcStats::default(),
            req_seq: 0,
            cache_hit_cycles,
        }
    }

    /// This processor's id.
    #[must_use]
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// Read access to the cache (for tests and invariant checks).
    #[must_use]
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Consumes ops until one requires the system's involvement.
    ///
    /// Consecutive compute ops and cache hits are merged into a single
    /// [`ProcAction::Busy`] slice so the event queue is not flooded;
    /// the merge never crosses a miss, sync op, or stream end, keeping
    /// memory semantics exact at event granularity.
    pub(crate) fn next_action(&mut self) -> ProcAction {
        let mut busy: u64 = 0;
        loop {
            // Merge while the upcoming op stays local to this core.
            match self.stream.peek() {
                Some(Op::Compute(_)) => {
                    if let Some(Op::Compute(n)) = self.stream.next() {
                        busy += n;
                        self.stats.compute_cycles += n;
                    }
                    continue;
                }
                Some(&Op::Read(b)) => match self.cache.read(b) {
                    Some((_version, first_touch)) => {
                        self.stream.next();
                        self.stats.reads += 1;
                        self.stats.read_hits += 1;
                        if first_touch {
                            self.stats.spec_read_hits += 1;
                        }
                        busy += self.cache_hit_cycles;
                        self.stats.compute_cycles += self.cache_hit_cycles;
                        continue;
                    }
                    None => {
                        if busy > 0 {
                            return ProcAction::Busy(busy);
                        }
                        self.stream.next();
                        self.stats.reads += 1;
                        self.stats.read_misses += 1;
                        return ProcAction::Miss(b, ReqKind::Read);
                    }
                },
                Some(&Op::Write(b)) => {
                    if self.cache.can_write(b) {
                        self.stream.next();
                        self.stats.writes += 1;
                        self.stats.write_hits += 1;
                        busy += self.cache_hit_cycles;
                        self.stats.compute_cycles += self.cache_hit_cycles;
                        continue;
                    }
                    if busy > 0 {
                        return ProcAction::Busy(busy);
                    }
                    self.stream.next();
                    self.stats.writes += 1;
                    if self.cache.has_shared(b) {
                        self.stats.upgrades += 1;
                        return ProcAction::Miss(b, ReqKind::Upgrade);
                    }
                    self.stats.write_misses += 1;
                    return ProcAction::Miss(b, ReqKind::Write);
                }
                Some(Op::Barrier) | Some(Op::Lock(_)) | Some(Op::Unlock(_)) | None => {
                    if busy > 0 {
                        return ProcAction::Busy(busy);
                    }
                    return match self.stream.next() {
                        Some(Op::Barrier) => ProcAction::Sync(SyncKind::Barrier),
                        Some(Op::Lock(l)) => ProcAction::Sync(SyncKind::Lock(l)),
                        Some(Op::Unlock(l)) => ProcAction::Sync(SyncKind::Unlock(l)),
                        None => ProcAction::Done,
                        Some(_) => unreachable!("peek/next mismatch"),
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc_with(ops: Vec<Op>) -> Processor {
        Processor::new(ProcId(0), Box::new(ops.into_iter()), 1)
    }

    #[test]
    fn merges_consecutive_computes() {
        let mut p = proc_with(vec![Op::Compute(10), Op::Compute(5), Op::Barrier]);
        assert_eq!(p.next_action(), ProcAction::Busy(15));
        assert_eq!(p.next_action(), ProcAction::Sync(SyncKind::Barrier));
        assert_eq!(p.next_action(), ProcAction::Done);
        assert_eq!(p.stats.compute_cycles, 15);
    }

    #[test]
    fn read_miss_surfaces_after_busy() {
        let mut p = proc_with(vec![Op::Compute(7), Op::Read(BlockAddr(1))]);
        // Busy first (merge stops at the miss), then the miss.
        assert_eq!(p.next_action(), ProcAction::Busy(7));
        assert_eq!(
            p.next_action(),
            ProcAction::Miss(BlockAddr(1), ReqKind::Read)
        );
        assert_eq!(p.stats.read_misses, 1);
    }

    #[test]
    fn read_hits_merge_into_busy() {
        let mut p = proc_with(vec![
            Op::Read(BlockAddr(1)),
            Op::Read(BlockAddr(1)),
            Op::Barrier,
        ]);
        p.cache.fill_shared(BlockAddr(1), 0);
        assert_eq!(p.next_action(), ProcAction::Busy(2));
        assert_eq!(p.stats.read_hits, 2);
    }

    #[test]
    fn write_paths() {
        let mut p = proc_with(vec![
            Op::Write(BlockAddr(1)), // no copy -> write miss
            Op::Write(BlockAddr(2)), // shared copy -> upgrade
            Op::Write(BlockAddr(3)), // exclusive copy -> hit
            Op::Barrier,
        ]);
        p.cache.fill_shared(BlockAddr(2), 0);
        p.cache.fill_exclusive(BlockAddr(3), 0);
        assert_eq!(
            p.next_action(),
            ProcAction::Miss(BlockAddr(1), ReqKind::Write)
        );
        assert_eq!(
            p.next_action(),
            ProcAction::Miss(BlockAddr(2), ReqKind::Upgrade)
        );
        assert_eq!(p.next_action(), ProcAction::Busy(1));
        assert_eq!(p.stats.write_hits, 1);
        assert_eq!(p.stats.upgrades, 1);
        assert_eq!(p.stats.write_misses, 1);
    }

    #[test]
    fn spec_first_touch_counted() {
        let mut p = proc_with(vec![Op::Read(BlockAddr(1)), Op::Barrier]);
        p.cache.fill_speculative(BlockAddr(1), 5);
        assert_eq!(p.next_action(), ProcAction::Busy(1));
        assert_eq!(p.stats.spec_read_hits, 1);
        assert_eq!(p.stats.read_hits, 1);
    }

    #[test]
    fn lock_ops_surface() {
        let mut p = proc_with(vec![Op::Lock(LockId(3)), Op::Unlock(LockId(3))]);
        assert_eq!(p.next_action(), ProcAction::Sync(SyncKind::Lock(LockId(3))));
        assert_eq!(
            p.next_action(),
            ProcAction::Sync(SyncKind::Unlock(LockId(3)))
        );
        assert_eq!(p.next_action(), ProcAction::Done);
    }

    #[test]
    fn empty_stream_is_done_immediately() {
        let mut p = proc_with(vec![]);
        assert_eq!(p.next_action(), ProcAction::Done);
    }
}
