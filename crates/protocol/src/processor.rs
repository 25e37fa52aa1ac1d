//! The blocking in-order processor model, and the processor side of
//! the protocol: stepping a processor, issuing its miss, and the
//! handlers for the grants, invalidations and speculative copies the
//! home sends it.

use std::iter::Peekable;

use specdsm_core::SpecTicket;
use specdsm_sim::Cycle;
use specdsm_types::{
    splitmix64, BlockAddr, LockId, NodeId, Op, OpStream, ProcId, ReqKind, GOLDEN_GAMMA,
};

use crate::cache::Cache;
use crate::msg::MsgKind;
use crate::spec::SpecTrigger;
use crate::stats::ProcStats;
use crate::system::{Event, System};

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

#[derive(Debug, Clone, Copy)]
pub(crate) enum Grant {
    Shared,
    Exclusive,
    Upgrade,
}

impl System {
    #[inline]
    pub(crate) fn proc_mut(&mut self, p: ProcId) -> &mut Processor {
        &mut self.procs[p.0]
    }

    /// Advances processor `p` by one action.
    pub(crate) fn step_proc(&mut self, now: Cycle, p: ProcId) {
        match self.proc_mut(p).next_action() {
            ProcAction::Busy(n) => self.sched(now + n, Event::Resume(p)),
            ProcAction::Miss(b, kind) => self.issue(now, p, b, kind),
            ProcAction::Sync(kind) => self.sync(now, p, kind),
            ProcAction::Done => {
                let pr = self.proc_mut(p);
                pr.blocked = Blocked::Done;
                pr.stats.finished_at = now.raw();
            }
        }
    }

    pub(crate) fn issue(&mut self, now: Cycle, p: ProcId, block: BlockAddr, kind: ReqKind) {
        let proc = self.proc_mut(p);
        proc.req_seq += 1;
        let seq = proc.req_seq;
        proc.blocked = Blocked::Mem {
            block,
            since: now,
            kind,
            seq,
            retried: false,
        };
        self.send_request(now, p, block, kind, seq, 0);
    }

    /// Completes the outstanding memory request of `node`'s processor.
    pub(crate) fn proc_grant(
        &mut self,
        now: Cycle,
        node: NodeId,
        block: BlockAddr,
        version: u64,
        g: Grant,
    ) {
        let p = node.proc();
        let proc = self.proc_mut(p);
        match g {
            Grant::Shared => proc.cache.fill_shared(block, version),
            Grant::Exclusive => proc.cache.fill_exclusive(block, version),
            Grant::Upgrade => {
                // The directory grants an in-place upgrade whenever it
                // lists the requester as a sharer, and that listing can
                // outlive the copy. While a lost upgrade awaits its
                // retry, another writer may invalidate the copy and a
                // speculative forward may list the requester again; the
                // requester drops that forward under the race rule
                // (§4.2), so the grant finds no copy to promote.
                if proc.cache.has_shared(block) {
                    proc.cache.upgrade(block, version);
                } else {
                    proc.cache.fill_exclusive(block, version);
                }
            }
        }
        let recovered = match proc.blocked {
            Blocked::Mem {
                block: b,
                since,
                retried,
                ..
            } if b == block => {
                proc.stats.mem_wait += now.since(since);
                proc.blocked = Blocked::No;
                retried.then(|| now.since(since))
            }
            ref other => panic!("{p} got {g:?} grant for {block} while {other:?}"),
        };
        if let Some(wait) = recovered {
            // The whole blocked stretch counts as recovery: without the
            // loss the request would have completed within one timeout.
            self.fstats.recovery_cycles += wait;
        }
        self.sched(now, Event::Resume(p));
    }

    pub(crate) fn proc_inval(&mut self, now: Cycle, node: NodeId, block: BlockAddr, home: NodeId) {
        let p = node.proc();
        let verdict = self.proc_mut(p).cache.invalidate(block);
        // The controller answers after a small deterministic delay
        // (contention with its processor for the cache): overlapped
        // invalidation acks therefore arrive in varying order, the
        // paper's §3 perturbation source for general message predictors.
        let delay = ack_delay(now, p, self.cfg.machine.latency.ack_jitter);
        self.send(now + delay, node, home, block, MsgKind::InvAck { verdict });
    }

    pub(crate) fn proc_inv_writeback(
        &mut self,
        now: Cycle,
        node: NodeId,
        block: BlockAddr,
        home: NodeId,
    ) {
        let p = node.proc();
        let version = self
            .proc_mut(p)
            .cache
            .invalidate_exclusive(block)
            .unwrap_or_else(|| panic!("{p} got InvWriteback for {block} without a writable copy"));
        self.send(
            now,
            node,
            home,
            block,
            MsgKind::WritebackData { proc: p, version },
        );
    }

    pub(crate) fn proc_spec_data(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        version: u64,
        ticket: SpecTicket,
        trigger: SpecTrigger,
    ) {
        let p = node.proc();
        let proc = self.proc_mut(p);
        // Race rule (§4.2): with a demand request in flight for this
        // block, drop the speculative copy and await the protocol reply.
        if matches!(proc.blocked, Blocked::Mem { block: b, .. } if b == block) {
            self.spec_stats.dropped += 1;
        } else {
            proc.cache.fill_speculative(block, version, ticket, trigger);
        }
    }
}

/// Deterministic per-event invalidation-response delay in
/// `[0, jitter)`: a SplitMix64 hash of `(cycle, proc)`, so runs stay
/// exactly reproducible.
fn ack_delay(now: Cycle, p: ProcId, jitter: u64) -> u64 {
    if jitter == 0 {
        return 0;
    }
    let z = now
        .raw()
        .wrapping_add((p.0 as u64) << 32)
        .wrapping_add(GOLDEN_GAMMA);
    splitmix64(z) % jitter
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
        let ticket = SpecTicket::from_key(specdsm_core::HistoryKey::EMPTY);
        p.cache
            .fill_speculative(BlockAddr(1), 5, ticket, SpecTrigger::Fr);
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
