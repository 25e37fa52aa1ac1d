//! The per-home protocol shard: all node-local simulation state plus
//! the transaction logic of the coherence protocol.
//!
//! A [`HomeShard`] owns a contiguous range of nodes — their processors,
//! caches, directories, memory buses, network interfaces, and
//! speculation/predictor state — together with a private
//! [`KeyedQueue`] event queue. The whole-machine engine
//! ([`System`](crate::System)) is a composition of
//! shards:
//!
//! * **Sequential mode** builds one shard spanning every node and runs
//!   its queue to exhaustion; cross-node messages deliver immediately,
//!   exactly like the pre-shard monolithic engine (bit-for-bit).
//! * **Windowed mode** builds one shard per home and executes them in
//!   bounded-lag windows on the calling thread. Cross-shard messages
//!   leave through [`HomeShard::outbox`] carrying their deterministic
//!   [`SchedKey`] and are merged into the destination shard at window
//!   barriers.
//!
//! Everything order-sensitive goes through one per-shard monotone
//! action counter: event scheduling, network-interface acquisition and
//! mailbox keys all derive from it, which is what makes windowed runs
//! independent of the order in which the engine visits shards. The
//! protocol handlers themselves (directory transactions, speculation
//! triggers, verification feedback) are the former `system.rs` logic,
//! indexed through the shard's node range.
//!
//! Synchronization (barriers, locks) is global state owned by the
//! engine, not by any shard: a shard encountering a sync operation
//! **yields** it ([`ShardYield::Sync`]) and pauses; the engine
//! arbitrates and answers with [`Directive`]s.

use std::sync::Arc;

use specdsm_core::{DirectoryTrace, SpecTicket, SpecTrigger, VSlot};
use specdsm_sim::{Cycle, FifoResource, KeyedQueue, SchedKey};
use specdsm_types::{
    BlockAddr, DirMsg, FaultPlan, LockId, MachineConfig, NodeId, ProcId, ReaderSet, ReqKind,
};

use crate::audit::Auditor;
use crate::directory::{DirBlock, DirSlot, DirState, Directory, Txn, TxnKind};
use crate::msg::{Msg, MsgKind};
use crate::network::Network;
use crate::processor::{Blocked, ProcAction, Processor};
use crate::spec::SpecEngine;
use crate::stats::FaultStats;

/// Index of a shard within the engine (== home node id in windowed
/// mode; 0 in sequential single-shard mode).
pub(crate) type ShardId = u32;

#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// A processor continues execution.
    Resume(ProcId),
    /// A message is delivered at its destination.
    Deliver(Msg),
    /// A directory block's reply-hold expires (the outgoing data has
    /// been handed to the NI; queued requests may proceed). Carries the
    /// pre-resolved directory and predictor slots so the release path
    /// does no lookup at all.
    DirRelease(DirSlot, Option<VSlot>, BlockAddr),
    /// A request's retransmission timer fires. Stale once the request
    /// completed (`seq` no longer matches the processor's outstanding
    /// request); otherwise the request is retransmitted with doubled
    /// backoff. Only scheduled under an active fault plan.
    ReqTimeout {
        proc: ProcId,
        seq: u64,
        attempt: u32,
    },
}

#[derive(Debug, Clone, Copy)]
enum Grant {
    Shared,
    Exclusive,
    Upgrade,
}

/// A synchronization operation a shard encountered and cannot decide
/// locally: barrier arrival, lock acquire, lock release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SyncOp {
    /// Cycle the processor reached the operation.
    pub at: Cycle,
    /// The processor performing it.
    pub proc: ProcId,
    pub kind: SyncKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SyncKind {
    Barrier,
    Lock(LockId),
    Unlock(LockId),
}

/// The engine's answer to sync operations: state changes and resume
/// schedules to apply inside a shard, in exactly the order the
/// sequential engine would have performed them.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Directive {
    /// Mark `proc` blocked (barrier or lock) since cycle `at`.
    Block { proc: ProcId, at: Cycle, lock: bool },
    /// Wake `proc` at cycle `at`: charge its sync wait, clear the
    /// blocked state, and schedule its resume at `at + 1`.
    Release { proc: ProcId, at: Cycle },
    /// Schedule a resume at `at + 1` for a processor that was never
    /// blocked (successful lock acquire; the releaser after an unlock).
    ResumeSelf { proc: ProcId, at: Cycle },
}

impl Directive {
    /// The processor the directive targets (→ the shard that applies it).
    pub(crate) fn proc(&self) -> ProcId {
        match *self {
            Directive::Block { proc, .. }
            | Directive::Release { proc, .. }
            | Directive::ResumeSelf { proc, .. } => proc,
        }
    }
}

/// Why [`HomeShard::run_until`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShardYield {
    /// No pending event below the horizon.
    Idle,
    /// A sync operation was encountered; it is parked in
    /// [`HomeShard::paused`] and the shard stops dead until the engine
    /// arbitrates it (via directives) and clears the pause.
    Sync,
}

/// One undelivered cross-shard message: the sender-side half of a
/// network send. `at_dst` is the cycle the message reaches the
/// destination's inbound NI (departure + network hop); the receiving
/// shard performs the inbound-NI acquisition when the message is merged
/// at a window barrier, in global [`SchedKey`] order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct InFlight {
    pub key: SchedKey,
    pub at_dst: Cycle,
    pub msg: Msg,
}

/// All simulation state of a contiguous range of nodes, plus the
/// protocol logic operating on it. See the module docs.
pub(crate) struct HomeShard {
    pub id: ShardId,
    /// First owned node.
    pub lo: usize,
    /// One past the last owned node.
    pub hi: usize,
    /// Owned processors, indexed by `node - lo`.
    pub procs: Vec<Processor>,
    /// Owned home directories, indexed by `node - lo`.
    pub dirs: Vec<Directory>,
    /// Owned memory buses, indexed by `node - lo`.
    pub mems: Vec<FifoResource>,
    /// Owned network interfaces (outbound and inbound).
    pub net: Network,
    /// Per-shard speculation engine (predictor arenas populate only for
    /// owned homes; counters merge at run end).
    pub spec: SpecEngine,
    pub queue: KeyedQueue<Event>,
    /// Monotone counter behind every scheduling action's [`SchedKey`].
    seq: u64,
    /// Cycle of the event currently being processed (the `sched` part
    /// of keys consumed while handling it).
    cur: Cycle,
    /// Cross-shard sends of the current window, routed to the shard of
    /// `msg.dst`. Drained by the engine at window barriers.
    pub outbox: Vec<InFlight>,
    /// Cross-shard messages received but not yet eligible for inbound
    /// NI acquisition (their send window may still be open elsewhere).
    /// Sorted by key; key order == global send order.
    pub pending_in: std::collections::BTreeMap<SchedKey, InFlight>,
    /// The parked sync operation, set on [`ShardYield::Sync`] and
    /// cleared when the engine resolves it.
    pub paused: Option<SyncOp>,
    /// Per-shard directory message trace (merged at run end).
    pub trace: Option<DirectoryTrace>,
    /// Deliver cross-node messages inline (sequential mode) instead of
    /// deferring them through the outbox (windowed mode).
    pub immediate: bool,
    pub last_cycle: Cycle,
    pub done_count: usize,
    pub dir_reads: u64,
    pub dir_writes: u64,
    pub dir_upgrades: u64,
    // Engine configuration mirrored per shard (cheap copies).
    pub machine: MachineConfig,
    pub max_cycles: Option<u64>,
    /// Active fault plan; `None` on a reliable network (all-zero plans
    /// are normalized away by the engine, keeping them bit-identical
    /// with no plan at all).
    pub faults: Option<Arc<FaultPlan>>,
    /// Fault and recovery counters (merged at run end).
    pub fstats: FaultStats,
    /// Highest request sequence number accepted per `(owned home -
    /// lo, requester)` — the directory-side duplicate-suppression
    /// state. Empty when no fault plan is active.
    req_seen: Vec<Vec<u64>>,
    /// Optional runtime coherence auditor (purely observational).
    pub audit: Option<Box<Auditor>>,
}

impl HomeShard {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: ShardId,
        lo: usize,
        hi: usize,
        procs: Vec<Processor>,
        machine: &MachineConfig,
        spec: SpecEngine,
        record_trace: bool,
        immediate: bool,
        max_cycles: Option<u64>,
        faults: Option<Arc<FaultPlan>>,
        audit: bool,
    ) -> Self {
        debug_assert_eq!(procs.len(), hi - lo);
        let req_seen = if faults.is_some() {
            vec![vec![0u64; machine.num_nodes]; hi - lo]
        } else {
            Vec::new()
        };
        HomeShard {
            id,
            lo,
            hi,
            procs,
            dirs: (lo..hi)
                .map(|n| Directory::new(NodeId(n), machine))
                .collect(),
            mems: (lo..hi).map(|_| FifoResource::new()).collect(),
            net: Network::with_range(lo, hi, machine.latency),
            spec,
            queue: KeyedQueue::new(),
            seq: 0,
            cur: Cycle::ZERO,
            outbox: Vec::new(),
            pending_in: std::collections::BTreeMap::new(),
            paused: None,
            trace: record_trace.then(DirectoryTrace::new),
            immediate,
            last_cycle: Cycle::ZERO,
            done_count: 0,
            dir_reads: 0,
            dir_writes: 0,
            dir_upgrades: 0,
            machine: machine.clone(),
            max_cycles,
            faults,
            fstats: FaultStats::default(),
            req_seen,
            audit: audit.then(|| Box::new(Auditor::new())),
        }
    }

    #[inline]
    fn proc_mut(&mut self, p: ProcId) -> &mut Processor {
        &mut self.procs[p.0 - self.lo]
    }

    /// Consumes the next scheduling-action key. `sched` is the cycle of
    /// the action — almost always the cycle currently being processed.
    #[inline]
    fn next_key(&mut self, sched: Cycle) -> SchedKey {
        let key = SchedKey {
            sched: sched.raw(),
            src: self.id,
            seq: self.seq,
        };
        self.seq += 1;
        key
    }

    /// Schedules a local event at `at`; the scheduling action is
    /// stamped with the current processing cycle.
    #[inline]
    fn sched(&mut self, at: Cycle, event: Event) {
        let key = self.next_key(self.cur);
        self.queue.schedule(at, key, event);
    }

    /// Schedules an engine-directed event whose scheduling action
    /// happened at cycle `sched` (sync resolutions at window barriers).
    pub(crate) fn sched_directed(&mut self, sched: Cycle, at: Cycle, event: Event) {
        let key = self.next_key(sched);
        self.queue.schedule(at, key, event);
    }

    /// Seeds the initial resume of every owned processor at cycle 0.
    pub(crate) fn seed(&mut self) {
        for p in self.lo..self.hi {
            self.sched_directed(Cycle::ZERO, Cycle::ZERO, Event::Resume(ProcId(p)));
        }
    }

    /// Lower bound on the delivery cycle of any pending arrival: the
    /// earliest scheduling action plus the minimum cross-node latency.
    /// (`handoff ≥ sched + one_way` always; taking the first key makes
    /// this O(log n) instead of a scan — the bound is queried at every
    /// window barrier.)
    pub(crate) fn arrivals_bound(&self) -> Option<Cycle> {
        let one_way = self.machine.latency.one_way();
        self.pending_in
            .first_key_value()
            .map(|(k, _)| Cycle(k.sched) + one_way)
    }

    /// Whether the owned processor(s) include one blocked on
    /// synchronization — such a shard must not run past `floor + 1`
    /// because a sync resolution may schedule its resume at `floor + 1`.
    pub(crate) fn has_sync_blocked(&self) -> bool {
        self.procs
            .iter()
            .any(|p| matches!(p.blocked, Blocked::Barrier(_) | Blocked::Lock(_)))
    }

    /// Applies an engine directive (sync resolution effects), in the
    /// order the engine issues them.
    pub(crate) fn apply(&mut self, d: Directive) {
        match d {
            Directive::Block { proc, at, lock } => {
                self.proc_mut(proc).blocked = if lock {
                    Blocked::Lock(at)
                } else {
                    Blocked::Barrier(at)
                };
            }
            Directive::Release { proc, at } => {
                let pr = self.proc_mut(proc);
                match pr.blocked {
                    Blocked::Barrier(since) | Blocked::Lock(since) => {
                        pr.stats.sync_wait += at.since(since);
                        pr.blocked = Blocked::No;
                    }
                    // The final barrier arriver releases itself while
                    // never having been marked blocked.
                    _ => {}
                }
                self.sched_directed(at, at + 1, Event::Resume(proc));
            }
            Directive::ResumeSelf { proc, at } => {
                self.sched_directed(at, at + 1, Event::Resume(proc));
            }
        }
    }

    /// Merges one batch of cross-shard messages (already sent, not yet
    /// delivered) into the pending-arrival buffer.
    pub(crate) fn receive(&mut self, items: impl IntoIterator<Item = InFlight>) {
        for m in items {
            let prev = self.pending_in.insert(m.key, m);
            debug_assert!(prev.is_none(), "duplicate mailbox key");
        }
    }

    /// Delivers every pending arrival whose scheduling action precedes
    /// `floor` (no in-flight or future message can be keyed earlier):
    /// performs the inbound-NI acquisition in global key order and
    /// schedules the `Deliver` event at the handoff cycle.
    pub(crate) fn drain_arrivals(&mut self, floor: Cycle) {
        while let Some(entry) = self.pending_in.first_entry() {
            if entry.get().key.sched >= floor.raw() {
                break;
            }
            let (key, m) = entry.remove_entry();
            self.deliver_in(key, m);
        }
    }

    /// Delivers one merged cross-shard message: inbound-NI acquisition
    /// plus the `Deliver` schedule, keyed by the sender's action key.
    #[inline]
    fn deliver_in(&mut self, key: SchedKey, m: InFlight) {
        let handoff = self.net.arrive(m.at_dst, m.msg.dst);
        self.queue.schedule(handoff, key, Event::Deliver(m.msg));
    }

    /// Fast path for a window merge whose every message is already
    /// eligible (the common case: the floor advanced a whole window):
    /// deliver the key-sorted batch directly, skipping the pending
    /// buffer. Callers must guarantee the batch is sorted, every
    /// `sched < floor`, and no earlier-keyed arrival is pending.
    pub(crate) fn deliver_batch(&mut self, items: impl IntoIterator<Item = InFlight>) {
        debug_assert!(self.pending_in.is_empty());
        for m in items {
            let key = m.key;
            self.deliver_in(key, m);
        }
    }

    /// Processes queued events with cycle **strictly below** `horizon`,
    /// parking the first sync operation encountered in
    /// [`HomeShard::paused`] and returning [`ShardYield::Sync`] at it
    /// (nothing else can run until the engine resolves it).
    pub(crate) fn run_until(&mut self, horizon: Cycle) -> ShardYield {
        if self.paused.is_some() {
            return ShardYield::Sync;
        }
        while let Some((now, event)) = self.queue.pop_before(horizon) {
            if let Some(limit) = self.max_cycles {
                assert!(
                    now.raw() <= limit,
                    "simulation exceeded max_cycles = {limit}"
                );
            }
            self.cur = now;
            self.last_cycle = now;
            match event {
                Event::Resume(p) => {
                    if let Some(op) = self.step_proc(now, p) {
                        self.paused = Some(op);
                        return ShardYield::Sync;
                    }
                }
                Event::Deliver(msg) => self.deliver(now, msg),
                Event::DirRelease(slot, vslot, block) => {
                    self.dir_release(now, slot, vslot, block);
                }
                Event::ReqTimeout { proc, seq, attempt } => {
                    self.req_timeout(now, proc, seq, attempt);
                }
            }
        }
        ShardYield::Idle
    }

    /// The directory record of a resolved slot.
    #[inline]
    fn dblk(&mut self, s: DirSlot) -> &mut DirBlock {
        self.dirs[s.home.0 - self.lo].at_mut(s.idx)
    }

    /// Read-only access to a resolved slot's record (does not mark the
    /// block active).
    #[inline]
    fn dblk_ref(&self, s: DirSlot) -> &DirBlock {
        self.dirs[s.home.0 - self.lo].at(s.idx)
    }

    // ------------------------------------------------------------------
    // Processor side
    // ------------------------------------------------------------------

    /// Advances processor `p`; returns a sync operation if it reached
    /// one (the caller parks it for the engine).
    fn step_proc(&mut self, now: Cycle, p: ProcId) -> Option<SyncOp> {
        match self.proc_mut(p).next_action() {
            ProcAction::Busy(n) => self.sched(now + n, Event::Resume(p)),
            ProcAction::ReadMiss(b) => self.issue(now, p, b, ReqKind::Read),
            ProcAction::WriteMiss(b) => self.issue(now, p, b, ReqKind::Write),
            ProcAction::UpgradeMiss(b) => self.issue(now, p, b, ReqKind::Upgrade),
            ProcAction::Barrier => {
                return Some(SyncOp {
                    at: now,
                    proc: p,
                    kind: SyncKind::Barrier,
                })
            }
            ProcAction::Lock(l) => {
                return Some(SyncOp {
                    at: now,
                    proc: p,
                    kind: SyncKind::Lock(l),
                })
            }
            ProcAction::Unlock(l) => {
                return Some(SyncOp {
                    at: now,
                    proc: p,
                    kind: SyncKind::Unlock(l),
                })
            }
            ProcAction::Done => {
                let pr = self.proc_mut(p);
                pr.blocked = Blocked::Done;
                pr.stats.finished_at = now.raw();
                self.done_count += 1;
            }
        }
        None
    }

    fn issue(&mut self, now: Cycle, p: ProcId, block: BlockAddr, kind: ReqKind) {
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
        let home = self.machine.home_of(block);
        self.send_request(now, p, home, block, kind, seq, 0);
    }

    /// Sends (or retransmits, for `attempt > 0`) one request message,
    /// applying the fault plan and arming the retransmission timer.
    ///
    /// Requests are the only messages the fault plan touches: they may
    /// legally arrive late, out of order, or more than once, and the
    /// retry/duplicate-suppression pair makes their delivery
    /// at-least-once and idempotent. Every other message kind rides the
    /// reliable FIFO path the directory protocol depends on.
    #[allow(clippy::too_many_arguments)]
    fn send_request(
        &mut self,
        now: Cycle,
        p: ProcId,
        home: NodeId,
        block: BlockAddr,
        kind: ReqKind,
        seq: u64,
        attempt: u32,
    ) {
        let mk = match kind {
            ReqKind::Read => MsgKind::ReadReq { proc: p, seq },
            ReqKind::Write => MsgKind::WriteReq { proc: p, seq },
            ReqKind::Upgrade => MsgKind::UpgradeReq { proc: p, seq },
        };
        let src = p.node();
        let Some(plan) = self.faults.clone() else {
            self.send(now, src, home, block, mk);
            return;
        };
        if src == home {
            // Node-local requests never enter the network and thus
            // cannot fault; no timer needed.
            self.send(now, src, home, block, mk);
            return;
        }
        let d = plan.decide(src.0, home.0, seq, attempt, now.raw());
        if d.drop {
            self.fstats.drops += 1;
        }
        self.transmit(now, src, home, block, mk, d.extra_delay, d.drop);
        if d.duplicate {
            self.fstats.duplicates += 1;
            self.transmit(now, src, home, block, mk, d.dup_extra_delay, false);
        }
        // Exponential backoff; the shift saturates well past any
        // plausible retry cap.
        let backoff = plan.retry_timeout.saturating_mul(1u64 << attempt.min(32));
        self.sched(
            now + backoff,
            Event::ReqTimeout {
                proc: p,
                seq,
                attempt,
            },
        );
    }

    /// One physical transmission of a (possibly faulted) request: pays
    /// the sender-side NI like any send, then adds `extra` delay or
    /// loses the message entirely after it left the sender.
    #[allow(clippy::too_many_arguments)]
    fn transmit(
        &mut self,
        now: Cycle,
        src: NodeId,
        dst: NodeId,
        block: BlockAddr,
        kind: MsgKind,
        extra: u64,
        drop: bool,
    ) {
        debug_assert!(now >= self.cur, "messages are never sent in the past");
        debug_assert_ne!(src, dst, "node-local delivery cannot fault");
        let msg = Msg {
            src,
            dst,
            block,
            kind,
        };
        // Dropped or delayed, the message occupied the sender's NI: the
        // fault happens in the network, past the injection point.
        let at_dst = self.net.depart(now, src) + extra;
        if drop {
            return;
        }
        self.depart_to(at_dst, msg);
    }

    /// A retransmission timer fired. A stale timer (its request was
    /// answered and the processor moved on) is a no-op; a live one
    /// retransmits with a fresh fault draw, up to the plan's retry cap.
    fn req_timeout(&mut self, now: Cycle, p: ProcId, seq: u64, attempt: u32) {
        let (block, kind) = match self.proc_mut(p).blocked {
            Blocked::Mem {
                block,
                kind,
                seq: outstanding,
                ..
            } if outstanding == seq => (block, kind),
            _ => return,
        };
        let plan = self
            .faults
            .clone()
            .expect("retransmission timers exist only under a fault plan");
        // `attempt` is the 0-based transmission whose timer fired; the
        // resend below is retry number `attempt + 1`. Permit at most
        // `retry_cap` retries.
        assert!(
            attempt < plan.retry_cap,
            "request retry cap exceeded: {p} {kind} request for {block} (seq {seq}) \
             unanswered after {} transmissions",
            attempt + 1,
        );
        if let Blocked::Mem { retried, .. } = &mut self.proc_mut(p).blocked {
            *retried = true;
        }
        self.fstats.retries += 1;
        let home = self.machine.home_of(block);
        self.send_request(now, p, home, block, kind, seq, attempt + 1);
    }

    /// Completes the outstanding memory request of `node`'s processor.
    fn proc_grant(&mut self, now: Cycle, node: NodeId, block: BlockAddr, version: u64, g: Grant) {
        let p = node.proc();
        let proc = self.proc_mut(p);
        match g {
            Grant::Shared => proc.cache.fill_shared(block, version),
            Grant::Exclusive => proc.cache.fill_exclusive(block, version),
            Grant::Upgrade => {
                // The directory only grants in-place upgrades while the
                // requester is a sharer, and home→proc messages are
                // FIFO, so the copy is normally still present. The one
                // exception is finite-cache mode, where a concurrent
                // speculative fill may have evicted the line while the
                // upgrade was in flight.
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

    fn proc_inval(&mut self, now: Cycle, node: NodeId, block: BlockAddr, home: NodeId) {
        let p = node.proc();
        let spec_unused = self.proc_mut(p).cache.invalidate(block);
        // The controller answers after a small deterministic delay
        // (contention with its processor for the cache): overlapped
        // invalidation acks therefore arrive in varying order, the
        // paper's §3 perturbation source for general message predictors.
        let delay = ack_delay(now, p, self.machine.latency.ack_jitter);
        self.send(
            now + delay,
            node,
            home,
            block,
            MsgKind::InvAck {
                proc: p,
                spec_unused,
            },
        );
    }

    fn proc_inv_writeback(
        &mut self,
        now: Cycle,
        node: NodeId,
        block: BlockAddr,
        home: NodeId,
        swi: bool,
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
            MsgKind::WritebackData {
                proc: p,
                version,
                swi,
            },
        );
    }

    fn proc_spec_data(&mut self, now: Cycle, node: NodeId, block: BlockAddr, version: u64) {
        let _ = now;
        let p = node.proc();
        let proc = self.proc_mut(p);
        // Race rule (§4.2): with a demand request in flight for this
        // block, drop the speculative copy and await the protocol reply.
        let racing = matches!(proc.blocked, Blocked::Mem { block: b, .. } if b == block);
        if racing || !proc.cache.fill_speculative(block, version) {
            self.spec.stats.dropped += 1;
        }
    }

    // ------------------------------------------------------------------
    // Message plumbing
    // ------------------------------------------------------------------

    #[inline]
    fn send(&mut self, now: Cycle, src: NodeId, dst: NodeId, block: BlockAddr, kind: MsgKind) {
        debug_assert!(now >= self.cur, "messages are never sent in the past");
        let msg = Msg {
            src,
            dst,
            block,
            kind,
        };
        if let Some(audit) = &mut self.audit {
            audit.note_sent(now, &msg);
        }
        if src == dst {
            // Node-local delivery bypasses the network entirely.
            self.sched(now, Event::Deliver(msg));
            return;
        }
        let at_dst = self.net.depart(now, src);
        self.depart_to(at_dst, msg);
    }

    /// Hands a message that left its sender's NI to the destination: in
    /// sequential mode the delivery completes inline, exactly like the
    /// monolithic engine; in windowed mode it leaves through the outbox
    /// (the destination node's shard).
    #[inline]
    fn depart_to(&mut self, at_dst: Cycle, msg: Msg) {
        if self.immediate {
            let handoff = self.net.arrive(at_dst, msg.dst);
            self.sched(handoff, Event::Deliver(msg));
        } else {
            let key = self.next_key(self.cur);
            self.outbox.push(InFlight { key, at_dst, msg });
        }
    }

    /// Resolves a directory-bound message's block to its [`DirSlot`]
    /// and — when an online predictor runs — its [`VSlot`], each
    /// exactly once per message. The predictor resolution goes through
    /// the store's foreign-block guard: a block not actually homed at
    /// `dst` yields `None` and the speculation paths see no state.
    fn resolve_dir(&mut self, dst: NodeId, block: BlockAddr) -> (DirSlot, Option<VSlot>) {
        let slot = self.dirs[dst.0 - self.lo].slot_of(block);
        let vslot = if self.spec.policy.uses_predictor() {
            self.spec.vmsp.resolve_at_home(dst, block)
        } else {
            None
        };
        (slot, vslot)
    }

    /// Drops a request the directory already accepted (a network
    /// duplicate or an unnecessary retransmission). Must run before any
    /// directory side effect — counters, trace, predictor observation,
    /// SWI triggers — so suppressed duplicates are protocol-invisible.
    fn suppress_duplicate(&mut self, dst: NodeId, p: ProcId, seq: u64) -> bool {
        if self.faults.is_none() {
            return false;
        }
        let seen = &mut self.req_seen[dst.0 - self.lo][p.0];
        // One outstanding request per processor and strictly monotone
        // sequence numbers: anything at or below the watermark was
        // already accepted once.
        if seq <= *seen {
            self.fstats.dup_suppressed += 1;
            return true;
        }
        *seen = seq;
        false
    }

    /// Dispatches a delivered message. Directory-bound messages resolve
    /// their block to a [`DirSlot`] (and predictor [`VSlot`]) exactly
    /// once, here; the handlers below only ever index.
    fn deliver(&mut self, now: Cycle, msg: Msg) {
        let Msg {
            src,
            dst,
            block,
            kind,
        } = msg;
        if let Some((p, seq)) = kind.requester().zip(kind.seq()) {
            if self.suppress_duplicate(dst, p, seq) {
                return;
            }
        }
        if let Some(audit) = &mut self.audit {
            audit.note_delivered(now, &msg);
        }
        // Directory-bound messages get a shadow-vs-directory state
        // cross-check after their handler runs.
        let dir_bound = kind.is_request()
            || matches!(kind, MsgKind::InvAck { .. } | MsgKind::WritebackData { .. });
        match kind {
            MsgKind::ReadReq { proc, .. } => {
                let (slot, vslot) = self.resolve_dir(dst, block);
                self.dir_request(now, slot, vslot, block, ReqKind::Read, proc);
            }
            MsgKind::WriteReq { proc, .. } => {
                let (slot, vslot) = self.resolve_dir(dst, block);
                self.dir_request(now, slot, vslot, block, ReqKind::Write, proc);
            }
            MsgKind::UpgradeReq { proc, .. } => {
                let (slot, vslot) = self.resolve_dir(dst, block);
                self.dir_request(now, slot, vslot, block, ReqKind::Upgrade, proc);
            }
            MsgKind::InvAck { proc, spec_unused } => {
                let (slot, vslot) = self.resolve_dir(dst, block);
                self.dir_inv_ack(now, slot, vslot, block, proc, spec_unused);
            }
            MsgKind::WritebackData { proc, version, .. } => {
                let (slot, vslot) = self.resolve_dir(dst, block);
                self.dir_writeback(now, slot, vslot, block, proc, version);
            }
            MsgKind::DataShared { version } => {
                self.proc_grant(now, dst, block, version, Grant::Shared)
            }
            MsgKind::DataExcl { version } => {
                self.proc_grant(now, dst, block, version, Grant::Exclusive)
            }
            MsgKind::UpgradeAck { version } => {
                self.proc_grant(now, dst, block, version, Grant::Upgrade)
            }
            MsgKind::Inval => self.proc_inval(now, dst, block, src),
            MsgKind::InvWriteback { swi } => self.proc_inv_writeback(now, dst, block, src, swi),
            MsgKind::SpecData { version } => self.proc_spec_data(now, dst, block, version),
        }
        if dir_bound {
            if let Some(audit) = &mut self.audit {
                audit.check_dir_state(block, self.dirs[dst.0 - self.lo].state(block));
            }
        }
    }

    // ------------------------------------------------------------------
    // Directory side
    // ------------------------------------------------------------------

    fn dir_request(
        &mut self,
        now: Cycle,
        slot: DirSlot,
        vslot: Option<VSlot>,
        block: BlockAddr,
        kind: ReqKind,
        p: ProcId,
    ) {
        match kind {
            ReqKind::Read => self.dir_reads += 1,
            ReqKind::Write => self.dir_writes += 1,
            ReqKind::Upgrade => self.dir_upgrades += 1,
        }
        let dmsg = DirMsg::Request(kind, p);
        if let Some(trace) = &mut self.trace {
            trace.record(block, dmsg);
        }
        if let Some(vs) = vslot {
            self.spec.vmsp.observe_at(vs, dmsg);
        }
        // SWI trigger: a write-like request signals that this
        // processor's previous written block (at this home) is done.
        if self.spec.policy.swi_enabled() && kind.is_write_like() {
            let home = slot.home;
            if let Some(prev) = self.spec.swi_tables[home.0].note_write(p, block) {
                self.try_swi(now, home, prev, p);
            }
        }
        let blk = self.dblk(slot);
        if blk.busy.is_some() {
            blk.pending.push_back((kind, p));
            return;
        }
        self.dir_process(now, slot, vslot, block, kind, p);
    }

    fn dir_process(
        &mut self,
        now: Cycle,
        slot: DirSlot,
        vslot: Option<VSlot>,
        block: BlockAddr,
        kind: ReqKind,
        p: ProcId,
    ) {
        // SWI premature detection. A pending SWI resolves as *success*
        // once any consumption is observed — a demand read from a
        // non-owner, or (for speculatively pushed copies, whose reads
        // never reach the directory) a piggy-backed reference bit on a
        // later invalidation ack. It resolves as *premature* when the
        // producer itself is the next to touch the block. For
        // write-like requests from the owner the verdict is deferred to
        // the write grant, after the invalidation acks have reported
        // whether any pushed copy was referenced.
        let pending = self.dblk_ref(slot).swi_pending;
        if let Some((owner, ticket)) = pending {
            match kind {
                ReqKind::Read if p == owner => {
                    self.resolve_swi_premature(slot, vslot, ticket);
                }
                ReqKind::Read => {
                    // A consumer demanded the block: success.
                    self.dblk(slot).swi_pending = None;
                }
                ReqKind::Write | ReqKind::Upgrade => {
                    // Deferred: grant_exclusive decides.
                }
            }
        }
        match kind {
            ReqKind::Read => self.process_read(now, slot, vslot, block, p),
            ReqKind::Write | ReqKind::Upgrade => {
                self.process_write_like(now, slot, vslot, block, kind, p);
            }
        }
    }

    fn resolve_swi_premature(
        &mut self,
        slot: DirSlot,
        vslot: Option<VSlot>,
        ticket: Option<SpecTicket>,
    ) {
        self.dblk(slot).swi_pending = None;
        self.spec.stats.swi_inval_premature += 1;
        if let (Some(vs), Some(t)) = (vslot, ticket) {
            self.spec.vmsp.mark_swi_premature_at(vs, t);
        }
    }

    fn process_read(
        &mut self,
        now: Cycle,
        slot: DirSlot,
        vslot: Option<VSlot>,
        block: BlockAddr,
        p: ProcId,
    ) {
        let home = slot.home;
        let owner = match &self.dblk_ref(slot).state {
            DirState::Exclusive(o) => Some(*o),
            _ => None,
        };
        match owner {
            None => {
                let t = self.mem_access(now, home);
                let version = {
                    let blk = self.dblk(slot);
                    match &mut blk.state {
                        DirState::Shared(readers) => {
                            readers.insert(p);
                        }
                        state => *state = DirState::Shared(ReaderSet::single(p)),
                    }
                    blk.version
                };
                self.send(t, home, p.node(), block, MsgKind::DataShared { version });
                let spec_t = self.fr_speculate(t, slot, vslot, block);
                self.lock_reply(now, slot, vslot, block, spec_t.unwrap_or(t).max(t));
            }
            Some(owner) if owner != p => {
                self.send(
                    now,
                    home,
                    owner.node(),
                    block,
                    MsgKind::InvWriteback { swi: false },
                );
                self.dblk(slot).busy = Some(Txn {
                    kind: TxnKind::Read(p),
                    acks_left: 0,
                    awaiting_wb: true,
                });
            }
            Some(_) => {
                unreachable!("{p} read {block} it exclusively owns at the directory")
            }
        }
    }

    fn process_write_like(
        &mut self,
        now: Cycle,
        slot: DirSlot,
        vslot: Option<VSlot>,
        block: BlockAddr,
        kind: ReqKind,
        p: ProcId,
    ) {
        let home = slot.home;
        let state = match &self.dblk_ref(slot).state {
            DirState::Idle => None,
            DirState::Shared(readers) => {
                // The fan-out below sends while mutating the shard, so
                // it walks a copy of the sharers minus the requester.
                let in_place = kind == ReqKind::Upgrade && readers.contains(p);
                let mut others = readers.clone();
                others.remove(p);
                Some(Ok((others, in_place)))
            }
            DirState::Exclusive(o) => Some(Err(*o)),
        };
        match state {
            None => {
                let sent = self.grant_exclusive(now, slot, vslot, block, p, false);
                self.lock_reply(now, slot, vslot, block, sent);
            }
            Some(Ok((others, in_place))) => {
                if others.is_empty() {
                    let sent = self.grant_exclusive(now, slot, vslot, block, p, in_place);
                    self.lock_reply(now, slot, vslot, block, sent);
                } else {
                    for r in others.iter() {
                        self.send(now, home, r.node(), block, MsgKind::Inval);
                    }
                    self.dblk(slot).busy = Some(Txn {
                        kind: TxnKind::WriteLike {
                            requester: p,
                            in_place,
                        },
                        acks_left: others.len() as u32,
                        awaiting_wb: false,
                    });
                }
            }
            Some(Err(owner)) if owner != p => {
                self.send(
                    now,
                    home,
                    owner.node(),
                    block,
                    MsgKind::InvWriteback { swi: false },
                );
                self.dblk(slot).busy = Some(Txn {
                    kind: TxnKind::WriteLike {
                        requester: p,
                        in_place: false,
                    },
                    acks_left: 0,
                    awaiting_wb: true,
                });
            }
            Some(Err(_)) => {
                unreachable!("{p} wrote {block} it already exclusively owns at the directory")
            }
        }
    }

    /// Grants write permission: state → `Exclusive`, new version, reply.
    /// Returns the time the reply is handed to the NI.
    fn grant_exclusive(
        &mut self,
        now: Cycle,
        slot: DirSlot,
        vslot: Option<VSlot>,
        block: BlockAddr,
        p: ProcId,
        in_place: bool,
    ) -> Cycle {
        let home = slot.home;
        // Deferred SWI verdict: if an SWI invalidation is still pending
        // at write-grant time, no consumption was ever observed — the
        // grant to the original owner means it was premature; a grant
        // to anyone else means production simply moved on.
        if let Some((owner, ticket)) = self.dblk_ref(slot).swi_pending {
            if p == owner {
                self.resolve_swi_premature(slot, vslot, ticket);
            } else {
                self.dblk(slot).swi_pending = None;
            }
        }
        let version = {
            let blk = self.dblk(slot);
            blk.state = DirState::Exclusive(p);
            blk.grant_version()
        };
        if in_place {
            // Permission only; no data, no memory access.
            self.send(now, home, p.node(), block, MsgKind::UpgradeAck { version });
            now
        } else {
            let t = self.mem_access(now, home);
            self.send(t, home, p.node(), block, MsgKind::DataExcl { version });
            t
        }
    }

    /// Holds `block` busy until `until`, when its in-flight reply (or
    /// speculative batch) has left the directory. Prevents a later
    /// request's invalidations from overtaking the data on the same
    /// home→processor path.
    fn lock_reply(
        &mut self,
        now: Cycle,
        slot: DirSlot,
        vslot: Option<VSlot>,
        block: BlockAddr,
        until: Cycle,
    ) {
        if until <= now {
            return;
        }
        let blk = self.dblk(slot);
        match &mut blk.busy {
            None => {
                blk.busy = Some(Txn {
                    kind: TxnKind::Reply { until },
                    acks_left: 0,
                    awaiting_wb: false,
                });
            }
            Some(Txn {
                kind: TxnKind::Reply { until: u },
                ..
            }) => *u = (*u).max(until),
            Some(other) => unreachable!("reply lock over active transaction {other:?}"),
        }
        self.sched(until, Event::DirRelease(slot, vslot, block));
    }

    /// A reply-hold expires: release the block if this was its final
    /// deadline and serve queued requests.
    fn dir_release(&mut self, now: Cycle, slot: DirSlot, vslot: Option<VSlot>, block: BlockAddr) {
        let blk = self.dblk(slot);
        if let Some(Txn {
            kind: TxnKind::Reply { until },
            ..
        }) = blk.busy
        {
            if now >= until {
                blk.busy = None;
                self.drain_pending(now, slot, vslot, block);
            }
        }
    }

    fn dir_inv_ack(
        &mut self,
        now: Cycle,
        slot: DirSlot,
        vslot: Option<VSlot>,
        block: BlockAddr,
        proc: ProcId,
        spec_unused: bool,
    ) {
        if let Some(trace) = &mut self.trace {
            trace.record(block, DirMsg::ack_inv(proc));
        }
        // Speculation verification via the piggy-backed reference bit.
        if let Some(vs) = vslot {
            self.spec.note_invalidated(vs, proc, spec_unused);
        }
        // A referenced copy is consumption evidence for a pending SWI.
        if !spec_unused {
            self.dblk(slot).swi_pending = None;
        }
        let blk = self.dblk(slot);
        let txn = blk
            .busy
            .as_mut()
            .unwrap_or_else(|| panic!("stray InvAck for {block} from {proc}"));
        assert!(txn.acks_left > 0, "unexpected InvAck for {block}");
        txn.acks_left -= 1;
        if txn.acks_left == 0 && !txn.awaiting_wb {
            self.complete_txn(now, slot, vslot, block);
        }
    }

    fn dir_writeback(
        &mut self,
        now: Cycle,
        slot: DirSlot,
        vslot: Option<VSlot>,
        block: BlockAddr,
        proc: ProcId,
        version: u64,
    ) {
        if let Some(trace) = &mut self.trace {
            trace.record(block, DirMsg::writeback(proc));
        }
        let blk = self.dblk(slot);
        blk.version = version;
        let txn = blk
            .busy
            .as_mut()
            .unwrap_or_else(|| panic!("stray writeback for {block} from {proc}"));
        assert!(txn.awaiting_wb, "unexpected writeback for {block}");
        txn.awaiting_wb = false;
        if txn.acks_left == 0 {
            self.complete_txn(now, slot, vslot, block);
        }
    }

    fn complete_txn(&mut self, now: Cycle, slot: DirSlot, vslot: Option<VSlot>, block: BlockAddr) {
        let home = slot.home;
        let txn = self
            .dblk(slot)
            .busy
            .take()
            .expect("complete_txn without a transaction");
        match txn.kind {
            TxnKind::Read(requester) => {
                // Memory absorbs the writeback and sources the reply.
                let t = self.mem_access(now, home);
                let version = {
                    let blk = self.dblk(slot);
                    blk.state = DirState::Shared(ReaderSet::single(requester));
                    blk.version
                };
                self.send(
                    t,
                    home,
                    requester.node(),
                    block,
                    MsgKind::DataShared { version },
                );
                let spec_t = self.fr_speculate(t, slot, vslot, block);
                self.lock_reply(now, slot, vslot, block, spec_t.unwrap_or(t).max(t));
            }
            TxnKind::WriteLike {
                requester,
                in_place,
            } => {
                let sent = self.grant_exclusive(now, slot, vslot, block, requester, in_place);
                self.lock_reply(now, slot, vslot, block, sent);
            }
            TxnKind::Swi { owner, ticket } => {
                // Successful speculative invalidation: memory is clean.
                let t = self.mem_access(now, home);
                {
                    let blk = self.dblk(slot);
                    blk.state = DirState::Idle;
                    blk.swi_pending = Some((owner, ticket));
                }
                let spec_t = self.swi_read_speculate(t, slot, vslot, block);
                self.lock_reply(now, slot, vslot, block, spec_t.unwrap_or(t).max(t));
            }
            TxnKind::Reply { .. } => unreachable!("reply holds complete via DirRelease"),
        }
        self.drain_pending(now, slot, vslot, block);
    }

    fn drain_pending(&mut self, now: Cycle, slot: DirSlot, vslot: Option<VSlot>, block: BlockAddr) {
        loop {
            let blk = self.dblk(slot);
            if blk.busy.is_some() {
                return;
            }
            let Some((kind, p)) = blk.pending.pop_front() else {
                return;
            };
            self.dir_process(now, slot, vslot, block, kind, p);
        }
    }

    /// One memory access at `home`: occupies the (split-transaction)
    /// memory bus for `mem_occupancy` cycles and returns the data
    /// `mem_access` cycles after its bus slot starts.
    #[inline]
    fn mem_access(&mut self, now: Cycle, home: NodeId) -> Cycle {
        let lat = self.machine.latency;
        let slot_end = self.mems[home.0 - self.lo].acquire(now, lat.mem_occupancy);
        let start = Cycle(slot_end.raw() - lat.mem_occupancy);
        start + lat.mem_access
    }

    // ------------------------------------------------------------------
    // Speculation triggers
    // ------------------------------------------------------------------

    /// FR: after serving a demand read, forward read-only copies to the
    /// remaining predicted readers. Returns the time the speculative
    /// batch left, if any.
    fn fr_speculate(
        &mut self,
        now: Cycle,
        slot: DirSlot,
        vslot: Option<VSlot>,
        block: BlockAddr,
    ) -> Option<Cycle> {
        if !self.spec.policy.fr_enabled() {
            return None;
        }
        let vslot = vslot?;
        let (vec, ticket) = self.spec.vmsp.predicted_readers_at(vslot)?;
        self.spec_forward(now, slot, vslot, block, vec, ticket, SpecTrigger::Fr)
    }

    /// SWI: after a successful speculative write invalidation, forward
    /// the block to the whole predicted read sequence. Returns the time
    /// the speculative batch left, if any.
    fn swi_read_speculate(
        &mut self,
        now: Cycle,
        slot: DirSlot,
        vslot: Option<VSlot>,
        block: BlockAddr,
    ) -> Option<Cycle> {
        let vslot = vslot?;
        let (vec, ticket) = self.spec.vmsp.predicted_readers_at(vslot)?;
        self.spec_forward(now, slot, vslot, block, vec, ticket, SpecTrigger::Swi)
    }

    /// Forwards one speculative read-only copy of `block` to every
    /// predicted reader not already sharing it. The message payload is
    /// built once; the per-destination sends issue in ascending reader
    /// order (the same order the former `Network::multicast` used, so
    /// NI serialization is identical).
    #[allow(clippy::too_many_arguments)]
    fn spec_forward(
        &mut self,
        now: Cycle,
        slot: DirSlot,
        vslot: VSlot,
        block: BlockAddr,
        vec: ReaderSet,
        ticket: SpecTicket,
        trigger: SpecTrigger,
    ) -> Option<Cycle> {
        let home = slot.home;
        let (targets, version) = {
            let blk = self.dblk_ref(slot);
            debug_assert!(
                !matches!(blk.state, DirState::Exclusive(_)),
                "speculative forward while a writable copy exists"
            );
            (&vec - blk.sharers(), blk.version)
        };
        if targets.is_empty() {
            return None;
        }
        // The data was just fetched (or written back) by the access
        // that triggered the speculation, so the batch is sourced from
        // the directory's buffer: no extra memory occupancy, only NI
        // and network costs.
        let t = now;
        let kind = MsgKind::SpecData { version };
        for r in targets.iter() {
            self.send(t, home, r.node(), block, kind);
        }
        for r in targets.iter() {
            self.spec.note_sent(vslot, r, ticket, trigger);
        }
        match &mut self.dblk(slot).state {
            DirState::Shared(sharers) => *sharers |= &targets,
            state => *state = DirState::Shared(targets.clone()),
        }
        self.spec.vmsp.speculate_readers_at(vslot, targets);
        Some(t)
    }

    /// Attempts an SWI invalidation of `prev` (the block `owner` wrote
    /// before its current write). `prev` is a different block from the
    /// one the triggering message named, so its slots are resolved
    /// here — once, like `deliver` does for the message's own block.
    fn try_swi(&mut self, now: Cycle, home: NodeId, prev: BlockAddr, owner: ProcId) {
        let slot = self.dirs[home.0 - self.lo].slot_of(prev);
        let Some(vslot) = self.spec.vmsp.resolve_at_home(home, prev) else {
            return;
        };
        let eligible = {
            let b = self.dblk_ref(slot);
            b.busy.is_none() && b.state == DirState::Exclusive(owner)
        };
        if !eligible || !self.spec.vmsp.swi_allowed_at(vslot) {
            return;
        }
        let ticket = self.spec.vmsp.swi_ticket_at(vslot);
        self.send(
            now,
            home,
            owner.node(),
            prev,
            MsgKind::InvWriteback { swi: true },
        );
        self.dblk(slot).busy = Some(Txn {
            kind: TxnKind::Swi { owner, ticket },
            acks_left: 0,
            awaiting_wb: true,
        });
        self.spec.stats.swi_inval_sent += 1;
    }
}

/// Deterministic per-event invalidation-response delay in
/// `[0, jitter)`: a SplitMix64 hash of `(cycle, proc)`, so runs stay
/// exactly reproducible.
fn ack_delay(now: Cycle, p: ProcId, jitter: u64) -> u64 {
    if jitter == 0 {
        return 0;
    }
    let mut z = now
        .raw()
        .wrapping_add((p.0 as u64) << 32)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % jitter
}

impl std::fmt::Debug for HomeShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HomeShard")
            .field("id", &self.id)
            .field("nodes", &(self.lo..self.hi))
            .field("queued", &self.queue.len())
            .field("pending_in", &self.pending_in.len())
            .field("paused", &self.paused)
            .finish()
    }
}
