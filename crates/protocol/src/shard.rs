//! The simulated machine: all node state plus the transaction logic of
//! the coherence protocol, driven by one event loop.
//!
//! A [`Machine`] owns every node's processor, cache, directory records,
//! memory bus and network interfaces, the speculation/predictor state,
//! the barrier and lock managers, and one [`KeyedQueue`] of events.
//! [`Machine::run`] pops events in `(cycle, key)` order until the queue
//! drains; each handler may schedule further events. A message is
//! delivered inline: the sender's outbound NI, the network hop and the
//! receiver's inbound NI are all charged at the send, and the
//! `Deliver` event fires at the handoff cycle.
//!
//! Every scheduling action consumes the next key of one monotone
//! counter, so same-cycle events pop in the order they were scheduled.
//! Synchronization (barriers, locks) resolves inline, in the event that
//! reaches it.

use std::sync::Arc;

use specdsm_core::{DirectoryTrace, SpecTicket, SpecTrigger};
use specdsm_sim::{Cycle, FifoResource, KeyedQueue, SchedKey};
use specdsm_types::{
    splitmix64, BlockAddr, DirMsg, FaultPlan, MachineConfig, NodeId, ProcId, ReaderSet, ReqKind,
    Slot, GOLDEN_GAMMA,
};

use crate::audit::Auditor;
use crate::directory::{AfterRecall, Busy, DirState, Directory};
use crate::msg::{Msg, MsgKind};
use crate::network::Network;
use crate::processor::{Blocked, ProcAction, Processor, SyncKind};
use crate::spec::SpecEngine;
use crate::stats::FaultStats;
use crate::sync::{BarrierManager, LockManager};
use crate::system::{EngineError, SystemConfig};

#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// A processor continues execution.
    Resume(ProcId),
    /// A message is delivered at its destination.
    Deliver(Msg),
    /// A directory block's reply-hold expires (the outgoing data has
    /// been handed to the NI; queued requests may proceed). Carries the
    /// block's slot so the release path does no lookup at all.
    DirRelease(Slot, BlockAddr),
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

/// All simulation state of the machine, plus the protocol logic
/// operating on it. See the module docs.
pub(crate) struct Machine {
    /// The processors, indexed by node.
    pub procs: Vec<Processor>,
    /// Directory records of every home.
    pub dir: Directory,
    /// The memory buses, indexed by node.
    pub mems: Vec<FifoResource>,
    /// The network interfaces (outbound and inbound).
    pub net: Network,
    /// The speculation engine and its online predictor.
    pub spec: SpecEngine,
    pub queue: KeyedQueue<Event>,
    /// Monotone counter behind every scheduling action's [`SchedKey`].
    seq: u64,
    /// Cycle of the event currently being processed; after a run, the
    /// cycle of the last event.
    pub cur: Cycle,
    barrier: BarrierManager,
    locks: LockManager,
    /// The directory message trace, when recording.
    pub trace: Option<DirectoryTrace>,
    cfg: MachineConfig,
    max_cycles: Option<u64>,
    /// Active fault plan; `None` on a reliable network (all-zero plans
    /// are normalized away, keeping them bit-identical with no plan at
    /// all).
    faults: Option<Arc<FaultPlan>>,
    /// Fault and recovery counters.
    pub fstats: FaultStats,
    /// Highest request sequence number accepted per `(home,
    /// requester)` — the directory-side duplicate-suppression state.
    /// Empty when no fault plan is active.
    req_seen: Vec<Vec<u64>>,
    /// Optional runtime coherence auditor (purely observational).
    audit: Option<Box<Auditor>>,
}

impl Machine {
    /// Builds the machine `cfg` describes around `procs`.
    pub(crate) fn new(cfg: &SystemConfig, procs: Vec<Processor>) -> Self {
        let machine = &cfg.machine;
        let n = machine.num_nodes;
        // An all-zero plan never enters the fault path, so such configs
        // stay bit-identical to the reliable network (no timeout
        // events, no dedup bookkeeping).
        let faults = cfg
            .faults
            .as_ref()
            .filter(|plan| !plan.is_noop())
            .map(|plan| Arc::new(plan.clone()));
        let req_seen = if faults.is_some() {
            vec![vec![0u64; n]; n]
        } else {
            Vec::new()
        };
        Machine {
            procs,
            dir: Directory::new(machine),
            mems: (0..n).map(|_| FifoResource::new()).collect(),
            net: Network::new(n, machine.latency),
            spec: SpecEngine::new(cfg.policy, cfg.predictor_depth, machine),
            queue: KeyedQueue::new(),
            seq: 0,
            cur: Cycle::ZERO,
            barrier: BarrierManager::new(n),
            locks: LockManager::new(),
            trace: cfg.record_trace.then(DirectoryTrace::new),
            cfg: machine.clone(),
            max_cycles: cfg.max_cycles,
            faults,
            fstats: FaultStats::default(),
            req_seen,
            audit: cfg.audit.then(|| Box::new(Auditor::new())),
        }
    }

    /// Schedules an event at `at`; the scheduling action is stamped
    /// with the current processing cycle and the next sequence number.
    #[inline]
    fn sched(&mut self, at: Cycle, event: Event) {
        let key = SchedKey {
            sched: self.cur.raw(),
            src: 0,
            seq: self.seq,
        };
        self.seq += 1;
        self.queue.schedule(at, key, event);
    }

    /// Queues every processor's first resume at cycle 0, then
    /// processes events until the queue drains.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::MaxCycles`] when an event lies past the
    /// configured `max_cycles`.
    pub(crate) fn run(&mut self) -> Result<(), EngineError> {
        for p in 0..self.procs.len() {
            self.sched(Cycle::ZERO, Event::Resume(ProcId(p)));
        }
        while let Some((now, event)) = self.queue.pop() {
            if let Some(limit) = self.max_cycles {
                if now.raw() > limit {
                    return Err(EngineError::MaxCycles { limit });
                }
            }
            self.cur = now;
            match event {
                Event::Resume(p) => self.step_proc(now, p),
                Event::Deliver(msg) => self.deliver(now, msg),
                Event::DirRelease(slot, block) => self.dir_release(now, slot, block),
                Event::ReqTimeout { proc, seq, attempt } => {
                    self.req_timeout(now, proc, seq, attempt);
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Processor side
    // ------------------------------------------------------------------

    #[inline]
    fn proc_mut(&mut self, p: ProcId) -> &mut Processor {
        &mut self.procs[p.0]
    }

    /// Advances processor `p` by one action.
    fn step_proc(&mut self, now: Cycle, p: ProcId) {
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

    /// Resolves a barrier arrival, lock acquire or lock release of `p`
    /// at `now`. Each processor it lets go resumes at `now + 1`, in the
    /// order the managers release them.
    fn sync(&mut self, now: Cycle, p: ProcId, kind: SyncKind) {
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
        self.send_request(now, p, block, kind, seq, 0);
    }

    /// Sends (or retransmits, for `attempt > 0`) one request message,
    /// applying the fault plan and arming the retransmission timer.
    ///
    /// Requests are the only messages the fault plan touches: they may
    /// legally arrive late, out of order, or more than once, and the
    /// retry/duplicate-suppression pair makes their delivery
    /// at-least-once and idempotent. Every other message kind rides the
    /// reliable FIFO path the directory protocol depends on.
    fn send_request(
        &mut self,
        now: Cycle,
        p: ProcId,
        block: BlockAddr,
        kind: ReqKind,
        seq: u64,
        attempt: u32,
    ) {
        let mk = MsgKind::Req { kind, proc: p, seq };
        let src = p.node();
        let home = self.cfg.home_of(block);
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
        self.arrive(at_dst, msg);
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
        self.send_request(now, p, block, kind, seq, attempt + 1);
    }

    /// Completes the outstanding memory request of `node`'s processor.
    fn proc_grant(&mut self, now: Cycle, node: NodeId, block: BlockAddr, version: u64, g: Grant) {
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

    fn proc_inval(&mut self, now: Cycle, node: NodeId, block: BlockAddr, home: NodeId) {
        let p = node.proc();
        let spec_unused = self.proc_mut(p).cache.invalidate(block);
        // The controller answers after a small deterministic delay
        // (contention with its processor for the cache): overlapped
        // invalidation acks therefore arrive in varying order, the
        // paper's §3 perturbation source for general message predictors.
        let delay = ack_delay(now, p, self.cfg.latency.ack_jitter);
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

    fn proc_inv_writeback(&mut self, now: Cycle, node: NodeId, block: BlockAddr, home: NodeId) {
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

    fn proc_spec_data(&mut self, node: NodeId, block: BlockAddr, version: u64) {
        let p = node.proc();
        let proc = self.proc_mut(p);
        // Race rule (§4.2): with a demand request in flight for this
        // block, drop the speculative copy and await the protocol reply.
        if matches!(proc.blocked, Blocked::Mem { block: b, .. } if b == block) {
            self.spec.stats.dropped += 1;
        } else {
            proc.cache.fill_speculative(block, version);
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
        self.arrive(at_dst, msg);
    }

    /// Hands a message that left its sender's NI at `at_dst` to the
    /// destination's inbound NI and schedules its delivery.
    #[inline]
    fn arrive(&mut self, at_dst: Cycle, msg: Msg) {
        let handoff = self.net.arrive(at_dst, msg.dst);
        self.sched(handoff, Event::Deliver(msg));
    }

    /// Drops a request the directory already accepted (a network
    /// duplicate or an unnecessary retransmission). Must run before any
    /// directory side effect — counters, trace, predictor observation,
    /// SWI triggers — so suppressed duplicates are protocol-invisible.
    fn suppress_duplicate(&mut self, dst: NodeId, p: ProcId, seq: u64) -> bool {
        if self.faults.is_none() {
            return false;
        }
        let seen = &mut self.req_seen[dst.0][p.0];
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

    /// Dispatches a delivered message.
    fn deliver(&mut self, now: Cycle, msg: Msg) {
        let Msg {
            src,
            dst,
            block,
            kind,
        } = msg;
        if let MsgKind::Req { proc, seq, .. } = kind {
            if self.suppress_duplicate(dst, proc, seq) {
                return;
            }
        }
        if let Some(audit) = &mut self.audit {
            audit.note_delivered(now, &msg);
        }
        match kind {
            MsgKind::Req { .. } | MsgKind::InvAck { .. } | MsgKind::WritebackData { .. } => {
                self.deliver_dir(now, block, kind)
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
            MsgKind::InvWriteback => self.proc_inv_writeback(now, dst, block, src),
            MsgKind::SpecData { version } => self.proc_spec_data(dst, block, version),
        }
    }

    /// Runs a directory-bound message's handler. The block's slot is
    /// computed here, once; the handlers below only ever index.
    fn deliver_dir(&mut self, now: Cycle, block: BlockAddr, kind: MsgKind) {
        let slot = self.dir.slot_of(block);
        match kind {
            MsgKind::Req { kind, proc, .. } => self.dir_request(now, slot, block, kind, proc),
            MsgKind::InvAck { proc, spec_unused } => {
                self.dir_inv_ack(now, slot, block, proc, spec_unused);
            }
            MsgKind::WritebackData { proc, version } => {
                self.dir_writeback(now, slot, block, proc, version);
            }
            _ => unreachable!("{kind:?} is not directory-bound"),
        }
        // Shadow-vs-directory state cross-check after the handler ran.
        if let Some(audit) = &mut self.audit {
            audit.check_dir_state(block, &self.dir.at(slot).state);
        }
    }

    // ------------------------------------------------------------------
    // Directory side
    // ------------------------------------------------------------------

    fn dir_request(&mut self, now: Cycle, slot: Slot, block: BlockAddr, kind: ReqKind, p: ProcId) {
        let dmsg = DirMsg::Request(kind, p);
        if let Some(trace) = &mut self.trace {
            trace.record(block, dmsg);
        }
        if self.spec.policy.uses_predictor() {
            self.spec.vmsp.observe_at(slot, dmsg);
        }
        // SWI trigger: a write-like request signals that this
        // processor's previous written block (at this home) is done.
        if self.spec.policy.swi_enabled() && kind.is_write_like() {
            if let Some(prev) = self.spec.swi_tables[slot.home.0].note_write(p, block) {
                self.try_swi(now, prev, p);
            }
        }
        let blk = self.dir.at_mut(slot);
        if blk.busy.is_some() {
            blk.pending.push_back((kind, p));
            return;
        }
        self.dir_process(now, slot, block, kind, p);
    }

    fn dir_process(&mut self, now: Cycle, slot: Slot, block: BlockAddr, kind: ReqKind, p: ProcId) {
        // SWI premature detection. A pending SWI resolves as *success*
        // once any consumption is observed — a demand read from a
        // non-owner, or (for speculatively pushed copies, whose reads
        // never reach the directory) a piggy-backed reference bit on a
        // later invalidation ack. It resolves as *premature* when the
        // producer itself is the next to touch the block. For
        // write-like requests from the owner the verdict is deferred to
        // the write grant, after the invalidation acks have reported
        // whether any pushed copy was referenced.
        if let Some((owner, ticket)) = self.dir.at(slot).swi_pending {
            match kind {
                ReqKind::Read if p == owner => {
                    self.resolve_swi_premature(slot, ticket);
                }
                ReqKind::Read => {
                    // A consumer demanded the block: success.
                    self.dir.at_mut(slot).swi_pending = None;
                }
                ReqKind::Write | ReqKind::Upgrade => {
                    // Deferred: grant_exclusive decides.
                }
            }
        }
        match kind {
            ReqKind::Read => self.process_read(now, slot, block, p),
            ReqKind::Write | ReqKind::Upgrade => {
                self.process_write_like(now, slot, block, kind, p);
            }
        }
    }

    fn resolve_swi_premature(&mut self, slot: Slot, ticket: SpecTicket) {
        self.dir.at_mut(slot).swi_pending = None;
        self.spec.stats.swi_inval_premature += 1;
        self.spec.vmsp.mark_swi_premature_at(slot, ticket);
    }

    fn process_read(&mut self, now: Cycle, slot: Slot, block: BlockAddr, p: ProcId) {
        match self.dir.at(slot).state {
            DirState::Exclusive(owner) if owner != p => {
                self.recall_owner(now, slot, block, owner, AfterRecall::Read(p));
            }
            DirState::Exclusive(_) => {
                unreachable!("{p} read {block} it exclusively owns at the directory")
            }
            _ => self.serve_read(now, slot, block, p),
        }
    }

    fn process_write_like(
        &mut self,
        now: Cycle,
        slot: Slot,
        block: BlockAddr,
        kind: ReqKind,
        p: ProcId,
    ) {
        let (others, in_place) = match &self.dir.at(slot).state {
            DirState::Idle => (ReaderSet::new(), false),
            DirState::Shared(readers) => {
                // The fan-out below sends while mutating the machine, so
                // it walks a copy of the sharers minus the requester.
                let mut others = readers.clone();
                others.remove(p);
                (others, kind == ReqKind::Upgrade && readers.contains(p))
            }
            &DirState::Exclusive(owner) if owner != p => {
                self.recall_owner(now, slot, block, owner, AfterRecall::Write(p));
                return;
            }
            DirState::Exclusive(_) => {
                unreachable!("{p} wrote {block} it already exclusively owns at the directory")
            }
        };
        if others.is_empty() {
            self.grant_exclusive(now, slot, block, p, in_place);
            return;
        }
        for r in others.iter() {
            self.send(now, slot.home, r.node(), block, MsgKind::Inval);
        }
        self.dir.at_mut(slot).busy = Some(Busy::Invalidate {
            requester: p,
            in_place,
            acks_left: others.len() as u32,
        });
    }

    /// Serves a read from memory: joins `p` to the sharers, sends it the
    /// data, lets FR forward copies to the other predicted readers, and
    /// holds the block until the reply has left.
    fn serve_read(&mut self, now: Cycle, slot: Slot, block: BlockAddr, p: ProcId) {
        let t = self.mem_access(now, slot.home);
        let blk = self.dir.at_mut(slot);
        match &mut blk.state {
            DirState::Shared(readers) => {
                readers.insert(p);
            }
            state => *state = DirState::Shared(ReaderSet::single(p)),
        }
        let version = blk.version;
        self.send(
            t,
            slot.home,
            p.node(),
            block,
            MsgKind::DataShared { version },
        );
        if self.spec.policy.fr_enabled() {
            self.speculate(t, slot, block, SpecTrigger::Fr);
        }
        self.lock_reply(slot, block, t);
    }

    /// Recalls `owner`'s writable copy with an `InvWriteback` and holds
    /// the block busy until the data returns, then runs `then`.
    fn recall_owner(
        &mut self,
        now: Cycle,
        slot: Slot,
        block: BlockAddr,
        owner: ProcId,
        then: AfterRecall,
    ) {
        self.send(now, slot.home, owner.node(), block, MsgKind::InvWriteback);
        self.dir.at_mut(slot).busy = Some(Busy::Recall(then));
    }

    /// Grants write permission: state → `Exclusive`, new version, reply.
    /// A data reply holds the block until it has left the directory; an
    /// in-place upgrade sends no data and takes no hold.
    fn grant_exclusive(
        &mut self,
        now: Cycle,
        slot: Slot,
        block: BlockAddr,
        p: ProcId,
        in_place: bool,
    ) {
        let home = slot.home;
        // Deferred SWI verdict: if an SWI invalidation is still pending
        // at write-grant time, no consumption was ever observed — the
        // grant to the original owner means it was premature; a grant
        // to anyone else means production simply moved on.
        if let Some((owner, ticket)) = self.dir.at(slot).swi_pending {
            if p == owner {
                self.resolve_swi_premature(slot, ticket);
            } else {
                self.dir.at_mut(slot).swi_pending = None;
            }
        }
        let blk = self.dir.at_mut(slot);
        blk.state = DirState::Exclusive(p);
        let version = blk.grant_version();
        if in_place {
            // Permission only; no data, no memory access.
            self.send(now, home, p.node(), block, MsgKind::UpgradeAck { version });
        } else {
            let t = self.mem_access(now, home);
            self.send(t, home, p.node(), block, MsgKind::DataExcl { version });
            self.lock_reply(slot, block, t);
        }
    }

    /// Holds the idle `block` busy until `until`, when its in-flight
    /// reply (or speculative batch) has left the directory. Prevents a
    /// later request's invalidations from overtaking the data on the
    /// same home→processor path. Every hold ends after the cycle it
    /// starts, because validation keeps `mem_access ≥ 1`.
    fn lock_reply(&mut self, slot: Slot, block: BlockAddr, until: Cycle) {
        let blk = self.dir.at_mut(slot);
        assert!(
            blk.busy.is_none(),
            "reply hold over active transaction {:?}",
            blk.busy
        );
        blk.busy = Some(Busy::Reply);
        self.sched(until, Event::DirRelease(slot, block));
    }

    /// A reply hold expires: release the block and serve queued
    /// requests.
    fn dir_release(&mut self, now: Cycle, slot: Slot, block: BlockAddr) {
        let hold = self.dir.at_mut(slot).busy.take();
        assert_eq!(
            hold,
            Some(Busy::Reply),
            "{block}: release without a reply hold"
        );
        self.drain_pending(now, slot, block);
    }

    fn dir_inv_ack(
        &mut self,
        now: Cycle,
        slot: Slot,
        block: BlockAddr,
        proc: ProcId,
        spec_unused: bool,
    ) {
        if let Some(trace) = &mut self.trace {
            trace.record(block, DirMsg::ack_inv(proc));
        }
        // Speculation verification via the piggy-backed reference bit.
        if self.spec.policy.uses_predictor() {
            self.spec.note_invalidated(slot, proc, spec_unused);
        }
        let blk = self.dir.at_mut(slot);
        // A referenced copy is consumption evidence for a pending SWI.
        if !spec_unused {
            blk.swi_pending = None;
        }
        let Some(Busy::Invalidate {
            requester,
            in_place,
            acks_left,
        }) = &mut blk.busy
        else {
            panic!("stray InvAck for {block} from {proc}");
        };
        *acks_left -= 1;
        if *acks_left > 0 {
            return;
        }
        let (requester, in_place) = (*requester, *in_place);
        blk.busy = None;
        self.grant_exclusive(now, slot, block, requester, in_place);
        self.drain_pending(now, slot, block);
    }

    fn dir_writeback(
        &mut self,
        now: Cycle,
        slot: Slot,
        block: BlockAddr,
        proc: ProcId,
        version: u64,
    ) {
        if let Some(trace) = &mut self.trace {
            trace.record(block, DirMsg::writeback(proc));
        }
        let blk = self.dir.at_mut(slot);
        blk.version = version;
        let Some(Busy::Recall(then)) = blk.busy.take() else {
            panic!("stray writeback for {block} from {proc}");
        };
        match then {
            // Memory absorbs the writeback and sources the reply.
            AfterRecall::Read(requester) => self.serve_read(now, slot, block, requester),
            AfterRecall::Write(requester) => {
                self.grant_exclusive(now, slot, block, requester, false);
            }
            AfterRecall::Swi { owner, ticket } => {
                // Successful speculative invalidation: memory is clean.
                let t = self.mem_access(now, slot.home);
                let blk = self.dir.at_mut(slot);
                blk.state = DirState::Idle;
                blk.swi_pending = Some((owner, ticket));
                self.speculate(t, slot, block, SpecTrigger::Swi);
                self.lock_reply(slot, block, t);
            }
        }
        self.drain_pending(now, slot, block);
    }

    fn drain_pending(&mut self, now: Cycle, slot: Slot, block: BlockAddr) {
        loop {
            let blk = self.dir.at_mut(slot);
            if blk.busy.is_some() {
                return;
            }
            let Some((kind, p)) = blk.pending.pop_front() else {
                return;
            };
            self.dir_process(now, slot, block, kind, p);
        }
    }

    /// One memory access at `home`: occupies the (split-transaction)
    /// memory bus for `mem_occupancy` cycles and returns the data
    /// `mem_access` cycles after its bus slot starts.
    #[inline]
    fn mem_access(&mut self, now: Cycle, home: NodeId) -> Cycle {
        let lat = self.cfg.latency;
        let slot_end = self.mems[home.0].acquire(now, lat.mem_occupancy);
        let start = Cycle(slot_end.raw() - lat.mem_occupancy);
        start + lat.mem_access
    }

    // ------------------------------------------------------------------
    // Speculation triggers
    // ------------------------------------------------------------------

    /// Forwards one speculative read-only copy of `block` to every
    /// reader the predictor expects next and not already sharing it:
    /// FR after serving a demand read, SWI after a successful
    /// speculative write invalidation. The message payload is built
    /// once; the per-destination sends issue in ascending reader order.
    /// The data was just fetched (or written back) by the access that
    /// triggered the speculation, so the batch is sourced from the
    /// directory's buffer: no extra memory occupancy, only NI and
    /// network costs.
    fn speculate(&mut self, now: Cycle, slot: Slot, block: BlockAddr, trigger: SpecTrigger) {
        let Some((vec, ticket)) = self.spec.vmsp.predicted_readers_at(slot) else {
            return;
        };
        let blk = self.dir.at(slot);
        debug_assert!(
            !matches!(blk.state, DirState::Exclusive(_)),
            "speculative forward while a writable copy exists"
        );
        let targets = &vec - blk.sharers();
        if targets.is_empty() {
            return;
        }
        let kind = MsgKind::SpecData {
            version: blk.version,
        };
        for r in targets.iter() {
            self.send(now, slot.home, r.node(), block, kind);
        }
        for r in targets.iter() {
            self.spec.note_sent(slot, r, ticket, trigger);
        }
        match &mut self.dir.at_mut(slot).state {
            DirState::Shared(sharers) => *sharers |= &targets,
            state => *state = DirState::Shared(targets.clone()),
        }
        self.spec.vmsp.speculate_readers_at(slot, targets);
    }

    /// Attempts an SWI invalidation of `prev` (the block `owner` wrote
    /// before its current write, at the same home). `prev` is a
    /// different block from the one the triggering message named, so
    /// its slot is computed here — once, like `deliver_dir` does for the
    /// message's own block.
    fn try_swi(&mut self, now: Cycle, prev: BlockAddr, owner: ProcId) {
        let slot = self.dir.slot_of(prev);
        let b = self.dir.at(slot);
        let eligible = b.busy.is_none() && b.state == DirState::Exclusive(owner);
        if !eligible || !self.spec.vmsp.swi_allowed_at(slot) {
            return;
        }
        // The write request that made `prev` exclusive trained the
        // predictor, so its history is active.
        let ticket = self
            .spec
            .vmsp
            .swi_ticket_at(slot)
            .expect("an exclusive block has an active predictor history");
        self.recall_owner(now, slot, prev, owner, AfterRecall::Swi { owner, ticket });
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
    let z = now
        .raw()
        .wrapping_add((p.0 as u64) << 32)
        .wrapping_add(GOLDEN_GAMMA);
    splitmix64(z) % jitter
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("nodes", &self.procs.len())
            .field("cycle", &self.cur)
            .field("queued", &self.queue.len())
            .finish()
    }
}
