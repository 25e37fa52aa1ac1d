//! The fault path: request sends under a fault plan, their
//! retransmission timers, and the home's duplicate suppression. With no
//! active plan (`cfg.faults` is `None`) a request is one plain
//! [`System::send`]; `docs/ARCHITECTURE.md` describes the retry state
//! machine.

use specdsm_sim::Cycle;
use specdsm_types::{BlockAddr, NodeId, ProcId, ReqKind};

use crate::msg::{Msg, MsgKind};
use crate::processor::Blocked;
use crate::system::{EngineError, Event, System};

impl System {
    /// Sends (or retransmits, for `attempt > 0`) one request message,
    /// applying the fault plan and arming the retransmission timer.
    ///
    /// Requests are the only messages the fault plan touches: they may
    /// legally arrive late, out of order, or more than once, and the
    /// retry/duplicate-suppression pair makes their delivery
    /// at-least-once and idempotent. Every other message kind rides the
    /// reliable FIFO path the directory protocol depends on.
    pub(crate) fn send_request(
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
        let home = self.cfg.machine.home_of(block);
        let Some(plan) = &self.cfg.faults else {
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
        // Exponential backoff; the shift saturates well past any
        // plausible retry cap.
        let backoff = plan.retry_timeout.saturating_mul(1u64 << attempt.min(32));
        if d.drop {
            self.fstats.drops += 1;
        }
        self.transmit(now, src, home, block, mk, d.extra_delay, d.drop);
        if d.duplicate {
            self.fstats.duplicates += 1;
            self.transmit(now, src, home, block, mk, d.dup_extra_delay, false);
        }
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
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::RetryBudget`] when the timer of the last
    /// retry the plan allows fires.
    pub(crate) fn req_timeout(
        &mut self,
        now: Cycle,
        p: ProcId,
        seq: u64,
        attempt: u32,
    ) -> Result<(), EngineError> {
        let (block, kind) = match self.proc_mut(p).blocked {
            Blocked::Mem {
                block,
                kind,
                seq: outstanding,
                ..
            } if outstanding == seq => (block, kind),
            _ => return Ok(()),
        };
        let plan = self
            .cfg
            .faults
            .as_ref()
            .expect("retransmission timers exist only under a fault plan");
        // `attempt` is the 0-based transmission whose timer fired; the
        // resend below is retry number `attempt + 1`. Permit at most
        // `retry_cap` retries.
        if attempt >= plan.retry_cap {
            return Err(EngineError::RetryBudget {
                proc: p,
                block,
                attempts: attempt + 1,
            });
        }
        if let Blocked::Mem { retried, .. } = &mut self.proc_mut(p).blocked {
            *retried = true;
        }
        self.fstats.retries += 1;
        self.send_request(now, p, block, kind, seq, attempt + 1);
        Ok(())
    }

    /// Drops a request the directory already accepted (a network
    /// duplicate or an unnecessary retransmission). Must run before any
    /// directory side effect — counters, trace, predictor observation,
    /// SWI triggers — so suppressed duplicates are protocol-invisible.
    pub(crate) fn suppress_duplicate(&mut self, dst: NodeId, p: ProcId, seq: u64) -> bool {
        if self.cfg.faults.is_none() {
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
}
