//! Speculation policies and statistics, and the FR/SWI triggers: the
//! speculative forwarding path, SWI invalidation, and the feedback that
//! verifies each speculative copy against the online VMSP.
//!
//! The predictor is the table-backed [`Vmsp`](specdsm_core::Vmsp): the
//! directory computes each message's [`Slot`] once, and every later
//! access — observe, predicted readers, pruning — is a direct index.
//! The verification state travels with the copy (paper §4.2): each
//! [`MsgKind::SpecData`] carries the [`SpecTicket`] and trigger it was
//! sent under, the receiving cache keeps them as the line's
//! [`SpecVerdict`], and the invalidation ack brings the verdict back to
//! the home, which applies it in [`System::note_invalidated`]. The home
//! keeps no per-copy record. Each home's SWI last-write map sits in
//! [`System::swi_last_write`], kept by the rule in [`crate::swi`].

use std::fmt;

use specdsm_core::SpecTicket;
use specdsm_sim::Cycle;
use specdsm_types::{BlockAddr, ProcId, Slot};

use crate::directory::{AfterRecall, DirState};
use crate::msg::MsgKind;
use crate::system::System;

/// Which speculation mechanisms the DSM runs (paper §7.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecPolicy {
    /// Base-DSM: no prediction, no speculation.
    Base,
    /// FR-DSM: the first read of a predicted sequence triggers
    /// speculative forwarding to the remaining predicted readers.
    FirstRead,
    /// SWI-DSM: speculative write invalidation plus FR as fallback.
    SwiFr,
}

impl SpecPolicy {
    /// All three system configurations, in the paper's order.
    pub const ALL: [SpecPolicy; 3] = [SpecPolicy::Base, SpecPolicy::FirstRead, SpecPolicy::SwiFr];

    /// Whether the first-read trigger is active.
    #[must_use]
    pub fn fr_enabled(self) -> bool {
        matches!(self, SpecPolicy::FirstRead | SpecPolicy::SwiFr)
    }

    /// Whether the SWI trigger is active.
    #[must_use]
    pub fn swi_enabled(self) -> bool {
        matches!(self, SpecPolicy::SwiFr)
    }

    /// Whether an online predictor is needed at all.
    #[must_use]
    pub fn uses_predictor(self) -> bool {
        self != SpecPolicy::Base
    }
}

impl fmt::Display for SpecPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SpecPolicy::Base => "Base-DSM",
            SpecPolicy::FirstRead => "FR-DSM",
            SpecPolicy::SwiFr => "SWI-DSM",
        };
        f.write_str(s)
    }
}

/// How a speculative copy was triggered (paper §4.1): by the first
/// demand read of a predicted sequence (FR) or by a successful
/// speculative write invalidation (SWI). Travels with the copy's ticket
/// so verification feedback attributes each outcome to the right
/// trigger's statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpecTrigger {
    /// First-read trigger.
    Fr,
    /// Speculative-write-invalidation trigger.
    Swi,
}

/// The fate of a read-only copy, kept by the cache line that holds it
/// and piggy-backed on the copy's invalidation ack (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpecVerdict {
    /// A demand copy: nothing to verify.
    Demand,
    /// A speculative copy the processor has read.
    Referenced,
    /// A speculative copy not yet read, with the ticket and trigger it
    /// was sent under.
    Unused(SpecTicket, SpecTrigger),
}

/// Speculation activity counters (the raw material of Table 5).
///
/// Each speculative copy sent is either dropped on arrival (the race
/// rule), or installed and later found used (`verified`) or unused
/// (`fr_unused`/`swi_unused`) by its invalidation ack, or neither: a
/// copy upgraded before any read, or still cached at the end of the
/// run. So `verified + total_unused() + dropped <= total_sent()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Speculative read-only copies sent by the FR trigger.
    pub fr_sent: u64,
    /// Speculative read-only copies sent by the SWI trigger.
    pub swi_sent: u64,
    /// FR copies invalidated without ever being referenced
    /// (misspeculations, detected via the verdict piggy-backed on the
    /// invalidation ack).
    pub fr_unused: u64,
    /// SWI copies invalidated without ever being referenced.
    pub swi_unused: u64,
    /// Speculative copies confirmed referenced at invalidation time.
    pub verified: u64,
    /// Speculative copies dropped by the receiver because a demand
    /// request was in flight (the race rule).
    pub dropped: u64,
    /// SWI write invalidations issued.
    pub swi_inval_sent: u64,
    /// SWI invalidations that proved premature (the producer
    /// re-accessed the block next).
    pub swi_inval_premature: u64,
}

impl SpecStats {
    /// Total speculative copies sent.
    #[must_use]
    pub fn total_sent(&self) -> u64 {
        self.fr_sent + self.swi_sent
    }

    /// Total speculative copies known unused (misses).
    #[must_use]
    pub fn total_unused(&self) -> u64 {
        self.fr_unused + self.swi_unused
    }
}

impl System {
    /// Forwards one speculative read-only copy of `block` to every
    /// reader the predictor expects next and not already sharing it:
    /// FR after serving a demand read, SWI after a successful
    /// speculative write invalidation. The message payload is built
    /// once; the per-destination sends issue in ascending reader order.
    /// The data was just fetched (or written back) by the access that
    /// triggered the speculation, so the batch is sourced from the
    /// directory's buffer: no extra memory occupancy, only NI and
    /// network costs.
    pub(crate) fn speculate(
        &mut self,
        now: Cycle,
        slot: Slot,
        block: BlockAddr,
        trigger: SpecTrigger,
    ) {
        let Some((vec, ticket)) = self.vmsp.predicted_readers_at(slot) else {
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
            ticket,
            trigger,
        };
        for r in targets.iter() {
            self.send(now, slot.home, r.node(), block, kind);
        }
        match &mut self.dir.at_mut(slot).state {
            DirState::Shared(sharers) => *sharers |= &targets,
            state => *state = DirState::Shared(targets.clone()),
        }
        let sent = targets.len() as u64;
        match trigger {
            SpecTrigger::Fr => self.spec_stats.fr_sent += sent,
            SpecTrigger::Swi => self.spec_stats.swi_sent += sent,
        }
        self.vmsp.speculate_readers_at(slot, targets);
    }

    /// Attempts an SWI invalidation of `prev` (the block `owner` wrote
    /// before its current write, at the same home). `prev` is a
    /// different block from the one the triggering message named, so
    /// its slot is computed here — once, like `deliver_dir` does for the
    /// message's own block.
    pub(crate) fn try_swi(&mut self, now: Cycle, prev: BlockAddr, owner: ProcId) {
        let slot = self.dir.slot_of(prev);
        let b = self.dir.at(slot);
        let eligible = b.busy.is_none() && b.state == DirState::Exclusive(owner);
        if !eligible || !self.vmsp.swi_allowed_at(slot) {
            return;
        }
        // The write request that made `prev` exclusive trained the
        // predictor, so its history is active.
        let ticket = self
            .vmsp
            .swi_ticket_at(slot)
            .expect("an exclusive block has an active predictor history");
        self.recall_owner(now, slot, prev, owner, AfterRecall::Swi { owner, ticket });
        self.spec_stats.swi_inval_sent += 1;
    }

    pub(crate) fn resolve_swi_premature(&mut self, slot: Slot, ticket: SpecTicket) {
        self.dir.at_mut(slot).clear_swi_pending();
        self.spec_stats.swi_inval_premature += 1;
        self.vmsp.mark_swi_premature_at(slot, ticket);
    }

    /// Applies the verdict piggy-backed on `proc`'s invalidation ack
    /// for the block at `slot`. A referenced copy is verified; an unused
    /// one is a misspeculation: the pattern entry its ticket names stops
    /// predicting `proc`, and the miss counts against its trigger. A
    /// demand copy carries nothing to verify.
    pub(crate) fn note_invalidated(&mut self, slot: Slot, proc: ProcId, verdict: SpecVerdict) {
        match verdict {
            SpecVerdict::Demand => {}
            SpecVerdict::Referenced => self.spec_stats.verified += 1,
            SpecVerdict::Unused(ticket, trigger) => {
                match trigger {
                    SpecTrigger::Fr => self.spec_stats.fr_unused += 1,
                    SpecTrigger::Swi => self.spec_stats.swi_unused += 1,
                }
                self.vmsp.prune_reader_at(slot, ticket, proc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use specdsm_types::{DirMsg, MachineConfig, OpStream, ReaderSet, ReqKind, Workload};

    /// `n` processors with nothing to run: a system whose speculation
    /// state the tests drive directly.
    struct Idle(usize);

    impl Workload for Idle {
        fn name(&self) -> &str {
            "idle"
        }
        fn num_procs(&self) -> usize {
            self.0
        }
        fn build_streams(&self) -> Vec<OpStream> {
            (0..self.0)
                .map(|_| Box::new(std::iter::empty()) as OpStream)
                .collect()
        }
    }

    fn idle_engine(n: usize) -> System {
        let cfg = SystemConfig {
            machine: MachineConfig::with_nodes(n),
            policy: SpecPolicy::SwiFr,
            ..SystemConfig::default()
        };
        System::new(cfg, &Idle(n)).expect("valid system")
    }

    fn set(procs: &[usize]) -> ReaderSet {
        procs.iter().map(|&p| ProcId(p)).collect()
    }

    #[test]
    fn policy_flags() {
        assert!(!SpecPolicy::Base.fr_enabled());
        assert!(!SpecPolicy::Base.swi_enabled());
        assert!(SpecPolicy::FirstRead.fr_enabled());
        assert!(!SpecPolicy::FirstRead.swi_enabled());
        assert!(SpecPolicy::SwiFr.fr_enabled());
        assert!(SpecPolicy::SwiFr.swi_enabled());
        assert!(!SpecPolicy::Base.uses_predictor());
        assert!(SpecPolicy::SwiFr.uses_predictor());
    }

    #[test]
    fn policy_display() {
        assert_eq!(SpecPolicy::Base.to_string(), "Base-DSM");
        assert_eq!(SpecPolicy::FirstRead.to_string(), "FR-DSM");
        assert_eq!(SpecPolicy::SwiFr.to_string(), "SWI-DSM");
    }

    /// The block every test speculates on.
    const B: BlockAddr = BlockAddr(1);

    /// A 16-node engine whose predictor has learned that P1 and P2 read
    /// `B` after each upgrade by P3, and has just seen that upgrade.
    fn trained_engine() -> (System, Slot) {
        let mut e = idle_engine(16);
        let slot = e.vmsp.slot_of(B);
        for _ in 0..5 {
            e.vmsp.observe_at(slot, DirMsg::upgrade(ProcId(3)));
            e.vmsp.observe_at(slot, DirMsg::read(ProcId(1)));
            e.vmsp.observe_at(slot, DirMsg::read(ProcId(2)));
        }
        e.vmsp.observe_at(slot, DirMsg::upgrade(ProcId(3)));
        (e, slot)
    }

    /// The trained engine after the home forwarded `B` to P1 and P2
    /// under `trigger`, with the copies delivered.
    fn speculated(trigger: SpecTrigger) -> (System, Slot) {
        let (mut e, slot) = trained_engine();
        e.speculate(e.cur, slot, B, trigger);
        e.drain().expect("the events drain");
        (e, slot)
    }

    /// `p` misses on `B` with a request of `kind`, and every message
    /// the request causes is delivered.
    fn request(e: &mut System, p: ProcId, kind: ReqKind) {
        e.issue(e.cur, p, B, kind);
        e.drain().expect("the events drain");
    }

    /// The readers the pattern entry of P3's upgrade predicts, read by
    /// replaying that upgrade into the history.
    fn predicted_after_upgrade(e: &mut System, slot: Slot) -> ReaderSet {
        e.vmsp.observe_at(slot, DirMsg::upgrade(ProcId(3)));
        e.vmsp.predicted_readers_at(slot).expect("trained").0
    }

    #[test]
    fn verification_prunes_on_unused() {
        let (mut e, slot) = speculated(SpecTrigger::Fr);
        assert!(
            e.dir.at(slot).more.is_none(),
            "the home keeps no record of the copies"
        );
        e.proc_mut(ProcId(1)).cache.read(B);
        request(&mut e, ProcId(3), ReqKind::Write);
        let want = SpecStats {
            fr_sent: 2,
            fr_unused: 1,
            verified: 1,
            ..SpecStats::default()
        };
        assert_eq!(e.spec_stats, want);
        // P2's ack carried the ticket of P3's upgrade: that entry no
        // longer predicts P2.
        assert_eq!(predicted_after_upgrade(&mut e, slot), set(&[1]));
    }

    #[test]
    fn verification_confirms_on_used() {
        let (mut e, slot) = speculated(SpecTrigger::Swi);
        for p in [1, 2] {
            e.proc_mut(ProcId(p)).cache.read(B);
        }
        request(&mut e, ProcId(3), ReqKind::Write);
        let want = SpecStats {
            swi_sent: 2,
            verified: 2,
            ..SpecStats::default()
        };
        assert_eq!(e.spec_stats, want);
        assert_eq!(predicted_after_upgrade(&mut e, slot), set(&[1, 2]));
    }

    #[test]
    fn invalidation_without_ticket_is_ignored() {
        // A demand copy carries no ticket: its ack verifies nothing.
        let mut e = idle_engine(16);
        request(&mut e, ProcId(9), ReqKind::Read);
        request(&mut e, ProcId(3), ReqKind::Write);
        assert_eq!(e.spec_stats, SpecStats::default());
        assert_eq!(*e.dir.state(B), DirState::Exclusive(ProcId(3)));
    }

    #[test]
    fn dropped_copy_leaves_the_later_demand_copy_unverified() {
        // P2's demand read is in flight when the forwarded copy arrives,
        // so P2 drops the copy (the race rule) and caches the demand
        // reply instead. That copy's ack is no verdict on the dropped
        // one.
        let (mut e, slot) = trained_engine();
        e.issue(e.cur, ProcId(2), B, ReqKind::Read);
        e.speculate(e.cur, slot, B, SpecTrigger::Fr);
        e.drain().expect("the events drain");
        request(&mut e, ProcId(3), ReqKind::Write);
        let want = SpecStats {
            fr_sent: 2,
            fr_unused: 1,
            dropped: 1,
            ..SpecStats::default()
        };
        assert_eq!(e.spec_stats, want, "P1's copy unused, P2's dropped");
    }

    #[test]
    fn upgraded_copy_is_neither_verified_nor_unused() {
        // P2 writes its forwarded copy before reading it: the upgrade
        // takes the copy's verdict with it. P2's later demand copy is
        // invalidated with nothing to verify.
        let (mut e, _) = speculated(SpecTrigger::Fr);
        request(&mut e, ProcId(2), ReqKind::Upgrade);
        request(&mut e, ProcId(3), ReqKind::Write);
        request(&mut e, ProcId(2), ReqKind::Read);
        request(&mut e, ProcId(1), ReqKind::Write);
        let want = SpecStats {
            fr_sent: 2,
            fr_unused: 1,
            ..SpecStats::default()
        };
        assert_eq!(e.spec_stats, want, "only P1's copy has a verdict");
        e.dir.check_invariants();
    }

    #[test]
    fn totals() {
        let s = SpecStats {
            fr_sent: 3,
            swi_sent: 2,
            fr_unused: 1,
            swi_unused: 1,
            ..SpecStats::default()
        };
        assert_eq!(s.total_sent(), 5);
        assert_eq!(s.total_unused(), 2);
    }
}
