//! The SWI rule (paper §4.1–4.2). A write or upgrade request signals
//! that its producer is done with the block it last wrote at the same
//! home ([`note_write`], over the per-home [`LastWrites`] maps in
//! [`System::swi_last_write`](crate::System::swi_last_write)).
//! [`System::swi_trigger`] recalls that block early; the recall's
//! completion pushes it to the predicted readers and leaves its verdict
//! pending. [`System::settle_swi`] settles the verdict at the block's
//! next grant, or [`System::note_invalidated`] earlier on a used copy's
//! ack. A premature verdict suppresses SWI in the entry it was taken under.

use specdsm_core::FxHashMap;
use specdsm_sim::Cycle;
use specdsm_types::{BlockAddr, NodeId, ProcId, ReqKind, Slot};

use crate::directory::{AfterRecall, DirState};
use crate::system::System;

/// One home's SWI table: the block each processor last wrote or upgraded
/// at that home. Never iterated.
pub(crate) type LastWrites = FxHashMap<ProcId, BlockAddr>;

/// Records a write or upgrade by `p` for `block`. Returns the block `p`
/// wrote before when it differs from `block`: the signal that `p` is
/// done writing it.
pub(crate) fn note_write(last: &mut LastWrites, p: ProcId, block: BlockAddr) -> Option<BlockAddr> {
    let prev = last.insert(p, block);
    prev.filter(|&prev| prev != block)
}

impl System {
    /// The SWI trigger, run on every request `p` sends to `home`. If `p`
    /// still owns the block it wrote there before `block`, no transaction
    /// holds it and its pattern entry does not suppress SWI, the home
    /// recalls it early (computing that other block's slot here).
    #[inline]
    pub(crate) fn swi_trigger(
        &mut self,
        now: Cycle,
        home: NodeId,
        block: BlockAddr,
        kind: ReqKind,
        p: ProcId,
    ) {
        if !self.cfg.policy.swi_enabled() || !kind.is_write_like() {
            return;
        }
        let Some(prev) = note_write(&mut self.swi_last_write[home.0], p, block) else {
            return;
        };
        let slot = self.dir.slot_of(prev);
        let b = self.dir.at(slot);
        let eligible = b.busy.is_none() && b.state == DirState::Exclusive(p);
        if !eligible || !self.vmsp.swi_allowed_at(slot) {
            return;
        }
        // The write request that made `prev` exclusive trained the
        // predictor, so its history is active.
        let ticket = self
            .vmsp
            .swi_ticket_at(slot)
            .expect("an exclusive block has an active predictor history");
        self.recall_owner(now, slot, prev, p, AfterRecall::Swi { owner: p, ticket });
        self.spec_stats.swi_inval_sent += 1;
    }

    /// Settles the pending SWI verdict of the block at `slot`, if any, as
    /// the block is granted to `p`: premature if `p` is the producer the
    /// SWI took it from, a success otherwise.
    #[inline]
    pub(crate) fn settle_swi(&mut self, slot: Slot, p: ProcId) {
        let Some((owner, ticket)) = self.dir.at_mut(slot).take_swi_pending() else {
            return;
        };
        if p == owner {
            self.spec_stats.swi_inval_premature += 1;
            self.vmsp.mark_swi_premature_at(slot, ticket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::idle_engine;
    use crate::spec::SpecStats;
    use specdsm_types::{DirMsg, ReaderSet};

    /// The block the SWI takes, and the block whose write triggers it.
    const B: BlockAddr = BlockAddr(1);
    const B2: BlockAddr = BlockAddr(2);

    /// Whether the block at `slot` has an SWI verdict pending.
    fn pending(e: &System, slot: Slot) -> bool {
        e.dir
            .at(slot)
            .more
            .as_ref()
            .is_some_and(|m| m.swi_pending.is_some())
    }

    /// `p` misses on `block` with a request of `kind`, and every
    /// message the request causes is delivered.
    fn request(e: &mut System, p: usize, block: BlockAddr, kind: ReqKind) {
        e.issue(e.cur, ProcId(p), block, kind);
        e.drain().expect("the events drain");
        e.dir.check_invariants();
    }

    /// A 16-node SWI+FR engine whose predictor has learned that P1 and
    /// P2 read `B` after each write by P3, after P3 wrote `B` and then
    /// `B2` at the same home: the SWI recall of `B` and its push to P1
    /// and P2 have run, and the verdict is pending.
    fn swi_taken() -> (System, Slot) {
        let mut e = idle_engine(16);
        let slot = e.dir.slot_of(B);
        assert_eq!(slot.home, e.dir.slot_of(B2).home, "B and B2 share a home");
        for _ in 0..5 {
            e.vmsp.observe_at(slot, DirMsg::write(ProcId(3)));
            e.vmsp.observe_at(slot, DirMsg::read(ProcId(1)));
            e.vmsp.observe_at(slot, DirMsg::read(ProcId(2)));
        }
        request(&mut e, 3, B, ReqKind::Write);
        request(&mut e, 3, B2, ReqKind::Write);
        let want = SpecStats {
            swi_inval_sent: 1,
            swi_sent: 2,
            ..SpecStats::default()
        };
        assert_eq!(e.spec_stats, want);
        let readers: ReaderSet = [ProcId(1), ProcId(2)].into_iter().collect();
        assert_eq!(e.dir.at(slot).state, DirState::Shared(readers));
        assert!(pending(&e, slot));
        (e, slot)
    }

    #[test]
    fn owner_read_first_is_premature_and_suppresses_the_pattern() {
        let (mut e, slot) = swi_taken();
        request(&mut e, 3, B, ReqKind::Read);
        assert_eq!(e.spec_stats.swi_inval_premature, 1);
        assert!(!pending(&e, slot), "settled");
        // P1 takes B away; P3 writes it back into the same history
        // context (`<Write, P3>`), then moves on to B2. The trigger
        // recalls B2 on P3's write to B (its own pattern is not
        // suppressed), but not B on the write to B2.
        request(&mut e, 1, B, ReqKind::Upgrade);
        request(&mut e, 3, B, ReqKind::Write);
        let sent = e.spec_stats.swi_inval_sent;
        request(&mut e, 3, B2, ReqKind::Write);
        assert_eq!(e.spec_stats.swi_inval_sent, sent, "SWI stays suppressed");
        assert_eq!(e.dir.at(slot).state, DirState::Exclusive(ProcId(3)));
    }

    #[test]
    fn other_read_first_is_a_success() {
        let (mut e, _) = swi_taken();
        request(&mut e, 9, B, ReqKind::Read);
        // The verdict is settled: the owner's later read judges nothing.
        request(&mut e, 3, B, ReqKind::Read);
        assert_eq!(e.spec_stats.swi_inval_premature, 0);
    }

    #[test]
    fn used_copy_ack_settles_a_success_before_the_owner_write() {
        let (mut e, _) = swi_taken();
        e.proc_mut(ProcId(1)).cache.read(B);
        request(&mut e, 3, B, ReqKind::Write);
        assert_eq!(e.spec_stats.verified, 1);
        assert_eq!(e.spec_stats.swi_unused, 1);
        assert_eq!(e.spec_stats.swi_inval_premature, 0);
    }

    #[test]
    fn owner_write_with_no_copy_used_is_premature_at_the_grant() {
        let (mut e, _) = swi_taken();
        request(&mut e, 3, B, ReqKind::Write);
        assert_eq!(e.spec_stats.swi_unused, 2);
        assert_eq!(e.spec_stats.swi_inval_premature, 1);
    }

    #[test]
    fn other_write_with_no_copy_used_is_a_success() {
        let (mut e, _) = swi_taken();
        request(&mut e, 5, B, ReqKind::Write);
        assert_eq!(e.spec_stats.swi_unused, 2);
        assert_eq!(e.spec_stats.swi_inval_premature, 0);
    }

    #[test]
    fn first_write_gives_no_signal() {
        let mut t = LastWrites::default();
        assert_eq!(note_write(&mut t, ProcId(0), BlockAddr(1)), None);
    }

    #[test]
    fn rewrite_of_same_block_gives_no_signal() {
        let mut t = LastWrites::default();
        note_write(&mut t, ProcId(0), BlockAddr(1));
        assert_eq!(note_write(&mut t, ProcId(0), BlockAddr(1)), None);
        // Still tracked: the next different block signals it.
        assert_eq!(
            note_write(&mut t, ProcId(0), BlockAddr(2)),
            Some(BlockAddr(1))
        );
    }

    #[test]
    fn write_to_other_block_signals_previous() {
        let mut t = LastWrites::default();
        note_write(&mut t, ProcId(0), BlockAddr(1));
        assert_eq!(
            note_write(&mut t, ProcId(0), BlockAddr(2)),
            Some(BlockAddr(1))
        );
        assert_eq!(
            note_write(&mut t, ProcId(0), BlockAddr(3)),
            Some(BlockAddr(2))
        );
    }

    #[test]
    fn processors_are_independent() {
        let mut t = LastWrites::default();
        note_write(&mut t, ProcId(0), BlockAddr(1));
        assert_eq!(note_write(&mut t, ProcId(1), BlockAddr(2)), None);
        // Each processor's next write signals only its own block.
        assert_eq!(
            note_write(&mut t, ProcId(0), BlockAddr(3)),
            Some(BlockAddr(1))
        );
        assert_eq!(
            note_write(&mut t, ProcId(1), BlockAddr(4)),
            Some(BlockAddr(2))
        );
    }
}
