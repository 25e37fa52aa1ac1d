//! Speculation policies and statistics, and the FR/SWI triggers: the
//! speculative forwarding path, SWI invalidation, and the feedback that
//! verifies each speculative copy against the online VMSP.
//!
//! The predictor is the table-backed [`Vmsp`](specdsm_core::Vmsp): the
//! directory computes each message's [`Slot`] once, and every later
//! access — observe, predicted readers, ticket open/close — is a direct
//! index. The verification bookkeeping is this layer's own: the
//! outstanding speculative copies of a block sit in its directory
//! record's side record, one batch per speculative send
//! ([`DirMore::open`](crate::directory::DirMore)), and each home's SWI
//! last-write map sits in [`System::swi_last_write`], kept by the rule
//! in [`crate::swi`].

use std::fmt;

use specdsm_core::SpecTicket;
use specdsm_sim::Cycle;
use specdsm_types::{BlockAddr, ProcId, ReaderSet, Slot};

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
/// speculative write invalidation (SWI). Kept with the copy's ticket so
/// verification feedback attributes each outcome to the right
/// trigger's statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpecTrigger {
    /// First-read trigger.
    Fr,
    /// Speculative-write-invalidation trigger.
    Swi,
}

/// Speculation activity counters (the raw material of Table 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Speculative read-only copies sent by the FR trigger.
    pub fr_sent: u64,
    /// Speculative read-only copies sent by the SWI trigger.
    pub swi_sent: u64,
    /// FR copies invalidated without ever being referenced
    /// (misspeculations, detected via the piggy-backed reference bit).
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
        };
        for r in targets.iter() {
            self.send(now, slot.home, r.node(), block, kind);
        }
        match &mut self.dir.at_mut(slot).state {
            DirState::Shared(sharers) => *sharers |= &targets,
            state => *state = DirState::Shared(targets.clone()),
        }
        self.vmsp.speculate_readers_at(slot, targets.clone());
        self.note_sent(slot, targets, ticket, trigger);
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

    /// Records that every reader in `targets` was sent a speculative
    /// copy under `ticket`, opening one batch in the block's side
    /// record. At most one ticket per `(block, proc)` is open at a time:
    /// a second send moves the reader out of its older batch, which is
    /// dropped once empty.
    fn note_sent(
        &mut self,
        slot: Slot,
        targets: ReaderSet,
        ticket: SpecTicket,
        trigger: SpecTrigger,
    ) {
        let sent = targets.len() as u64;
        match trigger {
            SpecTrigger::Fr => self.spec_stats.fr_sent += sent,
            SpecTrigger::Swi => self.spec_stats.swi_sent += sent,
        }
        let open = &mut self.dir.at_mut(slot).more_mut().open;
        open.retain_mut(|(_, _, readers)| {
            for p in targets.iter() {
                readers.remove(p);
            }
            !readers.is_empty()
        });
        open.push((ticket, trigger, targets));
    }

    /// Applies the piggy-backed reference bit when `proc`'s copy of the
    /// block at `slot` is invalidated. `unused == true` marks a
    /// misspeculation: the predictor entry is pruned and the miss
    /// attributed to its trigger. The copy's ticket is taken out of its
    /// batch, so a second invalidation is a no-op.
    pub(crate) fn note_invalidated(&mut self, slot: Slot, proc: ProcId, unused: bool) {
        let Some(more) = self.dir.at_mut(slot).more.as_deref_mut() else {
            return;
        };
        let Some(i) = more.open.iter().position(|(_, _, r)| r.contains(proc)) else {
            return;
        };
        let (ticket, trigger, readers) = &mut more.open[i];
        let (ticket, trigger) = (*ticket, *trigger);
        readers.remove(proc);
        if readers.is_empty() {
            more.open.swap_remove(i);
        }
        if unused {
            match trigger {
                SpecTrigger::Fr => self.spec_stats.fr_unused += 1,
                SpecTrigger::Swi => self.spec_stats.swi_unused += 1,
            }
            self.vmsp.prune_reader_at(slot, ticket, proc);
        } else {
            self.spec_stats.verified += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use specdsm_core::{HistoryKey, Symbol};
    use specdsm_sim::Xorshift64Star;
    use specdsm_types::{DirMsg, MachineConfig, OpStream, ReqKind, Workload};

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

    /// A ticket no predictor entry answers to: pruning under it is a
    /// no-op, which is all the bookkeeping tests need.
    fn ticket(i: usize) -> SpecTicket {
        SpecTicket::from_key(HistoryKey::of(&[Symbol::Req(ReqKind::Write, ProcId(i))]))
    }

    /// The open ticket of `proc` at `slot`, read out of the batches.
    fn ticket_of(e: &System, slot: Slot, proc: ProcId) -> Option<(SpecTicket, SpecTrigger)> {
        e.dir
            .at(slot)
            .open_batches()
            .iter()
            .find(|(_, _, r)| r.contains(proc))
            .map(|&(ticket, trigger, _)| (ticket, trigger))
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

    fn trained_engine() -> (System, Slot) {
        let mut e = idle_engine(16);
        let slot = e.vmsp.slot_of(BlockAddr(1));
        for _ in 0..5 {
            e.vmsp.observe_at(slot, DirMsg::upgrade(ProcId(3)));
            e.vmsp.observe_at(slot, DirMsg::read(ProcId(1)));
            e.vmsp.observe_at(slot, DirMsg::read(ProcId(2)));
        }
        e.vmsp.observe_at(slot, DirMsg::upgrade(ProcId(3)));
        (e, slot)
    }

    #[test]
    fn verification_prunes_on_unused() {
        let (mut e, slot) = trained_engine();
        let (readers, ticket) = e.vmsp.predicted_readers_at(slot).unwrap();
        assert!(readers.contains(ProcId(2)));
        e.note_sent(slot, ReaderSet::single(ProcId(2)), ticket, SpecTrigger::Fr);
        assert_eq!(e.spec_stats.fr_sent, 1);

        e.note_invalidated(slot, ProcId(2), true);
        assert_eq!(e.spec_stats.fr_unused, 1);
        let (readers, _) = e.vmsp.predicted_readers_at(slot).unwrap();
        assert_eq!(readers, ReaderSet::single(ProcId(1)), "P2 pruned");
    }

    #[test]
    fn verification_confirms_on_used() {
        let (mut e, slot) = trained_engine();
        let (_, ticket) = e.vmsp.predicted_readers_at(slot).unwrap();
        e.note_sent(slot, ReaderSet::single(ProcId(1)), ticket, SpecTrigger::Swi);
        e.note_invalidated(slot, ProcId(1), false);
        assert_eq!(e.spec_stats.verified, 1);
        assert_eq!(e.spec_stats.swi_unused, 0);
        // Ticket consumed: a second invalidation is a no-op.
        e.note_invalidated(slot, ProcId(1), true);
        assert_eq!(e.spec_stats.swi_unused, 0);
    }

    #[test]
    fn ticket_batches_open_close_round_trip() {
        let (mut e, slot) = trained_engine();
        let (_, ticket) = e.vmsp.predicted_readers_at(slot).unwrap();
        let batches = |e: &System| e.dir.at(slot).open_batches().to_vec();

        e.note_invalidated(slot, ProcId(2), false);
        assert_eq!(e.spec_stats, SpecStats::default(), "nothing open");
        assert!(
            e.dir.at(slot).more.is_none(),
            "no side record before a send"
        );
        e.note_sent(slot, set(&[2, 5]), ticket, SpecTrigger::Fr);
        assert_eq!(e.spec_stats.fr_sent, 2, "one copy per reader");
        assert_eq!(
            batches(&e),
            [(ticket, SpecTrigger::Fr, set(&[2, 5]))],
            "one batch after the first send"
        );
        e.note_invalidated(slot, ProcId(2), false);
        assert_eq!(batches(&e), [(ticket, SpecTrigger::Fr, set(&[5]))]);
        assert_eq!(e.spec_stats.verified, 1);
        // Consumed: a second close is a no-op.
        e.note_invalidated(slot, ProcId(2), false);
        assert_eq!(e.spec_stats.verified, 1);

        // Re-opening overwrites: P5 moves into the new batch, and the
        // batch it empties is dropped.
        let other = self::ticket(1);
        e.note_sent(slot, set(&[5, 7]), other, SpecTrigger::Swi);
        assert_eq!(batches(&e), [(other, SpecTrigger::Swi, set(&[5, 7]))]);
        e.note_invalidated(slot, ProcId(5), true);
        assert_eq!((e.spec_stats.fr_unused, e.spec_stats.swi_unused), (0, 1));
        assert_eq!(batches(&e), [(other, SpecTrigger::Swi, set(&[7]))]);
        e.dir.check_invariants();
    }

    /// The representation the batches replaced, kept as the reference:
    /// one `(ticket, trigger)` entry per processor, overwritten by a
    /// second send and taken by the first ack.
    struct DenseSlab {
        entries: Vec<Option<(SpecTicket, SpecTrigger)>>,
        stats: SpecStats,
    }

    impl DenseSlab {
        fn send(&mut self, targets: &ReaderSet, ticket: SpecTicket, trigger: SpecTrigger) {
            for r in targets.iter() {
                match trigger {
                    SpecTrigger::Fr => self.stats.fr_sent += 1,
                    SpecTrigger::Swi => self.stats.swi_sent += 1,
                }
                self.entries[r.0] = Some((ticket, trigger));
            }
        }

        fn ack(&mut self, proc: ProcId, unused: bool) -> Option<(SpecTicket, SpecTrigger)> {
            let taken = self.entries[proc.0].take()?;
            match (unused, taken.1) {
                (false, _) => self.stats.verified += 1,
                (true, SpecTrigger::Fr) => self.stats.fr_unused += 1,
                (true, SpecTrigger::Swi) => self.stats.swi_unused += 1,
            }
            Some(taken)
        }
    }

    /// A seeded mix of overlapping batch sends and acks, used and unused,
    /// against the dense per-processor slab: every ack takes the same
    /// `(ticket, trigger)`, the statistics agree after every step, and
    /// so does every processor's open ticket.
    #[test]
    fn ticket_batches_match_the_dense_slab_reference() {
        for n in [16, 256] {
            let mut e = idle_engine(n);
            let slot = e.dir.slot_of(BlockAddr(1));
            let mut dense = DenseSlab {
                entries: vec![None; n],
                stats: SpecStats::default(),
            };
            let mut rng = Xorshift64Star::new(n as u64);
            // A few hot readers spread over the machine, so batches
            // overlap and, at 256, spill past the inline word.
            let hot: Vec<ProcId> = (0..12)
                .map(|_| ProcId(rng.range(0, n as u64) as usize))
                .collect();
            for step in 0..3000 {
                if rng.chance(0.35) {
                    let targets: ReaderSet =
                        hot.iter().copied().filter(|_| rng.chance(0.3)).collect();
                    if targets.is_empty() {
                        continue;
                    }
                    let ticket = ticket(rng.range(0, 8) as usize);
                    let trigger = if rng.chance(0.5) {
                        SpecTrigger::Fr
                    } else {
                        SpecTrigger::Swi
                    };
                    dense.send(&targets, ticket, trigger);
                    e.note_sent(slot, targets, ticket, trigger);
                } else {
                    let proc = hot[rng.range(0, hot.len() as u64) as usize];
                    let unused = rng.chance(0.5);
                    let taken = ticket_of(&e, slot, proc);
                    assert_eq!(taken, dense.ack(proc, unused), "n={n} step {step}: {proc}");
                    e.note_invalidated(slot, proc, unused);
                }
                assert_eq!(e.spec_stats, dense.stats, "n={n} step {step}");
                for &p in &hot {
                    assert_eq!(
                        ticket_of(&e, slot, p),
                        dense.entries[p.0],
                        "n={n} step {step}"
                    );
                }
                e.dir.check_invariants();
            }
            assert!(dense.stats.total_sent() > 1000, "n={n}: the mix sends");
            assert!(dense.stats.verified > 100 && dense.stats.total_unused() > 100);
        }
    }

    #[test]
    fn invalidation_without_ticket_is_ignored() {
        let (mut e, slot) = trained_engine();
        e.note_invalidated(slot, ProcId(9), true);
        assert_eq!(e.spec_stats, SpecStats::default());
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
