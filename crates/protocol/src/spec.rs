//! Speculation policies, bookkeeping, and statistics.

use std::fmt;

use specdsm_core::{SpecTicket, SpecTrigger, SwiTable, Vmsp};
use specdsm_types::{HomeGeometry, MachineConfig, ProcId, Slot};

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

impl std::ops::AddAssign for SpecStats {
    /// Field-wise accumulation; used to merge per-shard counters into
    /// whole-run statistics (every field is a sum, so the merge is
    /// order-independent).
    fn add_assign(&mut self, rhs: SpecStats) {
        self.fr_sent += rhs.fr_sent;
        self.swi_sent += rhs.swi_sent;
        self.fr_unused += rhs.fr_unused;
        self.swi_unused += rhs.swi_unused;
        self.verified += rhs.verified;
        self.dropped += rhs.dropped;
        self.swi_inval_sent += rhs.swi_inval_sent;
        self.swi_inval_premature += rhs.swi_inval_premature;
    }
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

/// Directory-side speculation engine: the online predictor, the
/// per-home SWI tables, and the speculation activity counters.
///
/// The predictor is the table-backed [`Vmsp`]: the shard computes each
/// message's [`Slot`] once, and every later access — observe, predicted
/// readers, ticket open/close — is a direct index.
#[derive(Debug, Clone)]
pub(crate) struct SpecEngine {
    pub policy: SpecPolicy,
    pub vmsp: Vmsp,
    pub swi_tables: Vec<SwiTable>,
    pub stats: SpecStats,
}

impl SpecEngine {
    pub(crate) fn new(policy: SpecPolicy, depth: usize, machine: &MachineConfig) -> Self {
        SpecEngine {
            policy,
            vmsp: Vmsp::with_geometry(depth, machine.num_nodes, HomeGeometry::of_machine(machine)),
            swi_tables: (0..machine.num_nodes).map(|_| SwiTable::new()).collect(),
            stats: SpecStats::default(),
        }
    }

    /// Records that a speculative copy was sent to `proc`.
    pub(crate) fn note_sent(
        &mut self,
        slot: Slot,
        proc: ProcId,
        ticket: SpecTicket,
        trigger: SpecTrigger,
    ) {
        match trigger {
            SpecTrigger::Fr => self.stats.fr_sent += 1,
            SpecTrigger::Swi => self.stats.swi_sent += 1,
        }
        self.vmsp.open_ticket(slot, proc, ticket, trigger);
    }

    /// Applies the piggy-backed reference bit when `proc`'s copy of the
    /// block at `slot` is invalidated. `unused == true` marks a
    /// misspeculation: the predictor entry is pruned and the miss
    /// attributed to its trigger.
    pub(crate) fn note_invalidated(&mut self, slot: Slot, proc: ProcId, unused: bool) {
        let Some((ticket, trigger)) = self.vmsp.close_ticket(slot, proc) else {
            return;
        };
        if unused {
            match trigger {
                SpecTrigger::Fr => self.stats.fr_unused += 1,
                SpecTrigger::Swi => self.stats.swi_unused += 1,
            }
            self.vmsp.prune_reader_at(slot, ticket, proc);
        } else {
            self.stats.verified += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdsm_types::{BlockAddr, DirMsg, ReaderSet};

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

    fn trained_engine() -> (SpecEngine, Slot) {
        let machine = MachineConfig::paper_machine();
        let mut e = SpecEngine::new(SpecPolicy::SwiFr, 1, &machine);
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
        e.note_sent(slot, ProcId(2), ticket, SpecTrigger::Fr);
        assert_eq!(e.stats.fr_sent, 1);

        e.note_invalidated(slot, ProcId(2), true);
        assert_eq!(e.stats.fr_unused, 1);
        let (readers, _) = e.vmsp.predicted_readers_at(slot).unwrap();
        assert_eq!(readers, ReaderSet::single(ProcId(1)), "P2 pruned");
    }

    #[test]
    fn verification_confirms_on_used() {
        let (mut e, slot) = trained_engine();
        let (_, ticket) = e.vmsp.predicted_readers_at(slot).unwrap();
        e.note_sent(slot, ProcId(1), ticket, SpecTrigger::Swi);
        e.note_invalidated(slot, ProcId(1), false);
        assert_eq!(e.stats.verified, 1);
        assert_eq!(e.stats.swi_unused, 0);
        // Ticket consumed: a second invalidation is a no-op.
        e.note_invalidated(slot, ProcId(1), true);
        assert_eq!(e.stats.swi_unused, 0);
    }

    #[test]
    fn invalidation_without_ticket_is_ignored() {
        let (mut e, slot) = trained_engine();
        e.note_invalidated(slot, ProcId(9), true);
        assert_eq!(e.stats, SpecStats::default());
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
