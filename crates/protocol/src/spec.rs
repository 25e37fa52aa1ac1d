//! Speculation policies, bookkeeping, and statistics.

use std::fmt;

use specdsm_core::{
    Observation, PredictorStats, SpecTicket, SpecTrigger, StorageReport, SwiTable, VSlot, Vmsp,
};
use specdsm_types::{BlockAddr, DirMsg, HomeGeometry, MachineConfig, NodeId, ProcId, ReaderSet};

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

/// Directory-side speculation state: the online predictor plus the
/// open-ticket bookkeeping for verification attribution.
///
/// The production implementation is the arena-backed [`Vmsp`], which
/// resolves each block to a dense [`VSlot`] once per message and makes
/// every subsequent access — observe, `predicted_readers`, ticket
/// open/close — a direct index. The retained map-based reference
/// implementation ([`MapSpecStore`](crate::MapSpecStore)) implements
/// the same trait with the pre-arena `HashMap` storage so differential
/// tests can replay entire workloads against both and demand
/// bit-identical results.
///
/// All methods take both the resolved `slot` and the `block` address:
/// slot-addressed backends use the former, map-addressed backends the
/// latter. [`SpecStore::resolve`] is the only place a backend may
/// grow state for an unseen block.
///
/// Stores are `Send + Sync` (they are plain owned data) so the sharded
/// engine can move each home's store onto a worker thread.
pub trait SpecStore: Send + Sync {
    /// Builds the store for a machine (history `depth`, one processor
    /// per node, the machine's home geometry).
    fn build(depth: usize, machine: &MachineConfig) -> Self;

    /// Resolves `block`, known to be routed to `home`, to a slot
    /// handle. Returns `None` for a block actually homed elsewhere —
    /// the directory-style foreign-block guard: a misrouted query must
    /// report no state rather than alias onto one of `home`'s slots.
    fn resolve(&mut self, home: NodeId, block: BlockAddr) -> Option<VSlot>;

    /// Feeds one directory request into the predictor.
    fn observe(&mut self, slot: VSlot, block: BlockAddr, msg: DirMsg) -> Observation;

    /// The predicted read vector for the block's current history
    /// context, with a verification ticket.
    fn predicted_readers(&self, slot: VSlot, block: BlockAddr) -> Option<(ReaderSet, SpecTicket)>;

    /// Folds speculatively served readers into the open read vector.
    fn speculate_readers(&mut self, slot: VSlot, block: BlockAddr, readers: ReaderSet);

    /// Verification failure: removes `reader` from the entry `ticket`
    /// points at. Returns whether an entry changed.
    fn prune_reader(
        &mut self,
        slot: VSlot,
        block: BlockAddr,
        ticket: SpecTicket,
        reader: ProcId,
    ) -> bool;

    /// Whether SWI is allowed in the block's current history context.
    fn swi_allowed(&self, slot: VSlot, block: BlockAddr) -> bool;

    /// Ticket capturing the block's current history context.
    fn swi_ticket(&self, slot: VSlot, block: BlockAddr) -> Option<SpecTicket>;

    /// Suppresses SWI for the pattern `ticket` points at.
    fn mark_swi_premature(&mut self, slot: VSlot, block: BlockAddr, ticket: SpecTicket);

    /// Records an outstanding speculative copy sent to `proc`
    /// (overwriting any previous open ticket for `(block, proc)`).
    fn open_ticket(
        &mut self,
        slot: VSlot,
        block: BlockAddr,
        proc: ProcId,
        ticket: SpecTicket,
        trigger: SpecTrigger,
    );

    /// Consumes the open ticket for `(block, proc)`, if any.
    fn close_ticket(
        &mut self,
        slot: VSlot,
        block: BlockAddr,
        proc: ProcId,
    ) -> Option<(SpecTicket, SpecTrigger)>;

    /// Aggregate predictor accuracy statistics.
    fn predictor_stats(&self) -> PredictorStats;

    /// Predictor storage accounting.
    fn storage(&self) -> StorageReport;
}

impl SpecStore for Vmsp {
    fn build(depth: usize, machine: &MachineConfig) -> Self {
        Vmsp::with_geometry(depth, machine.num_nodes, HomeGeometry::of_machine(machine))
    }

    fn resolve(&mut self, home: NodeId, block: BlockAddr) -> Option<VSlot> {
        self.resolve_at_home(home, block)
    }

    fn observe(&mut self, slot: VSlot, _block: BlockAddr, msg: DirMsg) -> Observation {
        self.observe_at(slot, msg)
    }

    fn predicted_readers(&self, slot: VSlot, _block: BlockAddr) -> Option<(ReaderSet, SpecTicket)> {
        self.predicted_readers_at(slot)
    }

    fn speculate_readers(&mut self, slot: VSlot, _block: BlockAddr, readers: ReaderSet) {
        self.speculate_readers_at(slot, readers);
    }

    fn prune_reader(
        &mut self,
        slot: VSlot,
        _block: BlockAddr,
        ticket: SpecTicket,
        reader: ProcId,
    ) -> bool {
        self.prune_reader_at(slot, ticket, reader)
    }

    fn swi_allowed(&self, slot: VSlot, _block: BlockAddr) -> bool {
        self.swi_allowed_at(slot)
    }

    fn swi_ticket(&self, slot: VSlot, _block: BlockAddr) -> Option<SpecTicket> {
        self.swi_ticket_at(slot)
    }

    fn mark_swi_premature(&mut self, slot: VSlot, _block: BlockAddr, ticket: SpecTicket) {
        self.mark_swi_premature_at(slot, ticket);
    }

    fn open_ticket(
        &mut self,
        slot: VSlot,
        _block: BlockAddr,
        proc: ProcId,
        ticket: SpecTicket,
        trigger: SpecTrigger,
    ) {
        Vmsp::open_ticket(self, slot, proc, ticket, trigger);
    }

    fn close_ticket(
        &mut self,
        slot: VSlot,
        _block: BlockAddr,
        proc: ProcId,
    ) -> Option<(SpecTicket, SpecTrigger)> {
        Vmsp::close_ticket(self, slot, proc)
    }

    fn predictor_stats(&self) -> PredictorStats {
        specdsm_core::SharingPredictor::stats(self)
    }

    fn storage(&self) -> StorageReport {
        specdsm_core::SharingPredictor::storage(self)
    }
}

/// Directory-side speculation engine: the online predictor store, the
/// per-home SWI tables, and the speculation activity counters.
#[derive(Debug, Clone)]
pub(crate) struct SpecEngine<V: SpecStore> {
    pub policy: SpecPolicy,
    pub vmsp: V,
    pub swi_tables: Vec<SwiTable>,
    pub stats: SpecStats,
}

impl<V: SpecStore> SpecEngine<V> {
    pub(crate) fn new(policy: SpecPolicy, depth: usize, machine: &MachineConfig) -> Self {
        SpecEngine {
            policy,
            vmsp: V::build(depth, machine),
            swi_tables: (0..machine.num_nodes).map(|_| SwiTable::new()).collect(),
            stats: SpecStats::default(),
        }
    }

    /// Records that a speculative copy was sent to `proc`.
    pub(crate) fn note_sent(
        &mut self,
        slot: VSlot,
        block: BlockAddr,
        proc: ProcId,
        ticket: SpecTicket,
        trigger: SpecTrigger,
    ) {
        match trigger {
            SpecTrigger::Fr => self.stats.fr_sent += 1,
            SpecTrigger::Swi => self.stats.swi_sent += 1,
        }
        self.vmsp.open_ticket(slot, block, proc, ticket, trigger);
    }

    /// Applies the piggy-backed reference bit when `proc`'s copy of
    /// `block` is invalidated. `unused == true` marks a misspeculation:
    /// the predictor entry is pruned and the miss attributed to its
    /// trigger.
    pub(crate) fn note_invalidated(
        &mut self,
        slot: VSlot,
        block: BlockAddr,
        proc: ProcId,
        unused: bool,
    ) {
        let Some((ticket, trigger)) = self.vmsp.close_ticket(slot, block, proc) else {
            return;
        };
        if unused {
            match trigger {
                SpecTrigger::Fr => self.stats.fr_unused += 1,
                SpecTrigger::Swi => self.stats.swi_unused += 1,
            }
            self.vmsp.prune_reader(slot, block, ticket, proc);
        } else {
            self.stats.verified += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdsm_types::DirMsg;

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

    fn trained_engine() -> (SpecEngine<Vmsp>, BlockAddr, VSlot) {
        let machine = MachineConfig::paper_machine();
        let mut e: SpecEngine<Vmsp> = SpecEngine::new(SpecPolicy::SwiFr, 1, &machine);
        let b = BlockAddr(1);
        let home = machine.home_of(b);
        let slot = e.vmsp.resolve(home, b).expect("homed");
        for _ in 0..5 {
            e.vmsp.observe(slot, b, DirMsg::upgrade(ProcId(3)));
            e.vmsp.observe(slot, b, DirMsg::read(ProcId(1)));
            e.vmsp.observe(slot, b, DirMsg::read(ProcId(2)));
        }
        e.vmsp.observe(slot, b, DirMsg::upgrade(ProcId(3)));
        (e, b, slot)
    }

    #[test]
    fn verification_prunes_on_unused() {
        let (mut e, b, slot) = trained_engine();
        let (readers, ticket) = SpecStore::predicted_readers(&e.vmsp, slot, b).unwrap();
        assert!(readers.contains(ProcId(2)));
        e.note_sent(slot, b, ProcId(2), ticket, SpecTrigger::Fr);
        assert_eq!(e.stats.fr_sent, 1);

        e.note_invalidated(slot, b, ProcId(2), true);
        assert_eq!(e.stats.fr_unused, 1);
        let (readers, _) = SpecStore::predicted_readers(&e.vmsp, slot, b).unwrap();
        assert_eq!(readers, ReaderSet::single(ProcId(1)), "P2 pruned");
    }

    #[test]
    fn verification_confirms_on_used() {
        let (mut e, b, slot) = trained_engine();
        let (_, ticket) = SpecStore::predicted_readers(&e.vmsp, slot, b).unwrap();
        e.note_sent(slot, b, ProcId(1), ticket, SpecTrigger::Swi);
        e.note_invalidated(slot, b, ProcId(1), false);
        assert_eq!(e.stats.verified, 1);
        assert_eq!(e.stats.swi_unused, 0);
        // Ticket consumed: a second invalidation is a no-op.
        e.note_invalidated(slot, b, ProcId(1), true);
        assert_eq!(e.stats.swi_unused, 0);
    }

    #[test]
    fn invalidation_without_ticket_is_ignored() {
        let (mut e, b, slot) = trained_engine();
        e.note_invalidated(slot, b, ProcId(9), true);
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
