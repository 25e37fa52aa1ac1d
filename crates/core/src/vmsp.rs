//! VMSP: the Vector Memory Sharing Predictor.
//!
//! # Storage layout
//!
//! The online VMSP sits on the coherence fast path: every directory
//! request triggers an observe, and every demand read may consult
//! [`Vmsp::predicted_readers_at`]. Per-block state therefore lives in a
//! [`HomeTable`], the same dense per-home table the protocol's
//! directory uses, so one [`Slot`] computed per message reaches both
//! records by direct indexing.
//!
//! A record is the paper's per-block state (§3.1, §4.2), the
//! [`BlockRecord`] every predictor shares. Which speculative copies are
//! outstanding, and under which [`SpecTicket`], is the protocol's
//! verification bookkeeping, not the predictor's.

use specdsm_types::{BlockAddr, DirMsg, HomeGeometry, HomeTable, ProcId, ReaderSet, Slot};

use crate::intern::ReaderSetInterner;
use crate::predictor::PredictorKind;
use crate::stats::{Observation, PredictorStats};
use crate::storage::{StorageModel, StorageReport};
use crate::symbol::{HistoryKey, Symbol};
use crate::twolevel::{BlockRecord, StorageFold};

/// The Vector MSP (paper §3.1): read sequences become bit-vectors.
///
/// Because a full-map protocol lets many processors cache a read-only
/// copy simultaneously, a predictor only needs to identify *who* reads —
/// not in what order. VMSP therefore accumulates consecutive read
/// requests into a [`ReaderSet`] and commits the vector as a single
/// history/pattern symbol when the next write or upgrade closes the read
/// phase. This removes read re-ordering perturbation entirely and
/// shrinks the pattern tables, at the price of a wider (n-bit) vector
/// encoding and a slightly slower learning speed.
///
/// VMSP is also the predictor driving the speculative DSM (paper §7.4):
/// [`Vmsp::predicted_readers_at`] answers "who will read next" for the
/// FR and SWI triggers, [`Vmsp::speculate_readers_at`] keeps the open
/// vector consistent when the directory forwards copies speculatively,
/// and [`Vmsp::prune_reader_at`] applies the piggy-backed verification
/// feedback. Every speculation query takes a [`Slot`], computed once
/// per message with [`Vmsp::slot_of`] or [`HomeGeometry::slot`].
///
/// This is the online predictor; [`PredictorKind::build`] makes the
/// per-message reference of all three designs, VMSP included.
///
/// # Example
///
/// ```
/// use specdsm_core::Vmsp;
/// use specdsm_types::{BlockAddr, DirMsg, HomeGeometry, MachineConfig, ProcId, ReaderSet};
///
/// let machine = MachineConfig::paper_machine();
/// let mut vmsp = Vmsp::with_geometry(1, HomeGeometry::of_machine(&machine));
/// let slot = vmsp.slot_of(BlockAddr(0x100));
/// for i in 0..50 {
///     // Readers arrive in a different order every iteration: VMSP
///     // does not care.
///     let (r1, r2) = if i % 2 == 0 { (1, 2) } else { (2, 1) };
///     vmsp.observe_at(slot, DirMsg::upgrade(ProcId(3)));
///     vmsp.observe_at(slot, DirMsg::read(ProcId(r1)));
///     vmsp.observe_at(slot, DirMsg::read(ProcId(r2)));
/// }
/// assert!(vmsp.stats().accuracy() > 0.9);
///
/// // After the upgrade, the predicted readers are {P1, P2}.
/// vmsp.observe_at(slot, DirMsg::upgrade(ProcId(3)));
/// let (readers, _ticket) = vmsp.predicted_readers_at(slot).unwrap();
/// assert_eq!(readers, ReaderSet::from_iter([ProcId(1), ProcId(2)]));
/// ```
#[derive(Debug, Clone)]
pub struct Vmsp {
    depth: usize,
    num_procs: usize,
    blocks: HomeTable<BlockRecord>,
    /// Hash-cons arena for the spilled (>64-processor) read vectors
    /// this predictor retains in its pattern tables. Owned per
    /// predictor instance, so clones stay self-contained and `Send`.
    sets: ReaderSetInterner,
    stats: PredictorStats,
}

/// Handle identifying the pattern-table context in which a speculation
/// was triggered, so verification feedback can find the entry later.
///
/// The carried [`HistoryKey`] is the pattern table's index, so feedback
/// consumption ([`Vmsp::prune_reader_at`],
/// [`Vmsp::mark_swi_premature_at`]) is a direct O(1) lookup — the
/// ticket *is* the reverse index into the table.
///
/// Returned by [`Vmsp::predicted_readers_at`] / [`Vmsp::swi_ticket_at`];
/// consumed by [`Vmsp::prune_reader_at`] /
/// [`Vmsp::mark_swi_premature_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpecTicket {
    key: HistoryKey,
}

impl SpecTicket {
    /// The pattern-table key captured when speculation triggered.
    #[must_use]
    pub fn key(self) -> HistoryKey {
        self.key
    }

    /// Builds a ticket from a raw pattern-table key. Intended for
    /// reference models (such as the map-addressed model the property
    /// tests compare against) that capture history contexts outside
    /// [`Vmsp`]; the protocol itself only consumes tickets minted by
    /// the predictor it queries.
    #[must_use]
    pub fn from_key(key: HistoryKey) -> Self {
        SpecTicket { key }
    }
}

impl Vmsp {
    /// Creates a VMSP with history depth `depth` whose table follows the
    /// home layout `geom`, for a machine with one processor per node of
    /// `geom`: the protocol passes the machine's [`HomeGeometry`] so one
    /// [`Slot`] indexes both the directory and the predictor.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn with_geometry(depth: usize, geom: HomeGeometry) -> Self {
        Vmsp {
            depth,
            num_procs: geom.num_nodes(),
            blocks: HomeTable::new(geom, BlockRecord::new(depth)),
            sets: ReaderSetInterner::new(),
            stats: PredictorStats::default(),
        }
    }

    /// The slot of `block` in this predictor's table.
    #[must_use]
    pub fn slot_of(&self, block: BlockAddr) -> Slot {
        self.blocks.geometry().slot(block)
    }

    // ------------------------------------------------------------------
    // Slot-addressed hot path (used by the speculative protocol)
    // ------------------------------------------------------------------

    /// Observes one directory message for the block at `slot` and
    /// reports what the predictor had predicted for it. Acks are
    /// ignored.
    pub fn observe_at(&mut self, slot: Slot, msg: DirMsg) -> Observation {
        let Some((kind, p)) = msg.request() else {
            return Observation::Ignored;
        };
        // Field-split borrow: the record lives in `blocks`, the read
        // vectors in `sets` — both are needed mutably in one pass.
        let Vmsp {
            blocks,
            sets,
            stats,
            ..
        } = self;
        let obs = blocks.get_mut(slot).observe_request(sets, kind, p);
        stats.record(obs);
        obs
    }

    /// The predicted read vector for the current history of the block
    /// at `slot`, with a ticket for later verification pruning. `None`
    /// when the history is cold (including a slot the predictor never
    /// observed) or the predicted successor is not a read vector.
    #[must_use]
    pub fn predicted_readers_at(&self, slot: Slot) -> Option<(ReaderSet, SpecTicket)> {
        let b = self.blocks.get(slot);
        if !b.history.is_full() {
            return None;
        }
        match b.table.peek(&b.history)?.prediction {
            // The speculation engine fans the prediction out to the
            // network, so this is a genuinely transient copy — the
            // persistent state keeps only the interned id.
            Symbol::ReadVec(v) => Some((
                self.sets.resolve(v),
                SpecTicket {
                    key: b.history.key(),
                },
            )),
            _ => None,
        }
    }

    /// Registers processors that were sent read-only copies of the
    /// block at `slot` speculatively. They join the open read vector so
    /// the committed pattern stays consistent with the directory's
    /// sharer state even though their read requests never reach the
    /// directory.
    pub fn speculate_readers_at(&mut self, slot: Slot, readers: ReaderSet) {
        self.blocks.get_mut(slot).open |= readers;
    }

    /// Verification failure: `reader` never referenced the copy of the
    /// block at `slot` sent under `ticket`. Removes the reader from that
    /// entry's vector prediction ("removes mispredicted request
    /// sequences", §4.2). Returns `true` if an entry changed.
    pub fn prune_reader_at(&mut self, slot: Slot, ticket: SpecTicket, reader: ProcId) -> bool {
        // Field-split borrow: the pruned vector re-interns through
        // `sets` while the entry is borrowed from `blocks`.
        let Vmsp { blocks, sets, .. } = self;
        blocks
            .get_mut(slot)
            .table
            .prune_reader(sets, ticket.key, reader)
    }

    /// Whether SWI may speculatively invalidate the writable copy of the
    /// block at `slot` in its current history context (i.e. no previous
    /// premature invalidation was recorded for this pattern).
    ///
    /// Reads the suppression bit stored in the pattern entry itself
    /// (paper §4.2: "a bit per write in the corresponding pattern
    /// table entry") through the O(1) keyed lookup.
    #[must_use]
    pub fn swi_allowed_at(&self, slot: Slot) -> bool {
        let b = self.blocks.get(slot);
        !b.table.swi_suppressed_key(b.history.key())
    }

    /// Ticket capturing the current history context of the block at
    /// `slot`, taken when SWI triggers so a later premature detection
    /// can suppress exactly this pattern. `None` while the slot's record
    /// is still pristine (a block the predictor never observed has no
    /// history context to capture — exactly the blocks a sparse map
    /// would not contain).
    #[must_use]
    pub fn swi_ticket_at(&self, slot: Slot) -> Option<SpecTicket> {
        let b = self.blocks.get(slot);
        b.is_active().then(|| SpecTicket {
            key: b.history.key(),
        })
    }

    /// Records that the SWI invalidation of the block at `slot` taken
    /// under `ticket` was premature (the producer re-accessed the
    /// block), suppressing future SWI for this pattern. A no-op if the
    /// pattern entry has since been evicted (its suppression state went
    /// with it).
    pub fn mark_swi_premature_at(&mut self, slot: Slot, ticket: SpecTicket) {
        self.blocks
            .get_mut(slot)
            .table
            .set_swi_premature(ticket.key);
    }

    /// Aggregate accuracy statistics so far.
    #[must_use]
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }

    /// Pattern-table storage accounting (paper Table 4), over the
    /// records of every block the predictor observed.
    #[must_use]
    pub fn storage(&self) -> StorageReport {
        let mut fold = StorageFold::default();
        for (_, record) in self.blocks.iter() {
            fold.add(record);
        }
        let model = StorageModel {
            kind: PredictorKind::Vmsp,
            depth: self.depth,
            num_procs: self.num_procs,
        };
        fold.report(model, &self.sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdsm_types::{MachineConfig, NodeId};

    /// A VMSP on the geometry of an `n`-node machine.
    fn vmsp_of(depth: usize, n: usize) -> Vmsp {
        Vmsp::with_geometry(
            depth,
            HomeGeometry::of_machine(&MachineConfig::with_nodes(n)),
        )
    }

    fn observe(vmsp: &mut Vmsp, b: BlockAddr, msg: DirMsg) -> Observation {
        let slot = vmsp.slot_of(b);
        vmsp.observe_at(slot, msg)
    }

    fn producer_consumer(vmsp: &mut Vmsp, b: BlockAddr, iters: usize, reorder: bool) {
        for i in 0..iters {
            let (r1, r2) = if reorder && i % 2 == 1 {
                (2, 1)
            } else {
                (1, 2)
            };
            observe(vmsp, b, DirMsg::upgrade(ProcId(3)));
            observe(vmsp, b, DirMsg::read(ProcId(r1)));
            observe(vmsp, b, DirMsg::read(ProcId(r2)));
        }
    }

    #[test]
    fn immune_to_read_reordering() {
        let b = BlockAddr(1);
        let mut vmsp = vmsp_of(1, 16);
        producer_consumer(&mut vmsp, b, 100, true);
        assert!(
            vmsp.stats().accuracy() > 0.95,
            "VMSP ignores read order: {}",
            vmsp.stats()
        );
    }

    #[test]
    fn beats_msp_under_read_reordering_at_depth_one() {
        let b = BlockAddr(1);
        let mut vmsp = vmsp_of(1, 16);
        let mut msp = PredictorKind::Msp.build(1, 16);
        for i in 0..100 {
            let (r1, r2) = if i % 2 == 1 { (2, 1) } else { (1, 2) };
            for m in [
                DirMsg::upgrade(ProcId(3)),
                DirMsg::read(ProcId(r1)),
                DirMsg::read(ProcId(r2)),
            ] {
                observe(&mut vmsp, b, m);
                msp.observe(b, m);
            }
        }
        assert!(vmsp.stats().accuracy() > msp.stats().accuracy() + 0.3);
    }

    /// Figure 4: VMSP captures the 3-processor producer/consumer pattern
    /// in two pattern entries where MSP needs three.
    #[test]
    fn two_entries_for_figure_4_pattern() {
        let b = BlockAddr(0x100);
        let mut vmsp = vmsp_of(1, 16);
        producer_consumer(&mut vmsp, b, 10, false);
        // Close the last read phase so the final vector commits.
        observe(&mut vmsp, b, DirMsg::upgrade(ProcId(3)));
        assert_eq!(vmsp.storage().entries, 2);
    }

    #[test]
    fn acks_ignored() {
        let mut vmsp = vmsp_of(1, 16);
        assert_eq!(
            observe(&mut vmsp, BlockAddr(1), DirMsg::ack_inv(ProcId(1))),
            Observation::Ignored
        );
        assert_eq!(vmsp.stats().seen, 0);
    }

    #[test]
    fn predicted_readers_after_write() {
        let b = BlockAddr(1);
        let mut vmsp = vmsp_of(1, 16);
        producer_consumer(&mut vmsp, b, 5, false);
        observe(&mut vmsp, b, DirMsg::upgrade(ProcId(3)));
        let slot = vmsp.slot_of(b);
        let (readers, _) = vmsp.predicted_readers_at(slot).expect("pattern learned");
        assert_eq!(readers, ReaderSet::from_iter([ProcId(1), ProcId(2)]));
    }

    #[test]
    fn predicted_readers_cold_block_is_none() {
        let mut vmsp = vmsp_of(1, 16);
        let slot = vmsp.slot_of(BlockAddr(7));
        assert!(vmsp.predicted_readers_at(slot).is_none());
        // One write: history warm but no pattern yet.
        vmsp.observe_at(slot, DirMsg::write(ProcId(0)));
        assert!(vmsp.predicted_readers_at(slot).is_none());
    }

    #[test]
    fn prune_reader_removes_from_prediction() {
        let b = BlockAddr(1);
        let mut vmsp = vmsp_of(1, 16);
        producer_consumer(&mut vmsp, b, 5, false);
        observe(&mut vmsp, b, DirMsg::upgrade(ProcId(3)));
        let slot = vmsp.slot_of(b);
        let (readers, ticket) = vmsp.predicted_readers_at(slot).unwrap();
        assert!(readers.contains(ProcId(2)));
        assert!(vmsp.prune_reader_at(slot, ticket, ProcId(2)));
        let (readers, _) = vmsp.predicted_readers_at(slot).unwrap();
        assert_eq!(readers, ReaderSet::single(ProcId(1)));
    }

    #[test]
    fn speculate_readers_fold_into_next_vector() {
        let b = BlockAddr(1);
        let mut vmsp = vmsp_of(1, 16);
        producer_consumer(&mut vmsp, b, 5, false);
        observe(&mut vmsp, b, DirMsg::upgrade(ProcId(3)));
        // The directory forwards copies to P1 and P2 speculatively; their
        // reads never arrive. The next write must still commit the full
        // vector.
        let slot = vmsp.slot_of(b);
        vmsp.speculate_readers_at(slot, ReaderSet::from_iter([ProcId(1), ProcId(2)]));
        vmsp.observe_at(slot, DirMsg::upgrade(ProcId(3)));
        let (readers, _) = vmsp.predicted_readers_at(slot).unwrap();
        assert_eq!(readers, ReaderSet::from_iter([ProcId(1), ProcId(2)]));
    }

    #[test]
    fn swi_premature_suppression() {
        let b = BlockAddr(1);
        let mut vmsp = vmsp_of(1, 16);
        producer_consumer(&mut vmsp, b, 5, false);
        observe(&mut vmsp, b, DirMsg::upgrade(ProcId(3)));
        let slot = vmsp.slot_of(b);
        assert!(vmsp.swi_allowed_at(slot));
        let ticket = vmsp.swi_ticket_at(slot).unwrap();
        vmsp.mark_swi_premature_at(slot, ticket);
        assert!(!vmsp.swi_allowed_at(slot), "same context now suppressed");
        // A different history context is unaffected.
        vmsp.observe_at(slot, DirMsg::read(ProcId(1)));
        vmsp.observe_at(slot, DirMsg::upgrade(ProcId(3)));
        // History is <Upgrade,P3> again -> suppressed again.
        assert!(!vmsp.swi_allowed_at(slot));
    }

    #[test]
    fn swi_allowed_for_unknown_block() {
        let vmsp = vmsp_of(1, 16);
        let slot = vmsp.slot_of(BlockAddr(99));
        assert!(vmsp.swi_allowed_at(slot));
        assert!(vmsp.swi_ticket_at(slot).is_none());
    }

    #[test]
    fn learning_slower_than_msp_but_more_correct_total() {
        // Table 3's observation: VMSP predicts slightly fewer messages
        // (a whole vector must be seen once) but correctly predicts more
        // when reads re-order.
        let b = BlockAddr(1);
        let mut vmsp = vmsp_of(1, 16);
        let mut msp = PredictorKind::Msp.build(1, 16);
        for i in 0..60 {
            let order: [usize; 3] = match i % 3 {
                0 => [1, 2, 4],
                1 => [2, 4, 1],
                _ => [4, 1, 2],
            };
            let mut msgs = vec![DirMsg::upgrade(ProcId(3))];
            msgs.extend(order.iter().map(|&r| DirMsg::read(ProcId(r))));
            for m in msgs {
                observe(&mut vmsp, b, m);
                msp.observe(b, m);
            }
        }
        let (v, m) = (vmsp.stats(), msp.stats());
        assert!(
            v.correct_fraction() > m.correct_fraction(),
            "VMSP correct fraction {} vs MSP {}",
            v.correct_fraction(),
            m.correct_fraction()
        );
    }

    #[test]
    #[should_panic(expected = "history depth")]
    fn zero_depth_panics() {
        let _ = vmsp_of(0, 16);
    }

    #[test]
    fn wide_machine_storage_charges_spill_bytes() {
        // On a >64-proc machine the spilled reader-set heap words are
        // charged on top of the fixed-size records.
        let mut vmsp = vmsp_of(1, 256);
        let readers = [1usize, 70, 130, 200, 255];
        for bi in 0..8u64 {
            let b = BlockAddr(bi);
            for _ in 0..4 {
                observe(&mut vmsp, b, DirMsg::upgrade(ProcId(3)));
                for r in readers {
                    observe(&mut vmsp, b, DirMsg::read(ProcId(r)));
                }
            }
            // Close the final read phase so the last vector commits.
            observe(&mut vmsp, b, DirMsg::upgrade(ProcId(3)));
        }
        let rep = vmsp.storage();
        assert!(rep.spill_bytes > 0, "wide vectors must be charged");
        // Every block re-learns the same wide pattern, so the arena
        // holds one canonical copy serving many retained references
        // (and every open vector is closed and empty).
        let pattern = ReaderSet::from_iter(readers.map(ProcId));
        let one_copy = std::mem::size_of::<ReaderSet>() + pattern.heap_bytes();
        assert_eq!(rep.spill_bytes, one_copy as u64);
    }

    #[test]
    fn storage_counts_arena_slots_and_active_blocks() {
        let m = MachineConfig::paper_machine();
        let mut vmsp = Vmsp::with_geometry(1, HomeGeometry::of_machine(&m));
        // Touch slot 9 of home 2's table: the dense span 0..=9 is
        // committed but only one block is active.
        let b = m.page_on(NodeId(2), 0).offset(9);
        observe(&mut vmsp, b, DirMsg::write(ProcId(0)));
        let rep = vmsp.storage();
        assert_eq!(rep.blocks, 1);
    }
}
