//! The map-addressed reference model of the speculation store, and the
//! small operation trait the property tests drive it and the
//! table-backed [`Vmsp`] through.
//!
//! Before the dense-table rework, the online VMSP kept per-block state
//! in a `FxHashMap<BlockAddr, _>`. [`MapModel`] keeps that storage
//! design: one hash probe per touch, no slots, no aliasing. Replaying
//! the same operations through both stores and demanding identical
//! results checks the table's slot addressing, derived block activity
//! and stale-ticket handling against the obvious implementation.

use specdsm::core::{
    FxHashMap, History, Observation, PatternTable, PredictorStats, ReaderSetInterner, SpecTicket,
    Symbol, Vmsp,
};
use specdsm::types::{
    BlockAddr, DirMsg, HomeGeometry, MachineConfig, NodeId, ProcId, ReaderSet, ReqKind, Slot,
};

/// The speculation-store operations the property tests replay. Every
/// method takes both the `slot` and the `block` address: the table
/// uses the former, the map model the latter.
pub trait SpecOps {
    /// Builds the store for a machine (history `depth`, one processor
    /// per node).
    fn build(depth: usize, machine: &MachineConfig) -> Self;
    /// The slot of `block`.
    fn resolve(&self, block: BlockAddr) -> Slot;
    /// Feeds one directory request into the predictor.
    fn observe(&mut self, slot: Slot, block: BlockAddr, msg: DirMsg) -> Observation;
    /// The predicted read vector for the current history context.
    fn predicted_readers(&self, slot: Slot, block: BlockAddr) -> Option<(ReaderSet, SpecTicket)>;
    /// Removes `reader` from the entry `ticket` points at; whether an
    /// entry changed.
    fn prune_reader(
        &mut self,
        slot: Slot,
        block: BlockAddr,
        ticket: SpecTicket,
        reader: ProcId,
    ) -> bool;
    /// Whether SWI is allowed in the current history context.
    fn swi_allowed(&self, slot: Slot, block: BlockAddr) -> bool;
    /// Ticket capturing the current history context.
    fn swi_ticket(&self, slot: Slot, block: BlockAddr) -> Option<SpecTicket>;
    /// Suppresses SWI for the pattern `ticket` points at.
    fn mark_swi_premature(&mut self, slot: Slot, block: BlockAddr, ticket: SpecTicket);
    /// Aggregate predictor accuracy statistics.
    fn predictor_stats(&self) -> PredictorStats;
    /// Pattern-table entries over all blocks.
    fn entries(&self) -> u64;
    /// Blocks with predictor state.
    fn blocks(&self) -> u64;
}

impl SpecOps for Vmsp {
    fn build(depth: usize, machine: &MachineConfig) -> Self {
        Vmsp::with_geometry(depth, HomeGeometry::of_machine(machine))
    }

    fn resolve(&self, block: BlockAddr) -> Slot {
        self.slot_of(block)
    }

    fn observe(&mut self, slot: Slot, _block: BlockAddr, msg: DirMsg) -> Observation {
        self.observe_at(slot, msg)
    }

    fn predicted_readers(&self, slot: Slot, _block: BlockAddr) -> Option<(ReaderSet, SpecTicket)> {
        self.predicted_readers_at(slot)
    }

    fn prune_reader(
        &mut self,
        slot: Slot,
        _block: BlockAddr,
        ticket: SpecTicket,
        reader: ProcId,
    ) -> bool {
        self.prune_reader_at(slot, ticket, reader)
    }

    fn swi_allowed(&self, slot: Slot, _block: BlockAddr) -> bool {
        self.swi_allowed_at(slot)
    }

    fn swi_ticket(&self, slot: Slot, _block: BlockAddr) -> Option<SpecTicket> {
        self.swi_ticket_at(slot)
    }

    fn mark_swi_premature(&mut self, slot: Slot, _block: BlockAddr, ticket: SpecTicket) {
        self.mark_swi_premature_at(slot, ticket);
    }

    fn predictor_stats(&self) -> PredictorStats {
        self.stats()
    }

    fn entries(&self) -> u64 {
        self.storage().entries
    }

    fn blocks(&self) -> u64 {
        self.storage().blocks
    }
}

/// Map-addressed speculation store: the pre-table `HashMap` layout.
/// Slots are ignored ([`SpecOps::resolve`] hands out a fixed one);
/// every access keys the maps by block address.
#[derive(Debug, Clone)]
pub struct MapModel {
    depth: usize,
    blocks: FxHashMap<BlockAddr, RefBlock>,
    /// Hash-cons arena for spilled (>64-processor) read vectors, owned
    /// by the model so its `SetId`s follow their own insertion order.
    sets: ReaderSetInterner,
    stats: PredictorStats,
}

#[derive(Debug, Clone)]
struct RefBlock {
    history: History,
    table: PatternTable,
    /// The read vector currently being accumulated (open read phase).
    open: ReaderSet,
}

impl MapModel {
    /// Commits a symbol: last-occurrence learn + history shift.
    fn commit(b: &mut RefBlock, sym: Symbol) {
        if b.history.is_full() {
            b.table.learn(&b.history, sym);
        }
        b.history.push(sym);
    }
}

impl SpecOps for MapModel {
    fn build(depth: usize, _machine: &MachineConfig) -> Self {
        assert!(depth > 0, "history depth must be at least 1");
        MapModel {
            depth,
            blocks: FxHashMap::default(),
            sets: ReaderSetInterner::new(),
            stats: PredictorStats::default(),
        }
    }

    fn resolve(&self, _block: BlockAddr) -> Slot {
        // Map addressing has no slots: every block keys its own entry.
        Slot {
            home: NodeId(0),
            idx: 0,
        }
    }

    fn observe(&mut self, _slot: Slot, block: BlockAddr, msg: DirMsg) -> Observation {
        let Some((kind, p)) = msg.request() else {
            return Observation::Ignored;
        };
        let depth = self.depth;
        let MapModel {
            blocks,
            sets,
            stats,
            ..
        } = self;
        let b = blocks.entry(block).or_insert_with(|| RefBlock {
            history: History::new(depth),
            table: PatternTable::new(),
            open: ReaderSet::new(),
        });
        let obs = match kind {
            ReqKind::Read => {
                let obs = if b.history.is_full() {
                    match b.table.predict(&b.history) {
                        Some(Symbol::ReadVec(v)) => Observation::Predicted {
                            correct: sets.contains(v, p),
                        },
                        Some(_) => Observation::Predicted { correct: false },
                        None => Observation::NoPrediction,
                    }
                } else {
                    Observation::NoPrediction
                };
                b.open.insert(p);
                obs
            }
            ReqKind::Write | ReqKind::Upgrade => {
                if !b.open.is_empty() {
                    let vec = Symbol::ReadVec(sets.intern(std::mem::take(&mut b.open)));
                    Self::commit(b, vec);
                }
                let sym = Symbol::Req(kind, p);
                let obs = if b.history.is_full() {
                    match b.table.predict_and_learn(&b.history, &sym) {
                        Some(pred) => Observation::Predicted {
                            correct: pred == sym,
                        },
                        None => Observation::NoPrediction,
                    }
                } else {
                    Observation::NoPrediction
                };
                b.history.push(sym);
                obs
            }
        };
        stats.record(obs);
        obs
    }

    fn predicted_readers(&self, _slot: Slot, block: BlockAddr) -> Option<(ReaderSet, SpecTicket)> {
        let b = self.blocks.get(&block)?;
        if !b.history.is_full() {
            return None;
        }
        match b.table.peek(&b.history)?.prediction {
            Symbol::ReadVec(v) => {
                Some((self.sets.resolve(v), SpecTicket::from_key(b.history.key())))
            }
            _ => None,
        }
    }

    fn prune_reader(
        &mut self,
        _slot: Slot,
        block: BlockAddr,
        ticket: SpecTicket,
        reader: ProcId,
    ) -> bool {
        let MapModel { blocks, sets, .. } = self;
        match blocks.get_mut(&block) {
            Some(b) => b.table.prune_reader(sets, ticket.key(), reader),
            None => false,
        }
    }

    fn swi_allowed(&self, _slot: Slot, block: BlockAddr) -> bool {
        match self.blocks.get(&block) {
            Some(b) => !b.table.swi_suppressed_key(b.history.key()),
            None => true,
        }
    }

    fn swi_ticket(&self, _slot: Slot, block: BlockAddr) -> Option<SpecTicket> {
        self.blocks
            .get(&block)
            .map(|b| SpecTicket::from_key(b.history.key()))
    }

    fn mark_swi_premature(&mut self, _slot: Slot, block: BlockAddr, ticket: SpecTicket) {
        // Feedback only ever marks an existing entry, so it creates no
        // block.
        if let Some(b) = self.blocks.get_mut(&block) {
            b.table.set_swi_premature(ticket.key());
        }
    }

    fn predictor_stats(&self) -> PredictorStats {
        self.stats
    }

    fn entries(&self) -> u64 {
        self.blocks.values().map(|b| b.table.len() as u64).sum()
    }

    fn blocks(&self) -> u64 {
        self.blocks.len() as u64
    }
}
