//! The full-map directory: one record per block in a dense per-home
//! [`HomeTable`].
//!
//! Homes are page-interleaved ([`MachineConfig::home_of`]), so a block
//! maps to its home and a small local index there arithmetically. The
//! protocol engine computes that [`Slot`] once per incoming message and
//! reaches the block's [`DirBlock`] by direct indexing for the rest of
//! the transaction; the online VMSP keeps its records in a table of the
//! same shape, so the same `Slot` reaches both. See
//! `docs/ARCHITECTURE.md` (repo root) for the design rationale.

use std::collections::VecDeque;

use specdsm_core::SpecTicket;
use specdsm_types::{
    BlockAddr, HomeGeometry, HomeTable, MachineConfig, ProcId, ReaderSet, ReqKind, Slot,
};

/// Stable sharing state of a block at its home directory (paper
/// Figure 1).
///
/// The sharer set is the block's own full-map bit vector, which the
/// protocol updates in place: machines up to 64 processors keep it in
/// one inline word, wider ones spill to a heap array owned by the
/// record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirState {
    /// No remote copies.
    Idle,
    /// One or more read-only copies.
    Shared(ReaderSet),
    /// A single writable copy.
    Exclusive(ProcId),
}

/// The one thing a busy block is waiting for (paper Figure 1). Requests
/// for the block queue behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Busy {
    /// The owner's writeback, after which memory sources what the
    /// recall was started for.
    Recall(AfterRecall),
    /// The sharers' invalidation acks, after which `requester` is
    /// granted write permission. `in_place` means the requester keeps
    /// its cached copy and gets an upgrade ack instead of data.
    Invalidate {
        requester: ProcId,
        in_place: bool,
        acks_left: u32,
    },
    /// The block's own reply (or speculative batch) still leaving the
    /// home. Later requests must not start: their invalidations would
    /// overtake the in-flight data on the same home→processor path.
    Reply,
}

/// What a recall serves once the owner's writeback has arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AfterRecall {
    /// A read that had to invalidate a writable copy.
    Read(ProcId),
    /// A write or upgrade that had to invalidate a writable copy.
    Write(ProcId),
    /// A speculative (SWI) invalidation of `owner`'s writable copy.
    Swi { owner: ProcId, ticket: SpecTicket },
}

/// Per-block directory record.
#[derive(Debug, Clone)]
pub(crate) struct DirBlock {
    pub state: DirState,
    /// Version of the data currently in memory (updated by writebacks).
    pub version: u64,
    /// In-flight transaction, if any; requests queue behind it.
    pub busy: Option<Busy>,
    pub pending: VecDeque<(ReqKind, ProcId)>,
    /// Set after a successful SWI invalidation: `(owner, ticket)`. If
    /// the next request for the block comes from the owner, the
    /// invalidation was premature.
    pub swi_pending: Option<(ProcId, SpecTicket)>,
    /// Whether the protocol ever took a mutable reference to this
    /// record. Table growth creates pristine neighbors eagerly; this
    /// flag keeps `iter` reporting only blocks with real directory
    /// activity, exactly as a sparse map would.
    pub touched: bool,
}

impl DirBlock {
    const fn new() -> Self {
        DirBlock {
            state: DirState::Idle,
            version: 0,
            busy: None,
            pending: VecDeque::new(),
            swi_pending: None,
            touched: false,
        }
    }

    /// The version a write grant hands out: the next one after memory's.
    /// A grant never overlaps an outstanding writable copy — the
    /// previous owner's writeback has already set `version` — so each
    /// grant is simply the next entry in the block's write order.
    pub fn grant_version(&self) -> u64 {
        self.version + 1
    }

    /// Current sharers (empty unless `Shared`).
    pub fn sharers(&self) -> &ReaderSet {
        static NONE: ReaderSet = ReaderSet::new();
        match &self.state {
            DirState::Shared(r) => r,
            _ => &NONE,
        }
    }
}

/// The directory records of every block, in one [`HomeTable`].
#[derive(Debug, Clone)]
pub(crate) struct Directory {
    blocks: HomeTable<DirBlock>,
}

impl Directory {
    /// An empty directory over `machine`'s home layout.
    pub(crate) fn new(machine: &MachineConfig) -> Self {
        Directory {
            blocks: HomeTable::new(HomeGeometry::of_machine(machine), DirBlock::new()),
        }
    }

    /// The slot of `block`.
    pub(crate) fn slot_of(&self, block: BlockAddr) -> Slot {
        self.blocks.geometry().slot(block)
    }

    /// The record at `slot` (the blank `Idle` record if never written).
    pub(crate) fn at(&self, slot: Slot) -> &DirBlock {
        self.blocks.get(slot)
    }

    /// The record at `slot`, marking it touched.
    pub(crate) fn at_mut(&mut self, slot: Slot) -> &mut DirBlock {
        let blk = self.blocks.get_mut(slot);
        blk.touched = true;
        blk
    }

    /// Sharing state of `block` (`Idle` if never touched).
    pub(crate) fn state(&self, block: BlockAddr) -> &DirState {
        &self.at(self.slot_of(block)).state
    }

    /// Every touched record with its block address, home by home and in
    /// increasing address order within a home.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (BlockAddr, &DirBlock)> + '_ {
        let geom = self.blocks.geometry();
        self.blocks
            .iter()
            .filter(|(_, b)| b.touched)
            .map(move |(slot, b)| (geom.block_at(slot), b))
    }

    /// Record for `block`, marking it touched (a single-shot accessor
    /// for tests; the engine computes a [`Slot`] once instead).
    #[cfg(test)]
    pub(crate) fn block_mut(&mut self, block: BlockAddr) -> &mut DirBlock {
        self.at_mut(self.slot_of(block))
    }

    /// Asserts the directory's internal invariants (used by tests and
    /// debug builds): an invalidation still awaits at least one ack, an
    /// idle block queues nothing, and `Shared` always has at least one
    /// sharer.
    pub(crate) fn check_invariants(&self) {
        for (addr, b) in self.iter() {
            if let Some(busy) = &b.busy {
                assert!(
                    !matches!(busy, Busy::Invalidate { acks_left: 0, .. }),
                    "{addr}: invalidation with no ack outstanding"
                );
            } else {
                assert!(
                    b.pending.is_empty(),
                    "{addr}: queued requests but no transaction"
                );
            }
            if let DirState::Shared(r) = &b.state {
                assert!(!r.is_empty(), "{addr}: Shared with empty sharer set");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdsm_types::NodeId;

    fn dir() -> Directory {
        Directory::new(&MachineConfig::paper_machine())
    }

    #[test]
    fn fresh_blocks_are_idle() {
        let d = dir();
        let b = d.at(d.slot_of(BlockAddr(1)));
        assert_eq!(b.state, DirState::Idle);
        assert_eq!(b.version, 0);
        assert!(b.busy.is_none());
        assert_eq!(d.iter().count(), 0);
    }

    #[test]
    fn grant_versions_follow_the_memory_version() {
        let mut d = dir();
        let b = d.block_mut(BlockAddr(1));
        let v1 = b.grant_version();
        assert_eq!(v1, 1, "versions start after the initial memory value 0");
        // The owner's writeback installs its version; the next grant
        // follows it.
        b.version = v1;
        let v2 = b.grant_version();
        assert_eq!(v2, 2);
    }

    #[test]
    fn sharers_accessor() {
        let mut d = dir();
        let b = d.block_mut(BlockAddr(1));
        assert!(b.sharers().is_empty());
        b.state = DirState::Shared(ReaderSet::single(ProcId(2)));
        assert!(b.sharers().contains(ProcId(2)));
        b.state = DirState::Exclusive(ProcId(1));
        assert!(b.sharers().is_empty());
    }

    #[test]
    fn invariants_pass_on_consistent_state() {
        let mut d = dir();
        let b = d.block_mut(BlockAddr(1));
        b.state = DirState::Shared(ReaderSet::single(ProcId(0)));
        d.check_invariants();
    }

    #[test]
    fn wide_sharer_set_updates_in_place() {
        // A 256-node machine spills every set with a processor ≥ P64.
        // The record's own vector grows and shrinks in place and stays
        // canonical, so it equals the same set built fresh.
        let m = MachineConfig::with_nodes(256);
        let mut d = Directory::new(&m);
        let b = d.block_mut(BlockAddr(1));
        b.state = DirState::Shared(ReaderSet::new());
        let DirState::Shared(readers) = &mut b.state else {
            unreachable!()
        };
        for p in [3, 200, 255] {
            assert!(readers.insert(ProcId(p)));
        }
        assert!(readers.remove(ProcId(200)));
        let want = ReaderSet::from_iter([ProcId(3), ProcId(255)]);
        assert_eq!(*d.state(BlockAddr(1)), DirState::Shared(want));
        d.check_invariants();
    }

    #[test]
    #[should_panic(expected = "empty sharer set")]
    fn invariants_catch_empty_shared() {
        let mut d = dir();
        d.block_mut(BlockAddr(1)).state = DirState::Shared(ReaderSet::new());
        d.check_invariants();
    }

    #[test]
    #[should_panic(expected = "no transaction")]
    fn invariants_catch_orphan_pending() {
        let mut d = dir();
        d.block_mut(BlockAddr(1))
            .pending
            .push_back((ReqKind::Read, ProcId(0)));
        d.check_invariants();
    }

    #[test]
    fn iter_reports_only_touched_blocks_in_order() {
        let m = MachineConfig::paper_machine();
        let mut d = Directory::new(&m);
        let hi = m.page_on(NodeId(1), 2).offset(7);
        let lo = m.page_on(NodeId(1), 0).offset(3);
        d.block_mut(hi).state = DirState::Exclusive(ProcId(4));
        d.block_mut(lo).version = 9;
        // Growth to `hi` created pristine neighbors; they must not leak.
        let got: Vec<_> = d.iter().collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, lo, "iteration is address-ordered");
        assert_eq!(got[1].0, hi);
        assert_eq!(got[0].1.version, 9);
        assert_eq!(got[1].1.state, DirState::Exclusive(ProcId(4)));
    }

    /// The pre-dense-table reference implementation: the exact
    /// `HashMap<BlockAddr, DirBlock>` storage the dense table replaced.
    /// Kept here so tests can replay identical operation sequences
    /// against both and diff the observable state.
    struct MapDirectory {
        blocks: std::collections::HashMap<BlockAddr, DirBlock>,
    }

    impl MapDirectory {
        fn new() -> Self {
            MapDirectory {
                blocks: std::collections::HashMap::new(),
            }
        }
        fn block_mut(&mut self, block: BlockAddr) -> &mut DirBlock {
            self.blocks.entry(block).or_insert_with(DirBlock::new)
        }
        fn snapshot(&self) -> Vec<(BlockAddr, DirState, u64)> {
            let mut v: Vec<_> = self
                .blocks
                .iter()
                .map(|(a, b)| (*a, b.state.clone(), b.version))
                .collect();
            v.sort_by_key(|(a, _, _)| a.0);
            v
        }
    }

    /// Replays the memory operations of the entire workload suite
    /// (paper Table 2 apps, quick scale) through a simplified MSI state
    /// machine against both the dense table and the old map storage,
    /// then diffs the machine's full directory state.
    #[test]
    fn dense_table_matches_map_reference_across_suite() {
        use specdsm_types::Op;
        use specdsm_workloads::{AppId, Scale};

        let m = MachineConfig::paper_machine();
        for app in AppId::ALL {
            let w = app.build(&m, Scale::Quick).unwrap();
            let mut dense = Directory::new(&m);
            let mut map = MapDirectory::new();

            let apply = |blk: &mut DirBlock, op: &Op, p: ProcId| match op {
                Op::Read(_) => {
                    let mut readers = blk.sharers().clone();
                    readers.insert(p);
                    blk.state = DirState::Shared(readers);
                }
                Op::Write(_) => {
                    blk.state = DirState::Exclusive(p);
                    blk.version = blk.grant_version();
                }
                _ => {}
            };

            for (i, stream) in w.build_streams().into_iter().enumerate() {
                let p = ProcId(i);
                for op in stream {
                    let block = match op {
                        Op::Read(b) | Op::Write(b) => b,
                        _ => continue,
                    };
                    apply(dense.block_mut(block), &op, p);
                    apply(map.block_mut(block), &op, p);
                }
            }

            let mut got: Vec<_> = dense
                .iter()
                .map(|(a, b)| (a, b.state.clone(), b.version))
                .collect();
            got.sort_by_key(|(a, _, _)| a.0);
            assert_eq!(
                got,
                map.snapshot(),
                "{app}: dense table diverged from map reference"
            );
        }
    }
}
