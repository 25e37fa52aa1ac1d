//! The full-map directory, stored as a dense per-home block table.
//!
//! Each home node's directory used to be a `HashMap<BlockAddr,
//! DirBlock>`, which put a SipHash probe on every step of every
//! coherence transaction. Because homes are assigned page-interleaved
//! ([`MachineConfig::home_of`]), the blocks homed at one node form a
//! regular lattice: page `k * num_nodes + home`, blocks `page *
//! page_blocks ..`. That makes a **flat dense table** possible — the
//! directory maps a block to a small local index arithmetically and
//! indexes a `Vec<DirBlock>` directly. [`Directory::slot_of`] performs
//! the mapping once per incoming message and hands out a [`DirSlot`]
//! handle that the protocol engine reuses for every subsequent access
//! in the transaction. See `docs/ARCHITECTURE.md` (repo root) for the
//! design rationale.

use std::collections::VecDeque;

use specdsm_core::SpecTicket;
use specdsm_types::{BlockAddr, HomeGeometry, MachineConfig, NodeId, ProcId, ReaderSet, ReqKind};

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

/// An in-flight transaction serializing access to one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Txn {
    pub kind: TxnKind,
    /// Invalidation acks still outstanding.
    pub acks_left: u32,
    /// A writeback is still outstanding.
    pub awaiting_wb: bool,
}

/// What the in-flight transaction is serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxnKind {
    /// A read that had to invalidate a writable copy.
    Read(ProcId),
    /// A write or upgrade collecting invalidation acks / writeback.
    /// `in_place` means the requester keeps its cached copy and gets an
    /// upgrade ack instead of data.
    WriteLike { requester: ProcId, in_place: bool },
    /// A speculative (SWI) invalidation of a writable copy.
    Swi {
        owner: ProcId,
        ticket: Option<SpecTicket>,
    },
    /// The block is held while a (memory-delayed) reply or speculative
    /// batch is still being handed to the NI. Later requests must not
    /// start — their invalidations would overtake the in-flight data on
    /// the same home→processor path.
    Reply {
        /// When the last outgoing message for this transaction leaves.
        until: specdsm_sim::Cycle,
    },
}

/// A resolved directory-block handle: home node plus dense table index.
///
/// The protocol engine resolves each incoming message's block to a
/// `DirSlot` **once** (one division-based index computation) and then
/// reaches the [`DirBlock`] by direct indexing for the rest of the
/// transaction step, replacing the former per-access
/// `dirs[home] → HashMap probe` double hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DirSlot {
    /// Home node owning the block.
    pub home: NodeId,
    /// Index into that home's dense block table.
    pub idx: u32,
}

/// Per-block directory record.
#[derive(Debug, Clone)]
pub(crate) struct DirBlock {
    pub state: DirState,
    /// Version of the data currently in memory (updated by writebacks).
    pub version: u64,
    /// Next write-grant version (monotonic per block).
    pub next_version: u64,
    /// In-flight transaction, if any; requests queue behind it.
    pub busy: Option<Txn>,
    pub pending: VecDeque<(ReqKind, ProcId)>,
    /// Set after a successful SWI invalidation: `(owner, ticket)`. If
    /// the next request for the block comes from the owner, the
    /// invalidation was premature.
    pub swi_pending: Option<(ProcId, Option<SpecTicket>)>,
    /// Whether the protocol ever took a mutable reference to this
    /// record. Dense-table growth creates pristine neighbors eagerly;
    /// this flag keeps `len`/`iter` reporting only blocks with real
    /// directory activity, exactly as the sparse map did.
    pub touched: bool,
}

impl DirBlock {
    const fn new() -> Self {
        DirBlock {
            state: DirState::Idle,
            version: 0,
            next_version: 1,
            busy: None,
            pending: VecDeque::new(),
            swi_pending: None,
            touched: false,
        }
    }

    /// Assigns the next write-grant version.
    pub fn grant_version(&mut self) -> u64 {
        let v = self.next_version;
        self.next_version += 1;
        v
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

/// The directory of one home node: sharing state for every block homed
/// there, in a flat dense table.
///
/// # Dense indexing
///
/// With page-interleaved homes, block `b` lives at home
/// `(b / page_blocks) % num_nodes`. For the blocks homed *here*, the
/// local slot is
///
/// ```text
/// slot(b) = (b / (page_blocks * num_nodes)) * page_blocks  +  b % page_blocks
///           └───────── local page number ─────────┘          └─ offset in page ─┘
/// ```
///
/// which is a bijection from this home's blocks onto `0, 1, 2, …` — no
/// hashing, no probing, and neighbors in a page are neighbors in the
/// table (the access locality of real workloads becomes cache locality
/// of the simulator). The arithmetic itself lives in the shared
/// [`HomeGeometry`] helper, so the directory and the speculation
/// engine's VMSP arena resolve blocks with the *same* bijection (and
/// the same power-of-two shift fast path for the paper machine: 128
/// blocks/page × 16 nodes). The table grows on demand to the **highest
/// slot touched**: for the page-allocated workloads this simulator runs
/// (compact regions placed via [`MachineConfig::page_on`]) that is
/// proportional to the footprint homed here, but — unlike the sparse
/// map this replaced — a single very high block address commits the
/// whole dense span below it. Workloads with genuinely sparse gigantic
/// address ranges would need a paged/hybrid table first.
#[derive(Debug, Clone)]
pub struct Directory {
    node: NodeId,
    /// The shared page-interleaved slot arithmetic.
    geom: HomeGeometry,
    table: Vec<DirBlock>,
    /// Number of records with `touched == true`.
    touched: usize,
}

impl Directory {
    /// Creates an empty directory for `node` on `machine`'s home
    /// layout.
    #[must_use]
    pub fn new(node: NodeId, machine: &MachineConfig) -> Self {
        Self::with_geometry(node, machine.page_blocks, machine.num_nodes)
    }

    /// Creates an empty directory for `node` with an explicit
    /// page-interleaving geometry (`page_blocks` blocks per page,
    /// `num_nodes` homes in rotation).
    ///
    /// # Panics
    ///
    /// Panics if `page_blocks` or `num_nodes` is zero, or if `node` is
    /// not one of the `num_nodes` homes.
    #[must_use]
    pub fn with_geometry(node: NodeId, page_blocks: u64, num_nodes: usize) -> Self {
        assert!(
            node.0 < num_nodes,
            "{node} outside a {num_nodes}-home machine"
        );
        Directory {
            node,
            geom: HomeGeometry::new(page_blocks, num_nodes),
            table: Vec::new(),
            touched: 0,
        }
    }

    /// The home node this directory belongs to.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Dense table index of `block`.
    ///
    /// Callers must only pass blocks homed at this node; debug builds
    /// assert it.
    fn index_of(&self, block: BlockAddr) -> usize {
        debug_assert!(
            self.geom.is_homed(self.node, block),
            "{block} is not homed at {}",
            self.node
        );
        self.geom.local_index(block)
    }

    /// Resolves `block` to a [`DirSlot`], growing the table to cover
    /// it. The protocol engine calls this once per incoming message.
    pub(crate) fn slot_of(&mut self, block: BlockAddr) -> DirSlot {
        let idx = self.index_of(block);
        if idx >= self.table.len() {
            self.table.resize_with(idx + 1, DirBlock::new);
        }
        DirSlot {
            home: self.node,
            idx: u32::try_from(idx).expect("directory table exceeds u32 slots"),
        }
    }

    /// Direct access to a resolved slot's record.
    pub(crate) fn at(&self, idx: u32) -> &DirBlock {
        &self.table[idx as usize]
    }

    /// Direct mutable access to a resolved slot's record.
    pub(crate) fn at_mut(&mut self, idx: u32) -> &mut DirBlock {
        let blk = &mut self.table[idx as usize];
        if !blk.touched {
            blk.touched = true;
            self.touched += 1;
        }
        blk
    }

    /// Whether `block` is homed at this directory's node.
    fn is_homed(&self, block: BlockAddr) -> bool {
        self.geom.is_homed(self.node, block)
    }

    /// Sharing state of `block` (`Idle` if never touched, or if the
    /// block is homed at a different node).
    #[must_use]
    pub fn state(&self, block: BlockAddr) -> &DirState {
        static IDLE: DirState = DirState::Idle;
        self.lookup(block).map_or(&IDLE, |b| &b.state)
    }

    /// Memory version of `block` (0 if never touched, or if the block
    /// is homed at a different node).
    #[must_use]
    pub fn version(&self, block: BlockAddr) -> u64 {
        self.lookup(block).map_or(0, |b| b.version)
    }

    /// Whether a transaction is in flight for `block` (`false` for
    /// blocks homed at a different node).
    #[must_use]
    pub fn is_busy(&self, block: BlockAddr) -> bool {
        self.lookup(block).is_some_and(|b| b.busy.is_some())
    }

    /// Number of blocks with directory state.
    #[must_use]
    pub fn len(&self) -> usize {
        self.touched
    }

    /// Whether the directory has no active blocks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.touched == 0
    }

    /// Iterates `(block, state, memory version)` for every active
    /// block, in increasing block-address order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &DirState, u64)> + '_ {
        self.table
            .iter()
            .enumerate()
            .filter(|(_, b)| b.touched)
            .map(|(i, b)| (self.block_of(i), &b.state, b.version))
    }

    /// Inverse of the dense index mapping: the block address of slot
    /// `idx`.
    fn block_of(&self, idx: usize) -> BlockAddr {
        self.geom.block_at(self.node, idx)
    }

    /// Record for `block`, resolving and growing as needed. The
    /// protocol engine resolves a [`DirSlot`] instead; this single-shot
    /// accessor remains for tests.
    #[cfg(test)]
    pub(crate) fn block_mut(&mut self, block: BlockAddr) -> &mut DirBlock {
        let slot = self.slot_of(block);
        self.at_mut(slot.idx)
    }

    fn lookup(&self, block: BlockAddr) -> Option<&DirBlock> {
        // Unlike the protocol engine's slot path (which guarantees
        // correct routing), the public queries accept any address and
        // must not alias a foreign block onto a local slot — the old
        // map returned "no state" for blocks homed elsewhere, and so
        // does this.
        if !self.is_homed(block) {
            return None;
        }
        let idx = self.index_of(block);
        self.table.get(idx).filter(|b| b.touched)
    }

    /// Asserts the directory's internal invariants (used by tests and
    /// debug builds): a busy transaction implies consistent ack/wb
    /// expectations, and `Shared` always has at least one sharer.
    pub fn check_invariants(&self) {
        for (i, b) in self.table.iter().enumerate() {
            if !b.touched {
                continue;
            }
            let addr = self.block_of(i);
            if let Some(txn) = &b.busy {
                assert!(
                    txn.acks_left > 0
                        || txn.awaiting_wb
                        || matches!(txn.kind, TxnKind::Reply { .. }),
                    "{addr}: busy transaction with nothing outstanding"
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

    fn dir(node: usize) -> Directory {
        Directory::new(NodeId(node), &MachineConfig::paper_machine())
    }

    #[test]
    fn fresh_blocks_are_idle() {
        let d = dir(0);
        assert_eq!(*d.state(BlockAddr(1)), DirState::Idle);
        assert_eq!(d.version(BlockAddr(1)), 0);
        assert!(!d.is_busy(BlockAddr(1)));
        assert!(d.is_empty());
    }

    #[test]
    fn grant_versions_are_monotonic() {
        let mut d = dir(0);
        let b = d.block_mut(BlockAddr(1));
        let v1 = b.grant_version();
        let v2 = b.grant_version();
        assert!(v2 > v1);
        assert_eq!(v1, 1, "versions start after the initial memory value 0");
    }

    #[test]
    fn sharers_accessor() {
        let mut d = dir(0);
        let b = d.block_mut(BlockAddr(1));
        assert!(b.sharers().is_empty());
        b.state = DirState::Shared(ReaderSet::single(ProcId(2)));
        assert!(b.sharers().contains(ProcId(2)));
        b.state = DirState::Exclusive(ProcId(1));
        assert!(b.sharers().is_empty());
    }

    #[test]
    fn invariants_pass_on_consistent_state() {
        let mut d = dir(0);
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
        let mut d = Directory::new(NodeId(0), &m);
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
        let mut d = dir(0);
        d.block_mut(BlockAddr(1)).state = DirState::Shared(ReaderSet::new());
        d.check_invariants();
    }

    #[test]
    #[should_panic(expected = "no transaction")]
    fn invariants_catch_orphan_pending() {
        let mut d = dir(0);
        d.block_mut(BlockAddr(1))
            .pending
            .push_back((ReqKind::Read, ProcId(0)));
        d.check_invariants();
    }

    #[test]
    fn queries_for_foreign_blocks_report_no_state() {
        // BlockAddr(128) is homed at node 1 on the paper machine; its
        // dense index at node 0 would alias slot 0. The public queries
        // must behave like the old map: no state for foreign blocks,
        // even after the aliased local slot has real state.
        let m = MachineConfig::paper_machine();
        let mut d = Directory::new(NodeId(0), &m);
        let local = BlockAddr(0);
        let foreign = BlockAddr(m.page_blocks); // first block of page 1
        assert_eq!(m.home_of(foreign), NodeId(1));
        d.block_mut(local).state = DirState::Exclusive(ProcId(7));
        assert_eq!(*d.state(foreign), DirState::Idle);
        assert_eq!(d.version(foreign), 0);
        assert!(!d.is_busy(foreign));
        assert_eq!(*d.state(local), DirState::Exclusive(ProcId(7)));
    }

    #[test]
    fn dense_index_round_trips() {
        // slot_of followed by block_of must be the identity for every
        // block homed at the node, across pages and nodes.
        let m = MachineConfig::paper_machine();
        for node in [0, 3, 15] {
            let mut d = Directory::new(NodeId(node), &m);
            for page in 0..4 {
                for off in [0, 1, m.page_blocks - 1] {
                    let b = m.page_on(NodeId(node), page).offset(off);
                    let slot = d.slot_of(b);
                    assert_eq!(d.block_of(slot.idx as usize), b, "node {node} page {page}");
                }
            }
        }
    }

    #[test]
    fn dense_indices_are_compact_and_distinct() {
        let m = MachineConfig::paper_machine();
        let mut d = Directory::new(NodeId(2), &m);
        let mut seen = std::collections::HashSet::new();
        for page in 0..3 {
            for off in 0..m.page_blocks {
                let b = m.page_on(NodeId(2), page).offset(off);
                let slot = d.slot_of(b);
                assert!(seen.insert(slot.idx), "slot collision at {b}");
            }
        }
        // Three full pages occupy exactly slots 0..3*page_blocks.
        assert_eq!(seen.len() as u64, 3 * m.page_blocks);
        assert_eq!(
            seen.iter().max().copied(),
            Some(3 * m.page_blocks as u32 - 1)
        );
    }

    #[test]
    fn iter_reports_only_touched_blocks_in_order() {
        let m = MachineConfig::paper_machine();
        let mut d = Directory::new(NodeId(1), &m);
        let hi = m.page_on(NodeId(1), 2).offset(7);
        let lo = m.page_on(NodeId(1), 0).offset(3);
        d.block_mut(hi).state = DirState::Exclusive(ProcId(4));
        d.block_mut(lo).version = 9;
        // Growth to `hi` created pristine neighbors; they must not leak.
        assert_eq!(d.len(), 2);
        let got: Vec<_> = d.iter().collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, lo, "iteration is address-ordered");
        assert_eq!(got[1].0, hi);
        assert_eq!(got[0].2, 9);
        assert_eq!(*got[1].1, DirState::Exclusive(ProcId(4)));
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
    /// then diffs every home's full directory state.
    #[test]
    fn dense_table_matches_map_reference_across_suite() {
        use specdsm_types::Op;
        use specdsm_workloads::{AppId, Scale};

        let m = MachineConfig::paper_machine();
        for app in AppId::ALL {
            let w = app.build(&m, Scale::Quick);
            let mut dense: Vec<Directory> = NodeId::all(m.num_nodes)
                .map(|n| Directory::new(n, &m))
                .collect();
            let mut map: Vec<MapDirectory> =
                (0..m.num_nodes).map(|_| MapDirectory::new()).collect();

            let apply = |blk: &mut DirBlock, op: &Op, p: ProcId| match op {
                Op::Read(_) => {
                    if let DirState::Exclusive(_) = blk.state {
                        blk.version = blk.next_version - 1;
                    }
                    let mut readers = blk.sharers().clone();
                    readers.insert(p);
                    blk.state = DirState::Shared(readers);
                }
                Op::Write(_) => {
                    blk.state = DirState::Exclusive(p);
                    blk.grant_version();
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
                    let home = m.home_of(block);
                    apply(dense[home.0].block_mut(block), &op, p);
                    apply(map[home.0].block_mut(block), &op, p);
                }
            }

            for (d, r) in dense.iter().zip(&map) {
                let got: Vec<_> = d.iter().map(|(a, s, v)| (a, s.clone(), v)).collect();
                assert_eq!(
                    got,
                    r.snapshot(),
                    "{app}: dense table diverged from map reference at {}",
                    d.node()
                );
                assert_eq!(d.len(), r.blocks.len(), "{app}: len mismatch");
            }
        }
    }
}
