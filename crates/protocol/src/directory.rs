//! The full-map directory: one record per block in a dense per-home
//! [`HomeTable`], and the home's handlers for the paper's Figure 1
//! protocol.
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
use specdsm_sim::Cycle;
use specdsm_types::{
    BlockAddr, DirMsg, HomeGeometry, HomeTable, MachineConfig, NodeId, ProcId, ReaderSet, ReqKind,
    Slot,
};

use crate::msg::MsgKind;
use crate::spec::{SpecTrigger, SpecVerdict};
use crate::system::{Event, System};

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

/// Per-block directory record, sized for its common case: a block that
/// is never contended and never SWI-invalidated is the 72 bytes of
/// `state`, `version`, `busy` and an empty `more`. What only contended
/// or SWI-invalidated blocks need sits in one [`DirMore`] side record,
/// allocated on first use and kept for the rest of the run. The record
/// holds nothing per speculative copy: each copy carries its own ticket.
#[derive(Debug, Clone)]
pub(crate) struct DirBlock {
    pub state: DirState,
    /// Version of the data currently in memory (updated by writebacks).
    pub version: u64,
    /// In-flight transaction, if any; requests queue behind it.
    pub busy: Option<Busy>,
    /// The seldom-used rest of the record; `None` until the block first
    /// queues a request or takes an SWI.
    pub more: Option<Box<DirMore>>,
}

/// The part of a [`DirBlock`] that only contended or SWI-invalidated
/// blocks use.
#[derive(Debug, Clone, Default)]
pub(crate) struct DirMore {
    /// Requests queued behind the block's in-flight transaction.
    pub pending: VecDeque<(ReqKind, ProcId)>,
    /// Set after a successful SWI invalidation: `(owner, ticket)`,
    /// until [`System::settle_swi`] or a used copy's ack settles it.
    pub swi_pending: Option<(ProcId, SpecTicket)>,
}

impl DirBlock {
    fn new() -> Self {
        DirBlock {
            state: DirState::Idle,
            version: 0,
            busy: None,
            more: None,
        }
    }

    /// The side record, allocated on first use.
    pub fn more_mut(&mut self) -> &mut DirMore {
        self.more.get_or_insert_with(Box::default)
    }

    /// Takes the pending SWI verdict, if any, leaving none.
    pub fn take_swi_pending(&mut self) -> Option<(ProcId, SpecTicket)> {
        self.more.as_mut().and_then(|m| m.swi_pending.take())
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

    /// The record at `slot`, growing its home's table to cover it.
    pub(crate) fn at_mut(&mut self, slot: Slot) -> &mut DirBlock {
        self.blocks.get_mut(slot)
    }

    /// Sharing state of `block` (`Idle` if never written).
    pub(crate) fn state(&self, block: BlockAddr) -> &DirState {
        &self.at(self.slot_of(block)).state
    }

    /// Every stored record with its block address, home by home and in
    /// increasing address order within a home. A record the table grew
    /// past without writing is the blank `Idle` one.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (BlockAddr, &DirBlock)> + '_ {
        let geom = self.blocks.geometry();
        self.blocks
            .iter()
            .map(move |(slot, b)| (geom.block_at(slot), b))
    }

    /// Record for `block` (a single-shot accessor for tests; the engine
    /// computes a [`Slot`] once instead).
    #[cfg(test)]
    pub(crate) fn block_mut(&mut self, block: BlockAddr) -> &mut DirBlock {
        self.at_mut(self.slot_of(block))
    }

    /// Asserts the directory's internal invariants (used by tests and
    /// debug builds): an invalidation still awaits at least one ack, an
    /// idle block queues nothing, `Shared` always has at least one
    /// sharer, and no `Exclusive` block has a pending SWI verdict (every
    /// write grant settles it).
    pub(crate) fn check_invariants(&self) {
        for (addr, b) in self.iter() {
            if let Some(busy) = &b.busy {
                assert!(
                    !matches!(busy, Busy::Invalidate { acks_left: 0, .. }),
                    "{addr}: invalidation with no ack outstanding"
                );
            } else {
                assert!(
                    b.more.as_ref().is_none_or(|m| m.pending.is_empty()),
                    "{addr}: queued requests but no transaction"
                );
            }
            match &b.state {
                DirState::Shared(r) => {
                    assert!(!r.is_empty(), "{addr}: Shared with empty sharer set");
                }
                DirState::Exclusive(_) => assert!(
                    b.more.as_ref().is_none_or(|m| m.swi_pending.is_none()),
                    "{addr}: Exclusive with a pending SWI verdict"
                ),
                DirState::Idle => {}
            }
        }
    }
}

impl System {
    /// Runs a directory-bound message's handler; `src` is the sending
    /// node. The block's slot is computed here, once; the handlers below
    /// only ever index.
    pub(crate) fn deliver_dir(&mut self, now: Cycle, src: NodeId, block: BlockAddr, kind: MsgKind) {
        let slot = self.dir.slot_of(block);
        match kind {
            MsgKind::Req { kind, proc, .. } => self.dir_request(now, slot, block, kind, proc),
            MsgKind::InvAck { verdict } => {
                self.dir_inv_ack(now, slot, block, src.proc(), verdict);
            }
            MsgKind::WritebackData { proc, version } => {
                self.dir_writeback(now, slot, block, proc, version);
            }
            _ => unreachable!("{kind:?} is not directory-bound"),
        }
        // Shadow-vs-directory state cross-check after the handler ran.
        if let Some(audit) = &mut self.audit {
            audit.check_dir_state(block, &self.dir.at(slot).state);
        }
    }

    fn dir_request(&mut self, now: Cycle, slot: Slot, block: BlockAddr, kind: ReqKind, p: ProcId) {
        let dmsg = DirMsg::Request(kind, p);
        if let Some(trace) = &mut self.trace {
            trace.record(block, dmsg);
        }
        if self.cfg.policy.uses_predictor() {
            self.vmsp.observe_at(slot, dmsg);
        }
        self.swi_trigger(now, slot.home, block, kind, p);
        let blk = self.dir.at_mut(slot);
        if blk.busy.is_some() {
            blk.more_mut().pending.push_back((kind, p));
            return;
        }
        self.dir_process(now, slot, block, kind, p);
    }

    fn dir_process(&mut self, now: Cycle, slot: Slot, block: BlockAddr, kind: ReqKind, p: ProcId) {
        match kind {
            ReqKind::Read => self.process_read(now, slot, block, p),
            ReqKind::Write | ReqKind::Upgrade => {
                self.process_write_like(now, slot, block, kind, p);
            }
        }
    }

    fn process_read(&mut self, now: Cycle, slot: Slot, block: BlockAddr, p: ProcId) {
        match self.dir.at(slot).state {
            DirState::Exclusive(owner) if owner != p => {
                self.recall_owner(now, slot, block, owner, AfterRecall::Read(p));
            }
            DirState::Exclusive(_) => {
                unreachable!("{p} read {block} it exclusively owns at the directory")
            }
            _ => self.serve_read(now, slot, block, p),
        }
    }

    fn process_write_like(
        &mut self,
        now: Cycle,
        slot: Slot,
        block: BlockAddr,
        kind: ReqKind,
        p: ProcId,
    ) {
        let (others, in_place) = match &self.dir.at(slot).state {
            DirState::Idle => (ReaderSet::new(), false),
            DirState::Shared(readers) => {
                // The fan-out below sends while mutating the machine, so
                // it walks a copy of the sharers minus the requester.
                let mut others = readers.clone();
                others.remove(p);
                (others, kind == ReqKind::Upgrade && readers.contains(p))
            }
            &DirState::Exclusive(owner) if owner != p => {
                self.recall_owner(now, slot, block, owner, AfterRecall::Write(p));
                return;
            }
            DirState::Exclusive(_) => {
                unreachable!("{p} wrote {block} it already exclusively owns at the directory")
            }
        };
        if others.is_empty() {
            self.grant_exclusive(now, slot, block, p, in_place);
            return;
        }
        for r in others.iter() {
            self.send(now, slot.home, r.node(), block, MsgKind::Inval);
        }
        self.dir.at_mut(slot).busy = Some(Busy::Invalidate {
            requester: p,
            in_place,
            acks_left: others.len() as u32,
        });
    }

    /// Serves a read from memory: settles a pending SWI verdict, joins
    /// `p` to the sharers, sends it the data, lets FR forward copies to
    /// the other predicted readers, and holds the block until the reply
    /// has left.
    fn serve_read(&mut self, now: Cycle, slot: Slot, block: BlockAddr, p: ProcId) {
        self.settle_swi(slot, p);
        let t = self.mem_access(now, slot.home);
        let blk = self.dir.at_mut(slot);
        match &mut blk.state {
            DirState::Shared(readers) => {
                readers.insert(p);
            }
            state => *state = DirState::Shared(ReaderSet::single(p)),
        }
        let version = blk.version;
        self.send(
            t,
            slot.home,
            p.node(),
            block,
            MsgKind::DataShared { version },
        );
        if self.cfg.policy.fr_enabled() {
            self.speculate(t, slot, block, SpecTrigger::Fr);
        }
        self.lock_reply(slot, block, t);
    }

    /// Recalls `owner`'s writable copy with an `InvWriteback` and holds
    /// the block busy until the data returns, then runs `then`.
    pub(crate) fn recall_owner(
        &mut self,
        now: Cycle,
        slot: Slot,
        block: BlockAddr,
        owner: ProcId,
        then: AfterRecall,
    ) {
        self.send(now, slot.home, owner.node(), block, MsgKind::InvWriteback);
        self.dir.at_mut(slot).busy = Some(Busy::Recall(then));
    }

    /// Grants write permission: settles a pending SWI verdict, then
    /// state → `Exclusive`, new version, reply. A data reply holds the
    /// block until it has left the directory; an in-place upgrade sends
    /// no data and takes no hold.
    fn grant_exclusive(
        &mut self,
        now: Cycle,
        slot: Slot,
        block: BlockAddr,
        p: ProcId,
        in_place: bool,
    ) {
        self.settle_swi(slot, p);
        let home = slot.home;
        let blk = self.dir.at_mut(slot);
        blk.state = DirState::Exclusive(p);
        let version = blk.grant_version();
        if in_place {
            // Permission only; no data, no memory access.
            self.send(now, home, p.node(), block, MsgKind::UpgradeAck { version });
        } else {
            let t = self.mem_access(now, home);
            self.send(t, home, p.node(), block, MsgKind::DataExcl { version });
            self.lock_reply(slot, block, t);
        }
    }

    /// Holds the idle `block` busy until `until`, when its in-flight
    /// reply (or speculative batch) has left the directory. Prevents a
    /// later request's invalidations from overtaking the data on the
    /// same home→processor path. Every hold ends after the cycle it
    /// starts, because validation keeps `mem_access ≥ 1`.
    fn lock_reply(&mut self, slot: Slot, block: BlockAddr, until: Cycle) {
        let blk = self.dir.at_mut(slot);
        assert!(
            blk.busy.is_none(),
            "reply hold over active transaction {:?}",
            blk.busy
        );
        blk.busy = Some(Busy::Reply);
        self.sched(until, Event::DirRelease(slot, block));
    }

    /// A reply hold expires: release the block and serve queued
    /// requests.
    pub(crate) fn dir_release(&mut self, now: Cycle, slot: Slot, block: BlockAddr) {
        let hold = self.dir.at_mut(slot).busy.take();
        assert_eq!(
            hold,
            Some(Busy::Reply),
            "{block}: release without a reply hold"
        );
        self.drain_pending(now, slot, block);
    }

    fn dir_inv_ack(
        &mut self,
        now: Cycle,
        slot: Slot,
        block: BlockAddr,
        proc: ProcId,
        verdict: SpecVerdict,
    ) {
        if let Some(trace) = &mut self.trace {
            trace.record(block, DirMsg::ack_inv(proc));
        }
        // Speculation verification via the piggy-backed verdict.
        self.note_invalidated(slot, proc, verdict);
        let blk = self.dir.at_mut(slot);
        let Some(Busy::Invalidate {
            requester,
            in_place,
            acks_left,
        }) = &mut blk.busy
        else {
            panic!("stray InvAck for {block} from {proc}");
        };
        *acks_left -= 1;
        if *acks_left > 0 {
            return;
        }
        let (requester, in_place) = (*requester, *in_place);
        blk.busy = None;
        self.grant_exclusive(now, slot, block, requester, in_place);
        self.drain_pending(now, slot, block);
    }

    fn dir_writeback(
        &mut self,
        now: Cycle,
        slot: Slot,
        block: BlockAddr,
        proc: ProcId,
        version: u64,
    ) {
        if let Some(trace) = &mut self.trace {
            trace.record(block, DirMsg::writeback(proc));
        }
        let blk = self.dir.at_mut(slot);
        blk.version = version;
        let Some(Busy::Recall(then)) = blk.busy.take() else {
            panic!("stray writeback for {block} from {proc}");
        };
        match then {
            // Memory absorbs the writeback and sources the reply.
            AfterRecall::Read(requester) => self.serve_read(now, slot, block, requester),
            AfterRecall::Write(requester) => {
                self.grant_exclusive(now, slot, block, requester, false);
            }
            AfterRecall::Swi { owner, ticket } => {
                // Successful speculative invalidation: memory is clean.
                // The verdict waits for the block's next grant.
                let t = self.mem_access(now, slot.home);
                let blk = self.dir.at_mut(slot);
                blk.state = DirState::Idle;
                blk.more_mut().swi_pending = Some((owner, ticket));
                self.speculate(t, slot, block, SpecTrigger::Swi);
                self.lock_reply(slot, block, t);
            }
        }
        self.drain_pending(now, slot, block);
    }

    fn drain_pending(&mut self, now: Cycle, slot: Slot, block: BlockAddr) {
        loop {
            let blk = self.dir.at_mut(slot);
            if blk.busy.is_some() {
                return;
            }
            let Some((kind, p)) = blk.more.as_mut().and_then(|m| m.pending.pop_front()) else {
                return;
            };
            self.dir_process(now, slot, block, kind, p);
        }
    }

    /// One memory access at `home`: occupies the (split-transaction)
    /// memory bus for `mem_occupancy` cycles and returns the data
    /// `mem_access` cycles after its bus slot starts.
    #[inline]
    fn mem_access(&mut self, now: Cycle, home: NodeId) -> Cycle {
        let lat = self.cfg.machine.latency;
        self.mems[home.0].acquire(now, lat.mem_occupancy) + lat.mem_access
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
            .more_mut()
            .pending
            .push_back((ReqKind::Read, ProcId(0)));
        d.check_invariants();
    }

    #[test]
    fn record_is_72_bytes() {
        // state:   DirState, 32 B — a 24 B ReaderSet (inline word plus
        //          spill pointer) and the enum tag;
        // version: u64, 8 B;
        // busy:    Option<Busy>, 24 B — Invalidate's ProcId, u32 and bool
        //          plus the tags;
        // more:    Option<Box<DirMore>>, 8 B — null until first use.
        assert_eq!(std::mem::size_of::<DirState>(), 32);
        assert_eq!(std::mem::size_of::<Option<Busy>>(), 24);
        assert_eq!(std::mem::size_of::<Option<Box<DirMore>>>(), 8);
        assert_eq!(std::mem::size_of::<DirBlock>(), 72);
    }

    #[test]
    fn message_is_48_bytes_and_cache_line_24() {
        use crate::cache::Line;
        use crate::msg::Msg;
        use crate::spec::SpecVerdict;
        // A verdict is a ticket (8 B) and a trigger, with the tag in the
        // trigger's spare values; a line adds the 8 B version.
        assert_eq!(std::mem::size_of::<SpecVerdict>(), 16);
        assert_eq!(std::mem::size_of::<Line>(), 24);
        // The largest payloads, `Req` and `SpecData`, are 8 B + 8 B + a
        // byte: 24 B with the tag. `InvAck` names no processor (the
        // sender is the acking one), so it fits too. Source,
        // destination and block make up the rest of the message.
        assert_eq!(std::mem::size_of::<MsgKind>(), 24);
        assert_eq!(std::mem::size_of::<Msg>(), 48);
    }

    #[test]
    fn iter_yields_every_record_in_address_order() {
        let m = MachineConfig::paper_machine();
        let mut d = Directory::new(&m);
        let hi = m.page_on(NodeId(1), 2).offset(7);
        let lo = m.page_on(NodeId(1), 0).offset(3);
        d.block_mut(hi).state = DirState::Exclusive(ProcId(4));
        d.block_mut(lo).version = 9;
        let got: Vec<_> = d.iter().collect();
        assert!(
            got.windows(2).all(|w| w[0].0 < w[1].0),
            "iteration is address-ordered"
        );
        // Growth to `hi` created the records below it; every one the
        // test did not write is blank.
        for (addr, b) in &got {
            if *addr == lo {
                assert_eq!(b.version, 9);
            } else if *addr == hi {
                assert_eq!(b.state, DirState::Exclusive(ProcId(4)));
            } else {
                assert_eq!((&b.state, b.version), (&DirState::Idle, 0), "{addr}");
                assert!(b.busy.is_none() && b.more.is_none());
            }
        }
        // Only home 1's table grew, to cover `hi` and everything below.
        assert_eq!(got.len(), d.slot_of(hi).idx as usize + 1);
        assert_eq!(got.last().map(|(a, _)| *a), Some(hi));
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
    /// then diffs the machine's full directory state. The replay only
    /// writes `Shared` or `Exclusive`, so the dense table's non-`Idle`
    /// records are exactly the blocks the map holds.
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
                .filter(|(_, b)| b.state != DirState::Idle)
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
