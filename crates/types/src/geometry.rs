//! Dense slot arithmetic for the page-interleaved home layout, and the
//! per-home record table built on it.
//!
//! Homes are assigned page-interleaved ([`MachineConfig::home_of`]), so
//! the blocks homed at one node form a regular lattice in the address
//! space: page `k * num_nodes + home`, blocks `page * page_blocks ..`.
//! A block therefore maps to a compact local index at its home
//! **arithmetically** — no hashing, no probing. [`HomeGeometry`] is that
//! mapping, [`Slot`] its result, and [`HomeTable`] the one store that
//! indexes it: the protocol's directory and the online VMSP both keep
//! one record per block in a `HomeTable`, found by the same `Slot`.

use crate::addr::BlockAddr;
use crate::config::MachineConfig;
use crate::ids::NodeId;

/// The page-interleaved home layout as pure slot arithmetic.
///
/// For a machine with `num_nodes` homes and `page_blocks` blocks per
/// page, block `b` is homed at `(b / page_blocks) % num_nodes` and its
/// dense local slot at that home is
///
/// ```text
/// slot(b) = (b / (page_blocks * num_nodes)) * page_blocks  +  b % page_blocks
///           └───────── local page number ─────────┘          └─ offset in page ─┘
/// ```
///
/// which is a bijection from each home's blocks onto `0, 1, 2, …`.
/// When both `page_blocks` and the stride are powers of two (the paper
/// machine: 128 blocks/page × 16 nodes) the divisions reduce to shifts
/// and masks.
///
/// # Example
///
/// ```
/// use specdsm_types::{BlockAddr, HomeGeometry, MachineConfig, NodeId};
///
/// let m = MachineConfig::paper_machine();
/// let g = HomeGeometry::of_machine(&m);
/// let b = m.page_on(NodeId(3), 2).offset(5);
/// let slot = g.slot(b);
/// assert_eq!(slot.home, NodeId(3));
/// // slot / block_at round-trip.
/// assert_eq!(g.block_at(slot), b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeGeometry {
    /// Blocks per page.
    page_blocks: u64,
    /// Homes in rotation.
    num_nodes: usize,
    /// `page_blocks * num_nodes`: the address stride between one home's
    /// consecutive pages.
    stride: u64,
    /// `(page_shift, stride_shift)` when both `page_blocks` and
    /// `stride` are powers of two.
    shifts: Option<(u32, u32)>,
}

impl HomeGeometry {
    /// Creates the geometry for `page_blocks` blocks per page
    /// interleaved over `num_nodes` homes.
    ///
    /// # Panics
    ///
    /// Panics if `page_blocks` or `num_nodes` is zero, or if their
    /// product overflows `u64` ([`MachineConfig::validate`] rejects
    /// such machines).
    #[must_use]
    pub fn new(page_blocks: u64, num_nodes: usize) -> Self {
        assert!(page_blocks > 0, "page_blocks must be positive");
        assert!(num_nodes > 0, "num_nodes must be positive");
        let stride = page_blocks
            .checked_mul(num_nodes as u64)
            .expect("page_blocks * num_nodes overflows u64");
        let shifts = (page_blocks.is_power_of_two() && stride.is_power_of_two())
            .then(|| (page_blocks.trailing_zeros(), stride.trailing_zeros()));
        HomeGeometry {
            page_blocks,
            num_nodes,
            stride,
            shifts,
        }
    }

    /// The geometry of `machine`'s home layout.
    #[must_use]
    pub fn of_machine(machine: &MachineConfig) -> Self {
        Self::new(machine.page_blocks, machine.num_nodes)
    }

    /// Homes in rotation.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Blocks per page.
    #[must_use]
    pub fn page_blocks(&self) -> u64 {
        self.page_blocks
    }

    /// Home node of `block` (identical to [`MachineConfig::home_of`]).
    #[must_use]
    pub fn home_of(&self, block: BlockAddr) -> NodeId {
        if let Some((page_shift, _)) = self.shifts {
            let mask = (self.stride >> page_shift) - 1;
            NodeId(((block.0 >> page_shift) & mask) as usize)
        } else {
            NodeId(((block.0 / self.page_blocks) % self.num_nodes as u64) as usize)
        }
    }

    /// Dense table index of `block` **within its own home's table**.
    /// Blocks homed at different nodes share index values, so an index
    /// means nothing without its home; [`HomeGeometry::slot`] pairs the
    /// two.
    #[must_use]
    pub fn local_index(&self, block: BlockAddr) -> usize {
        if let Some((page_shift, stride_shift)) = self.shifts {
            let local_page = block.0 >> stride_shift;
            ((local_page << page_shift) | (block.0 & ((1 << page_shift) - 1))) as usize
        } else {
            let local_page = block.0 / self.stride;
            (local_page * self.page_blocks + block.0 % self.page_blocks) as usize
        }
    }

    /// The home and local index of `block`.
    ///
    /// # Panics
    ///
    /// Panics if the local index exceeds `u32::MAX` (a home holding more
    /// than four billion blocks).
    #[must_use]
    pub fn slot(&self, block: BlockAddr) -> Slot {
        Slot {
            home: self.home_of(block),
            idx: u32::try_from(self.local_index(block)).expect("home table exceeds u32 slots"),
        }
    }

    /// Inverse of [`HomeGeometry::slot`]: the block address of `slot`.
    #[must_use]
    pub fn block_at(&self, slot: Slot) -> BlockAddr {
        let idx = u64::from(slot.idx);
        let local_page = idx / self.page_blocks;
        let offset = idx % self.page_blocks;
        BlockAddr(local_page * self.stride + slot.home.0 as u64 * self.page_blocks + offset)
    }
}

/// Where a block's records live: its home node and its dense index in
/// that home's table. Computed once per message with
/// [`HomeGeometry::slot`] and used for every [`HomeTable`] keyed by the
/// same geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot {
    /// Home node of the block.
    pub home: NodeId,
    /// Index into the home's table.
    pub idx: u32,
}

/// One record per block, stored densely per home and indexed by
/// [`Slot`].
///
/// Each home's records sit in one `Vec` that grows on demand to the
/// **highest slot written**. For the page-allocated workloads this
/// simulator runs (compact regions placed via
/// [`MachineConfig::page_on`]) that is proportional to the footprint
/// homed there, but a single very high block address commits the whole
/// dense span below it. A slot never written reads as the table's blank
/// record, so readers never allocate.
#[derive(Debug, Clone)]
pub struct HomeTable<T> {
    geom: HomeGeometry,
    homes: Vec<Vec<T>>,
    /// The value of every record never written; growth clones it.
    blank: T,
}

impl<T: Clone> HomeTable<T> {
    /// An empty table over `geom`'s homes whose unwritten records read
    /// as `blank`.
    #[must_use]
    pub fn new(geom: HomeGeometry, blank: T) -> Self {
        HomeTable {
            geom,
            homes: vec![Vec::new(); geom.num_nodes()],
            blank,
        }
    }

    /// The geometry the table's slots follow.
    #[must_use]
    pub fn geometry(&self) -> HomeGeometry {
        self.geom
    }

    /// The record at `slot`: the blank record if it was never written.
    #[inline]
    #[must_use]
    pub fn get(&self, slot: Slot) -> &T {
        self.homes[slot.home.0]
            .get(slot.idx as usize)
            .unwrap_or(&self.blank)
    }

    /// The record at `slot`, growing its home's table to cover it.
    #[inline]
    pub fn get_mut(&mut self, slot: Slot) -> &mut T {
        let records = &mut self.homes[slot.home.0];
        let idx = slot.idx as usize;
        if idx >= records.len() {
            records.resize(idx + 1, self.blank.clone());
        }
        &mut records[idx]
    }

    /// Every stored record with its slot, home by home and, within a
    /// home, in increasing block-address order. Records the table grew
    /// past without writing are included; they equal the blank record.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &T)> + '_ {
        self.homes.iter().enumerate().flat_map(|(home, records)| {
            records.iter().enumerate().map(move |(idx, r)| {
                let slot = Slot {
                    home: NodeId(home),
                    idx: idx as u32,
                };
                (slot, r)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_machine_home_mapping() {
        for nodes in [1usize, 3, 4, 16] {
            let m = MachineConfig::with_nodes(nodes);
            let g = HomeGeometry::of_machine(&m);
            for b in (0..10_000u64).step_by(37) {
                assert_eq!(g.home_of(BlockAddr(b)), m.home_of(BlockAddr(b)));
            }
        }
    }

    #[test]
    fn shift_and_division_paths_agree() {
        // The paper machine has power-of-two geometry (shift path); a
        // 3-node machine falls back to divisions. Both must agree with
        // a third, naive computation.
        for (page_blocks, nodes) in [(128u64, 16usize), (128, 3), (100, 4), (1, 1)] {
            let g = HomeGeometry::new(page_blocks, nodes);
            for b in (0..50_000u64).step_by(101) {
                let naive_home = ((b / page_blocks) % nodes as u64) as usize;
                let naive_idx = (b / (page_blocks * nodes as u64)) * page_blocks + b % page_blocks;
                assert_eq!(g.home_of(BlockAddr(b)).0, naive_home);
                assert_eq!(g.local_index(BlockAddr(b)), naive_idx as usize);
            }
        }
    }

    #[test]
    fn local_index_round_trips() {
        let g = HomeGeometry::new(128, 16);
        let m = MachineConfig::paper_machine();
        for node in [0usize, 3, 15] {
            for page in 0..4 {
                for off in [0, 1, 127] {
                    let b = m.page_on(NodeId(node), page).offset(off);
                    let slot = g.slot(b);
                    assert_eq!(slot.home, NodeId(node));
                    assert_eq!(g.block_at(slot), b);
                }
            }
        }
    }

    #[test]
    fn local_indices_are_compact_per_home() {
        let g = HomeGeometry::new(8, 4);
        let mut seen = std::collections::HashSet::new();
        // Three pages homed at node 2: blocks of pages 2, 6, 10.
        for page in [2u64, 6, 10] {
            for off in 0..8 {
                let b = BlockAddr(page * 8 + off);
                assert_eq!(g.home_of(b), NodeId(2));
                assert!(seen.insert(g.local_index(b)));
            }
        }
        assert_eq!(seen.len(), 24);
        assert_eq!(seen.iter().max(), Some(&23));
    }

    fn table() -> HomeTable<u64> {
        HomeTable::new(HomeGeometry::new(128, 16), 0)
    }

    #[test]
    fn get_on_an_unwritten_slot_is_blank_and_allocates_nothing() {
        let t = HomeTable::new(HomeGeometry::new(128, 16), 7u64);
        let slot = t.geometry().slot(BlockAddr(5_000));
        assert_eq!(*t.get(slot), 7);
        assert!(t.homes.iter().all(|h| h.capacity() == 0));
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn get_mut_grows_to_the_highest_slot_written() {
        let mut t = table();
        let g = t.geometry();
        *t.get_mut(g.slot(BlockAddr(9))) = 1;
        *t.get_mut(g.slot(BlockAddr(3))) = 2;
        assert_eq!(t.homes[0].len(), 10);
        assert!(t.homes[1..].iter().all(Vec::is_empty));
        assert_eq!(*t.get(g.slot(BlockAddr(9))), 1);
        assert_eq!(*t.get(g.slot(BlockAddr(3))), 2);
        // Grown past but never written: still the blank record.
        assert_eq!(*t.get(g.slot(BlockAddr(5))), 0);
    }

    #[test]
    fn iteration_is_home_major_in_address_order() {
        let mut t = table();
        let m = MachineConfig::paper_machine();
        let g = t.geometry();
        let blocks = [
            m.page_on(NodeId(3), 1).offset(2),
            m.page_on(NodeId(0), 2),
            m.page_on(NodeId(3), 0).offset(7),
        ];
        for (i, b) in blocks.into_iter().enumerate() {
            *t.get_mut(g.slot(b)) = i as u64 + 1;
        }
        let written: Vec<_> = t
            .iter()
            .filter(|(_, &v)| v != 0)
            .map(|(slot, &v)| (g.block_at(slot), v))
            .collect();
        assert_eq!(
            written,
            [(blocks[1], 2), (blocks[2], 3), (blocks[0], 1)],
            "home 0 first, then home 3 by address"
        );
    }

    #[test]
    fn equal_local_indices_at_two_homes_do_not_alias() {
        let mut t = table();
        let g = t.geometry();
        // The first blocks of pages 0 and 1: index 0 at homes 0 and 1.
        let (a, b) = (g.slot(BlockAddr(0)), g.slot(BlockAddr(128)));
        assert_eq!((a.home, b.home), (NodeId(0), NodeId(1)));
        assert_eq!(a.idx, b.idx);
        *t.get_mut(a) = 5;
        assert_eq!(*t.get(b), 0);
        *t.get_mut(b) = 6;
        assert_eq!((*t.get(a), *t.get(b)), (5, 6));
    }

    #[test]
    #[should_panic(expected = "page_blocks")]
    fn zero_page_blocks_panics() {
        let _ = HomeGeometry::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "num_nodes")]
    fn zero_nodes_panics() {
        let _ = HomeGeometry::new(8, 0);
    }
}
