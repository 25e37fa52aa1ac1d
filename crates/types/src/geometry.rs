//! Dense slot arithmetic for the page-interleaved home layout.
//!
//! Homes are assigned page-interleaved ([`MachineConfig::home_of`]), so
//! the blocks homed at one node form a regular lattice in the address
//! space: page `k * num_nodes + home`, blocks `page * page_blocks ..`.
//! Any per-home state store (the protocol's directory block tables, the
//! speculation engine's VMSP arena) can therefore map a block to a
//! compact local index **arithmetically** — no hashing, no probing —
//! and index a flat table directly. [`HomeGeometry`] is that shared
//! mapping, so every slot-addressed store in the workspace resolves
//! blocks with the same bijection and the same power-of-two fast path.

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
/// assert_eq!(g.home_of(b), NodeId(3));
/// // slot_of / block_at round-trip.
/// let slot = g.local_index(b);
/// assert_eq!(g.block_at(NodeId(3), slot), b);
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
    /// Panics if `page_blocks` or `num_nodes` is zero.
    #[must_use]
    pub fn new(page_blocks: u64, num_nodes: usize) -> Self {
        assert!(page_blocks > 0, "page_blocks must be positive");
        assert!(num_nodes > 0, "num_nodes must be positive");
        let stride = page_blocks * num_nodes as u64;
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

    /// Whether `block` is homed at `home`.
    #[must_use]
    pub fn is_homed(&self, home: NodeId, block: BlockAddr) -> bool {
        self.home_of(block) == home
    }

    /// Dense table index of `block` **within its own home's table**.
    ///
    /// Only meaningful for the home [`HomeGeometry::home_of`] reports:
    /// indexing another home's table with this value aliases a foreign
    /// block onto an unrelated local slot. Guarded callers check
    /// [`HomeGeometry::is_homed`] first.
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

    /// Inverse of [`HomeGeometry::local_index`]: the block address of
    /// slot `idx` in `home`'s table.
    #[must_use]
    pub fn block_at(&self, home: NodeId, idx: usize) -> BlockAddr {
        let idx = idx as u64;
        let local_page = idx / self.page_blocks;
        let offset = idx % self.page_blocks;
        BlockAddr(local_page * self.stride + home.0 as u64 * self.page_blocks + offset)
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
                    let idx = g.local_index(b);
                    assert_eq!(g.block_at(NodeId(node), idx), b);
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

    #[test]
    fn foreign_blocks_are_detected() {
        let g = HomeGeometry::new(128, 16);
        let foreign = BlockAddr(128); // first block of page 1, homed at node 1
        assert!(!g.is_homed(NodeId(0), foreign));
        assert!(g.is_homed(NodeId(1), foreign));
        // Its local index *would* alias slot 0 — the guard exists
        // because the arithmetic alone cannot tell.
        assert_eq!(g.local_index(foreign), 0);
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
