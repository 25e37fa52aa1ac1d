//! barnes: Barnes-Hut N-body simulation (SPLASH-2).
//!
//! Paper description (§7.1, §7.4): "In every iteration, the tree is
//! rebuilt to reflect the movement of bodies in the galaxy and this
//! results in rapid changes in read-sharing patterns." Readers arrive
//! in a different order every iteration (a processor's traversal
//! workload changes with the octree structure), but the
//! *acknowledgements* arrive in the same order every time (reads are
//! asynchronous, minimal queueing) — so VMSP beats MSP, while MSP does
//! not beat Cosmos. Barnes also has a low communication ratio, so it
//! benefits little from speculation.
//!
//! We model the octree as a set of cell blocks whose owner and reader
//! set are re-drawn (with churn) every iteration, and whose readers
//! traverse in a per-iteration permuted order.

use std::sync::Arc;

use specdsm_types::{BlockAddr, MachineConfig, Op, OpStream, Workload};

use crate::jitter::Jitter;
use crate::space::AddressSpace;
use crate::stream::PhasedStream;

/// barnes parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarnesParams {
    /// Octree cell blocks.
    pub cells: usize,
    /// Iterations (Table 2: 21).
    pub iters: usize,
    /// Base readers per cell (1..=this).
    pub max_readers: usize,
    /// Probability that a cell's owner changes in an iteration.
    pub owner_churn: f64,
    /// Probability that a cell's reader set changes in an iteration.
    pub reader_churn: f64,
    /// Compute cycles per traversed cell (high: barnes is
    /// computation-bound).
    pub cell_compute: u64,
    /// Seed.
    pub seed: u64,
}

impl BarnesParams {
    /// The paper's Table 2 input: 4K particles, 21 iterations. The
    /// shared octree of a 4K-body run has on the order of 512 hot
    /// internal cells.
    #[must_use]
    pub fn paper() -> Self {
        BarnesParams {
            cells: 512,
            iters: 21,
            max_readers: 4,
            owner_churn: 0.2,
            reader_churn: 0.35,
            cell_compute: 2_600,
            seed: 0xBA2,
        }
    }

    /// Same as paper (already small).
    #[must_use]
    pub fn default_scale() -> Self {
        Self::paper()
    }

    /// Tiny input for unit tests.
    #[must_use]
    pub fn quick() -> Self {
        BarnesParams {
            cells: 32,
            iters: 3,
            ..Self::paper()
        }
    }
}

#[derive(Debug)]
struct Tree {
    cells: Vec<BlockAddr>,
    base_owner: Vec<usize>,
    base_readers: Vec<Vec<usize>>,
}

/// The barnes workload.
#[derive(Debug, Clone)]
pub struct Barnes {
    machine: MachineConfig,
    params: BarnesParams,
    tree: Arc<Tree>,
}

impl Barnes {
    /// Builds the base octree structure for `machine`.
    #[must_use]
    pub fn new(machine: MachineConfig, params: BarnesParams) -> Self {
        let n = machine.num_nodes;
        let jitter = Jitter::new(params.seed);
        let mut space = AddressSpace::new(machine.clone());
        let region = space.alloc_striped(params.cells);
        let mut base_owner = Vec::with_capacity(params.cells);
        let mut base_readers = Vec::with_capacity(params.cells);
        for c in 0..params.cells {
            let owner = jitter.pick(n as u64, &[c as u64, 1]) as usize;
            base_owner.push(owner);
            let count = 1 + jitter.pick(params.max_readers as u64, &[c as u64, 2]) as usize;
            let mut readers = Vec::with_capacity(count);
            for k in 0..count {
                let r = jitter.pick(n as u64, &[c as u64, 3, k as u64]) as usize;
                if r != owner && !readers.contains(&r) {
                    readers.push(r);
                }
            }
            if readers.is_empty() {
                readers.push((owner + 1) % n);
            }
            base_readers.push(readers);
        }
        Barnes {
            machine,
            params,
            tree: Arc::new(Tree {
                cells: region.iter().collect(),
                base_owner,
                base_readers,
            }),
        }
    }

    /// The owner of `cell` in `iter` (stateless churn).
    fn owner(
        tree: &Tree,
        jitter: &Jitter,
        params: &BarnesParams,
        n: usize,
        cell: usize,
        iter: usize,
    ) -> usize {
        if jitter.chance(params.owner_churn, &[cell as u64, iter as u64, 10]) {
            jitter.pick(n as u64, &[cell as u64, iter as u64, 11]) as usize
        } else {
            tree.base_owner[cell]
        }
    }

    /// The reader set of `cell` in `iter` (base set with churn).
    fn readers(
        tree: &Tree,
        jitter: &Jitter,
        params: &BarnesParams,
        n: usize,
        cell: usize,
        iter: usize,
    ) -> Vec<usize> {
        let owner = Self::owner(tree, jitter, params, n, cell, iter);
        let mut readers = tree.base_readers[cell].clone();
        if jitter.chance(params.reader_churn, &[cell as u64, iter as u64, 20]) {
            let slot = jitter.pick(readers.len() as u64, &[cell as u64, iter as u64, 21]) as usize;
            readers[slot] = jitter.pick(n as u64, &[cell as u64, iter as u64, 22]) as usize;
        }
        readers.retain(|&r| r != owner);
        readers.sort_unstable();
        readers.dedup();
        readers
    }
}

impl Workload for Barnes {
    fn name(&self) -> &str {
        "barnes"
    }

    fn num_procs(&self) -> usize {
        self.machine.num_nodes
    }

    fn build_streams(&self) -> Vec<OpStream> {
        let jitter = Jitter::new(self.params.seed);
        let n = self.num_procs();
        (0..n)
            .map(|p| {
                let tree = Arc::clone(&self.tree);
                let params = self.params;
                PhasedStream::new(self.params.iters, move |iter| {
                    let it = iter as u64;
                    let mut ops = Vec::new();
                    // --- Tree build: each cell's owner rebuilds it ----
                    // Insertion is a read-modify-write, and bodies keep
                    // landing in the same cell, so most cells are
                    // written again later in the build — the "producer
                    // either reads the block upon writing to it or
                    // writes multiple times" behaviour that defeats SWI
                    // in barnes (paper §7.4).
                    let mut owned: Vec<BlockAddr> = Vec::new();
                    for (c, &block) in tree.cells.iter().enumerate() {
                        if Barnes::owner(&tree, &jitter, &params, n, c, iter) == p {
                            owned.push(block);
                            ops.push(Op::Read(block));
                            ops.push(Op::Write(block));
                            ops.push(Op::Compute(params.cell_compute / 4));
                        }
                    }
                    for (k, &block) in owned.iter().enumerate() {
                        if jitter.chance(0.6, &[p as u64, it, k as u64, 40]) {
                            ops.push(Op::Write(block));
                            ops.push(Op::Compute(params.cell_compute / 8));
                        }
                    }
                    ops.push(Op::Barrier);
                    // --- Force computation: partial traversals --------
                    // Collect the cells this processor reads this
                    // iteration, then visit them in a per-iteration
                    // permuted order (the changing traversal workload).
                    let mut to_read: Vec<BlockAddr> = Vec::new();
                    for (c, &block) in tree.cells.iter().enumerate() {
                        if Barnes::readers(&tree, &jitter, &params, n, c, iter).contains(&p) {
                            to_read.push(block);
                        }
                    }
                    let order = jitter.permutation(to_read.len(), &[p as u64, it, 30]);
                    ops.push(Op::Compute(jitter.stretch(
                        params.cell_compute * 4,
                        0.4,
                        &[p as u64, it, 31],
                    )));
                    for &i in &order {
                        ops.push(Op::Read(to_read[i]));
                        ops.push(Op::Compute(params.cell_compute));
                    }
                    ops.push(Op::Barrier);
                    ops
                })
                .boxed()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Barnes {
        Barnes::new(MachineConfig::paper_machine(), BarnesParams::quick())
    }

    #[test]
    fn every_cell_has_owner_and_readers() {
        let app = quick();
        for c in 0..app.params.cells {
            assert!(app.tree.base_owner[c] < 16);
            assert!(!app.tree.base_readers[c].is_empty());
        }
    }

    #[test]
    fn traversal_order_changes_across_iterations() {
        let app = quick();
        let streams: Vec<Vec<Op>> = app
            .build_streams()
            .into_iter()
            .map(Iterator::collect)
            .collect();
        // Extract per-iteration read sequences for proc 0 and check at
        // least two iterations differ in order (rapidly changing
        // sharing).
        let mut per_iter: Vec<Vec<BlockAddr>> = Vec::new();
        let mut current = Vec::new();
        let mut barriers = 0;
        for op in &streams[0] {
            match op {
                Op::Barrier => {
                    barriers += 1;
                    if barriers % 2 == 0 {
                        per_iter.push(std::mem::take(&mut current));
                    }
                }
                Op::Read(b) => current.push(*b),
                _ => {}
            }
        }
        assert!(per_iter.len() >= 2);
        let all_same = per_iter.windows(2).all(|w| w[0] == w[1]);
        assert!(!all_same, "read order must churn across iterations");
    }

    #[test]
    fn exactly_one_owner_writes_each_cell_per_iteration() {
        let app = quick();
        let n = 16;
        let jitter = Jitter::new(app.params.seed);
        for iter in 0..app.params.iters {
            for c in 0..app.params.cells {
                let owners: Vec<usize> = (0..n)
                    .filter(|&p| Barnes::owner(&app.tree, &jitter, &app.params, n, c, iter) == p)
                    .collect();
                assert_eq!(owners.len(), 1);
            }
        }
    }

    #[test]
    fn readers_never_include_owner() {
        let app = quick();
        let jitter = Jitter::new(app.params.seed);
        for iter in 0..app.params.iters {
            for c in 0..app.params.cells {
                let owner = Barnes::owner(&app.tree, &jitter, &app.params, 16, c, iter);
                let readers = Barnes::readers(&app.tree, &jitter, &app.params, 16, c, iter);
                assert!(!readers.contains(&owner));
            }
        }
    }

    #[test]
    fn barrier_counts_match() {
        let app = quick();
        let counts: Vec<usize> = app
            .build_streams()
            .into_iter()
            .map(|s| s.filter(|o| matches!(o, Op::Barrier)).count())
            .collect();
        assert!(counts.iter().all(|&c| c == counts[0]));
    }
}
