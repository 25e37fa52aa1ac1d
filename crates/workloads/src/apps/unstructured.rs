//! unstructured: computational fluid dynamics on an unstructured mesh.
//!
//! Paper description (§7.1, §7.4): the cyclically partitioned mesh
//! produces "a very high degree of read-sharing (on average twelve
//! reads per write or upgrade) in the producer/consumer phase" — with
//! wide read re-ordering that caps MSP at ~65% while VMSP reaches 87%
//! at depth 1. The sum-reduction phase is migratory, but "some
//! processors compute a zero in every other visit to the reduction, and
//! therefore alternate participating in the migratory sharing" — a
//! depth-1 blind spot that a history depth of 2 resolves (→ 99%).
//! SWI successfully invalidates 90% of writable copies; FR alone
//! reaches 46% of reads (eleven out of twelve per sequence).

use std::sync::Arc;

use specdsm_types::{BlockAddr, MachineConfig, NodeId, Op, OpStream, Workload};

use crate::jitter::Jitter;
use crate::space::AddressSpace;
use crate::stream::PhasedStream;

/// unstructured parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnstructuredParams {
    /// Widely shared mesh blocks per processor.
    pub mesh_blocks: usize,
    /// Readers per mesh block (the paper's ~12).
    pub read_degree: usize,
    /// Migratory reduction blocks (total).
    pub reduction_blocks: usize,
    /// Iterations (Table 2: 50).
    pub iters: usize,
    /// Compute cycles per mesh element.
    pub element_compute: u64,
    /// Seed.
    pub seed: u64,
}

impl UnstructuredParams {
    /// The paper's Table 2 input: mesh.2K, 50 iterations, cyclic
    /// partitioning (communication-intensive). The reduction size is
    /// chosen so reduction reads ≈ wide-sharing reads, matching the
    /// paper's "about half of the reads in the entire application are
    /// from this [producer/consumer] phase".
    #[must_use]
    pub fn paper() -> Self {
        UnstructuredParams {
            mesh_blocks: 16,
            read_degree: 12,
            reduction_blocks: 256,
            iters: 50,
            element_compute: 120,
            seed: 0x0157,
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
        UnstructuredParams {
            mesh_blocks: 3,
            read_degree: 6,
            reduction_blocks: 6,
            iters: 4,
            ..Self::paper()
        }
    }
}

#[derive(Debug)]
struct Topology {
    /// Per proc: its widely shared mesh blocks.
    mesh: Vec<Vec<BlockAddr>>,
    /// Per mesh block: its static reader set.
    readers: std::collections::HashMap<BlockAddr, Vec<usize>>,
    /// Reduction blocks (walked by the per-iteration participant set).
    reduction: Vec<BlockAddr>,
}

/// The unstructured workload.
#[derive(Debug, Clone)]
pub struct Unstructured {
    machine: MachineConfig,
    params: UnstructuredParams,
    topo: Arc<Topology>,
}

impl Unstructured {
    /// Builds the mesh topology for `machine`.
    #[must_use]
    pub fn new(machine: MachineConfig, params: UnstructuredParams) -> Self {
        let n = machine.num_nodes;
        let jitter = Jitter::new(params.seed);
        let mut space = AddressSpace::new(machine.clone());
        let mut mesh = Vec::with_capacity(n);
        let mut readers = std::collections::HashMap::new();
        let degree = params.read_degree.min(n - 1);
        for q in 0..n {
            let blocks: Vec<BlockAddr> = space
                .alloc_on(NodeId(q), params.mesh_blocks)
                .iter()
                .collect();
            for (i, &b) in blocks.iter().enumerate() {
                // A static wide reader set: `degree` distinct procs ≠ q,
                // drawn from a rotated window with one random swap so
                // sets differ across blocks.
                let start = jitter.pick(n as u64, &[q as u64, i as u64, 1]) as usize;
                let mut set: Vec<usize> = (0..degree)
                    .map(|k| (start + k) % n)
                    .filter(|&r| r != q)
                    .collect();
                while set.len() < degree {
                    let extra = (start + set.len() + 1) % n;
                    if extra != q && !set.contains(&extra) {
                        set.push(extra);
                    } else {
                        break;
                    }
                }
                set.sort_unstable();
                readers.insert(b, set);
            }
            mesh.push(blocks);
        }
        // Chunked placement: participants walk the reduction blocks in
        // order, so consecutive writes hit the same home for long runs,
        // which lets the per-home SWI tables fire (the paper's 90%
        // successful write invalidations in unstructured).
        let reduction = space
            .alloc_chunked(params.reduction_blocks, 16)
            .iter()
            .collect();
        Unstructured {
            machine,
            params,
            topo: Arc::new(Topology {
                mesh,
                readers,
                reduction,
            }),
        }
    }

    /// Whether `p` participates in the reduction in `iter`: half the
    /// processors always do; the other half alternate (their
    /// contribution is zero every other visit — paper §7.1).
    #[must_use]
    pub fn participates(p: usize, iter: usize) -> bool {
        p.is_multiple_of(2) || iter % 2 == p / 2 % 2
    }
}

impl Workload for Unstructured {
    fn name(&self) -> &str {
        "unstructured"
    }

    fn num_procs(&self) -> usize {
        self.machine.num_nodes
    }

    fn build_streams(&self) -> Vec<OpStream> {
        let jitter = Jitter::new(self.params.seed);
        let n = self.num_procs();
        (0..n)
            .map(|p| {
                let topo = Arc::clone(&self.topo);
                let params = self.params;
                PhasedStream::new(self.params.iters, move |iter| {
                    let it = iter as u64;
                    let mut ops = Vec::new();
                    // --- Producer/consumer phase ----------------------
                    // Owners publish their mesh blocks back to back.
                    for &b in &topo.mesh[p] {
                        ops.push(Op::Write(b));
                    }
                    ops.push(Op::Barrier);
                    // Wide reads, in a per-iteration permuted order with
                    // a jittered start: heavy read re-ordering.
                    let mut to_read: Vec<BlockAddr> = Vec::new();
                    for q in 0..n {
                        for &b in &topo.mesh[q] {
                            if topo.readers[&b].contains(&p) {
                                to_read.push(b);
                            }
                        }
                    }
                    ops.push(Op::Compute(jitter.pick(4_000, &[p as u64, it, 2]) + 1));
                    let order = jitter.permutation(to_read.len(), &[p as u64, it, 3]);
                    for &i in &order {
                        ops.push(Op::Read(to_read[i]));
                        ops.push(Op::Compute(params.element_compute));
                    }
                    ops.push(Op::Barrier);
                    // --- Migratory sum reduction ----------------------
                    if Unstructured::participates(p, iter) {
                        // Participants walk the reduction blocks in
                        // processor order, staggered deterministically.
                        let pos = (0..p)
                            .filter(|&q| Unstructured::participates(q, iter))
                            .count();
                        ops.push(Op::Compute(1_500 * (pos as u64 + 1)));
                        for &b in &topo.reduction {
                            ops.push(Op::Read(b));
                            ops.push(Op::Write(b));
                        }
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

    fn quick() -> Unstructured {
        Unstructured::new(MachineConfig::paper_machine(), UnstructuredParams::quick())
    }

    #[test]
    fn wide_reader_sets() {
        let app = quick();
        for q in 0..16 {
            for &b in &app.topo.mesh[q] {
                let readers = &app.topo.readers[&b];
                assert!(readers.len() >= app.params.read_degree - 1);
                assert!(!readers.contains(&q), "owner excluded");
            }
        }
    }

    #[test]
    fn paper_read_degree_is_twelve() {
        assert_eq!(UnstructuredParams::paper().read_degree, 12);
    }

    #[test]
    fn participation_alternates_for_odd_procs() {
        // Even procs always participate; odd procs alternate.
        for iter in 0..6 {
            assert!(Unstructured::participates(0, iter));
            assert!(Unstructured::participates(2, iter));
        }
        let p1: Vec<bool> = (0..6).map(|i| Unstructured::participates(1, i)).collect();
        assert!(p1.windows(2).all(|w| w[0] != w[1]), "alternating: {p1:?}");
    }

    #[test]
    fn read_order_churns_across_iterations() {
        let app = quick();
        let ops: Vec<Op> = app.build_streams().remove(1).collect();
        let mut sequences: Vec<Vec<BlockAddr>> = Vec::new();
        let mut current = Vec::new();
        let mut barriers = 0;
        for op in ops {
            match op {
                Op::Barrier => {
                    barriers += 1;
                    if barriers % 3 == 2 {
                        sequences.push(std::mem::take(&mut current));
                    } else {
                        current.clear();
                    }
                }
                Op::Read(b) => current.push(b),
                _ => {}
            }
        }
        assert!(sequences.len() >= 2);
        assert!(
            sequences.windows(2).any(|w| w[0] != w[1]),
            "wide reads must re-order"
        );
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
        assert_eq!(counts[0], app.params.iters * 3);
    }

    #[test]
    fn deterministic_rebuild() {
        let app = quick();
        let a: Vec<Vec<Op>> = app
            .build_streams()
            .into_iter()
            .map(Iterator::collect)
            .collect();
        let b: Vec<Vec<Op>> = app
            .build_streams()
            .into_iter()
            .map(Iterator::collect)
            .collect();
        assert_eq!(a, b);
    }
}
