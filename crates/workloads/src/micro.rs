//! Micro-benchmark sharing patterns.
//!
//! Minimal workloads isolating one sharing pattern each — the building
//! blocks the seven applications compose. Used by tests and examples.

use std::sync::Arc;

use specdsm_types::{MachineConfig, NodeId, Op, OpStream, ProcId, Workload};

use crate::jitter::Jitter;
use crate::space::{AddressSpace, Region};
use crate::stream::PhasedStream;

/// Producer/consumer: one producer writes a set of blocks every
/// iteration; a fixed set of consumers reads each block afterwards.
///
/// With `jitter_amplitude > 0`, consumers' pre-read compute stretches
/// differently every iteration, re-ordering their read requests — the
/// perturbation that separates MSP from VMSP at history depth 1.
///
/// # Example
///
/// ```
/// use specdsm_types::{MachineConfig, Workload};
/// use specdsm_workloads::ProducerConsumer;
///
/// let machine = MachineConfig::with_nodes(4);
/// let pc = ProducerConsumer::new(machine, 8, 2, 10);
/// assert_eq!(pc.build_streams().len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ProducerConsumer {
    machine: MachineConfig,
    blocks: Arc<Region>,
    /// Consumers per block (producer excluded).
    pub consumers: usize,
    /// Iterations.
    pub iters: usize,
    /// Compute cycles between accesses.
    pub compute: u64,
    /// Relative jitter amplitude on consumer compute (0 = none).
    pub jitter_amplitude: f64,
    /// Jitter seed.
    pub seed: u64,
}

impl ProducerConsumer {
    /// Creates a producer/consumer pattern over `blocks` blocks homed on
    /// the producer's node (node 0), with `consumers` readers per block.
    ///
    /// # Panics
    ///
    /// Panics if `consumers >= num_nodes`.
    #[must_use]
    pub fn new(machine: MachineConfig, blocks: usize, consumers: usize, iters: usize) -> Self {
        assert!(
            consumers < machine.num_nodes,
            "need a producer plus {consumers} consumers"
        );
        let mut space = AddressSpace::new(machine.clone());
        let region = space.alloc_on(NodeId(0), blocks);
        ProducerConsumer {
            machine,
            blocks: Arc::new(region),
            consumers,
            iters,
            compute: 500,
            jitter_amplitude: 0.3,
            seed: 0xC0FFEE,
        }
    }
}

impl Workload for ProducerConsumer {
    fn name(&self) -> &str {
        "producer-consumer"
    }

    fn num_procs(&self) -> usize {
        self.machine.num_nodes
    }

    fn build_streams(&self) -> Vec<OpStream> {
        let jitter = Jitter::new(self.seed);
        (0..self.num_procs())
            .map(|p| {
                let blocks = Arc::clone(&self.blocks);
                let (consumers, compute, amp) =
                    (self.consumers, self.compute, self.jitter_amplitude);
                PhasedStream::new(self.iters, move |iter| {
                    let mut ops = Vec::new();
                    if p == 0 {
                        // Producer phase: write every block back to back
                        // (the SWI-friendly message-buffer pattern).
                        for b in blocks.iter() {
                            ops.push(Op::Write(b));
                        }
                        ops.push(Op::Compute(compute));
                    } else if p <= consumers {
                        // Consumers read after the barrier, staggered by
                        // jittered compute.
                        ops.push(Op::Compute(jitter.stretch(
                            compute,
                            amp,
                            &[p as u64, iter as u64],
                        )));
                    }
                    ops.push(Op::Barrier);
                    if p != 0 && p <= consumers {
                        for b in blocks.iter() {
                            ops.push(Op::Read(b));
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

/// Migratory sharing: a fixed chain of processors read-modify-writes
/// each block in turn every iteration (the paper's read + upgrade
/// pairs).
#[derive(Debug, Clone)]
pub struct Migratory {
    machine: MachineConfig,
    blocks: Arc<Region>,
    /// Chain of participating processors, in order.
    pub chain: Vec<ProcId>,
    /// Iterations.
    pub iters: usize,
    /// Compute cycles a processor holds a block before passing it on.
    pub hold: u64,
}

impl Migratory {
    /// Creates a migratory chain over `blocks` striped blocks touched by
    /// processors `0..chain_len` in order.
    ///
    /// # Panics
    ///
    /// Panics if `chain_len` exceeds the node count or is zero.
    #[must_use]
    pub fn new(machine: MachineConfig, blocks: usize, chain_len: usize, iters: usize) -> Self {
        assert!(chain_len > 0 && chain_len <= machine.num_nodes);
        let mut space = AddressSpace::new(machine.clone());
        let region = space.alloc_striped(blocks);
        Migratory {
            machine,
            blocks: Arc::new(region),
            chain: ProcId::all(chain_len).collect(),
            iters,
            hold: 300,
        }
    }
}

impl Workload for Migratory {
    fn name(&self) -> &str {
        "migratory"
    }

    fn num_procs(&self) -> usize {
        self.machine.num_nodes
    }

    fn build_streams(&self) -> Vec<OpStream> {
        (0..self.num_procs())
            .map(|p| {
                let blocks = Arc::clone(&self.blocks);
                let chain = self.chain.clone();
                let hold = self.hold;
                PhasedStream::new(self.iters, move |_iter| {
                    // One barrier-separated turn per chain position:
                    // the block set migrates member to member in a
                    // strict, fully repeatable order (read + upgrade
                    // pairs, the paper's migratory signature).
                    let mut ops = Vec::new();
                    for &member in &chain {
                        if member == ProcId(p) {
                            for b in blocks.iter() {
                                ops.push(Op::Read(b));
                                ops.push(Op::Write(b));
                                ops.push(Op::Compute(hold / 4));
                            }
                        }
                        ops.push(Op::Barrier);
                    }
                    ops
                })
                .boxed()
            })
            .collect()
    }
}

/// Wide read-sharing: one producer, *all* other processors read every
/// block, in a jittered order (the unstructured-style phase with ~n
/// reads per write and heavy read re-ordering).
#[derive(Debug, Clone)]
pub struct WideSharing {
    machine: MachineConfig,
    blocks: Arc<Region>,
    /// Iterations.
    pub iters: usize,
    /// Jitter seed.
    pub seed: u64,
}

impl WideSharing {
    /// Creates a wide-sharing pattern over `blocks` blocks homed on
    /// node 0 (the producer).
    #[must_use]
    pub fn new(machine: MachineConfig, blocks: usize, iters: usize) -> Self {
        let mut space = AddressSpace::new(machine.clone());
        let region = space.alloc_on(NodeId(0), blocks);
        WideSharing {
            machine,
            blocks: Arc::new(region),
            iters,
            seed: 0xFACADE,
        }
    }
}

impl Workload for WideSharing {
    fn name(&self) -> &str {
        "wide-sharing"
    }

    fn num_procs(&self) -> usize {
        self.machine.num_nodes
    }

    fn build_streams(&self) -> Vec<OpStream> {
        let jitter = Jitter::new(self.seed);
        (0..self.num_procs())
            .map(|p| {
                let blocks = Arc::clone(&self.blocks);
                PhasedStream::new(self.iters, move |iter| {
                    let mut ops = Vec::new();
                    if p == 0 {
                        for b in blocks.iter() {
                            ops.push(Op::Write(b));
                        }
                    }
                    ops.push(Op::Barrier);
                    if p != 0 {
                        // Every consumer reads every block; the start
                        // offset is re-drawn each iteration, so arrival
                        // order at the directory churns.
                        ops.push(Op::Compute(jitter.pick(3_000, &[p as u64, iter as u64])));
                        for b in blocks.iter() {
                            ops.push(Op::Read(b));
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

    fn count_ops(w: &dyn Workload) -> Vec<usize> {
        w.build_streams().into_iter().map(Iterator::count).collect()
    }

    #[test]
    fn producer_consumer_shapes() {
        let m = MachineConfig::with_nodes(4);
        let pc = ProducerConsumer::new(m, 8, 2, 5);
        let counts = count_ops(&pc);
        assert_eq!(counts.len(), 4);
        // Producer: 8 writes + compute + 2 barriers per iter.
        assert_eq!(counts[0], 5 * (8 + 1 + 2));
        // Consumers 1..=2: compute + 2 barriers + 8 reads.
        assert_eq!(counts[1], 5 * (1 + 2 + 8));
        // Non-consumer: barriers only.
        assert_eq!(counts[3], 5 * 2);
    }

    #[test]
    fn streams_rebuild_identically() {
        let m = MachineConfig::with_nodes(4);
        let pc = ProducerConsumer::new(m, 4, 2, 3);
        let a: Vec<Vec<Op>> = pc
            .build_streams()
            .into_iter()
            .map(Iterator::collect)
            .collect();
        let b: Vec<Vec<Op>> = pc
            .build_streams()
            .into_iter()
            .map(Iterator::collect)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn migratory_chain_orders_accesses() {
        let m = MachineConfig::with_nodes(4);
        let mig = Migratory::new(m, 2, 3, 2);
        let streams: Vec<Vec<Op>> = mig
            .build_streams()
            .into_iter()
            .map(Iterator::collect)
            .collect();
        // Member 0 accesses before its first barrier; member 2 only in
        // the last turn of each iteration.
        assert!(matches!(streams[0][0], Op::Read(_)));
        let first_access_2 = streams[2]
            .iter()
            .position(|o| matches!(o, Op::Read(_)))
            .unwrap();
        assert_eq!(
            streams[2][..first_access_2]
                .iter()
                .filter(|o| matches!(o, Op::Barrier))
                .count(),
            2,
            "member 2 waits out two turns"
        );
        // Non-member only hits barriers: 3 turns x 2 iterations.
        assert_eq!(streams[3], vec![Op::Barrier; 6]);
    }

    #[test]
    fn wide_sharing_read_volume() {
        let m = MachineConfig::with_nodes(4);
        let w = WideSharing::new(m, 6, 3);
        let streams: Vec<Vec<Op>> = w
            .build_streams()
            .into_iter()
            .map(Iterator::collect)
            .collect();
        let reads = |ops: &[Op]| ops.iter().filter(|o| matches!(o, Op::Read(_))).count();
        assert_eq!(reads(&streams[0]), 0);
        assert_eq!(reads(&streams[1]), 6 * 3);
        // ~(n-1) reads per write.
        let writes = streams[0]
            .iter()
            .filter(|o| matches!(o, Op::Write(_)))
            .count();
        assert_eq!(writes, 6 * 3);
    }

    #[test]
    #[should_panic(expected = "consumers")]
    fn too_many_consumers_rejected() {
        let m = MachineConfig::with_nodes(4);
        let _ = ProducerConsumer::new(m, 4, 4, 1);
    }
}
