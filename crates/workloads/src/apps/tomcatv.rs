//! tomcatv: a mesh-generation stencil (SPEC).
//!
//! Paper description (§7.1, §7.4): row-partitioned stencil where
//! "processors own and compute sets of rows in matrices and share at
//! the set boundaries"; a single consumer per block; all predictors
//! reach 100% accuracy. Per iteration the producers write once in the
//! main phase but "write again to half of boundary blocks in a
//! correction phase", so SWI succeeds on only half the writes. "Because
//! the producer first reads then writes, every block has two readers"
//! (producer + consumer), which lets FR push the producer's re-read
//! when the consumer's read arrives.

use std::sync::Arc;

use specdsm_types::{BlockAddr, MachineConfig, NodeId, Op, OpStream, Workload};

use crate::jitter::Jitter;
use crate::space::AddressSpace;
use crate::stream::PhasedStream;

/// tomcatv parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TomcatvParams {
    /// Grid dimension (Table 2: 128×128).
    pub n: usize,
    /// Iterations (Table 2: 50).
    pub iters: usize,
    /// Compute cycles per owned grid row per phase.
    pub row_compute: u64,
    /// Jitter/topology seed.
    pub seed: u64,
}

impl TomcatvParams {
    /// The paper's Table 2 input: 128×128 array, 50 iterations.
    #[must_use]
    pub fn paper() -> Self {
        TomcatvParams {
            n: 128,
            iters: 50,
            row_compute: 1_500,
            seed: 0x70CA7,
        }
    }

    /// Same as paper (the input is already small).
    #[must_use]
    pub fn default_scale() -> Self {
        Self::paper()
    }

    /// Tiny input for unit tests.
    #[must_use]
    pub fn quick() -> Self {
        TomcatvParams {
            n: 32,
            iters: 3,
            ..Self::paper()
        }
    }
}

#[derive(Debug)]
struct Layout {
    /// Per proc: its boundary blocks (produced for the next proc).
    boundary: Vec<Vec<BlockAddr>>,
}

/// The tomcatv workload.
#[derive(Debug, Clone)]
pub struct Tomcatv {
    machine: MachineConfig,
    params: TomcatvParams,
    layout: Arc<Layout>,
}

impl Tomcatv {
    /// Builds the row partitioning for `machine`.
    #[must_use]
    pub fn new(machine: MachineConfig, params: TomcatvParams) -> Self {
        let nprocs = machine.num_nodes;
        let mut space = AddressSpace::new(machine.clone());
        // A boundary row of n doubles = n*8 bytes = n/4 blocks of 32 B.
        let blocks_per_boundary = (params.n / 4).max(1);
        let boundary = (0..nprocs)
            .map(|q| {
                space
                    .alloc_on(NodeId(q), blocks_per_boundary)
                    .iter()
                    .collect()
            })
            .collect();
        Tomcatv {
            machine,
            params,
            layout: Arc::new(Layout { boundary }),
        }
    }
}

impl Workload for Tomcatv {
    fn name(&self) -> &str {
        "tomcatv"
    }

    fn num_procs(&self) -> usize {
        self.machine.num_nodes
    }

    fn build_streams(&self) -> Vec<OpStream> {
        let jitter = Jitter::new(self.params.seed);
        let nprocs = self.num_procs();
        let rows_per_proc = (self.params.n / nprocs).max(1) as u64;
        let compute = rows_per_proc * self.params.row_compute;
        (0..nprocs)
            .map(|p| {
                let layout = Arc::clone(&self.layout);
                PhasedStream::new(self.params.iters, move |iter| {
                    let it = iter as u64;
                    let mut ops = Vec::new();
                    // --- Read phase -----------------------------------
                    // Consumer read: proc p reads the boundary of the
                    // proc above it, immediately at phase start (so the
                    // consumer's read reaches the directory first and is
                    // the FR trigger).
                    if p > 0 {
                        for &b in &layout.boundary[p - 1] {
                            ops.push(Op::Read(b));
                        }
                    }
                    // Interior stencil work.
                    ops.push(Op::Compute(jitter.stretch(compute, 0.05, &[p as u64, it])));
                    // Producer re-read: the stencil reads its own old
                    // boundary values *late* in the phase, after the
                    // consumer's read has already stolen the writable
                    // copy — the paper's "two readers per block".
                    if p < nprocs - 1 {
                        for &b in &layout.boundary[p] {
                            ops.push(Op::Read(b));
                        }
                    }
                    ops.push(Op::Barrier);
                    // --- Write phase ----------------------------------
                    if p < nprocs - 1 {
                        for &b in &layout.boundary[p] {
                            ops.push(Op::Write(b));
                        }
                        ops.push(Op::Compute(compute / 8));
                        // Correction phase: half the boundary blocks are
                        // written a second time ("producers write again
                        // to half of boundary blocks").
                        let half = layout.boundary[p].len() / 2;
                        for &b in &layout.boundary[p][..half] {
                            ops.push(Op::Write(b));
                        }
                    } else {
                        ops.push(Op::Compute(compute / 8));
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

    fn quick() -> Tomcatv {
        Tomcatv::new(MachineConfig::paper_machine(), TomcatvParams::quick())
    }

    #[test]
    fn boundary_blocks_live_on_owner_home() {
        let app = quick();
        for q in 0..16 {
            for &b in &app.layout.boundary[q] {
                assert_eq!(app.machine.home_of(b), NodeId(q));
            }
        }
    }

    #[test]
    fn single_remote_consumer_per_block() {
        // Block of proc q is read by exactly q and q+1.
        let app = quick();
        let streams: Vec<Vec<Op>> = app
            .build_streams()
            .into_iter()
            .map(Iterator::collect)
            .collect();
        for q in 0..15usize {
            let b = app.layout.boundary[q][0];
            let readers: Vec<usize> = (0..16)
                .filter(|&p| {
                    streams[p]
                        .iter()
                        .any(|o| matches!(o, Op::Read(x) if *x == b))
                })
                .collect();
            assert_eq!(readers, vec![q, q + 1], "block of P{q}");
        }
    }

    #[test]
    fn correction_rewrites_half_the_boundary() {
        let app = quick();
        let streams: Vec<Vec<Op>> = app
            .build_streams()
            .into_iter()
            .map(Iterator::collect)
            .collect();
        let b_corrected = app.layout.boundary[0][0];
        let b_plain = *app.layout.boundary[0].last().unwrap();
        let writes = |b: BlockAddr| {
            streams[0]
                .iter()
                .filter(|o| matches!(o, Op::Write(x) if *x == b))
                .count()
        };
        assert_eq!(writes(b_corrected), 2 * app.params.iters);
        assert_eq!(writes(b_plain), app.params.iters);
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

    #[test]
    fn paper_params_match_table_2() {
        let p = TomcatvParams::paper();
        assert_eq!(p.n, 128);
        assert_eq!(p.iters, 50);
    }
}
