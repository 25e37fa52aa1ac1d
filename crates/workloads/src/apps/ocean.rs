//! ocean: near-neighbor grid relaxation (SPLASH-2).
//!
//! Paper description (§7.1, §7.4): a stencil where "processors only
//! communicate with their immediate neighbors and there is only a
//! single consumer per block", plus a *lock-based reduction* summing a
//! value over all processors at the end of every iteration — "the order
//! in which processors enter the lock changes every iteration reducing
//! VMSP's prediction accuracy to slightly below 100%". SWI fails on
//! ocean because the producer "writes multiple times to the block"
//! (two relaxation sweeps per iteration).

use std::sync::Arc;

use specdsm_types::{BlockAddr, LockId, MachineConfig, NodeId, Op, OpStream, Workload};

use crate::jitter::Jitter;
use crate::space::AddressSpace;
use crate::stream::PhasedStream;

/// ocean parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OceanParams {
    /// Grid dimension (Table 2: 130×130).
    pub n: usize,
    /// Iterations (Table 2: 12).
    pub iters: usize,
    /// Relaxation sweeps per iteration (the source of multi-writes).
    pub sweeps: usize,
    /// Compute cycles per owned row per sweep.
    pub row_compute: u64,
    /// Jitter amplitude on pre-reduction compute (drives the varying
    /// lock entry order).
    pub jitter_amplitude: f64,
    /// Seed.
    pub seed: u64,
}

impl OceanParams {
    /// The paper's Table 2 input: 130×130 array, 12 iterations.
    #[must_use]
    pub fn paper() -> Self {
        OceanParams {
            n: 130,
            iters: 12,
            sweeps: 2,
            row_compute: 1_200,
            jitter_amplitude: 0.5,
            seed: 0x0CEA,
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
        OceanParams {
            n: 34,
            iters: 3,
            ..Self::paper()
        }
    }
}

#[derive(Debug)]
struct Layout {
    boundary: Vec<Vec<BlockAddr>>,
    /// The lock-protected global reduction cell.
    sum_block: BlockAddr,
}

/// The ocean workload.
#[derive(Debug, Clone)]
pub struct Ocean {
    machine: MachineConfig,
    params: OceanParams,
    layout: Arc<Layout>,
}

impl Ocean {
    /// Builds the row-band partitioning for `machine`.
    #[must_use]
    pub fn new(machine: MachineConfig, params: OceanParams) -> Self {
        let nprocs = machine.num_nodes;
        let mut space = AddressSpace::new(machine.clone());
        let blocks_per_boundary = (params.n / 4).max(1);
        let boundary = (0..nprocs)
            .map(|q| {
                space
                    .alloc_on(NodeId(q), blocks_per_boundary)
                    .iter()
                    .collect()
            })
            .collect();
        let sum_block = space.alloc_on(NodeId(0), 1).block(0);
        Ocean {
            machine,
            params,
            layout: Arc::new(Layout {
                boundary,
                sum_block,
            }),
        }
    }
}

impl Workload for Ocean {
    fn name(&self) -> &str {
        "ocean"
    }

    fn num_procs(&self) -> usize {
        self.machine.num_nodes
    }

    fn build_streams(&self) -> Vec<OpStream> {
        let jitter = Jitter::new(self.params.seed);
        let nprocs = self.num_procs();
        let rows_per_proc = (self.params.n / nprocs).max(1) as u64;
        let compute = rows_per_proc * self.params.row_compute;
        let sweeps = self.params.sweeps;
        (0..nprocs)
            .map(|p| {
                let layout = Arc::clone(&self.layout);
                let amp = self.params.jitter_amplitude;
                PhasedStream::new(self.params.iters, move |iter| {
                    let it = iter as u64;
                    let mut ops = Vec::new();
                    for sweep in 0..sweeps {
                        let sw = sweep as u64;
                        // Consumer read of the neighbor's boundary, at
                        // phase start.
                        if p > 0 {
                            for &b in &layout.boundary[p - 1] {
                                ops.push(Op::Read(b));
                            }
                        }
                        ops.push(Op::Compute(jitter.stretch(
                            compute,
                            0.05,
                            &[p as u64, it, sw, 0],
                        )));
                        // Producer re-read of its own boundary, late
                        // (Gauss-Seidel reads current values in place).
                        if p < nprocs - 1 {
                            for &b in &layout.boundary[p] {
                                ops.push(Op::Read(b));
                            }
                        }
                        ops.push(Op::Barrier);
                        // Relaxation update: two passes over the
                        // boundary row in the same phase. The paper's
                        // reason SWI fails on ocean: "the producer ...
                        // writes multiple times to the block" — the
                        // second pass re-touches blocks SWI just
                        // invalidated, flagging the invalidation
                        // premature.
                        if p < nprocs - 1 {
                            for &b in &layout.boundary[p] {
                                ops.push(Op::Write(b));
                            }
                            ops.push(Op::Compute(compute / 16));
                            for &b in &layout.boundary[p] {
                                ops.push(Op::Write(b));
                            }
                        }
                        ops.push(Op::Compute(compute / 8));
                        ops.push(Op::Barrier);
                    }
                    // Lock-based global reduction; the jittered compute
                    // ahead of the lock shuffles the entry order every
                    // iteration.
                    ops.push(Op::Compute(jitter.stretch(
                        compute / 2,
                        amp,
                        &[p as u64, it, 99],
                    )));
                    ops.push(Op::Lock(LockId(0)));
                    ops.push(Op::Read(layout.sum_block));
                    ops.push(Op::Compute(50));
                    ops.push(Op::Write(layout.sum_block));
                    ops.push(Op::Unlock(LockId(0)));
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

    fn quick() -> Ocean {
        Ocean::new(MachineConfig::paper_machine(), OceanParams::quick())
    }

    #[test]
    fn reduction_is_lock_protected_by_everyone() {
        let app = quick();
        for stream in app.build_streams() {
            let ops: Vec<Op> = stream.collect();
            let locks = ops.iter().filter(|o| matches!(o, Op::Lock(_))).count();
            let unlocks = ops.iter().filter(|o| matches!(o, Op::Unlock(_))).count();
            assert_eq!(locks, app.params.iters);
            assert_eq!(locks, unlocks);
            // Sum block accessed once per iteration under the lock.
            let sum_writes = ops
                .iter()
                .filter(|o| matches!(o, Op::Write(b) if *b == app.layout.sum_block))
                .count();
            assert_eq!(sum_writes, app.params.iters);
        }
    }

    #[test]
    fn producer_writes_twice_every_sweep() {
        let app = quick();
        let ops: Vec<Op> = app.build_streams().remove(0).collect();
        let b = app.layout.boundary[0][0];
        let writes = ops
            .iter()
            .filter(|o| matches!(o, Op::Write(x) if *x == b))
            .count();
        assert_eq!(writes, 2 * app.params.iters * app.params.sweeps);
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
        assert_eq!(counts[0], app.params.iters * (2 * app.params.sweeps + 1));
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

    #[test]
    fn paper_params_match_table_2() {
        let p = OceanParams::paper();
        assert_eq!(p.n, 130);
        assert_eq!(p.iters, 12);
    }
}
