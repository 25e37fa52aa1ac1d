//! appbt: NAS block-tridiagonal solver (gaussian elimination over a
//! cube).
//!
//! Paper description (§7.1, §7.4): processors own subcubes and share
//! boundary values on the subcube surfaces. "Because the gaussian
//! elimination proceeds in all three cube dimensions in subsequent
//! steps, the memory blocks located at a subcube edge are consumed by
//! two different processors along two different dimensions", so at
//! history depth 1 every predictor tops out around 90% while depth 2
//! reaches 100%. Interestingly, Cosmos's acknowledgements *help* here:
//! the ack from invalidating the previous dimension's reader
//! disambiguates which reader comes next — so Cosmos slightly beats MSP
//! on this one application. The elimination itself is a pipeline
//! ("processors proceed in a pipeline and data are passed in a strict
//! producer/consumer manner").
//!
//! We model the 16 processors as a 4×4 grid of subdomains and alternate
//! X- and Y-dimension sweeps; *edge* blocks belong to both boundary
//! sets, *face* blocks to one.

use std::sync::Arc;

use specdsm_types::{BlockAddr, MachineConfig, NodeId, Op, OpStream, Workload};

use crate::jitter::Jitter;
use crate::space::AddressSpace;
use crate::stream::PhasedStream;

/// appbt parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppbtParams {
    /// Face-boundary blocks per processor per direction (single-sweep
    /// consumers).
    pub face_blocks: usize,
    /// Edge blocks per processor (consumed along *both* dimensions).
    pub edge_blocks: usize,
    /// Iterations (Table 2: 40).
    pub iters: usize,
    /// Per-pipeline-stage compute cycles.
    pub stage_compute: u64,
    /// Seed.
    pub seed: u64,
}

impl AppbtParams {
    /// The paper's Table 2 input: 12×12×12 cubes, 40 iterations. A
    /// 12³ cube split 4×4 gives 3×12 interface values (~36 blocks per
    /// face at 8-byte values, 32-byte blocks); the shared edge strip is
    /// ~12 blocks.
    #[must_use]
    pub fn paper() -> Self {
        AppbtParams {
            face_blocks: 36,
            edge_blocks: 12,
            iters: 40,
            stage_compute: 2_500,
            seed: 0xAB7,
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
        AppbtParams {
            face_blocks: 4,
            edge_blocks: 2,
            iters: 3,
            ..Self::paper()
        }
    }
}

#[derive(Debug)]
struct Layout {
    /// Per proc: blocks consumed by the X-dimension neighbor only.
    x_face: Vec<Vec<BlockAddr>>,
    /// Per proc: blocks consumed by the Y-dimension neighbor only.
    y_face: Vec<Vec<BlockAddr>>,
    /// Per proc: blocks consumed by both neighbors (one per sweep).
    edge: Vec<Vec<BlockAddr>>,
    /// Grid side (√nprocs).
    side: usize,
}

/// The appbt workload.
#[derive(Debug, Clone)]
pub struct Appbt {
    machine: MachineConfig,
    params: AppbtParams,
    layout: Arc<Layout>,
}

impl Appbt {
    /// Builds the subdomain grid for `machine`.
    ///
    /// # Panics
    ///
    /// Panics if the node count is not a perfect square (the subcube
    /// grid needs one).
    #[must_use]
    pub fn new(machine: MachineConfig, params: AppbtParams) -> Self {
        let nprocs = machine.num_nodes;
        let side = (nprocs as f64).sqrt() as usize;
        assert_eq!(side * side, nprocs, "appbt needs a square processor grid");
        let mut space = AddressSpace::new(machine.clone());
        let mut layout = Layout {
            x_face: Vec::with_capacity(nprocs),
            y_face: Vec::with_capacity(nprocs),
            edge: Vec::with_capacity(nprocs),
            side,
        };
        for q in 0..nprocs {
            let home = NodeId(q);
            layout
                .x_face
                .push(space.alloc_on(home, params.face_blocks).iter().collect());
            layout
                .y_face
                .push(space.alloc_on(home, params.face_blocks).iter().collect());
            layout
                .edge
                .push(space.alloc_on(home, params.edge_blocks).iter().collect());
        }
        Appbt {
            machine,
            params,
            layout: Arc::new(layout),
        }
    }
}

impl Workload for Appbt {
    fn name(&self) -> &str {
        "appbt"
    }

    fn num_procs(&self) -> usize {
        self.machine.num_nodes
    }

    fn build_streams(&self) -> Vec<OpStream> {
        let jitter = Jitter::new(self.params.seed);
        let stage = self.params.stage_compute;
        (0..self.num_procs())
            .map(|p| {
                let layout = Arc::clone(&self.layout);
                let side = layout.side;
                let (col, row) = (p % side, p / side);
                PhasedStream::new(self.params.iters, move |iter| {
                    let it = iter as u64;
                    let mut ops = Vec::new();
                    // ---- X sweep: pipeline along each row ------------
                    // Stage stagger emulates the pipeline fill: column i
                    // starts after column i-1 produced its boundary.
                    ops.push(Op::Compute(jitter.stretch(
                        stage * (col as u64 + 1),
                        0.1,
                        &[p as u64, it, 0],
                    )));
                    if col > 0 {
                        let west = p - 1;
                        for &b in layout.x_face[west].iter().chain(&layout.edge[west]) {
                            ops.push(Op::Read(b));
                        }
                    }
                    ops.push(Op::Compute(stage / 2));
                    if col < side - 1 {
                        // The elimination reads the previous boundary
                        // values before producing new ones, so each
                        // block has two readers — producer + consumer —
                        // and FR can push the producer's re-read when
                        // the consumer's read arrives (paper §7.4).
                        for &b in layout.x_face[p].iter().chain(&layout.edge[p]) {
                            ops.push(Op::Read(b));
                        }
                        // Forward elimination + back substitution touch
                        // the boundary twice, which is why SWI "fails in
                        // these applications; the producer ... writes
                        // multiple times to the block" (paper §7.4).
                        for &b in layout.x_face[p].iter().chain(&layout.edge[p]) {
                            ops.push(Op::Write(b));
                        }
                        ops.push(Op::Compute(stage / 4));
                        for &b in layout.x_face[p].iter().chain(&layout.edge[p]) {
                            ops.push(Op::Write(b));
                        }
                    }
                    ops.push(Op::Barrier);
                    // ---- Y sweep: pipeline along each column ---------
                    ops.push(Op::Compute(jitter.stretch(
                        stage * (row as u64 + 1),
                        0.1,
                        &[p as u64, it, 1],
                    )));
                    if row > 0 {
                        let north = p - side;
                        for &b in layout.y_face[north].iter().chain(&layout.edge[north]) {
                            ops.push(Op::Read(b));
                        }
                    }
                    ops.push(Op::Compute(stage / 2));
                    if row < side - 1 {
                        for &b in layout.y_face[p].iter().chain(&layout.edge[p]) {
                            ops.push(Op::Read(b));
                        }
                        for &b in layout.y_face[p].iter().chain(&layout.edge[p]) {
                            ops.push(Op::Write(b));
                        }
                        ops.push(Op::Compute(stage / 4));
                        for &b in layout.y_face[p].iter().chain(&layout.edge[p]) {
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

    fn quick() -> Appbt {
        Appbt::new(MachineConfig::paper_machine(), AppbtParams::quick())
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_grid_rejected() {
        let _ = Appbt::new(MachineConfig::with_nodes(6), AppbtParams::quick());
    }

    #[test]
    fn edge_blocks_have_two_distinct_consumers() {
        // The paper's key appbt property: an edge block of proc (r, c)
        // is read by the X neighbor in X sweeps and the Y neighbor in
        // Y sweeps.
        let app = quick();
        let streams: Vec<Vec<Op>> = app
            .build_streams()
            .into_iter()
            .map(Iterator::collect)
            .collect();
        // Proc 5 = (row 1, col 1) in the 4×4 grid: neighbors 6 (east)
        // and 9 (south).
        let b = app.layout.edge[5][0];
        let readers: Vec<usize> = (0..16)
            .filter(|&q| {
                streams[q]
                    .iter()
                    .any(|o| matches!(o, Op::Read(x) if *x == b))
            })
            .collect();
        // Producer (5) re-reads its own boundary; consumers are the X
        // neighbor (6) and the Y neighbor (9).
        assert_eq!(readers, vec![5, 6, 9]);
    }

    #[test]
    fn face_blocks_have_one_consumer() {
        let app = quick();
        let streams: Vec<Vec<Op>> = app
            .build_streams()
            .into_iter()
            .map(Iterator::collect)
            .collect();
        let b = app.layout.x_face[5][0];
        let readers: Vec<usize> = (0..16)
            .filter(|&q| {
                streams[q]
                    .iter()
                    .any(|o| matches!(o, Op::Read(x) if *x == b))
            })
            .collect();
        // Producer re-read plus the single X-dimension consumer.
        assert_eq!(readers, vec![5, 6]);
    }

    #[test]
    fn pipeline_stagger_orders_columns() {
        let app = quick();
        let streams: Vec<Vec<Op>> = app
            .build_streams()
            .into_iter()
            .map(Iterator::collect)
            .collect();
        let first_compute = |ops: &[Op]| match ops[0] {
            Op::Compute(n) => n,
            _ => panic!("expected compute first"),
        };
        // Column 0 (proc 0) starts earlier than column 3 (proc 3).
        assert!(first_compute(&streams[0]) < first_compute(&streams[3]));
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
        assert_eq!(counts[0], app.params.iters * 2);
    }

    #[test]
    fn paper_params_match_table_2() {
        assert_eq!(AppbtParams::paper().iters, 40);
    }
}
