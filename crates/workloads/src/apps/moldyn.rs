//! moldyn: CHARMM-like molecular dynamics.
//!
//! Paper description (§7.1, §7.4): "Moldyn exhibits both
//! producer/consumer and migratory sharing. In the producer/consumer
//! phase the producer reads the blocks shortly after writing to them",
//! so SWI misspeculates there and gets suppressed; the migratory
//! patterns "remain static throughout the application and are highly
//! predictable" and SWI succeeds on them (68% of all writes), while FR
//! captures the producer/consumer reads. Both MSP and VMSP reach
//! 98–99% accuracy.
//!
//! We model per-processor coordinate blocks (producer/consumer with
//! 1–2 static neighbor readers, re-read by the owner at force time) and
//! static migratory interaction blocks walked by fixed 2–3 processor
//! chains.

use std::sync::Arc;

use specdsm_types::{BlockAddr, MachineConfig, NodeId, Op, OpStream, Workload};

use crate::jitter::Jitter;
use crate::space::AddressSpace;
use crate::stream::PhasedStream;

/// moldyn parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoldynParams {
    /// Shared coordinate blocks per processor.
    pub coord_blocks: usize,
    /// Migratory interaction blocks (total).
    pub pair_blocks: usize,
    /// Iterations (Table 2: 60).
    pub iters: usize,
    /// Compute cycles per force interaction.
    pub interaction_compute: u64,
    /// Jitter amplitude.
    pub jitter_amplitude: f64,
    /// Seed.
    pub seed: u64,
}

impl MoldynParams {
    /// The paper's Table 2 input: 2048 particles, 60 iterations.
    /// 2048 particles / 16 procs = 128 per proc; particles near a
    /// partition boundary are shared (~20 coordinate blocks per proc),
    /// and the cross-processor interaction lists give ~256 migratory
    /// pair blocks — sized so migratory writes are about two thirds of
    /// all writes (the paper's 68% SWI share).
    #[must_use]
    pub fn paper() -> Self {
        MoldynParams {
            coord_blocks: 20,
            pair_blocks: 256,
            iters: 60,
            interaction_compute: 160,
            jitter_amplitude: 0.25,
            seed: 0x30D11,
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
        MoldynParams {
            coord_blocks: 6,
            pair_blocks: 8,
            iters: 3,
            ..Self::paper()
        }
    }
}

#[derive(Debug)]
struct Topology {
    /// Per proc: its shared coordinate blocks.
    coords: Vec<Vec<BlockAddr>>,
    /// Per proc: the remote coordinate blocks it reads at force time.
    coord_reads: Vec<Vec<BlockAddr>>,
    /// Migratory blocks with their static chains (ordered processor
    /// lists).
    pairs: Vec<(BlockAddr, Vec<usize>)>,
}

/// The moldyn workload.
#[derive(Debug, Clone)]
pub struct Moldyn {
    machine: MachineConfig,
    params: MoldynParams,
    topo: Arc<Topology>,
}

impl Moldyn {
    /// Builds the static interaction topology for `machine`.
    #[must_use]
    pub fn new(machine: MachineConfig, params: MoldynParams) -> Self {
        let n = machine.num_nodes;
        let jitter = Jitter::new(params.seed);
        let mut space = AddressSpace::new(machine.clone());
        let mut coords = Vec::with_capacity(n);
        let mut coord_reads = vec![Vec::new(); n];
        for q in 0..n {
            let region = space.alloc_on(NodeId(q), params.coord_blocks);
            let blocks: Vec<BlockAddr> = region.iter().collect();
            for (i, &b) in blocks.iter().enumerate() {
                // 1–2 static neighbor readers per coordinate block
                // (small read-sharing degree).
                let c1 = (q + 1 + jitter.pick(3, &[q as u64, i as u64, 1]) as usize) % n;
                coord_reads[c1].push(b);
                let c2 = (q + n - 1) % n;
                if c2 != c1 {
                    coord_reads[c2].push(b);
                }
                if jitter.chance(0.25, &[q as u64, i as u64, 2]) {
                    // `2 * n` keeps the subtraction from underflowing
                    // on a one-node machine.
                    let c3 = (q + 2 * n - 2) % n;
                    if c3 != c1 && c3 != c2 && c3 != q {
                        coord_reads[c3].push(b);
                    }
                }
            }
            coords.push(blocks);
        }
        // Migratory interaction blocks: static chains of 2–3 procs. A
        // chain's blocks all live at one home (where the interaction
        // list was first touched), so the per-home SWI table sees the
        // chain members' back-to-back writes.
        let mut pairs = Vec::with_capacity(params.pair_blocks);
        for i in 0..params.pair_blocks {
            let len = 2 + jitter.pick(2, &[i as u64, 3]) as usize;
            let start = jitter.pick(n as u64, &[i as u64, 4]) as usize;
            let chain: Vec<usize> = (0..len).map(|k| (start + k) % n).collect();
            let b = space.alloc_on(NodeId(chain[0]), 1).block(0);
            pairs.push((b, chain));
        }
        Moldyn {
            machine,
            params,
            topo: Arc::new(Topology {
                coords,
                coord_reads,
                pairs,
            }),
        }
    }
}

impl Workload for Moldyn {
    fn name(&self) -> &str {
        "moldyn"
    }

    fn num_procs(&self) -> usize {
        self.machine.num_nodes
    }

    fn build_streams(&self) -> Vec<OpStream> {
        let jitter = Jitter::new(self.params.seed);
        (0..self.num_procs())
            .map(|p| {
                let topo = Arc::clone(&self.topo);
                let params = self.params;
                PhasedStream::new(self.params.iters, move |iter| {
                    let it = iter as u64;
                    let mut ops = Vec::new();
                    // --- Force phase ----------------------------------
                    // The owner re-reads its own coordinates *first*
                    // (local, fast — so after an SWI invalidation this
                    // is the request that reaches the directory first
                    // and flags the invalidation premature, matching the
                    // paper's "producer reads the blocks shortly after
                    // writing to them").
                    for &b in &topo.coords[p] {
                        ops.push(Op::Read(b));
                    }
                    ops.push(Op::Compute(jitter.stretch(
                        3_000,
                        params.jitter_amplitude,
                        &[p as u64, it, 0],
                    )));
                    for &b in &topo.coord_reads[p] {
                        ops.push(Op::Read(b));
                        ops.push(Op::Compute(params.interaction_compute));
                    }
                    // Migratory interactions: each chain member updates
                    // the pair block in its slot of the phase, staggered
                    // deterministically so the order is static.
                    let mut my_pairs: Vec<(BlockAddr, usize)> = Vec::new();
                    for (b, chain) in topo.pairs.iter() {
                        if let Some(pos) = chain.iter().position(|&q| q == p) {
                            my_pairs.push((*b, pos));
                        }
                    }
                    my_pairs.sort_by_key(|&(_, pos)| pos);
                    let mut last_pos = 0;
                    for (b, pos) in my_pairs {
                        if pos > last_pos {
                            ops.push(Op::Compute(2_000 * (pos - last_pos) as u64));
                            last_pos = pos;
                        }
                        ops.push(Op::Read(b));
                        ops.push(Op::Write(b));
                        ops.push(Op::Compute(params.interaction_compute));
                    }
                    ops.push(Op::Barrier);
                    // --- Update phase ---------------------------------
                    // Write the new coordinates back to back.
                    for &b in &topo.coords[p] {
                        ops.push(Op::Write(b));
                    }
                    ops.push(Op::Compute(jitter.stretch(
                        500,
                        params.jitter_amplitude,
                        &[p as u64, it, 1],
                    )));
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

    fn quick() -> Moldyn {
        Moldyn::new(MachineConfig::paper_machine(), MoldynParams::quick())
    }

    #[test]
    fn coordinate_blocks_have_remote_readers() {
        let app = quick();
        let consumed: std::collections::HashSet<BlockAddr> = (0..16)
            .flat_map(|p| app.topo.coord_reads[p].iter().copied())
            .collect();
        for q in 0..16 {
            for &b in &app.topo.coords[q] {
                assert!(consumed.contains(&b));
                // And the owner is never in its own consumer list.
                assert!(!app.topo.coord_reads[q].contains(&b));
            }
        }
    }

    #[test]
    fn migratory_chains_are_static_and_short() {
        let app = quick();
        for (_, chain) in &app.topo.pairs {
            assert!((2..=3).contains(&chain.len()));
            let unique: std::collections::HashSet<_> = chain.iter().collect();
            assert_eq!(unique.len(), chain.len(), "no repeats in a chain");
        }
    }

    #[test]
    fn owner_reads_own_coords_before_writing() {
        // Read-before-write on own coordinates is what defeats SWI in
        // the producer/consumer phase.
        let app = quick();
        let ops: Vec<Op> = app.build_streams().remove(0).collect();
        let own = app.topo.coords[0][0];
        let first_read = ops
            .iter()
            .position(|o| matches!(o, Op::Read(b) if *b == own))
            .expect("owner reads its coords");
        let first_write = ops
            .iter()
            .position(|o| matches!(o, Op::Write(b) if *b == own))
            .expect("owner writes its coords");
        assert!(first_read < first_write);
    }

    #[test]
    fn migratory_writes_outnumber_coord_writes_at_paper_scale() {
        // The paper's SWI split: 68% of writes come from the migratory
        // phase.
        let p = MoldynParams::paper();
        let coord_writes = p.coord_blocks * 16;
        let migratory_writes_lower_bound = p.pair_blocks * 2;
        assert!(migratory_writes_lower_bound as f64 >= coord_writes as f64 * 0.3);
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
