//! Adversarial conflict generators.
//!
//! The application suite is *polite*: its sharing phases are
//! barrier-separated. These generators are built to be rude — long
//! barrier-free bursts of cross-node coherence traffic whose reply and
//! forward chains cross shard boundaries inside every window of the
//! windowed engine. The differential suite runs them on both engines
//! and demands that the windowed one tracks the sequential one.

use std::sync::Arc;

use specdsm_types::{MachineConfig, NodeId, Op, OpStream, Workload};

use crate::jitter::Jitter;
use crate::space::{AddressSpace, Region};
use crate::stream::PhasedStream;

/// Hotspot-home storm: every processor hammers a small block set homed
/// on node 0 with interleaved reads and writes, in per-processor
/// rotated order, with jittered gaps — and no synchronization until the
/// end-of-iteration barrier.
///
/// Ownership of each hot block ping-pongs across all nodes; every
/// access is a request to home 0 whose reply or forward crosses a shard
/// boundary.
#[derive(Debug, Clone)]
pub struct HotspotStorm {
    machine: MachineConfig,
    hot: Arc<Region>,
    /// Accesses each processor issues per iteration.
    pub burst: usize,
    /// Iterations (barrier-separated).
    pub iters: usize,
    /// Mean compute gap between accesses, in cycles.
    pub gap: u64,
    /// Jitter seed.
    pub seed: u64,
}

impl HotspotStorm {
    /// Creates a storm over `blocks` blocks homed on node 0.
    #[must_use]
    pub fn new(machine: MachineConfig, blocks: usize, burst: usize, iters: usize) -> Self {
        let mut space = AddressSpace::new(machine.clone());
        let hot = space.alloc_on(NodeId(0), blocks);
        HotspotStorm {
            machine,
            hot: Arc::new(hot),
            burst,
            iters,
            gap: 150,
            seed: 0x0057_0211,
        }
    }
}

impl Workload for HotspotStorm {
    fn name(&self) -> &str {
        "hotspot-storm"
    }

    fn num_procs(&self) -> usize {
        self.machine.num_nodes
    }

    fn build_streams(&self) -> Vec<OpStream> {
        let jitter = Jitter::new(self.seed);
        (0..self.num_procs())
            .map(|p| {
                let hot = Arc::clone(&self.hot);
                let (burst, gap) = (self.burst, self.gap);
                PhasedStream::new(self.iters, move |iter| {
                    let mut ops = Vec::with_capacity(2 * burst + 2);
                    // Desynchronize the burst starts a little so the
                    // request storms overlap rather than align.
                    ops.push(Op::Compute(jitter.pick(gap * 4, &[p as u64, iter as u64])));
                    for k in 0..burst {
                        // Rotated walk: each processor starts at a
                        // different hot block and they collide all the
                        // way around.
                        let b = hot.block((p + iter * 3 + k) % hot.len());
                        if (p + k) % 3 == 0 {
                            ops.push(Op::Write(b));
                        } else {
                            ops.push(Op::Read(b));
                        }
                        ops.push(Op::Compute(jitter.stretch(
                            gap,
                            0.5,
                            &[p as u64, iter as u64, k as u64],
                        )));
                    }
                    ops.push(Op::Barrier);
                    ops
                })
                .boxed()
            })
            .collect()
    }
}

/// Migratory ping-pong: processors are paired `(2i, 2i+1)`; each pair
/// read-modify-writes a private block set homed on the even member's
/// node, alternating turns on a compute-timed cadence with **no**
/// synchronization inside an iteration.
///
/// Every turn handoff moves exclusive ownership across the pair's shard
/// boundary (read → forward → invalidate → upgrade), so windows
/// continuously carry cross-shard dependency chains in both
/// directions.
#[derive(Debug, Clone)]
pub struct MigratoryPingPong {
    machine: MachineConfig,
    /// One region per processor pair, homed on the even member's node.
    regions: Vec<Arc<Region>>,
    /// Turn alternations per iteration.
    pub turns: usize,
    /// Iterations (barrier-separated).
    pub iters: usize,
    /// Compute cycles a member holds the blocks per turn.
    pub hold: u64,
}

impl MigratoryPingPong {
    /// Creates the ping-pong over `blocks_per_pair` blocks for each
    /// processor pair. An odd final processor (if any) only joins the
    /// barriers.
    #[must_use]
    pub fn new(machine: MachineConfig, blocks_per_pair: usize, turns: usize, iters: usize) -> Self {
        let mut space = AddressSpace::new(machine.clone());
        let regions = (0..machine.num_nodes / 2)
            .map(|pair| Arc::new(space.alloc_on(NodeId(2 * pair), blocks_per_pair)))
            .collect();
        MigratoryPingPong {
            machine,
            regions,
            turns,
            iters,
            hold: 400,
        }
    }
}

impl Workload for MigratoryPingPong {
    fn name(&self) -> &str {
        "migratory-ping-pong"
    }

    fn num_procs(&self) -> usize {
        self.machine.num_nodes
    }

    fn build_streams(&self) -> Vec<OpStream> {
        (0..self.num_procs())
            .map(|p| {
                let region = self.regions.get(p / 2).map(Arc::clone);
                let (turns, hold) = (self.turns, self.hold);
                PhasedStream::new(self.iters, move |_iter| {
                    let mut ops = Vec::new();
                    if let Some(region) = &region {
                        for t in 0..turns {
                            if (t % 2 == 0) == (p % 2 == 0) {
                                // My turn: migrate every block here.
                                for b in region.iter() {
                                    ops.push(Op::Read(b));
                                    ops.push(Op::Write(b));
                                }
                                ops.push(Op::Compute(hold));
                            } else {
                                // Partner's turn: sit out roughly as
                                // long as a turn takes, so the RMW
                                // trains interleave instead of queueing
                                // behind a barrier.
                                ops.push(Op::Compute(hold * 2));
                            }
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

/// False-sharing storm: a small set of blocks, one homed on every
/// node, that *all* processors write in rotated order with jittered
/// gaps — the block-granular picture of unrelated data packed into
/// shared cache lines.
///
/// Unlike [`HotspotStorm`] (every request funnels into home 0) the
/// write-write conflicts here hit every directory at once: each write
/// is an upgrade-or-write-miss that invalidates whichever processor
/// wrote the block last, so exclusive ownership of every line migrates
/// continuously across *all* shard boundaries: every shard is
/// simultaneously a home under attack and a writer being invalidated.
#[derive(Debug, Clone)]
pub struct FalseSharingStorm {
    machine: MachineConfig,
    /// The contended lines, one region per home node.
    lines: Arc<Vec<Region>>,
    /// Writes each processor issues per iteration.
    pub writes: usize,
    /// Iterations (barrier-separated).
    pub iters: usize,
    /// Mean compute gap between writes, in cycles.
    pub gap: u64,
    /// Jitter seed.
    pub seed: u64,
}

impl FalseSharingStorm {
    /// Creates the storm over `lines_per_node` blocks homed on each
    /// node of the machine.
    #[must_use]
    pub fn new(machine: MachineConfig, lines_per_node: usize, writes: usize, iters: usize) -> Self {
        let mut space = AddressSpace::new(machine.clone());
        let lines = (0..machine.num_nodes)
            .map(|i| space.alloc_on(NodeId(i), lines_per_node))
            .collect();
        FalseSharingStorm {
            machine,
            lines: Arc::new(lines),
            writes,
            iters,
            gap: 120,
            seed: 0x00fa_15e5,
        }
    }

    fn total_lines(&self) -> usize {
        self.lines.iter().map(Region::len).sum()
    }
}

impl Workload for FalseSharingStorm {
    fn name(&self) -> &str {
        "false-sharing-storm"
    }

    fn num_procs(&self) -> usize {
        self.machine.num_nodes
    }

    fn build_streams(&self) -> Vec<OpStream> {
        let jitter = Jitter::new(self.seed);
        let total = self.total_lines();
        (0..self.num_procs())
            .map(|p| {
                let lines = Arc::clone(&self.lines);
                let (writes, gap) = (self.writes, self.gap);
                PhasedStream::new(self.iters, move |iter| {
                    let mut ops = Vec::with_capacity(2 * writes + 2);
                    ops.push(Op::Compute(jitter.pick(gap * 3, &[p as u64, iter as u64])));
                    for k in 0..writes {
                        // Rotated walk over every line of every home:
                        // processor `p` starts `p` lines in, so at any
                        // instant the full set is under write from
                        // different processors.
                        let idx = (p + iter * 5 + k) % total;
                        let region = &lines[idx % lines.len()];
                        let b = region.block(idx / lines.len() % region.len());
                        if (p + k) % 4 == 0 {
                            // An occasional read keeps read-forwarding
                            // (and its speculation) in the conflict mix.
                            ops.push(Op::Read(b));
                        } else {
                            ops.push(Op::Write(b));
                        }
                        ops.push(Op::Compute(jitter.stretch(
                            gap,
                            0.5,
                            &[p as u64, iter as u64, k as u64],
                        )));
                    }
                    ops.push(Op::Barrier);
                    ops
                })
                .boxed()
            })
            .collect()
    }
}

/// The adversarial generators, sized by the suite scale, on the given
/// machine, ready for the differential harness.
#[must_use]
pub fn adversarial_suite(machine: &MachineConfig, scale: crate::Scale) -> Vec<Box<dyn Workload>> {
    let (burst, turns, iters) = match scale {
        crate::Scale::Quick => (24, 6, 4),
        crate::Scale::Default => (64, 10, 12),
        crate::Scale::Paper => (128, 16, 30),
    };
    vec![
        Box::new(HotspotStorm::new(machine.clone(), 6, burst, iters)),
        Box::new(MigratoryPingPong::new(machine.clone(), 4, turns, iters)),
        Box::new(FalseSharingStorm::new(machine.clone(), 1, burst, iters)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_streams_cover_all_procs_and_rebuild_identically() {
        let m = MachineConfig::paper_machine();
        let w = HotspotStorm::new(m.clone(), 6, 10, 3);
        let a: Vec<Vec<Op>> = w
            .build_streams()
            .into_iter()
            .map(Iterator::collect)
            .collect();
        let b: Vec<Vec<Op>> = w
            .build_streams()
            .into_iter()
            .map(Iterator::collect)
            .collect();
        assert_eq!(a.len(), 16);
        assert_eq!(a, b, "generator is a pure function");
        // Every proc issues the full burst, and every access targets a
        // block homed on the hotspot node.
        for ops in &a {
            let accesses: Vec<_> = ops
                .iter()
                .filter_map(|o| match o {
                    Op::Read(b) | Op::Write(b) => Some(*b),
                    _ => None,
                })
                .collect();
            assert_eq!(accesses.len(), 10 * 3);
            assert!(accesses.iter().all(|&b| m.home_of(b) == NodeId(0)));
        }
    }

    #[test]
    fn storm_mixes_reads_and_writes() {
        let m = MachineConfig::paper_machine();
        let w = HotspotStorm::new(m, 4, 12, 2);
        for ops in w
            .build_streams()
            .into_iter()
            .map(Iterator::collect::<Vec<Op>>)
        {
            assert!(ops.iter().any(|o| matches!(o, Op::Write(_))));
            assert!(ops.iter().any(|o| matches!(o, Op::Read(_))));
        }
    }

    #[test]
    fn ping_pong_pairs_share_and_cross_home() {
        let m = MachineConfig::paper_machine();
        let w = MigratoryPingPong::new(m.clone(), 3, 4, 2);
        let streams: Vec<Vec<Op>> = w
            .build_streams()
            .into_iter()
            .map(Iterator::collect)
            .collect();
        let blocks = |ops: &[Op]| -> Vec<_> {
            ops.iter()
                .filter_map(|o| match o {
                    Op::Read(b) | Op::Write(b) => Some(*b),
                    _ => None,
                })
                .collect()
        };
        // Pair members touch the same blocks; the odd member is remote
        // to every one of them (its accesses all cross shards).
        let even = blocks(&streams[2]);
        let odd = blocks(&streams[3]);
        assert!(!even.is_empty());
        assert_eq!(
            even.iter().collect::<std::collections::HashSet<_>>(),
            odd.iter().collect::<std::collections::HashSet<_>>()
        );
        assert!(even.iter().all(|&b| m.home_of(b) == NodeId(2)));
        // Different pairs touch disjoint blocks.
        let other = blocks(&streams[0]);
        assert!(other.iter().all(|b| !even.contains(b)));
    }

    #[test]
    fn false_sharing_spans_every_home_and_rebuilds_identically() {
        let m = MachineConfig::paper_machine();
        let w = FalseSharingStorm::new(m.clone(), 1, 20, 2);
        let a: Vec<Vec<Op>> = w
            .build_streams()
            .into_iter()
            .map(Iterator::collect)
            .collect();
        let b: Vec<Vec<Op>> = w
            .build_streams()
            .into_iter()
            .map(Iterator::collect)
            .collect();
        assert_eq!(a, b, "generator is a pure function");
        // Writes dominate, and collectively the streams hit a block
        // homed on every node — the anti-hotspot.
        let mut homes = std::collections::HashSet::new();
        for ops in &a {
            let writes = ops.iter().filter(|o| matches!(o, Op::Write(_))).count();
            let reads = ops.iter().filter(|o| matches!(o, Op::Read(_))).count();
            assert!(writes > reads, "write-write conflicts must dominate");
            for op in ops {
                if let Op::Read(b) | Op::Write(b) = op {
                    homes.insert(m.home_of(*b));
                }
            }
        }
        assert_eq!(homes.len(), m.num_nodes, "every home is under attack");
    }

    #[test]
    fn adversarial_suite_builds_all() {
        let m = MachineConfig::paper_machine();
        let suite = adversarial_suite(&m, crate::Scale::Quick);
        let names: Vec<&str> = suite.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec![
                "hotspot-storm",
                "migratory-ping-pong",
                "false-sharing-storm"
            ]
        );
        for w in &suite {
            assert_eq!(w.num_procs(), 16);
            assert!(w.build_streams().into_iter().all(|s| s.count() > 0));
        }
    }
}
