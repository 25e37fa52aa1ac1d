//! Trace-driven predictor evaluation.
//!
//! The paper's Figures 7–8 and Tables 3–4 compare the three predictors
//! on the *same* directory message streams. Rather than re-simulating
//! the machine once per predictor configuration, the protocol simulator
//! records a [`DirectoryTrace`] during a Base-DSM run and this module
//! replays it through any predictor.

use std::collections::BTreeMap;

use specdsm_types::{BlockAddr, DirMsg};

use crate::predictor::PredictorKind;
use crate::stats::PredictorStats;
use crate::storage::StorageReport;

/// Per-block message streams observed at the home directories.
///
/// Predictor state is strictly per-block, so the trace stores each
/// block's messages in arrival order and drops the (irrelevant)
/// inter-block interleaving. A `BTreeMap` keeps replay deterministic.
///
/// # Example
///
/// ```
/// use specdsm_core::{evaluate_trace, DirectoryTrace, PredictorKind};
/// use specdsm_types::{BlockAddr, DirMsg, ProcId};
///
/// let mut trace = DirectoryTrace::new();
/// for _ in 0..10 {
///     trace.record(BlockAddr(1), DirMsg::upgrade(ProcId(3)));
///     trace.record(BlockAddr(1), DirMsg::read(ProcId(1)));
/// }
/// let eval = evaluate_trace(&trace, PredictorKind::Msp, 1, 16);
/// assert!(eval.stats.accuracy() > 0.9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DirectoryTrace {
    blocks: BTreeMap<BlockAddr, Vec<DirMsg>>,
}

impl DirectoryTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one observed message for `block`.
    pub fn record(&mut self, block: BlockAddr, msg: DirMsg) {
        self.blocks.entry(block).or_default().push(msg);
    }

    /// The same trace with each block's messages copied into one
    /// exactly-sized buffer, allocated in address order. A recorded
    /// trace grows its buffers interleaved with the rest of the run's
    /// allocations; after this, a replay, which walks the blocks in
    /// address order, also walks memory in order.
    #[must_use]
    pub fn compacted(self) -> Self {
        let blocks = self
            .blocks
            .into_iter()
            .map(|(block, msgs)| (block, msgs.as_slice().to_vec()))
            .collect();
        DirectoryTrace { blocks }
    }

    /// Number of distinct blocks with traffic.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total messages, including acknowledgements.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.blocks.values().map(|v| v.len() as u64).sum()
    }

    /// Total request messages (the MSP/VMSP universe).
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.blocks
            .values()
            .flat_map(|v| v.iter())
            .filter(|m| m.is_request())
            .count() as u64
    }

    /// Iterates `(block, messages)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &[DirMsg])> {
        self.blocks.iter().map(|(b, v)| (*b, v.as_slice()))
    }
}

/// Result of replaying a trace through one predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEval {
    /// Which predictor and depth produced this result.
    pub kind: PredictorKind,
    /// History depth used.
    pub depth: usize,
    /// Accuracy / coverage counters.
    pub stats: PredictorStats,
    /// Pattern-table storage at end of replay.
    pub storage: StorageReport,
}

/// Replays `trace` through a fresh predictor of the given kind/depth.
///
/// `num_procs` sizes the storage model. Blocks are replayed in address
/// order; since predictor state is per-block this is equivalent to the
/// original interleaving.
#[must_use]
pub fn evaluate_trace(
    trace: &DirectoryTrace,
    kind: PredictorKind,
    depth: usize,
    num_procs: usize,
) -> TraceEval {
    let mut predictor = kind.build(depth, num_procs);
    for (block, msgs) in trace.iter() {
        predictor.observe_run(block, msgs);
    }
    TraceEval {
        kind,
        depth,
        stats: predictor.stats(),
        storage: predictor.storage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdsm_types::ProcId;

    fn sample_trace() -> DirectoryTrace {
        let mut t = DirectoryTrace::new();
        for block in [BlockAddr(1), BlockAddr(2)] {
            for _ in 0..20 {
                t.record(block, DirMsg::upgrade(ProcId(3)));
                t.record(block, DirMsg::ack_inv(ProcId(1)));
                t.record(block, DirMsg::read(ProcId(1)));
                t.record(block, DirMsg::read(ProcId(2)));
            }
        }
        t
    }

    #[test]
    fn counts() {
        let t = sample_trace();
        assert_eq!(t.num_blocks(), 2);
        assert_eq!(t.total_messages(), 2 * 20 * 4);
        assert_eq!(t.total_requests(), 2 * 20 * 3);
    }

    #[test]
    fn evaluate_all_kinds() {
        let t = sample_trace();
        for kind in PredictorKind::ALL {
            let eval = evaluate_trace(&t, kind, 1, 16);
            assert_eq!(eval.kind, kind);
            assert!(eval.stats.seen > 0);
            assert!(
                eval.stats.accuracy() > 0.8,
                "{kind}: {}",
                eval.stats.accuracy()
            );
            assert!(eval.storage.blocks == 2);
        }
    }

    #[test]
    fn cosmos_sees_more_messages_than_msp() {
        let t = sample_trace();
        let cosmos = evaluate_trace(&t, PredictorKind::Cosmos, 1, 16);
        let msp = evaluate_trace(&t, PredictorKind::Msp, 1, 16);
        assert_eq!(cosmos.stats.seen, t.total_messages());
        assert_eq!(msp.stats.seen, t.total_requests());
    }

    #[test]
    fn deeper_history_never_panics() {
        let t = sample_trace();
        for depth in [1, 2, 4] {
            for kind in PredictorKind::ALL {
                let eval = evaluate_trace(&t, kind, depth, 16);
                assert!(eval.stats.correct <= eval.stats.predicted);
            }
        }
    }

    #[test]
    fn empty_trace_gives_zero_stats() {
        let t = DirectoryTrace::new();
        let eval = evaluate_trace(&t, PredictorKind::Vmsp, 1, 16);
        assert_eq!(eval.stats.seen, 0);
        assert_eq!(eval.storage.blocks, 0);
    }
}
