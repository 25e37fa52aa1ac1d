//! The three predictor designs and the per-message [`Predictor`].

use std::fmt;

use specdsm_types::{BlockAddr, DirMsg};

use crate::fxhash::FxHashMap;
use crate::intern::ReaderSetInterner;
use crate::stats::{Observation, PredictorStats};
use crate::storage::{StorageModel, StorageReport};
use crate::twolevel::{symbol, BlockRecord, StorageFold};

/// The three predictor designs compared in the paper.
///
/// Cosmos and MSP share one two-level machinery and differ only in
/// the message filter: Cosmos learns the acknowledgements along with
/// the requests, MSP ignores them (paper §3).
///
/// # Example
///
/// ```
/// use specdsm_core::{Observation, PredictorKind};
/// use specdsm_types::{BlockAddr, DirMsg, ProcId};
///
/// let mut cosmos = PredictorKind::Cosmos.build(1, 16);
/// let mut msp = PredictorKind::Msp.build(1, 16);
/// let b = BlockAddr(0x100);
/// // A producer/consumer phase *including* the protocol acks.
/// let phase = [
///     DirMsg::upgrade(ProcId(3)),
///     DirMsg::ack_inv(ProcId(1)),
///     DirMsg::ack_inv(ProcId(2)),
///     DirMsg::read(ProcId(1)),
///     DirMsg::read(ProcId(2)),
///     DirMsg::writeback(ProcId(3)),
/// ];
/// for _ in 0..4 {
///     for m in phase {
///         cosmos.observe(b, m);
///         msp.observe(b, m);
///     }
/// }
/// // Cosmos counts all six messages of a phase, MSP the three requests.
/// assert_eq!(cosmos.stats().seen, 24);
/// assert_eq!(msp.stats().seen, 12);
/// assert_eq!(msp.observe(b, DirMsg::ack_inv(ProcId(1))), Observation::Ignored);
/// assert!(cosmos.stats().accuracy() > 0.9 && msp.stats().accuracy() > 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// General message predictor (Mukherjee & Hill); predicts requests
    /// *and* acknowledgements.
    Cosmos,
    /// Memory Sharing Predictor; predicts request messages only.
    Msp,
    /// Vector MSP; encodes read sequences as reader bit-vectors.
    Vmsp,
}

impl PredictorKind {
    /// All three kinds, in the paper's presentation order.
    pub const ALL: [PredictorKind; 3] = [
        PredictorKind::Cosmos,
        PredictorKind::Msp,
        PredictorKind::Vmsp,
    ];

    /// Builds a fresh per-message predictor of this kind.
    ///
    /// `num_procs` sizes the storage model (processor-id width, vector
    /// width); `depth` is the history depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    ///
    /// # Example
    ///
    /// ```
    /// use specdsm_core::PredictorKind;
    /// use specdsm_types::{BlockAddr, DirMsg, ProcId};
    ///
    /// let mut p = PredictorKind::Msp.build(1, 16);
    /// p.observe(BlockAddr(0), DirMsg::read(ProcId(1)));
    /// assert_eq!(p.stats().seen, 1);
    /// ```
    #[must_use]
    pub fn build(self, depth: usize, num_procs: usize) -> Predictor {
        assert!(depth > 0, "history depth must be at least 1");
        Predictor {
            kind: self,
            depth,
            num_procs,
            blocks: FxHashMap::default(),
            sets: ReaderSetInterner::new(),
            stats: PredictorStats::default(),
        }
    }
}

/// A per-message predictor of one [`PredictorKind`]: one two-level
/// record for each block it has observed a message of, kept in a map
/// keyed by block address. [`PredictorKind::build`] makes one.
///
/// It takes messages one at a time, for any blocks in any order.
/// [`evaluate_trace`](crate::evaluate_trace) replays a whole recorded
/// trace one block at a time and equals feeding this predictor every
/// message; the tests compare the two. The protocol's online VMSP is
/// [`Vmsp`](crate::Vmsp).
#[derive(Debug, Clone)]
pub struct Predictor {
    kind: PredictorKind,
    depth: usize,
    num_procs: usize,
    blocks: FxHashMap<BlockAddr, BlockRecord>,
    /// Hash-cons arena for VMSP's spilled (>64-processor) read vectors.
    sets: ReaderSetInterner,
    stats: PredictorStats,
}

impl Predictor {
    /// Observes one incoming message for `block` and reports what the
    /// predictor had predicted for it. A message the kind ignores
    /// creates no record.
    pub fn observe(&mut self, block: BlockAddr, msg: DirMsg) -> Observation {
        let depth = self.depth;
        let obs = match self.kind {
            PredictorKind::Vmsp => {
                let Some((req, p)) = msg.request() else {
                    return Observation::Ignored;
                };
                let record = self
                    .blocks
                    .entry(block)
                    .or_insert_with(|| BlockRecord::new(depth));
                record.observe_request(&mut self.sets, req, p)
            }
            kind => {
                let Some(sym) = symbol(kind, msg) else {
                    return Observation::Ignored;
                };
                let record = self
                    .blocks
                    .entry(block)
                    .or_insert_with(|| BlockRecord::new(depth));
                record.observe_symbol(sym)
            }
        };
        self.stats.record(obs);
        obs
    }

    /// Aggregate accuracy statistics so far.
    #[must_use]
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }

    /// Pattern-table storage accounting (paper Table 4).
    #[must_use]
    pub fn storage(&self) -> StorageReport {
        let mut fold = StorageFold::default();
        for record in self.blocks.values() {
            fold.add(record);
        }
        let model = StorageModel {
            kind: self.kind,
            depth: self.depth,
            num_procs: self.num_procs,
        };
        fold.report(model, &self.sets)
    }

    /// Which of the three designs this is.
    #[must_use]
    pub fn kind(&self) -> PredictorKind {
        self.kind
    }
}

impl fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PredictorKind::Cosmos => "Cosmos",
            PredictorKind::Msp => "MSP",
            PredictorKind::Vmsp => "VMSP",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdsm_types::ProcId;

    #[test]
    fn build_all_kinds() {
        for kind in PredictorKind::ALL {
            let mut p = kind.build(2, 16);
            assert_eq!(p.kind(), kind);
            p.observe(BlockAddr(1), DirMsg::read(ProcId(0)));
            assert_eq!(p.stats().seen, 1);
        }
    }

    #[test]
    fn acks_only_counted_by_cosmos() {
        for kind in PredictorKind::ALL {
            let mut p = kind.build(1, 16);
            p.observe(BlockAddr(1), DirMsg::ack_inv(ProcId(0)));
            let expected = if kind == PredictorKind::Cosmos { 1 } else { 0 };
            assert_eq!(p.stats().seen, expected, "{kind}");
            // An ignored message allocates no record.
            assert_eq!(p.blocks.len() as u64, expected, "{kind}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(PredictorKind::Cosmos.to_string(), "Cosmos");
        assert_eq!(PredictorKind::Msp.to_string(), "MSP");
        assert_eq!(PredictorKind::Vmsp.to_string(), "VMSP");
    }
}
