//! The common predictor interface.

use std::fmt;

use specdsm_types::{BlockAddr, DirMsg};

use crate::cosmos::Cosmos;
use crate::msp::Msp;
use crate::stats::{Observation, PredictorStats};
use crate::storage::StorageReport;
use crate::vmsp::Vmsp;

/// A directory-side coherence predictor.
///
/// Implementations observe the stream of incoming directory messages for
/// each home block, maintain two-level history/pattern tables, and report
/// per-message [`Observation`]s plus aggregate [`PredictorStats`].
///
/// The trait is object-safe so evaluation harnesses can treat the three
/// predictors uniformly; see [`PredictorKind::build`].
pub trait SharingPredictor {
    /// Observes one incoming message for `block` and reports what the
    /// predictor had predicted for it.
    fn observe(&mut self, block: BlockAddr, msg: DirMsg) -> Observation;

    /// Aggregate accuracy statistics so far.
    fn stats(&self) -> PredictorStats;

    /// Pattern-table storage accounting (paper Table 4).
    fn storage(&self) -> StorageReport;

    /// Which of the three designs this is.
    fn kind(&self) -> PredictorKind;

    /// Configured history depth.
    fn depth(&self) -> usize;
}

/// The three predictor designs compared in the paper.
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

    /// Builds a fresh predictor of this kind.
    ///
    /// `num_procs` sizes the storage model (processor-id width, vector
    /// width); `depth` is the history depth.
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
    pub fn build(self, depth: usize, num_procs: usize) -> Box<dyn SharingPredictor> {
        match self {
            PredictorKind::Cosmos => Box::new(Cosmos::new(depth, num_procs)),
            PredictorKind::Msp => Box::new(Msp::new(depth, num_procs)),
            PredictorKind::Vmsp => Box::new(Vmsp::new(depth, num_procs)),
        }
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
            assert_eq!(p.depth(), 2);
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
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(PredictorKind::Cosmos.to_string(), "Cosmos");
        assert_eq!(PredictorKind::Msp.to_string(), "MSP");
        assert_eq!(PredictorKind::Vmsp.to_string(), "VMSP");
    }
}
