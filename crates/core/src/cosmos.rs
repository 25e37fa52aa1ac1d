//! Cosmos: the baseline general message predictor.

use specdsm_types::{BlockAddr, DirMsg};

use crate::predictor::{PredictorKind, SharingPredictor};
use crate::stats::{Observation, PredictorStats};
use crate::storage::{StorageModel, StorageReport};
use crate::symbol::Symbol;
use crate::twolevel::TwoLevel;

/// The general message predictor of Mukherjee & Hill (ISCA '98), the
/// baseline the paper compares against.
///
/// Cosmos learns and predicts **every** incoming directory message —
/// requests *and* acknowledgements. The paper's critique (§3): because
/// the protocol overlaps invalidations, acks arrive in arbitrary order
/// and perturb prediction of the (more fundamental) request messages,
/// inflate the pattern tables, and cost an extra type-encoding bit.
///
/// # Example
///
/// ```
/// use specdsm_core::{Cosmos, SharingPredictor};
/// use specdsm_types::{BlockAddr, DirMsg, ProcId};
///
/// let mut cosmos = Cosmos::new(1, 16);
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
///     }
/// }
/// assert!(cosmos.stats().accuracy() > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct Cosmos {
    inner: TwoLevel,
    num_procs: usize,
    stats: PredictorStats,
}

impl Cosmos {
    /// Creates a Cosmos predictor with the given history depth for a
    /// machine with `num_procs` processors.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn new(depth: usize, num_procs: usize) -> Self {
        Cosmos {
            inner: TwoLevel::new(depth),
            num_procs,
            stats: PredictorStats::default(),
        }
    }
}

impl SharingPredictor for Cosmos {
    fn observe(&mut self, block: BlockAddr, msg: DirMsg) -> Observation {
        // Cosmos consumes the full message stream.
        let obs = self.inner.observe_symbol(block, Symbol::from_msg(msg));
        self.stats.record(obs);
        obs
    }

    fn observe_run(&mut self, block: BlockAddr, msgs: &[DirMsg]) {
        if msgs.is_empty() {
            return;
        }
        let state = self.inner.state(block);
        for &msg in msgs {
            self.stats.record(state.observe(Symbol::from_msg(msg)));
        }
    }

    fn stats(&self) -> PredictorStats {
        self.stats
    }

    fn storage(&self) -> StorageReport {
        StorageReport {
            model: StorageModel {
                kind: PredictorKind::Cosmos,
                depth: self.inner.depth(),
                num_procs: self.num_procs,
            },
            blocks: self.inner.blocks_allocated(),
            // Map-backed storage allocates exactly one slot per block.
            slots: self.inner.blocks_allocated(),
            entries: self.inner.pattern_entries(),
            // Message-grain symbols carry no reader vectors.
            spill_bytes: 0,
        }
    }

    fn kind(&self) -> PredictorKind {
        PredictorKind::Cosmos
    }

    fn depth(&self) -> usize {
        self.inner.depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdsm_types::ProcId;

    /// The paper's §3 argument: ack re-ordering perturbs Cosmos but
    /// cannot affect MSP (which never sees acks).
    #[test]
    fn ack_reordering_hurts_accuracy() {
        let run = |reorder: bool| -> f64 {
            let mut c = Cosmos::new(1, 16);
            let b = BlockAddr(1);
            for i in 0..100 {
                let (a1, a2) = if reorder && i % 2 == 1 {
                    (2, 1)
                } else {
                    (1, 2)
                };
                for m in [
                    DirMsg::upgrade(ProcId(3)),
                    DirMsg::ack_inv(ProcId(a1)),
                    DirMsg::ack_inv(ProcId(a2)),
                    DirMsg::read(ProcId(1)),
                    DirMsg::read(ProcId(2)),
                ] {
                    c.observe(b, m);
                }
            }
            c.stats().accuracy()
        };
        let stable = run(false);
        let reordered = run(true);
        assert!(
            stable > 0.95,
            "stable acks are highly predictable: {stable}"
        );
        assert!(
            reordered < stable - 0.2,
            "ack re-ordering must hurt Cosmos: {reordered} vs {stable}"
        );
    }

    #[test]
    fn predicts_acks_too() {
        let mut c = Cosmos::new(1, 16);
        let b = BlockAddr(1);
        for _ in 0..5 {
            c.observe(b, DirMsg::upgrade(ProcId(3)));
            c.observe(b, DirMsg::ack_inv(ProcId(1)));
        }
        // 10 messages seen: acks count toward the denominator.
        assert_eq!(c.stats().seen, 10);
        assert!(c.stats().predicted > 0);
    }

    #[test]
    fn storage_reports_cosmos_model() {
        let mut c = Cosmos::new(1, 16);
        let b = BlockAddr(1);
        for _ in 0..3 {
            c.observe(b, DirMsg::read(ProcId(1)));
            c.observe(b, DirMsg::upgrade(ProcId(1)));
        }
        let rep = c.storage();
        assert_eq!(rep.model.kind, PredictorKind::Cosmos);
        assert_eq!(rep.blocks, 1);
        assert!(rep.entries >= 2);
    }
}
