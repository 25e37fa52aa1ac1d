//! MSP: the Memory Sharing Predictor.

use specdsm_types::{BlockAddr, DirMsg};

use crate::predictor::{PredictorKind, SharingPredictor};
use crate::stats::{Observation, PredictorStats};
use crate::storage::{StorageModel, StorageReport};
use crate::symbol::Symbol;
use crate::twolevel::TwoLevel;

/// The base Memory Sharing Predictor (paper §3).
///
/// MSP is built on the key observation that to hide remote access
/// latency a predictor only needs to predict the *request* messages
/// (read, write, upgrade) — acknowledgements are in direct response to
/// coherence actions and always expected. MSP therefore filters acks out
/// of the history and pattern tables entirely, which:
///
/// * removes the perturbation caused by ack re-ordering,
/// * roughly halves the pattern-table entry count for common
///   producer/consumer patterns, and
/// * saves one message-type bit per entry (2 bits for 3 request types
///   vs. Cosmos's 3 bits for 5 message types).
///
/// # Example
///
/// ```
/// use specdsm_core::{Msp, SharingPredictor};
/// use specdsm_types::{BlockAddr, DirMsg, ProcId};
///
/// let mut msp = Msp::new(1, 16);
/// let b = BlockAddr(0x100);
/// for _ in 0..4 {
///     // Acks are ignored no matter how they re-order.
///     msp.observe(b, DirMsg::upgrade(ProcId(3)));
///     msp.observe(b, DirMsg::ack_inv(ProcId(2)));
///     msp.observe(b, DirMsg::ack_inv(ProcId(1)));
///     msp.observe(b, DirMsg::read(ProcId(1)));
///     msp.observe(b, DirMsg::read(ProcId(2)));
/// }
/// assert!(msp.stats().accuracy() > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct Msp {
    inner: TwoLevel,
    num_procs: usize,
    stats: PredictorStats,
}

impl Msp {
    /// Creates an MSP with the given history depth for a machine with
    /// `num_procs` processors.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn new(depth: usize, num_procs: usize) -> Self {
        Msp {
            inner: TwoLevel::new(depth),
            num_procs,
            stats: PredictorStats::default(),
        }
    }
}

impl SharingPredictor for Msp {
    fn observe(&mut self, block: BlockAddr, msg: DirMsg) -> Observation {
        // Only request messages enter the tables.
        let Some((kind, p)) = msg.request() else {
            return Observation::Ignored;
        };
        let obs = self.inner.observe_symbol(block, Symbol::Req(kind, p));
        self.stats.record(obs);
        obs
    }

    fn observe_run(&mut self, block: BlockAddr, msgs: &[DirMsg]) {
        // Like `observe`, a run of acks alone allocates no state.
        let Some(first) = msgs.iter().position(DirMsg::is_request) else {
            return;
        };
        let state = self.inner.state(block);
        for (kind, p) in msgs[first..].iter().filter_map(DirMsg::request) {
            self.stats.record(state.observe(Symbol::Req(kind, p)));
        }
    }

    fn stats(&self) -> PredictorStats {
        self.stats
    }

    fn storage(&self) -> StorageReport {
        StorageReport {
            model: StorageModel {
                kind: PredictorKind::Msp,
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
        PredictorKind::Msp
    }

    fn depth(&self) -> usize {
        self.inner.depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosmos::Cosmos;
    use specdsm_types::ProcId;

    #[test]
    fn acks_are_ignored() {
        let mut m = Msp::new(1, 16);
        let b = BlockAddr(1);
        assert_eq!(
            m.observe(b, DirMsg::ack_inv(ProcId(1))),
            Observation::Ignored
        );
        assert_eq!(
            m.observe(b, DirMsg::writeback(ProcId(2))),
            Observation::Ignored
        );
        assert_eq!(m.stats().seen, 0);
        assert_eq!(m.storage().blocks, 0, "acks allocate no state");
    }

    /// The paper's headline comparison: with re-ordered acks, MSP beats
    /// Cosmos because its tables never see the perturbation.
    #[test]
    fn immune_to_ack_reordering() {
        let b = BlockAddr(1);
        let mut msp = Msp::new(1, 16);
        let mut cosmos = Cosmos::new(1, 16);
        for i in 0..100 {
            let (a1, a2) = if i % 2 == 1 { (2, 1) } else { (1, 2) };
            for msg in [
                DirMsg::upgrade(ProcId(3)),
                DirMsg::ack_inv(ProcId(a1)),
                DirMsg::ack_inv(ProcId(a2)),
                DirMsg::read(ProcId(1)),
                DirMsg::read(ProcId(2)),
            ] {
                msp.observe(b, msg);
                cosmos.observe(b, msg);
            }
        }
        assert!(msp.stats().accuracy() > 0.95, "{}", msp.stats());
        assert!(
            msp.stats().accuracy() > cosmos.stats().accuracy(),
            "MSP {} vs Cosmos {}",
            msp.stats(),
            cosmos.stats()
        );
    }

    /// Figure 3 of the paper: MSP needs 3 pattern entries for the
    /// producer/consumer example where Cosmos needs 6.
    #[test]
    fn fewer_pattern_entries_than_cosmos() {
        let b = BlockAddr(0x100);
        let mut msp = Msp::new(1, 16);
        let mut cosmos = Cosmos::new(1, 16);
        for _ in 0..10 {
            for msg in [
                DirMsg::upgrade(ProcId(3)),
                DirMsg::ack_inv(ProcId(1)),
                DirMsg::ack_inv(ProcId(2)),
                DirMsg::read(ProcId(1)),
                DirMsg::read(ProcId(2)),
                DirMsg::writeback(ProcId(3)),
            ] {
                msp.observe(b, msg);
                cosmos.observe(b, msg);
            }
        }
        assert_eq!(msp.storage().entries, 3);
        assert_eq!(cosmos.storage().entries, 6);
    }

    /// Read re-ordering still hurts MSP at depth 1 (the motivation for
    /// VMSP, §3.1) but is fully absorbed at depth 2.
    #[test]
    fn read_reordering_hurts_depth_one_not_depth_two() {
        let run = |depth: usize| -> f64 {
            let mut m = Msp::new(depth, 16);
            let b = BlockAddr(1);
            for i in 0..200 {
                let (r1, r2) = if i % 2 == 1 { (2, 1) } else { (1, 2) };
                for msg in [
                    DirMsg::upgrade(ProcId(3)),
                    DirMsg::read(ProcId(r1)),
                    DirMsg::read(ProcId(r2)),
                ] {
                    m.observe(b, msg);
                }
            }
            m.stats().accuracy()
        };
        let d1 = run(1);
        let d2 = run(2);
        assert!(d1 < 0.5, "depth 1 thrashes on re-ordered reads: {d1}");
        assert!(d2 > 0.9, "depth 2 learns both orders: {d2}");
    }
}
