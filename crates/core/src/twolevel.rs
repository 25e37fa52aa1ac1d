//! Cosmos and MSP: the two-level (history table + pattern tables)
//! message predictors.
//!
//! Both are Yeh & Patt's per-block PAp scheme over directory messages
//! and differ only in which messages enter the tables (paper §3):
//!
//! * **Cosmos**, the general message predictor of Mukherjee & Hill
//!   (ISCA '98), learns and predicts **every** incoming message,
//!   requests *and* acknowledgements. Because the protocol overlaps
//!   invalidations, acks arrive in arbitrary order; they perturb the
//!   prediction of the requests, inflate the pattern tables and cost an
//!   extra type-encoding bit.
//! * **MSP**, the Memory Sharing Predictor, filters the acks out: they
//!   answer coherence actions and are always expected anyway. That
//!   removes the ack re-ordering perturbation, roughly halves the
//!   entries of common producer/consumer patterns, and saves one
//!   message-type bit per symbol.
//!
//! # Storage layout
//!
//! Each block owns a fixed ring-buffer [`History`] register with a
//! rolling [`HistoryKey`](crate::HistoryKey) and a [`PatternTable`]
//! keyed by that key, so one observed symbol costs one fused
//! predict-and-learn probe of the table's index and an O(1) ring push:
//! no per-symbol window re-hash, and no allocation on the steady-state
//! re-learn path. The block index itself uses the same FxHash-style
//! hasher as the pattern tables ([`FxHashMap`]).
//!
//! Trace replay ([`evaluate_trace`](crate::evaluate_trace)) keeps no
//! block index at all: a trace yields each block's run exactly once,
//! so the replay steps one [`BlockState`] through a run, adds up what
//! the storage report needs, and clears the state, keeping its
//! allocations, for the next block.

use specdsm_types::{BlockAddr, DirMsg};

use crate::fxhash::FxHashMap;
use crate::predictor::{PredictorKind, SharingPredictor};
use crate::stats::{Observation, PredictorStats};
use crate::storage::{StorageModel, StorageReport};
use crate::symbol::Symbol;
use crate::table::{History, PatternTable};

/// A Cosmos or MSP predictor: per-block first-level history registers
/// plus second-level pattern tables, for all blocks it has seen.
#[derive(Debug, Clone)]
pub(crate) struct TwoLevel {
    kind: PredictorKind,
    depth: usize,
    num_procs: usize,
    blocks: FxHashMap<BlockAddr, BlockState>,
    stats: PredictorStats,
}

/// One block's history register and pattern table.
#[derive(Debug, Clone)]
pub(crate) struct BlockState {
    history: History,
    pub(crate) table: PatternTable,
}

impl BlockState {
    /// A block's state before its first observed symbol.
    pub(crate) fn new(depth: usize) -> Self {
        BlockState {
            history: History::new(depth),
            table: PatternTable::new(),
        }
    }

    /// Whether the block observed a symbol: exactly the blocks the
    /// persistent predictor allocates state for.
    pub(crate) fn is_active(&self) -> bool {
        !self.history.is_empty()
    }

    /// Returns the state to [`BlockState::new`]'s, keeping its storage.
    pub(crate) fn clear(&mut self) {
        self.history.clear();
        self.table.clear();
    }

    /// Core PAp step: predict the successor of the current history,
    /// compare with `sym`, learn `sym` as the new successor
    /// (last-occurrence update), and shift `sym` into the history.
    pub(crate) fn observe(&mut self, sym: Symbol) -> Observation {
        let obs = if self.history.is_full() {
            // Fused predict + last-occurrence learn: one table access.
            match self.table.predict_and_learn(&self.history, &sym) {
                Some(pred) => Observation::Predicted {
                    correct: pred == sym,
                },
                None => Observation::NoPrediction,
            }
        } else {
            // Warm-up: the history register is not yet primed.
            Observation::NoPrediction
        };
        self.history.push(sym);
        obs
    }
}

/// The symbol `msg` enters a `kind` predictor's tables as, or `None`
/// if that predictor ignores it: MSP filters out the acks.
pub(crate) fn symbol(kind: PredictorKind, msg: DirMsg) -> Option<Symbol> {
    match msg {
        DirMsg::Ack(..) if kind == PredictorKind::Msp => None,
        _ => Some(Symbol::from_msg(msg)),
    }
}

impl TwoLevel {
    /// Creates a `kind` predictor (Cosmos or MSP) with the given
    /// history depth for a machine with `num_procs` processors.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub(crate) fn new(kind: PredictorKind, depth: usize, num_procs: usize) -> Self {
        assert!(depth > 0, "history depth must be at least 1");
        TwoLevel {
            kind,
            depth,
            num_procs,
            blocks: FxHashMap::default(),
            stats: PredictorStats::default(),
        }
    }
}

impl SharingPredictor for TwoLevel {
    fn observe(&mut self, block: BlockAddr, msg: DirMsg) -> Observation {
        let Some(sym) = symbol(self.kind, msg) else {
            return Observation::Ignored;
        };
        let depth = self.depth;
        let state = self
            .blocks
            .entry(block)
            .or_insert_with(|| BlockState::new(depth));
        let obs = state.observe(sym);
        self.stats.record(obs);
        obs
    }

    fn stats(&self) -> PredictorStats {
        self.stats
    }

    fn storage(&self) -> StorageReport {
        StorageReport {
            model: StorageModel {
                kind: self.kind,
                depth: self.depth,
                num_procs: self.num_procs,
            },
            blocks: self.blocks.len() as u64,
            entries: self.blocks.values().map(|b| b.table.len() as u64).sum(),
            // Message-grain symbols carry no reader vectors.
            spill_bytes: 0,
        }
    }

    fn kind(&self) -> PredictorKind {
        self.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdsm_types::ProcId;

    fn cosmos(depth: usize) -> TwoLevel {
        TwoLevel::new(PredictorKind::Cosmos, depth, 16)
    }

    fn msp(depth: usize) -> TwoLevel {
        TwoLevel::new(PredictorKind::Msp, depth, 16)
    }

    fn read(p: usize) -> DirMsg {
        DirMsg::read(ProcId(p))
    }

    fn upgrade(p: usize) -> DirMsg {
        DirMsg::upgrade(ProcId(p))
    }

    /// One producer/consumer phase with its invalidation acks, which
    /// arrive swapped when `swap_acks` is set.
    fn phase_with_acks(swap_acks: bool) -> [DirMsg; 5] {
        let (a1, a2) = if swap_acks { (2, 1) } else { (1, 2) };
        [
            upgrade(3),
            DirMsg::ack_inv(ProcId(a1)),
            DirMsg::ack_inv(ProcId(a2)),
            read(1),
            read(2),
        ]
    }

    #[test]
    fn learns_repeating_sequence_depth_one() {
        let mut t = msp(1);
        let b = BlockAddr(1);
        let seq = [upgrade(3), read(1), read(2)];
        // First pass: warm-up + learning, no correct predictions.
        for m in seq {
            assert!(!t.observe(b, m).is_correct());
        }
        // Second pass: the loop-closing transition (read(2) -> upgrade)
        // is seen for the first time; everything else predicts.
        assert!(!t.observe(b, seq[0]).is_predicted());
        assert!(t.observe(b, seq[1]).is_correct());
        assert!(t.observe(b, seq[2]).is_correct());
        // Third pass onward: every message predicted correctly.
        for _ in 0..3 {
            for m in seq {
                assert!(t.observe(b, m).is_correct(), "message {m}");
            }
        }
    }

    #[test]
    fn depth_two_disambiguates_alternating_writers() {
        // The paper's example (§2.1): P3 and P2 alternate upgrading;
        // depth 1 keeps mispredicting the writer, depth 2 learns it.
        let phase_a = [upgrade(3), read(1), read(2)];
        let phase_b = [upgrade(2), read(1), read(3)];
        let run = |depth: usize| -> u64 {
            let mut t = msp(depth);
            let b = BlockAddr(1);
            let mut wrong = 0;
            for _ in 0..50 {
                for &m in phase_a.iter().chain(&phase_b) {
                    let obs = t.observe(b, m);
                    if obs.is_predicted() && !obs.is_correct() {
                        wrong += 1;
                    }
                }
            }
            wrong
        };
        let wrong_d1 = run(1);
        let wrong_d2 = run(2);
        assert!(wrong_d1 > 0, "depth 1 must mispredict the writers");
        assert!(
            wrong_d2 < wrong_d1 / 4,
            "depth 2 should nearly eliminate mispredictions ({wrong_d2} vs {wrong_d1})"
        );
    }

    #[test]
    fn blocks_are_independent() {
        let mut t = msp(1);
        let (b1, b2) = (BlockAddr(1), BlockAddr(2));
        for _ in 0..4 {
            t.observe(b1, read(1));
            t.observe(b1, read(2));
        }
        // b2 has never been seen: its first observations are warm-up.
        assert_eq!(t.observe(b2, read(1)), Observation::NoPrediction);
        assert_eq!(t.storage().blocks, 2);
    }

    #[test]
    fn pattern_entry_counts() {
        let mut t = msp(1);
        let b = BlockAddr(9);
        for _ in 0..3 {
            for m in [upgrade(3), read(1), read(2)] {
                t.observe(b, m);
            }
        }
        // Three distinct histories -> three entries (paper Figure 3).
        assert_eq!(t.storage().entries, 3);
    }

    #[test]
    #[should_panic(expected = "history depth")]
    fn zero_depth_rejected() {
        let _ = msp(0);
    }

    #[test]
    fn reordering_perturbs_depth_one() {
        // Re-ordered reads flip pattern entries back and forth at d=1.
        let mut t = msp(1);
        let b = BlockAddr(4);
        let mut wrong = 0;
        for i in 0..40 {
            let (r1, r2) = if i % 2 == 0 { (1, 2) } else { (2, 1) };
            for m in [upgrade(3), read(r1), read(r2)] {
                let obs = t.observe(b, m);
                if obs.is_predicted() && !obs.is_correct() {
                    wrong += 1;
                }
            }
        }
        assert!(wrong >= 40, "re-ordered readers mispredict at d=1: {wrong}");
    }

    /// The paper's §3 argument: ack re-ordering perturbs Cosmos but
    /// cannot affect MSP (which never sees acks).
    #[test]
    fn ack_reordering_hurts_accuracy() {
        let run = |reorder: bool| -> f64 {
            let mut c = cosmos(1);
            let b = BlockAddr(1);
            for i in 0..100 {
                for m in phase_with_acks(reorder && i % 2 == 1) {
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
        let mut c = cosmos(1);
        let b = BlockAddr(1);
        for _ in 0..5 {
            c.observe(b, upgrade(3));
            c.observe(b, DirMsg::ack_inv(ProcId(1)));
        }
        // 10 messages seen: acks count toward the denominator.
        assert_eq!(c.stats().seen, 10);
        assert!(c.stats().predicted > 0);
    }

    #[test]
    fn storage_reports_cosmos_model() {
        let mut c = cosmos(1);
        let b = BlockAddr(1);
        for _ in 0..3 {
            c.observe(b, read(1));
            c.observe(b, upgrade(1));
        }
        let rep = c.storage();
        assert_eq!(rep.model.kind, PredictorKind::Cosmos);
        assert_eq!(rep.blocks, 1);
        assert!(rep.entries >= 2);
    }

    #[test]
    fn acks_are_ignored() {
        let mut m = msp(1);
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
        let (mut m, mut c) = (msp(1), cosmos(1));
        for i in 0..100 {
            for msg in phase_with_acks(i % 2 == 1) {
                m.observe(b, msg);
                c.observe(b, msg);
            }
        }
        assert!(m.stats().accuracy() > 0.95, "{}", m.stats());
        assert!(
            m.stats().accuracy() > c.stats().accuracy(),
            "MSP {} vs Cosmos {}",
            m.stats(),
            c.stats()
        );
    }

    /// Figure 3 of the paper: MSP needs 3 pattern entries for the
    /// producer/consumer example where Cosmos needs 6.
    #[test]
    fn fewer_pattern_entries_than_cosmos() {
        let b = BlockAddr(0x100);
        let (mut m, mut c) = (msp(1), cosmos(1));
        for _ in 0..10 {
            for msg in phase_with_acks(false)
                .into_iter()
                .chain([DirMsg::writeback(ProcId(3))])
            {
                m.observe(b, msg);
                c.observe(b, msg);
            }
        }
        assert_eq!(m.storage().entries, 3);
        assert_eq!(c.storage().entries, 6);
    }

    /// Read re-ordering still hurts MSP at depth 1 (the motivation for
    /// VMSP, §3.1) but is fully absorbed at depth 2.
    #[test]
    fn read_reordering_hurts_depth_one_not_depth_two() {
        let run = |depth: usize| -> f64 {
            let mut m = msp(depth);
            let b = BlockAddr(1);
            for i in 0..200 {
                let (r1, r2) = if i % 2 == 1 { (2, 1) } else { (1, 2) };
                for msg in [upgrade(3), read(r1), read(r2)] {
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
