//! Shared two-level (history table + pattern tables) machinery.
//!
//! Cosmos and MSP differ only in which messages enter the tables; both
//! delegate to this per-block PAp-style core.
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
//! Trace replay hands a predictor each block's whole run of messages
//! at once ([`SharingPredictor::observe_run`](crate::SharingPredictor::observe_run)),
//! so [`TwoLevel::state`] resolves the block once per run and
//! [`BlockState::observe`] steps each symbol on the resolved state.

use specdsm_types::BlockAddr;

use crate::fxhash::FxHashMap;
use crate::stats::Observation;
use crate::symbol::Symbol;
use crate::table::{History, PatternTable};

/// Per-block first-level history register plus second-level pattern
/// table, for all blocks seen by one predictor instance.
#[derive(Debug, Clone)]
pub(crate) struct TwoLevel {
    depth: usize,
    blocks: FxHashMap<BlockAddr, BlockState>,
}

/// One block's history register and pattern table.
#[derive(Debug, Clone)]
pub(crate) struct BlockState {
    history: History,
    table: PatternTable,
}

impl BlockState {
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

impl TwoLevel {
    pub(crate) fn new(depth: usize) -> Self {
        assert!(depth > 0, "history depth must be at least 1");
        TwoLevel {
            depth,
            blocks: FxHashMap::default(),
        }
    }

    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// The state of `block`, created empty on first use.
    pub(crate) fn state(&mut self, block: BlockAddr) -> &mut BlockState {
        let depth = self.depth;
        self.blocks.entry(block).or_insert_with(|| BlockState {
            history: History::new(depth),
            table: PatternTable::new(),
        })
    }

    /// One [`BlockState::observe`] step on `block`'s state.
    pub(crate) fn observe_symbol(&mut self, block: BlockAddr, sym: Symbol) -> Observation {
        self.state(block).observe(sym)
    }

    /// Total pattern-table entries across all blocks.
    pub(crate) fn pattern_entries(&self) -> u64 {
        self.blocks.values().map(|b| b.table.len() as u64).sum()
    }

    /// Number of blocks with allocated predictor state.
    pub(crate) fn blocks_allocated(&self) -> u64 {
        self.blocks.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdsm_types::{ProcId, ReqKind};

    fn read(p: usize) -> Symbol {
        Symbol::Req(ReqKind::Read, ProcId(p))
    }
    fn upgrade(p: usize) -> Symbol {
        Symbol::Req(ReqKind::Upgrade, ProcId(p))
    }

    #[test]
    fn learns_repeating_sequence_depth_one() {
        let mut t = TwoLevel::new(1);
        let b = BlockAddr(1);
        let seq = [upgrade(3), read(1), read(2)];
        // First pass: warm-up + learning, no correct predictions.
        for s in &seq {
            assert!(!t.observe_symbol(b, *s).is_correct());
        }
        // Second pass: the loop-closing transition (read(2) -> upgrade)
        // is seen for the first time; everything else predicts.
        assert!(!t.observe_symbol(b, seq[0]).is_predicted());
        assert!(t.observe_symbol(b, seq[1]).is_correct());
        assert!(t.observe_symbol(b, seq[2]).is_correct());
        // Third pass onward: every symbol predicted correctly.
        for _ in 0..3 {
            for s in &seq {
                assert!(t.observe_symbol(b, *s).is_correct(), "symbol {s}");
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
            let mut t = TwoLevel::new(depth);
            let b = BlockAddr(1);
            let mut wrong = 0;
            for _ in 0..50 {
                for s in phase_a.iter().chain(&phase_b) {
                    let obs = t.observe_symbol(b, *s);
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
        let mut t = TwoLevel::new(1);
        let (b1, b2) = (BlockAddr(1), BlockAddr(2));
        for _ in 0..4 {
            t.observe_symbol(b1, read(1));
            t.observe_symbol(b1, read(2));
        }
        // b2 has never been seen: its first observations are warm-up.
        assert_eq!(t.observe_symbol(b2, read(1)), Observation::NoPrediction);
        assert_eq!(t.blocks_allocated(), 2);
    }

    #[test]
    fn pattern_entry_counts() {
        let mut t = TwoLevel::new(1);
        let b = BlockAddr(9);
        for _ in 0..3 {
            for s in [upgrade(3), read(1), read(2)] {
                t.observe_symbol(b, s);
            }
        }
        // Three distinct histories -> three entries (paper Figure 3).
        assert_eq!(t.pattern_entries(), 3);
    }

    #[test]
    #[should_panic(expected = "history depth")]
    fn zero_depth_rejected() {
        let _ = TwoLevel::new(0);
    }

    #[test]
    fn reordering_perturbs_depth_one() {
        // Re-ordered reads flip pattern entries back and forth at d=1.
        let mut t = TwoLevel::new(1);
        let b = BlockAddr(4);
        let mut wrong = 0;
        for i in 0..40 {
            let (r1, r2) = if i % 2 == 0 { (1, 2) } else { (2, 1) };
            for s in [upgrade(3), read(r1), read(r2)] {
                let obs = t.observe_symbol(b, s);
                if obs.is_predicted() && !obs.is_correct() {
                    wrong += 1;
                }
            }
        }
        assert!(wrong >= 40, "re-ordered readers mispredict at d=1: {wrong}");
    }
}
