//! The per-block two-level record all three predictors share.
//!
//! Cosmos, MSP and VMSP are each Yeh & Patt's per-block PAp scheme over
//! directory messages: a history register feeding a pattern table
//! (paper §2.1, §3). They differ only in what enters the tables:
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
//! * **VMSP** also ignores the acks and folds each run of reads into
//!   one read-vector symbol (paper §3.1), so its record also holds the
//!   vector still accumulating. Under Cosmos and MSP it stays empty.
//!
//! # Storage layout
//!
//! Each block owns a fixed ring-buffer [`History`] register with a
//! rolling [`HistoryKey`](crate::HistoryKey) and a [`PatternTable`]
//! keyed by that key, so one observed symbol costs one fused
//! predict-and-learn probe of the table's index and an O(1) ring push:
//! no per-symbol window re-hash, and no allocation on the steady-state
//! re-learn path.
//!
//! Three owners keep these records: the per-message
//! [`Predictor`](crate::Predictor) in a map keyed by block address,
//! the online [`Vmsp`](crate::Vmsp) in a dense per-home table like the
//! directory's, and trace replay ([`evaluate_trace`](crate::evaluate_trace))
//! one record at a time, cleared between blocks. Each folds its records
//! into a [`StorageReport`] through [`StorageFold`].

use specdsm_types::{DirMsg, ProcId, ReaderSet, ReqKind};

use crate::intern::ReaderSetInterner;
use crate::predictor::PredictorKind;
use crate::stats::Observation;
use crate::storage::{StorageModel, StorageReport};
use crate::symbol::Symbol;
use crate::table::{History, PatternTable};

/// One block's predictor state (paper §3.1, §4.2): the history
/// register, the pattern table, whose entries carry the SWI bit, and
/// the read vector still accumulating.
#[derive(Debug, Clone)]
pub(crate) struct BlockRecord {
    pub(crate) history: History,
    pub(crate) table: PatternTable,
    /// The open read phase's vector; VMSP only.
    pub(crate) open: ReaderSet,
}

impl BlockRecord {
    pub(crate) fn new(depth: usize) -> Self {
        BlockRecord {
            // `History` defers its ring allocation to the first push,
            // so growing a table over pristine spans allocates nothing
            // per record.
            history: History::new(depth),
            table: PatternTable::new(),
            open: ReaderSet::new(),
        }
    }

    /// Whether the record observed a symbol or a read. A read opens
    /// the vector, any other symbol pushes history, and the vector only
    /// ever empties into history, so records a table merely grew past
    /// are exactly the inactive ones.
    pub(crate) fn is_active(&self) -> bool {
        !self.history.is_empty() || !self.open.is_empty()
    }

    /// Returns the record to [`BlockRecord::new`]'s, keeping the
    /// storage of its history and pattern table.
    pub(crate) fn clear(&mut self) {
        self.history.clear();
        self.table.clear();
        self.open = ReaderSet::new();
    }

    /// The PAp step: predict the successor of the current history,
    /// compare with `sym`, learn `sym` as the new successor
    /// (last-occurrence update), and shift `sym` into the history.
    #[inline]
    pub(crate) fn observe_symbol(&mut self, sym: Symbol) -> Observation {
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

    /// The VMSP rule for one `kind` request from `p`: what the record
    /// predicted for it, after which the request is learned. Spilled
    /// read vectors intern through `sets`.
    // Always inlined: out of line, the online `observe_at` shrinks
    // enough to be inlined into the directory handler around a call
    // to this, and paper16 `wall_s` rose about 6% on a 2-CPU host.
    #[inline(always)]
    pub(crate) fn observe_request(
        &mut self,
        sets: &mut ReaderSetInterner,
        kind: ReqKind,
        p: ProcId,
    ) -> Observation {
        match kind {
            ReqKind::Read => {
                // Each read is checked against the vector predicted to
                // follow the current history; order inside the vector is
                // irrelevant by construction.
                let obs = if self.history.is_full() {
                    match self.table.predict(&self.history) {
                        Some(Symbol::ReadVec(v)) => Observation::Predicted {
                            correct: sets.contains(v, p),
                        },
                        Some(_) => Observation::Predicted { correct: false },
                        None => Observation::NoPrediction,
                    }
                } else {
                    Observation::NoPrediction
                };
                self.open.insert(p);
                obs
            }
            ReqKind::Write | ReqKind::Upgrade => {
                // A write/upgrade closes any open read phase: the
                // accumulated vector is interned (one arena id however
                // often this pattern recurs) and becomes one history
                // symbol, learned without scoring a prediction.
                if !self.open.is_empty() {
                    let vec = Symbol::ReadVec(sets.intern(std::mem::take(&mut self.open)));
                    if self.history.is_full() {
                        self.table.learn(&self.history, vec);
                    }
                    self.history.push(vec);
                }
                self.observe_symbol(Symbol::Req(kind, p))
            }
        }
    }
}

/// The symbol `msg` enters a Cosmos or MSP predictor's tables as, or
/// `None` if that predictor ignores it: MSP filters out the acks.
pub(crate) fn symbol(kind: PredictorKind, msg: DirMsg) -> Option<Symbol> {
    match msg {
        DirMsg::Ack(..) if kind == PredictorKind::Msp => None,
        _ => Some(Symbol::from_msg(msg)),
    }
}

/// Table 4's storage counters, folded one [`BlockRecord`] at a time:
/// the one place a [`StorageReport`] is assembled.
#[derive(Debug, Default)]
pub(crate) struct StorageFold {
    blocks: u64,
    entries: u64,
    open_bytes: u64,
}

impl StorageFold {
    /// Adds one record: whether it is active, its pattern entries and
    /// its open vector's heap words.
    pub(crate) fn add(&mut self, record: &BlockRecord) {
        self.blocks += u64::from(record.is_active());
        self.entries += record.table.len() as u64;
        self.open_bytes += record.open.heap_bytes() as u64;
    }

    /// The report of the records added so far under `model`. The
    /// arena `sets` is charged once; an open vector is the one place a
    /// wide set lives outside it, so open vectors are charged per copy.
    pub(crate) fn report(&self, model: StorageModel, sets: &ReaderSetInterner) -> StorageReport {
        StorageReport {
            model,
            blocks: self.blocks,
            entries: self.entries,
            spill_bytes: sets.spill_bytes() + self.open_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::Predictor;
    use specdsm_types::{BlockAddr, ProcId};

    fn cosmos(depth: usize) -> Predictor {
        PredictorKind::Cosmos.build(depth, 16)
    }

    fn msp(depth: usize) -> Predictor {
        PredictorKind::Msp.build(depth, 16)
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
    fn record_is_88_bytes() {
        // history: History, 56 B — depth, the ring's Vec, head, rolling
        //          key and the shift constant;
        // table:   PatternTable, 8 B — null until the first learn;
        // open:    ReaderSet, 24 B — inline word plus spill pointer.
        // The online VMSP commits whole spans of these per home, so a
        // wider record widens the table paper16 and wide256 measure.
        assert_eq!(std::mem::size_of::<History>(), 56);
        assert_eq!(std::mem::size_of::<BlockRecord>(), 88);
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
