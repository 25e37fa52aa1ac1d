//! Two-level tables: per-block history registers and pattern tables.
//!
//! # Storage layout (one record slab per table)
//!
//! The paper's predictors are hardware tables: a fixed-width history
//! register feeds a pattern table indexed by a compact function of the
//! register, so a lookup or a speculation-feedback update is one
//! indexed access. This module mirrors that shape in software:
//!
//! * [`History`] is a **fixed ring buffer** of `depth` symbols. Shifting
//!   in a symbol overwrites the oldest slot (no `Vec::remove(0)`
//!   memmove) and maintains a **rolling [`HistoryKey`]** — a polynomial
//!   hash updated in O(1) per push (`key·B + in − out·B^d`), so
//!   obtaining the current window's key never re-hashes the window.
//! * [`PatternTable`] is one pointer: `None` until the first insert,
//!   then a boxed slab. The slab keeps every entry as a fixed-stride
//!   **record** of `depth + 1` symbols in one `Vec<Symbol>` — the
//!   owning window, oldest first, then the prediction — and a flat
//!   hash index **keyed by `HistoryKey`** (a `u64`, through the
//!   vendored FxHash-style hasher) that maps each key to its record
//!   number and the entry's SWI bit. A new pattern appends a record;
//!   no entry owns a heap allocation of its own.
//! * The stored window is the **collision guard**: `HistoryKey` is 64
//!   bits, so two windows can (very rarely) share a key. Every
//!   history-addressed access compares the live window with the
//!   record's window; a mismatch is a miss for a read, and a learn
//!   overwrites the record wholesale (window, prediction, fresh SWI
//!   bit), the way a hardware table slot is simply reused.
//! * Because the index is keyed by the same `HistoryKey` the protocol
//!   carries in its [`SpecTicket`](crate::SpecTicket)s, speculation
//!   feedback ([`PatternTable::set_swi_premature`],
//!   [`PatternTable::prune_reader`]) is one direct lookup: the index
//!   doubles as the reverse map from ticket to entry.
//! * A prune that empties a read vector removes the entry: the last
//!   record moves into the hole and its index entry is re-pointed
//!   through `HistoryKey::of` of the moved window. That relies on each
//!   record's key being the key of its window, which every public
//!   operation keeps.
//!
//! The box keeps a never-used table at one word. The VMSP arena commits
//! whole spans of pristine per-block records, most of which never learn
//! a pattern, so an inline map plus a record vector would cost every one
//! of them several words. Re-learning a resident pattern (the steady
//! state) is one index probe, one window compare and one store.

use crate::fxhash::FxHashMap;
use crate::symbol::{HistoryKey, Symbol};

/// One pattern-table entry: the observed immediate successor of a
/// history window, "the prediction ... when the sequence last occurred"
/// (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternEntry {
    /// Predicted next symbol.
    pub prediction: Symbol,
    /// SWI premature-invalidation bit: set when a speculative write
    /// invalidation triggered from this entry proved premature, which
    /// suppresses further SWI for this pattern (paper §4.2).
    pub swi_premature: bool,
}

/// The index side of one entry: where its record lives, and its SWI bit.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Record number; the record starts at symbol `at · stride`.
    at: u32,
    swi_premature: bool,
}

/// The storage of a table that holds at least one entry.
#[derive(Debug, Clone)]
struct Slab {
    /// Symbols per record: the window depth plus the prediction.
    stride: usize,
    index: FxHashMap<HistoryKey, Slot>,
    records: Vec<Symbol>,
}

impl Slab {
    fn empty(stride: usize) -> Box<Slab> {
        Box::new(Slab {
            stride,
            index: FxHashMap::default(),
            records: Vec::new(),
        })
    }

    /// The window and the entry of the record `slot` points at.
    fn entry(&self, slot: Slot) -> (&[Symbol], PatternEntry) {
        let record = &self.records[slot.at as usize * self.stride..][..self.stride];
        let (window, prediction) = record.split_at(self.stride - 1);
        let entry = PatternEntry {
            prediction: prediction[0],
            swi_premature: slot.swi_premature,
        };
        (window, entry)
    }

    /// The entry `history`'s window owns, if its key is present and
    /// its record holds that very window.
    fn lookup(&self, history: &History) -> Option<PatternEntry> {
        let (window, entry) = self.entry(*self.index.get(&history.key())?);
        history.window_matches(window).then_some(entry)
    }
}

/// A per-block pattern table keyed by the history window's
/// [`HistoryKey`].
///
/// See the `table` module source docs for the storage layout. All
/// operations are O(1): lookups and learns index by the history's
/// rolling key; speculation feedback (`set_swi_premature`,
/// `prune_reader`) indexes by the key captured in the protocol's
/// ticket. Every history-addressed call expects a full register.
#[derive(Debug, Clone, Default)]
pub struct PatternTable {
    slab: Option<Box<Slab>>,
}

impl PatternTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the prediction for `history`'s current window. A key
    /// collision (entry owned by a different window) is a miss.
    #[must_use]
    pub fn predict(&self, history: &History) -> Option<Symbol> {
        self.peek(history).map(|e| e.prediction)
    }

    /// Looks up the entry for `history`'s current window.
    #[must_use]
    pub fn peek(&self, history: &History) -> Option<PatternEntry> {
        self.slab.as_deref()?.lookup(history)
    }

    /// Last-occurrence update: records `successor` as the prediction
    /// for `history`'s current window, preserving the entry's SWI bit
    /// if the same window is already resident. A colliding entry (same
    /// key, different window) is overwritten, like a hardware table
    /// slot being reused.
    pub fn learn(&mut self, history: &History, successor: Symbol) {
        if let Some(prediction) = self.resident_or_insert(history, &successor) {
            *prediction = successor;
        }
    }

    /// Fused predict + learn for one observed symbol: returns what the
    /// table predicted for `history`'s window (exactly like
    /// [`PatternTable::predict`]) and records `sym` as the window's new
    /// successor (exactly like [`PatternTable::learn`]) — in a
    /// **single** index probe instead of two. This is the per-symbol
    /// hot path of every predictor's observe loop.
    pub fn predict_and_learn(&mut self, history: &History, sym: &Symbol) -> Option<Symbol> {
        let prediction = self.resident_or_insert(history, sym)?;
        Some(std::mem::replace(prediction, *sym))
    }

    /// The shared slot-resolution arm of [`PatternTable::learn`] and
    /// [`PatternTable::predict_and_learn`]: one index probe that either
    /// returns the **resident** prediction for `history`'s window (the
    /// caller updates it), or installs a record predicting `successor`
    /// and returns `None`. Installing covers both the vacant key, which
    /// appends a record, and the 64-bit key collision, where the
    /// record's owner is a different window and the record is
    /// overwritten wholesale (window, prediction and a fresh SWI bit:
    /// it is a different pattern).
    fn resident_or_insert(&mut self, history: &History, successor: &Symbol) -> Option<&mut Symbol> {
        let stride = history.depth() + 1;
        let slab = self.slab.get_or_insert_with(|| Slab::empty(stride));
        assert!(
            history.is_full() && slab.stride == stride,
            "pattern tables learn only from full registers of one depth"
        );
        let Slab { index, records, .. } = &mut **slab;
        match index.entry(history.key()) {
            std::collections::hash_map::Entry::Occupied(o) => {
                let slot = o.into_mut();
                let record = &mut records[slot.at as usize * stride..][..stride];
                let (window, prediction) = record.split_at_mut(stride - 1);
                if history.window_matches(window) {
                    return Some(&mut prediction[0]);
                }
                history.copy_window_to(window);
                prediction[0] = *successor;
                slot.swi_premature = false;
                None
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                let at = u32::try_from(records.len() / stride)
                    .expect("pattern table exceeds u32 records");
                v.insert(Slot {
                    at,
                    swi_premature: false,
                });
                let (straight, wrapped) = history.halves();
                records.extend_from_slice(straight);
                records.extend_from_slice(wrapped);
                records.push(*successor);
                None
            }
        }
    }

    /// Sets the SWI premature bit on the entry for `key`, creating
    /// nothing if the entry has disappeared. Returns whether an entry
    /// was marked.
    ///
    /// Matching by key lets the protocol refer to the entry without
    /// retaining the symbol sequence; the index makes this one direct
    /// lookup.
    pub fn set_swi_premature(&mut self, key: HistoryKey) -> bool {
        match self.slab.as_deref_mut().and_then(|s| s.index.get_mut(&key)) {
            Some(slot) => {
                slot.swi_premature = true;
                true
            }
            None => false,
        }
    }

    /// Whether SWI is suppressed for `history`'s current window.
    #[must_use]
    pub fn swi_suppressed(&self, history: &History) -> bool {
        self.peek(history).is_some_and(|e| e.swi_premature)
    }

    /// Whether SWI is suppressed for the pattern under `key` (the
    /// ticket-handle form of [`PatternTable::swi_suppressed`]).
    #[must_use]
    pub fn swi_suppressed_key(&self, key: HistoryKey) -> bool {
        self.slab
            .as_deref()
            .and_then(|s| s.index.get(&key))
            .is_some_and(|slot| slot.swi_premature)
    }

    /// Removes a reader from a vector prediction (speculation
    /// verification: "removes mispredicted request sequences from the
    /// pattern tables", paper §4.2). Returns `true` if an entry
    /// changed. O(1) lookup: the ticket key indexes the entry
    /// directly; `sets` must be the interner that minted the entry's
    /// read-vector ids (the pruned vector is re-interned through it).
    /// Pruning the last reader removes the entry: the table's last
    /// record moves into its place.
    pub fn prune_reader(
        &mut self,
        sets: &mut crate::intern::ReaderSetInterner,
        key: HistoryKey,
        reader: specdsm_types::ProcId,
    ) -> bool {
        let Some(Slab {
            stride,
            index,
            records,
        }) = self.slab.as_deref_mut()
        else {
            return false;
        };
        let stride = *stride;
        let Some(&Slot { at, .. }) = index.get(&key) else {
            return false;
        };
        let start = at as usize * stride;
        let Symbol::ReadVec(v) = &mut records[start + stride - 1] else {
            return false;
        };
        let pruned = sets.remove(*v, reader);
        if pruned == *v {
            return false;
        }
        if !pruned.is_empty() {
            *v = pruned;
            return true;
        }
        index.remove(&key);
        let last = records.len() - stride;
        if start != last {
            records.copy_within(last.., start);
            let moved = HistoryKey::of(&records[start..start + stride - 1]);
            index
                .get_mut(&moved)
                .expect("every record is indexed under its window's key")
                .at = at;
        }
        records.truncate(last);
        true
    }

    /// Removes every entry, SWI bits included, and keeps the storage
    /// for reuse: the table then behaves exactly like a fresh one fed
    /// registers of the depth it learned from before.
    pub fn clear(&mut self) {
        if let Some(slab) = self.slab.as_deref_mut() {
            slab.index.clear();
            slab.records.clear();
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slab.as_ref().map_or(0, |s| s.index.len())
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates `(history window, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Symbol], PatternEntry)> {
        self.slab
            .iter()
            .flat_map(|slab| slab.index.values().map(|&slot| slab.entry(slot)))
    }

    /// Test-only backdoor: installs a record under an arbitrary key,
    /// simulating a 64-bit key collision that honest inputs cannot
    /// produce on demand. The record's key then differs from its
    /// window's key, so the table must not be pruned afterwards.
    #[cfg(test)]
    fn insert_forged(&mut self, key: HistoryKey, window: &[Symbol], successor: Symbol) {
        let stride = window.len() + 1;
        let slab = self.slab.get_or_insert_with(|| Slab::empty(stride));
        let at = u32::try_from(slab.records.len() / stride).unwrap();
        slab.records.extend_from_slice(window);
        slab.records.push(successor);
        slab.index.insert(
            key,
            Slot {
                at,
                swi_premature: false,
            },
        );
    }
}

/// A bounded history register (the per-block row of the first-level
/// history table).
///
/// Holds the most recent `depth` symbols in a fixed ring buffer;
/// predictions are only made once the register is full (warm-up),
/// mirroring hardware that initializes history before predicting.
///
/// The register maintains a rolling [`HistoryKey`] of its current
/// window: [`History::push`] and [`History::key`] are both O(1),
/// independent of depth.
#[derive(Debug, Clone)]
pub struct History {
    depth: usize,
    /// Ring storage; grows to `depth` during warm-up, then fixed.
    buf: Vec<Symbol>,
    /// Index of the oldest symbol once the ring is full.
    head: usize,
    /// Rolling key of the current window (== `HistoryKey::of(window)`).
    key: HistoryKey,
    /// `B^depth`, the constant consumed by the rolling shift.
    base_pow_depth: u64,
}

impl History {
    /// Creates an empty register of the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "history depth must be at least 1");
        History {
            depth,
            // Deliberately no preallocation: a fresh register costs no
            // heap until its first push, so dense arenas can commit
            // spans of pristine registers for free. The ring reaches
            // `depth` capacity within the first few pushes.
            buf: Vec::new(),
            head: 0,
            key: HistoryKey::EMPTY,
            base_pow_depth: HistoryKey::base_pow(depth),
        }
    }

    /// Whether the register holds `depth` symbols.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.depth
    }

    /// Whether no symbol was ever pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Shifts in a new symbol, discarding the oldest once full. O(1):
    /// one ring-slot overwrite plus the rolling-key update.
    pub fn push(&mut self, sym: Symbol) {
        if self.buf.len() < self.depth {
            self.key = self.key.push(&sym);
            self.buf.push(sym);
        } else {
            let outgoing = std::mem::replace(&mut self.buf[self.head], sym);
            let incoming = &self.buf[self.head];
            self.key = self.key.shift(&outgoing, incoming, self.base_pow_depth);
            self.head += 1;
            if self.head == self.depth {
                self.head = 0;
            }
        }
    }

    /// Empties the register, keeping its depth and its ring storage:
    /// it then behaves exactly like a fresh register of that depth.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.key = HistoryKey::EMPTY;
    }

    /// The configured depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Compact hash of the current window. O(1): maintained
    /// incrementally by [`History::push`].
    #[must_use]
    pub fn key(&self) -> HistoryKey {
        self.key
    }

    /// Iterates the current window, oldest symbol first.
    pub fn window(&self) -> impl Iterator<Item = &Symbol> + '_ {
        let (straight, wrapped) = self.halves();
        straight.iter().chain(wrapped)
    }

    /// The current window as two ring slices whose concatenation is
    /// the window, oldest symbol first.
    pub(crate) fn halves(&self) -> (&[Symbol], &[Symbol]) {
        let (wrapped, straight) = self.buf.split_at(self.head);
        (straight, wrapped)
    }

    /// Whether the current window equals `window` symbol-for-symbol.
    #[must_use]
    pub fn window_matches(&self, window: &[Symbol]) -> bool {
        let (straight, wrapped) = self.halves();
        self.buf.len() == window.len()
            && window[..straight.len()] == *straight
            && window[straight.len()..] == *wrapped
    }

    /// Copies the current window, oldest first, into `dst`, which must
    /// be exactly the window's length.
    pub(crate) fn copy_window_to(&self, dst: &mut [Symbol]) {
        let (straight, wrapped) = self.halves();
        let (front, back) = dst.split_at_mut(straight.len());
        front.copy_from_slice(straight);
        back.copy_from_slice(wrapped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReaderSetInterner, SetId};
    use specdsm_types::{ProcId, ReaderSet, ReqKind};

    fn req(kind: ReqKind, p: usize) -> Symbol {
        Symbol::Req(kind, ProcId(p))
    }

    /// A full history register whose window is exactly `syms`.
    fn history_of(syms: &[Symbol]) -> History {
        let mut h = History::new(syms.len());
        for s in syms {
            h.push(*s);
        }
        h
    }

    #[test]
    fn history_warms_up_then_slides() {
        let mut h = History::new(2);
        assert!(!h.is_full());
        h.push(req(ReqKind::Read, 1));
        assert!(!h.is_full());
        h.push(req(ReqKind::Read, 2));
        assert!(h.is_full());
        assert_eq!(h.window().count(), 2);
        h.push(req(ReqKind::Write, 3));
        assert!(h.window_matches(&[req(ReqKind::Read, 2), req(ReqKind::Write, 3)]));
    }

    #[test]
    fn rolling_key_matches_batch_key_as_window_slides() {
        let stream = [
            req(ReqKind::Upgrade, 3),
            req(ReqKind::Read, 1),
            req(ReqKind::Read, 2),
            req(ReqKind::Write, 5),
            req(ReqKind::Upgrade, 2),
            req(ReqKind::Read, 4),
            req(ReqKind::Write, 3),
        ];
        for depth in 1..=4usize {
            let mut h = History::new(depth);
            let mut reference: Vec<Symbol> = Vec::new();
            for s in &stream {
                h.push(*s);
                reference.push(*s);
                if reference.len() > depth {
                    reference.remove(0);
                }
                assert!(h.window_matches(&reference), "depth {depth}");
                assert_eq!(h.key(), HistoryKey::of(&reference), "depth {depth}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "history depth")]
    fn zero_depth_panics() {
        let _ = History::new(0);
    }

    #[test]
    fn table_learns_last_occurrence() {
        let mut t = PatternTable::new();
        let h = history_of(&[req(ReqKind::Upgrade, 3)]);
        assert_eq!(t.predict(&h), None);
        t.learn(&h, req(ReqKind::Read, 1));
        assert_eq!(t.predict(&h), Some(req(ReqKind::Read, 1)));
        // Last occurrence wins.
        t.learn(&h, req(ReqKind::Read, 2));
        assert_eq!(t.predict(&h), Some(req(ReqKind::Read, 2)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn learn_preserves_swi_bit() {
        let mut t = PatternTable::new();
        let h = history_of(&[req(ReqKind::Write, 1)]);
        t.learn(&h, req(ReqKind::Read, 2));
        assert!(t.set_swi_premature(h.key()));
        assert!(t.swi_suppressed(&h));
        assert!(t.swi_suppressed_key(h.key()));
        t.learn(&h, req(ReqKind::Read, 3));
        assert!(t.swi_suppressed(&h), "swi bit survives re-learning");
    }

    #[test]
    fn set_swi_premature_on_missing_entry_is_noop() {
        let mut t = PatternTable::new();
        let h = history_of(&[req(ReqKind::Write, 1)]);
        assert!(!t.set_swi_premature(h.key()));
        assert!(t.is_empty());
    }

    #[test]
    fn prune_reader_shrinks_vector() {
        let mut sets = ReaderSetInterner::new();
        let mut t = PatternTable::new();
        let h = history_of(&[req(ReqKind::Write, 3)]);
        let vec = sets.intern(ReaderSet::from_iter([ProcId(1), ProcId(2)]));
        t.learn(&h, Symbol::ReadVec(vec));
        let key = h.key();
        assert!(t.prune_reader(&mut sets, key, ProcId(2)));
        assert_eq!(
            t.peek(&h).unwrap().prediction,
            Symbol::ReadVec(SetId::from_bits(1 << 1))
        );
        // Pruning the last reader removes the entry entirely.
        assert!(t.prune_reader(&mut sets, key, ProcId(1)));
        assert!(t.is_empty());
        // Pruning a missing entry is a no-op.
        assert!(!t.prune_reader(&mut sets, key, ProcId(1)));
    }

    #[test]
    fn prune_reader_shrinks_spilled_vector() {
        // The same feedback path on a wide-machine vector: the pruned
        // set is re-interned and the stored id swaps — no in-place
        // mutation of arena state.
        let mut sets = ReaderSetInterner::new();
        let mut t = PatternTable::new();
        let h = history_of(&[req(ReqKind::Write, 3)]);
        let vec = sets.intern(ReaderSet::from_iter([ProcId(1), ProcId(200)]));
        t.learn(&h, Symbol::ReadVec(vec));
        assert!(t.prune_reader(&mut sets, h.key(), ProcId(1)));
        let Some(Symbol::ReadVec(left)) = t.peek(&h).map(|e| e.prediction) else {
            panic!("entry survived with one reader");
        };
        assert_eq!(sets.resolve(left), ReaderSet::single(ProcId(200)));
        assert!(t.prune_reader(&mut sets, h.key(), ProcId(200)));
        assert!(t.is_empty());
    }

    #[test]
    fn prune_reader_ignores_non_vector_entries() {
        let mut sets = ReaderSetInterner::new();
        let mut t = PatternTable::new();
        let h = history_of(&[req(ReqKind::Read, 1)]);
        t.learn(&h, req(ReqKind::Write, 2));
        assert!(!t.prune_reader(&mut sets, h.key(), ProcId(2)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn predict_and_learn_equals_separate_calls() {
        let stream = [
            req(ReqKind::Upgrade, 3),
            req(ReqKind::Read, 1),
            req(ReqKind::Read, 2),
            req(ReqKind::Upgrade, 2),
            req(ReqKind::Read, 1),
            req(ReqKind::Read, 3),
        ];
        let mut fused = PatternTable::new();
        let mut split = PatternTable::new();
        let mut h = History::new(2);
        // Warm the history, then drive both tables in lockstep.
        h.push(stream[0]);
        h.push(stream[1]);
        for _ in 0..5 {
            for sym in &stream[2..] {
                let a = fused.predict_and_learn(&h, sym);
                let b = split.predict(&h);
                split.learn(&h, *sym);
                assert_eq!(a, b);
                h.push(*sym);
            }
        }
        assert_eq!(fused.len(), split.len());
        for (w, e) in fused.iter() {
            let mut probe = History::new(w.len());
            for s in w {
                probe.push(*s);
            }
            assert_eq!(split.peek(&probe), Some(e));
        }
    }

    #[test]
    fn predict_and_learn_preserves_swi_bit() {
        let mut t = PatternTable::new();
        let h = history_of(&[req(ReqKind::Write, 1)]);
        t.learn(&h, req(ReqKind::Read, 2));
        assert!(t.set_swi_premature(h.key()));
        assert_eq!(
            t.predict_and_learn(&h, &req(ReqKind::Read, 3)),
            Some(req(ReqKind::Read, 2))
        );
        assert!(t.swi_suppressed(&h), "swi bit survives the fused path");
    }

    #[test]
    fn key_collision_reads_miss_and_learns_evict() {
        // Forge an entry under the key of a *different* window — the
        // situation a 64-bit key collision would produce — and check
        // the fallback: reads treat it as a miss, a learn overwrites
        // the slot for the rightful window.
        let mut t = PatternTable::new();
        let live = history_of(&[req(ReqKind::Upgrade, 3)]);
        t.insert_forged(live.key(), &[req(ReqKind::Read, 7)], req(ReqKind::Write, 9));

        // Same key, different window: every verified lookup misses.
        assert_eq!(t.predict(&live), None);
        assert!(t.peek(&live).is_none());
        assert!(!t.swi_suppressed(&live));

        // The keyed (ticket-handle) paths intentionally skip window
        // verification — the ticket's key *is* the identity.
        assert!(t.set_swi_premature(live.key()));

        // Learning through the live history evicts the collider
        // wholesale: new window, new prediction, fresh SWI bit.
        t.learn(&live, req(ReqKind::Read, 1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.predict(&live), Some(req(ReqKind::Read, 1)));
        assert!(!t.peek(&live).unwrap().swi_premature);
    }

    /// A cleared register, whose ring wrapped before the clear, steps
    /// through a stream exactly like a fresh one.
    #[test]
    fn cleared_history_behaves_like_fresh() {
        let stream = [
            req(ReqKind::Upgrade, 3),
            req(ReqKind::Read, 1),
            req(ReqKind::Read, 2),
            req(ReqKind::Write, 5),
            req(ReqKind::Upgrade, 2),
            req(ReqKind::Read, 4),
            req(ReqKind::Write, 3),
        ];
        for depth in 1..=4usize {
            let mut used = History::new(depth);
            for s in stream.iter().rev() {
                used.push(*s);
            }
            used.clear();
            let mut fresh = History::new(depth);
            assert!(used.is_empty() && !used.is_full(), "depth {depth}");
            assert_eq!(used.key(), fresh.key(), "depth {depth}");
            for s in &stream {
                used.push(*s);
                fresh.push(*s);
                assert_eq!(used.is_full(), fresh.is_full(), "depth {depth}");
                assert_eq!(used.key(), fresh.key(), "depth {depth}");
                assert!(used.window().eq(fresh.window()), "depth {depth}");
            }
        }
    }

    /// A cleared table holds no entry, no SWI bit and no collision
    /// record, and then predicts and learns exactly like a fresh one.
    #[test]
    fn cleared_table_behaves_like_fresh() {
        let stream = [
            req(ReqKind::Upgrade, 3),
            req(ReqKind::Read, 1),
            req(ReqKind::Read, 2),
            req(ReqKind::Upgrade, 2),
            req(ReqKind::Read, 1),
        ];
        let replay = |t: &mut PatternTable, check: &mut dyn FnMut(&PatternTable, &History)| {
            let mut h = History::new(2);
            let mut predictions = Vec::new();
            for _ in 0..3 {
                for sym in &stream {
                    if h.is_full() {
                        check(t, &h);
                        predictions.push(t.predict_and_learn(&h, sym));
                    }
                    h.push(*sym);
                }
            }
            predictions
        };
        let mut used = PatternTable::new();
        let mut keys = Vec::new();
        replay(&mut used, &mut |_, h| keys.push(h.key()));
        for &key in &keys {
            assert!(used.set_swi_premature(key));
        }
        // A record under a live key but another window, as a 64-bit
        // key collision leaves it.
        let live = history_of(&[req(ReqKind::Read, 1), req(ReqKind::Read, 2)]);
        used.insert_forged(
            live.key(),
            &[req(ReqKind::Write, 7), req(ReqKind::Write, 8)],
            req(ReqKind::Write, 9),
        );
        used.clear();

        assert_eq!(used.len(), 0);
        assert!(used.is_empty());
        assert_eq!(used.iter().count(), 0);
        for &key in keys.iter().chain([&live.key()]) {
            assert!(!used.swi_suppressed_key(key));
            assert!(!used.set_swi_premature(key), "no entry survives the clear");
        }
        let mut fresh = PatternTable::new();
        let mut no_swi = |t: &PatternTable, h: &History| assert!(!t.swi_suppressed(h));
        assert_eq!(
            replay(&mut used, &mut no_swi),
            replay(&mut fresh, &mut no_swi)
        );
        assert_eq!(used.len(), fresh.len());
        for (w, e) in fresh.iter() {
            assert_eq!(used.peek(&history_of(w)), Some(e));
        }
    }

    #[test]
    fn relearn_does_not_grow_table_and_windows_survive() {
        let mut t = PatternTable::new();
        let a = history_of(&[req(ReqKind::Upgrade, 3), req(ReqKind::Read, 1)]);
        let b = history_of(&[req(ReqKind::Read, 1), req(ReqKind::Read, 2)]);
        for _ in 0..100 {
            t.learn(&a, req(ReqKind::Read, 1));
            t.learn(&b, req(ReqKind::Upgrade, 3));
        }
        assert_eq!(t.len(), 2);
        let windows: Vec<Vec<Symbol>> = t.iter().map(|(w, _)| w.to_vec()).collect();
        assert!(windows.iter().any(|w| a.window_matches(w)));
        assert!(windows.iter().any(|w| b.window_matches(w)));
    }
}
