//! Hash-consed reader sets: [`SetId`] and [`ReaderSetInterner`].
//!
//! On machines past 64 processors a [`ReaderSet`] spills to a
//! heap-allocated word array. VMSP keeps its read vectors — pattern
//! entries and histories — as ids into its own hash-cons arena, which
//! stores each canonical spilled bit pattern **once**; the `Copy`
//! [`SetId`] compares and hashes in O(1). An inline (≤64-processor)
//! [`SetId`] carries the raw low word itself and never touches the
//! arena.
//!
//! # Determinism
//!
//! Arena ids are assigned in insertion order, so two runs that intern
//! the same sets in the same order produce the same ids. The dedup
//! index is a digest → candidate-id map that is only ever *probed*
//! (never iterated), so its internal ordering cannot leak into model
//! outputs. Each predictor owns its own interner, so its ids follow
//! its own event order alone.

use std::collections::HashMap;

use specdsm_types::{ProcId, ReaderSet};

/// Sentinel arena index marking an inline (non-arena) id.
const INLINE: u32 = u32::MAX;

/// A `Copy` handle to an interned [`ReaderSet`].
///
/// Two forms share the struct:
///
/// * **Inline** (`id == INLINE` sentinel): the set has no spilled bits
///   and `key` *is* the raw low word — the complete representation.
///   Inline ids are self-contained and valid with any (or no) interner.
/// * **Arena** (`id < INLINE`): the set is spilled; `id` indexes the
///   owning [`ReaderSetInterner`]'s arena and `key` caches the set's
///   [`ReaderSet::mix64`] digest (so predictor pattern keys never need
///   to touch the arena).
///
/// Because spilled sets are kept canonical (a spill always carries a
/// bit ≥ 64), an inline id and an arena id can never denote the same
/// set, and hash-consing gives equal spilled sets equal arena ids —
/// so the derived `Eq`/`Hash` over `(key, id)` is **exact set
/// equality** for ids minted by one interner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SetId {
    /// Inline: the raw low word. Arena: the cached `mix64` digest.
    key: u64,
    /// `INLINE`, or the arena index.
    id: u32,
}

impl SetId {
    /// The empty set (inline, no interner required).
    pub const EMPTY: SetId = SetId { key: 0, id: INLINE };

    /// An inline id over the raw low word `bits` (processors `P0..P63`).
    #[must_use]
    #[inline]
    pub fn from_bits(bits: u64) -> SetId {
        SetId {
            key: bits,
            id: INLINE,
        }
    }

    /// Whether this id is inline (self-contained, arena-free).
    #[must_use]
    #[inline]
    pub fn is_inline(self) -> bool {
        self.id == INLINE
    }

    /// Whether the denoted set is empty. Needs no interner: a spilled
    /// set is canonically non-empty, so only the inline zero word is
    /// empty.
    #[must_use]
    #[inline]
    pub fn is_empty(self) -> bool {
        self.id == INLINE && self.key == 0
    }

    /// The 64-bit pattern digest: for an inline id the raw low word,
    /// for an arena id the cached [`ReaderSet::mix64`] of the set —
    /// in both cases equal to `mix64()` of the materialized set.
    #[must_use]
    #[inline]
    pub fn key(self) -> u64 {
        self.key
    }

    /// The arena index, or `None` for an inline id.
    #[must_use]
    #[inline]
    pub fn index(self) -> Option<usize> {
        (self.id != INLINE).then_some(self.id as usize)
    }
}

/// An id-addressed hash-cons arena for spilled [`ReaderSet`]s.
///
/// [`ReaderSetInterner::intern`] maps each canonical spilled bit
/// pattern to a stable `u32` arena index (first-come order); interning
/// the same pattern again returns the same id. Inline sets bypass the
/// arena entirely. Copies, equality, and hashing of the resulting ids
/// are what interning makes O(1).
///
/// Arena ids are only meaningful with the interner that minted them;
/// resolving a foreign arena id panics (index out of bounds) or
/// returns the wrong set. Components therefore own their interner
/// (one per predictor) and never exchange raw arena ids.
#[derive(Debug, Clone, Default)]
pub struct ReaderSetInterner {
    /// Arena of canonical **spilled** sets, indexed by `SetId::id`.
    arena: Vec<ReaderSet>,
    /// Dedup index: `mix64` digest → candidate arena ids (full
    /// compare on probe; never iterated, so map order is unobservable).
    dedup: HashMap<u64, Vec<u32>>,
}

impl ReaderSetInterner {
    /// An empty interner.
    #[must_use]
    pub fn new() -> Self {
        ReaderSetInterner::default()
    }

    /// Interns `set`, returning its id. Inline sets never touch the
    /// arena; a spilled set moves into it on first sight.
    pub fn intern(&mut self, set: ReaderSet) -> SetId {
        if !set.has_spill() {
            return SetId::from_bits(set.bits());
        }
        let key = set.mix64();
        let ids = self.dedup.entry(key).or_default();
        for &id in ids.iter() {
            if self.arena[id as usize] == set {
                return SetId { key, id };
            }
        }
        let id = u32::try_from(self.arena.len()).expect("arena index fits u32");
        assert!(id != INLINE, "reader-set arena exhausted");
        self.arena.push(set);
        ids.push(id);
        SetId { key, id }
    }

    /// Materializes the set behind `sid` (allocates for spilled sets).
    #[must_use]
    pub fn resolve(&self, sid: SetId) -> ReaderSet {
        if sid.is_inline() {
            ReaderSet::from_bits(sid.key)
        } else {
            self.arena[sid.id as usize].clone()
        }
    }

    /// Whether `p` is in the set behind `sid`.
    #[must_use]
    pub fn contains(&self, sid: SetId, p: ProcId) -> bool {
        if sid.is_inline() {
            ReaderSet::from_bits(sid.key).contains(p)
        } else {
            self.arena[sid.id as usize].contains(p)
        }
    }

    /// The id for `sid \ {p}` (canonical: may collapse back to inline).
    pub fn remove(&mut self, sid: SetId, p: ProcId) -> SetId {
        if !self.contains(sid, p) {
            return sid;
        }
        let mut s = self.resolve(sid);
        s.remove(p);
        self.intern(s)
    }

    /// Bytes the arena actually holds: one canonical copy per distinct
    /// spilled pattern (set header + heap words). This is the figure
    /// `StorageReport` charges **once** per machine instead of once
    /// per retained copy.
    #[must_use]
    pub fn spill_bytes(&self) -> u64 {
        self.arena
            .iter()
            .map(|s| (std::mem::size_of::<ReaderSet>() + s.heap_bytes()) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn copy_bytes(set: &ReaderSet) -> u64 {
        (std::mem::size_of::<ReaderSet>() + set.heap_bytes()) as u64
    }

    #[test]
    fn inline_ids_are_raw_bits_and_need_no_arena() {
        let mut sets = ReaderSetInterner::new();
        let s = ReaderSet::from_iter([ProcId(1), ProcId(63)]);
        let sid = sets.intern(s.clone());
        assert!(sid.is_inline());
        assert_eq!(sid.key(), s.bits());
        assert_eq!(sid.key(), s.mix64());
        assert_eq!(sets.spill_bytes(), 0, "inline sets bypass the arena");
        assert_eq!(sets.resolve(sid), s);
        assert!(sets.contains(sid, ProcId(63)));
        assert!(!sets.contains(sid, ProcId(64)));
    }

    #[test]
    fn spilled_ids_hash_cons() {
        let mut sets = ReaderSetInterner::new();
        let a = ReaderSet::from_iter([ProcId(1), ProcId(200)]);
        let b = ReaderSet::from_iter([ProcId(200), ProcId(1)]);
        let ia = sets.intern(a.clone());
        let ib = sets.intern(b);
        assert_eq!(ia, ib, "equal sets intern to equal ids");
        assert_eq!(ia.key(), a.mix64());
        assert_eq!(sets.spill_bytes(), copy_bytes(&a));
        let ic = sets.intern(ReaderSet::from_iter([ProcId(1), ProcId(201)]));
        assert_ne!(ia, ic, "distinct sets get distinct ids");
        assert_eq!(sets.resolve(ia), a);
    }

    #[test]
    fn functional_ops_match_reader_set_semantics() {
        let mut sets = ReaderSetInterner::new();
        let sid = sets.intern(ReaderSet::from_iter([ProcId(3), ProcId(100)]));
        assert!(!sid.is_inline());
        assert!(sets.contains(sid, ProcId(100)));
        assert_eq!(sets.remove(sid, ProcId(5)), sid, "absent member: same id");
        let back = sets.remove(sid, ProcId(100));
        assert!(back.is_inline(), "dropping the spilled bit re-inlines");
        assert_eq!(back, SetId::from_bits(1 << 3));
        assert_eq!(sets.remove(back, ProcId(3)), SetId::EMPTY);
        assert!(SetId::EMPTY.is_empty());
    }

    #[test]
    fn accounting_charges_each_pattern_once() {
        let mut sets = ReaderSetInterner::new();
        let wide = ReaderSet::from_iter([ProcId(5), ProcId(500)]);
        for _ in 0..10 {
            sets.intern(wide.clone());
        }
        assert_eq!(sets.spill_bytes(), copy_bytes(&wide));
        assert!(wide.heap_bytes() > 0);
    }
}
