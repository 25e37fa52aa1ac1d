//! Hash-consed reader sets: [`SetId`] and [`ReaderSetInterner`].
//!
//! On machines past 64 processors a [`ReaderSet`] spills to a
//! heap-allocated word array, and every layer that *retains* one —
//! pattern-table entries, directory sharer lists, speculation tickets —
//! used to hold its own clone. This module replaces those retained
//! clones with an id into a per-component hash-cons arena: each
//! canonical spilled bit pattern is stored **once**, and everything
//! else passes around a `Copy` [`SetId`] whose equality/hash are O(1).
//!
//! The inline ≤64-processor fast path never touches the arena at all:
//! an inline [`SetId`] carries the raw low word itself, so machines up
//! to 64 nodes pay exactly what they paid before interning (and no
//! arena is even consulted to compare, hash, or test membership).
//!
//! # Determinism
//!
//! Arena ids are assigned in insertion order, so two runs that intern
//! the same sets in the same order produce the same ids. The dedup
//! index is a digest → candidate-id map that is only ever *probed*
//! (never iterated), so its internal ordering cannot leak into model
//! outputs. The windowed engine gives each shard its own interner, so
//! a shard's ids follow its own event order alone.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::ids::ProcId;
use crate::readers::ReaderSet;

/// Bits in the inline word (mirrors `ReaderSet`'s layout).
const WORD: usize = 64;

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
    /// for an arena id the cached [`ReaderSet::mix64`] of the set.
    /// Numerically identical to calling `mix64()` on the materialized
    /// set, so pattern-table keys are unchanged by interning.
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

impl Default for SetId {
    fn default() -> Self {
        SetId::EMPTY
    }
}

/// An id-addressed hash-cons arena for spilled [`ReaderSet`]s.
///
/// [`ReaderSetInterner::intern`] maps each canonical spilled bit
/// pattern to a stable `u32` arena index (first-come order); interning
/// the same pattern again returns the same id. Inline sets bypass the
/// arena entirely. Set *mutation* goes through the functional
/// [`insert`](ReaderSetInterner::insert) /
/// [`remove`](ReaderSetInterner::remove) /
/// [`union`](ReaderSetInterner::union) helpers, which are pure bit ops
/// on the inline path and materialize-modify-reintern on the spilled
/// path — copies, equality, and hashing of the resulting ids are what
/// interning makes O(1).
///
/// Arena ids are only meaningful with the interner that minted them;
/// resolving a foreign arena id panics (index out of bounds) or
/// returns the wrong set. Components therefore own their interner
/// (per predictor, per shard) and never exchange raw arena ids.
#[derive(Debug, Clone, Default)]
pub struct ReaderSetInterner {
    /// Arena of canonical **spilled** sets, indexed by `SetId::id`.
    arena: Vec<ReaderSet>,
    /// Dedup index: `mix64` digest → candidate arena ids (full
    /// compare on probe; never iterated, so map order is unobservable).
    dedup: HashMap<u64, Vec<u32>>,
    /// Spilled intern requests, dedup hits included — the "how many
    /// retained wide-set copies did interning absorb" numerator.
    spill_refs: u64,
}

impl ReaderSetInterner {
    /// An empty interner.
    #[must_use]
    pub fn new() -> Self {
        ReaderSetInterner::default()
    }

    /// Interns `set`, returning its id. Inline sets never touch the
    /// arena; spilled sets are cloned only on first sight.
    pub fn intern(&mut self, set: &ReaderSet) -> SetId {
        if !set.has_spill() {
            return SetId::from_bits(set.bits());
        }
        self.intern_spilled(Cow::Borrowed(set))
    }

    /// Interns an owned `set` without cloning on arena miss.
    pub fn intern_owned(&mut self, set: ReaderSet) -> SetId {
        if !set.has_spill() {
            return SetId::from_bits(set.bits());
        }
        self.intern_spilled(Cow::Owned(set))
    }

    fn intern_spilled(&mut self, set: Cow<'_, ReaderSet>) -> SetId {
        debug_assert!(set.has_spill(), "inline sets bypass the arena");
        self.spill_refs += 1;
        let key = set.mix64();
        let ids = self.dedup.entry(key).or_default();
        for &id in ids.iter() {
            if self.arena[id as usize] == *set {
                return SetId { key, id };
            }
        }
        let id = u32::try_from(self.arena.len()).expect("arena index fits u32");
        assert!(id != INLINE, "reader-set arena exhausted");
        self.arena.push(set.into_owned());
        ids.push(id);
        SetId { key, id }
    }

    /// Materializes the set behind `sid` (allocates for spilled sets;
    /// prefer [`with`](ReaderSetInterner::with) where a borrow will do).
    #[must_use]
    pub fn resolve(&self, sid: SetId) -> ReaderSet {
        if sid.is_inline() {
            ReaderSet::from_bits(sid.key)
        } else {
            self.arena[sid.id as usize].clone()
        }
    }

    /// Runs `f` against the set behind `sid` without materializing a
    /// spilled copy (the inline path builds a stack-only temporary).
    pub fn with<R>(&self, sid: SetId, f: impl FnOnce(&ReaderSet) -> R) -> R {
        if sid.is_inline() {
            f(&ReaderSet::from_bits(sid.key))
        } else {
            f(&self.arena[sid.id as usize])
        }
    }

    /// Whether `p` is in the set behind `sid`.
    #[must_use]
    pub fn contains(&self, sid: SetId, p: ProcId) -> bool {
        if sid.is_inline() {
            return p.0 < WORD && sid.key & (1u64 << p.0) != 0;
        }
        self.arena[sid.id as usize].contains(p)
    }

    /// Number of processors in the set behind `sid`.
    #[must_use]
    pub fn len(&self, sid: SetId) -> usize {
        if sid.is_inline() {
            sid.key.count_ones() as usize
        } else {
            self.arena[sid.id as usize].len()
        }
    }

    /// Iterates the set behind `sid` in ascending processor order.
    pub fn iter(&self, sid: SetId) -> impl Iterator<Item = ProcId> + '_ {
        let (lo, hi): (u64, &[u64]) = if sid.is_inline() {
            (sid.key, &[])
        } else {
            let s = &self.arena[sid.id as usize];
            (s.bits(), s.spill())
        };
        std::iter::once(lo)
            .chain(hi.iter().copied())
            .enumerate()
            .flat_map(|(w, mut bits)| {
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let i = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(ProcId(w * WORD + i))
                })
            })
    }

    /// Whether the set behind `sid` is a superset of `other`.
    #[must_use]
    pub fn is_superset_of(&self, sid: SetId, other: &ReaderSet) -> bool {
        self.with(sid, |s| s.is_superset(other))
    }

    /// The id for `{p}`.
    pub fn single(&mut self, p: ProcId) -> SetId {
        if p.0 < WORD {
            SetId::from_bits(1u64 << p.0)
        } else {
            self.intern_owned(ReaderSet::single(p))
        }
    }

    /// The id for `sid ∪ {p}`. Pure bit math when both stay inline.
    ///
    /// # Panics
    ///
    /// Panics if `p.0 >= MAX_PROCS` (as [`ReaderSet::insert`] does).
    pub fn insert(&mut self, sid: SetId, p: ProcId) -> SetId {
        if sid.is_inline() && p.0 < WORD {
            return SetId::from_bits(sid.key | (1u64 << p.0));
        }
        if self.contains(sid, p) {
            return sid;
        }
        let mut s = self.resolve(sid);
        s.insert(p);
        self.intern_owned(s)
    }

    /// The id for `sid \ {p}` (canonical: may collapse back to inline).
    pub fn remove(&mut self, sid: SetId, p: ProcId) -> SetId {
        if sid.is_inline() {
            return if p.0 < WORD {
                SetId::from_bits(sid.key & !(1u64 << p.0))
            } else {
                sid
            };
        }
        if !self.contains(sid, p) {
            return sid;
        }
        let mut s = self.resolve(sid);
        s.remove(p);
        self.intern_owned(s)
    }

    /// The id for `a ∪ b`.
    pub fn union(&mut self, a: SetId, b: SetId) -> SetId {
        if a.is_inline() && b.is_inline() {
            return SetId::from_bits(a.key | b.key);
        }
        if a == b || b.is_empty() {
            return a;
        }
        if a.is_empty() {
            return b;
        }
        let merged = self.with(a, |sa| self.with(b, |sb| sa | sb));
        self.intern_owned(merged)
    }

    /// The id for `sid ∪ other` where `other` is a materialized set.
    pub fn union_with(&mut self, sid: SetId, other: &ReaderSet) -> SetId {
        if sid.is_inline() && !other.has_spill() {
            return SetId::from_bits(sid.key | other.bits());
        }
        let merged = self.with(sid, |s| s | other);
        self.intern_owned(merged)
    }

    /// Distinct spilled patterns resident in the arena.
    #[must_use]
    pub fn unique_spilled(&self) -> u64 {
        self.arena.len() as u64
    }

    /// Spilled intern requests served (dedup hits included) — each one
    /// is a retained wide-set copy that interning collapsed into an id.
    #[must_use]
    pub fn spill_refs(&self) -> u64 {
        self.spill_refs
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

    #[test]
    fn inline_ids_are_raw_bits_and_need_no_arena() {
        let mut sets = ReaderSetInterner::new();
        let s = ReaderSet::from_iter([ProcId(1), ProcId(63)]);
        let sid = sets.intern(&s);
        assert!(sid.is_inline());
        assert_eq!(sid.key(), s.bits());
        assert_eq!(sid.key(), s.mix64());
        assert_eq!(sets.unique_spilled(), 0, "inline sets bypass the arena");
        assert_eq!(sets.spill_refs(), 0);
        assert_eq!(sets.resolve(sid), s);
        assert!(sets.contains(sid, ProcId(63)));
        assert!(!sets.contains(sid, ProcId(64)));
        assert_eq!(sets.len(sid), 2);
    }

    #[test]
    fn spilled_ids_hash_cons() {
        let mut sets = ReaderSetInterner::new();
        let a = ReaderSet::from_iter([ProcId(1), ProcId(200)]);
        let b = ReaderSet::from_iter([ProcId(200), ProcId(1)]);
        let ia = sets.intern(&a);
        let ib = sets.intern(&b);
        assert_eq!(ia, ib, "equal sets intern to equal ids");
        assert_eq!(ia.key(), a.mix64());
        assert_eq!(sets.unique_spilled(), 1);
        assert_eq!(sets.spill_refs(), 2);
        let ic = sets.intern(&ReaderSet::from_iter([ProcId(1), ProcId(201)]));
        assert_ne!(ia, ic, "distinct sets get distinct ids");
        assert_eq!(sets.resolve(ia), a);
    }

    #[test]
    fn functional_ops_match_reader_set_semantics() {
        let mut sets = ReaderSetInterner::new();
        let sid = sets.single(ProcId(3));
        let sid = sets.insert(sid, ProcId(100));
        assert!(!sid.is_inline());
        assert_eq!(sets.len(sid), 2);
        let back = sets.remove(sid, ProcId(100));
        assert!(back.is_inline(), "dropping the spilled bit re-inlines");
        assert_eq!(back, SetId::from_bits(1 << 3));
        assert_eq!(sets.remove(back, ProcId(3)), SetId::EMPTY);
        assert!(SetId::EMPTY.is_empty());

        let a = sets.single(ProcId(70));
        let b = sets.single(ProcId(2));
        let u = sets.union(a, b);
        assert_eq!(
            sets.resolve(u),
            ReaderSet::from_iter([ProcId(2), ProcId(70)])
        );
        assert_eq!(sets.union(u, a), u, "idempotent union reuses the id");
        let got: Vec<usize> = sets.iter(u).map(|p| p.0).collect();
        assert_eq!(got, vec![2, 70]);
    }

    #[test]
    fn accounting_charges_each_pattern_once() {
        let mut sets = ReaderSetInterner::new();
        let wide = ReaderSet::from_iter([ProcId(5), ProcId(500)]);
        for _ in 0..10 {
            sets.intern(&wide);
        }
        assert_eq!(sets.unique_spilled(), 1);
        assert_eq!(sets.spill_refs(), 10);
        let expected = (std::mem::size_of::<ReaderSet>() + wide.heap_bytes()) as u64;
        assert_eq!(sets.spill_bytes(), expected);
        assert!(wide.heap_bytes() > 0);
    }
}
