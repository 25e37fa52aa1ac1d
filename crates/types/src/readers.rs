//! Bit-vector of reading processors.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign, Sub};

use crate::ids::{ProcId, MAX_PROCS};

/// Bits per storage word.
const WORD: usize = 64;

/// A set of processors encoded as a bit-vector, one bit per processor.
///
/// This is the representation VMSP uses for a read sequence ("much as a
/// full-map directory maintains the identity of multiple readers of a
/// block", paper §3.1) and the representation the full-map directory uses
/// for its sharer list.
///
/// # Hybrid storage
///
/// The set is a **hybrid bitset**: processors `P0..P63` live in one
/// inline `u64` (`lo`), and only a set that actually contains a
/// processor `P64` or above *spills* to a heap-allocated word array
/// (`hi`). The paper's 16-node machine — and every machine up to 64
/// nodes — therefore pays exactly what the former plain-`u64`
/// representation paid: 16 inline bytes, no allocation, word-parallel
/// set algebra. Machines beyond 64 processors (up to [`MAX_PROCS`]) get
/// the same API with per-word operations over the spilled array.
///
/// The spill is kept **canonical**: `hi` is `Some` only while at least
/// one bit ≥ 64 is set, and never has trailing all-zero words. Equality
/// and hashing can therefore be derived structurally.
///
/// Supports up to [`MAX_PROCS`] processors.
///
/// # Example
///
/// ```
/// use specdsm_types::{ProcId, ReaderSet};
///
/// let mut readers = ReaderSet::new();
/// readers.insert(ProcId(1));
/// readers.insert(ProcId(2));
/// assert_eq!(readers.len(), 2);
/// assert!(readers.contains(ProcId(1)));
/// assert_eq!(readers.to_string(), "{P1,P2}");
///
/// let others = ReaderSet::from_iter([ProcId(2), ProcId(3)]);
/// assert_eq!((readers.clone() | others.clone()).len(), 3);
/// assert_eq!((readers.clone() & others.clone()), ReaderSet::single(ProcId(2)));
/// assert_eq!((readers - others), ReaderSet::single(ProcId(1)));
///
/// // Wide sets spill transparently.
/// let wide = ReaderSet::from_iter([ProcId(3), ProcId(700)]);
/// assert!(wide.contains(ProcId(700)));
/// assert_eq!(wide.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ReaderSet {
    /// Processors `P0..P63`, one bit each (the inline fast path).
    lo: u64,
    /// Processors `P64..`: word `j` holds `P(64 + 64j) .. P(127 + 64j)`.
    /// Canonical: `Some` only with a non-zero last word.
    hi: Option<Box<[u64]>>,
}

impl ReaderSet {
    /// The empty set.
    #[must_use]
    pub const fn new() -> Self {
        ReaderSet { lo: 0, hi: None }
    }

    /// A set containing exactly one processor.
    ///
    /// # Panics
    ///
    /// Panics if `p.0 >= MAX_PROCS`.
    #[must_use]
    pub fn single(p: ProcId) -> Self {
        let mut s = ReaderSet::new();
        s.insert(p);
        s
    }

    /// The set of all processors `P0..Pn`.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_PROCS`.
    #[must_use]
    pub fn all(n: usize) -> Self {
        assert!(n <= MAX_PROCS, "at most {MAX_PROCS} processors supported");
        let mut s = ReaderSet::new();
        if n == 0 {
            return s;
        }
        if n <= WORD {
            s.lo = full_word(n);
            return s;
        }
        s.lo = u64::MAX;
        let rest = n - WORD;
        let words = rest.div_ceil(WORD);
        let mut hi = vec![u64::MAX; words];
        let tail = rest % WORD;
        if tail != 0 {
            hi[words - 1] = full_word(tail);
        }
        s.hi = Some(hi.into_boxed_slice());
        s
    }

    /// Word `w` of the bit-vector (word 0 is `lo`).
    #[inline]
    fn word(&self, w: usize) -> u64 {
        if w == 0 {
            self.lo
        } else {
            self.hi
                .as_deref()
                .and_then(|hi| hi.get(w - 1))
                .copied()
                .unwrap_or(0)
        }
    }

    /// Number of words the set occupies (≥ 1; word 0 is `lo`).
    #[inline]
    fn words(&self) -> usize {
        1 + self.hi.as_deref().map_or(0, <[u64]>::len)
    }

    /// Restores the canonical form after an operation that may have
    /// cleared spilled bits: trims trailing zero words and drops an
    /// all-zero spill entirely.
    fn canonicalize(&mut self) {
        if let Some(hi) = self.hi.as_deref() {
            let keep = hi.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
            if keep == 0 {
                self.hi = None;
            } else if keep < hi.len() {
                self.hi = Some(hi[..keep].to_vec().into_boxed_slice());
            }
        }
    }

    /// Adds `p`; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `p.0 >= MAX_PROCS`.
    #[inline]
    pub fn insert(&mut self, p: ProcId) -> bool {
        assert!(p.0 < MAX_PROCS, "processor id {} out of range", p.0);
        if p.0 < WORD {
            let bit = 1u64 << p.0;
            let fresh = self.lo & bit == 0;
            self.lo |= bit;
            return fresh;
        }
        let word = (p.0 - WORD) / WORD;
        let bit = 1u64 << ((p.0 - WORD) % WORD);
        let hi = self.hi.take().map_or_else(Vec::new, Vec::from);
        let mut hi = hi;
        if hi.len() <= word {
            hi.resize(word + 1, 0);
        }
        let fresh = hi[word] & bit == 0;
        hi[word] |= bit;
        self.hi = Some(hi.into_boxed_slice());
        fresh
    }

    /// Removes `p`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, p: ProcId) -> bool {
        if p.0 >= MAX_PROCS {
            return false;
        }
        if p.0 < WORD {
            let bit = 1u64 << p.0;
            let present = self.lo & bit != 0;
            self.lo &= !bit;
            return present;
        }
        let word = (p.0 - WORD) / WORD;
        let bit = 1u64 << ((p.0 - WORD) % WORD);
        let Some(hi) = self.hi.as_deref_mut() else {
            return false;
        };
        let Some(w) = hi.get_mut(word) else {
            return false;
        };
        let present = *w & bit != 0;
        *w &= !bit;
        if present {
            self.canonicalize();
        }
        present
    }

    /// Whether `p` is in the set.
    #[must_use]
    #[inline]
    pub fn contains(&self, p: ProcId) -> bool {
        if p.0 >= MAX_PROCS {
            return false;
        }
        if p.0 < WORD {
            return self.lo & (1u64 << p.0) != 0;
        }
        self.word(p.0 / WORD) & (1u64 << (p.0 % WORD)) != 0
    }

    /// Number of processors in the set.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        let spilled: u32 = self
            .hi
            .as_deref()
            .map_or(0, |hi| hi.iter().map(|w| w.count_ones()).sum());
        self.lo.count_ones() as usize + spilled as usize
    }

    /// Whether the set is empty.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        // Canonical form: a present spill always carries at least one bit.
        self.lo == 0 && self.hi.is_none()
    }

    /// Whether `other` is a subset of `self`.
    #[must_use]
    pub fn is_superset(&self, other: &ReaderSet) -> bool {
        (0..other.words()).all(|w| {
            let o = other.word(w);
            self.word(w) & o == o
        })
    }

    /// Iterates processors in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = ProcId> + '_ {
        (0..self.words()).flat_map(move |w| {
            let mut bits = self.word(w);
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

    /// Whether the set has spilled past the inline word, i.e. holds a
    /// processor `P64` or above. Canonical form makes this equivalent
    /// to "owns a heap allocation".
    #[must_use]
    #[inline]
    pub fn has_spill(&self) -> bool {
        self.hi.is_some()
    }

    /// Heap bytes owned by the spill allocation — `0` for inline sets.
    /// This is the per-copy cost the storage report must charge for
    /// every retained clone of a wide set.
    #[must_use]
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.hi.as_deref().map_or(0, std::mem::size_of_val)
    }

    /// The spilled words (empty for inline sets); word `j` holds
    /// `P(64 + 64j) .. P(127 + 64j)`.
    #[inline]
    pub(crate) fn spill(&self) -> &[u64] {
        self.hi.as_deref().unwrap_or(&[])
    }

    /// The low 64 bits of the bit-vector (bit `i` set iff `ProcId(i)`,
    /// `i < 64`, is a member). For sets confined to the inline word —
    /// every machine up to 64 processors — this is the complete raw
    /// representation, exactly as before the hybrid rework; spilled
    /// bits are not visible here (see [`ReaderSet::mix64`] for a
    /// full-width digest).
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.lo
    }

    /// Builds a set of processors `P0..P63` from a raw bit-vector.
    #[must_use]
    pub fn from_bits(bits: u64) -> Self {
        ReaderSet { lo: bits, hi: None }
    }

    /// A stable 64-bit digest of the **whole** vector, for hashing into
    /// predictor pattern keys. For an inline set this is exactly
    /// [`ReaderSet::bits`] (so pattern-table keys for machines up to 64
    /// processors are unchanged by the hybrid rework); a spilled set
    /// folds every word through an odd-multiplier mix so that sets
    /// differing only in high processors keep distinct digests.
    #[must_use]
    pub fn mix64(&self) -> u64 {
        match self.hi.as_deref() {
            None => self.lo,
            Some(hi) => {
                let mut acc = self.lo;
                for &w in hi {
                    acc = acc
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(w)
                        .rotate_left(23);
                }
                acc
            }
        }
    }

    /// Word-wise binary operation; `trim` restores canonical form for
    /// operations that can clear bits (intersection, difference).
    fn zip_words(&self, rhs: &ReaderSet, f: impl Fn(u64, u64) -> u64, trim: bool) -> ReaderSet {
        let words = self.words().max(rhs.words());
        let mut out = ReaderSet {
            lo: f(self.lo, rhs.lo),
            hi: None,
        };
        if words > 1 {
            let hi: Vec<u64> = (1..words).map(|w| f(self.word(w), rhs.word(w))).collect();
            out.hi = Some(hi.into_boxed_slice());
            if trim {
                out.canonicalize();
            } else {
                debug_assert_ne!(out.hi.as_deref().and_then(|h| h.last()), Some(&0));
            }
        }
        out
    }
}

impl PartialOrd for ReaderSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ReaderSet {
    /// Orders sets as big-endian integers over their bit-vectors — for
    /// inline sets this is exactly the former `u64` ordering.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let words = self.words().max(other.words());
        for w in (0..words).rev() {
            match self.word(w).cmp(&other.word(w)) {
                std::cmp::Ordering::Equal => {}
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    }
}

/// A word with the lowest `n` (1 ≤ n ≤ 64) bits set.
fn full_word(n: usize) -> u64 {
    if n >= WORD {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

macro_rules! impl_bitop {
    ($trait:ident, $method:ident, $f:expr, $trim:expr) => {
        impl $trait for ReaderSet {
            type Output = ReaderSet;
            fn $method(self, rhs: ReaderSet) -> ReaderSet {
                self.zip_words(&rhs, $f, $trim)
            }
        }
        impl $trait<&ReaderSet> for ReaderSet {
            type Output = ReaderSet;
            fn $method(self, rhs: &ReaderSet) -> ReaderSet {
                self.zip_words(rhs, $f, $trim)
            }
        }
        impl $trait for &ReaderSet {
            type Output = ReaderSet;
            fn $method(self, rhs: &ReaderSet) -> ReaderSet {
                self.zip_words(rhs, $f, $trim)
            }
        }
        impl $trait<ReaderSet> for &ReaderSet {
            type Output = ReaderSet;
            fn $method(self, rhs: ReaderSet) -> ReaderSet {
                self.zip_words(&rhs, $f, $trim)
            }
        }
    };
}

impl_bitop!(BitOr, bitor, |a, b| a | b, false);
impl_bitop!(BitAnd, bitand, |a, b| a & b, true);
// Set difference.
impl_bitop!(Sub, sub, |a, b| a & !b, true);

impl BitOrAssign for ReaderSet {
    fn bitor_assign(&mut self, rhs: ReaderSet) {
        *self = std::mem::take(self) | rhs;
    }
}

impl BitOrAssign<&ReaderSet> for ReaderSet {
    fn bitor_assign(&mut self, rhs: &ReaderSet) {
        *self = std::mem::take(self) | rhs;
    }
}

impl FromIterator<ProcId> for ReaderSet {
    fn from_iter<I: IntoIterator<Item = ProcId>>(iter: I) -> Self {
        let mut s = ReaderSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl Extend<ProcId> for ReaderSet {
    fn extend<I: IntoIterator<Item = ProcId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl fmt::Display for ReaderSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = ReaderSet::new();
        assert!(s.is_empty());
        assert!(s.insert(ProcId(3)));
        assert!(!s.insert(ProcId(3)), "second insert is not fresh");
        assert!(s.contains(ProcId(3)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(ProcId(3)));
        assert!(!s.remove(ProcId(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn insert_remove_contains_spilled() {
        let mut s = ReaderSet::new();
        assert!(s.insert(ProcId(64)));
        assert!(s.insert(ProcId(1023)));
        assert!(!s.insert(ProcId(1023)));
        assert!(s.contains(ProcId(64)));
        assert!(s.contains(ProcId(1023)));
        assert!(!s.contains(ProcId(512)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(ProcId(1023)));
        assert!(s.remove(ProcId(64)));
        assert!(s.is_empty(), "spill fully trimmed");
        assert_eq!(s, ReaderSet::new(), "canonical empty form");
    }

    #[test]
    fn canonical_form_after_high_bit_removal() {
        // Removing the only spilled bit must restore the inline-only
        // representation, or equality with an inline-built set breaks.
        let mut a = ReaderSet::from_iter([ProcId(2), ProcId(200)]);
        a.remove(ProcId(200));
        let b = ReaderSet::single(ProcId(2));
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let digest = |s: &ReaderSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn all_covers_range() {
        let s = ReaderSet::all(16);
        assert_eq!(s.len(), 16);
        assert!(s.contains(ProcId(0)));
        assert!(s.contains(ProcId(15)));
        assert!(!s.contains(ProcId(16)));
        assert_eq!(ReaderSet::all(MAX_PROCS).len(), MAX_PROCS);
        for n in [63usize, 64, 65, 128, 129, 1000] {
            let s = ReaderSet::all(n);
            assert_eq!(s.len(), n, "all({n})");
            assert!(s.contains(ProcId(n - 1)));
            assert!(!s.contains(ProcId(n)));
        }
    }

    #[test]
    fn set_algebra() {
        let a = ReaderSet::from_iter([ProcId(0), ProcId(1)]);
        let b = ReaderSet::from_iter([ProcId(1), ProcId(2)]);
        assert_eq!((a.clone() | b.clone()).len(), 3);
        assert_eq!(a.clone() & b.clone(), ReaderSet::single(ProcId(1)));
        assert_eq!(a.clone() - b.clone(), ReaderSet::single(ProcId(0)));
        assert!((a.clone() | b.clone()).is_superset(&a));
        assert!(!a.is_superset(&b));
    }

    #[test]
    fn set_algebra_across_the_spill_boundary() {
        let a = ReaderSet::from_iter([ProcId(0), ProcId(63), ProcId(64), ProcId(130)]);
        let b = ReaderSet::from_iter([ProcId(63), ProcId(130), ProcId(900)]);
        let union = &a | &b;
        assert_eq!(union.len(), 5);
        assert!(union.is_superset(&a) && union.is_superset(&b));
        let inter = &a & &b;
        assert_eq!(inter, ReaderSet::from_iter([ProcId(63), ProcId(130)]));
        let diff = &a - &b;
        assert_eq!(diff, ReaderSet::from_iter([ProcId(0), ProcId(64)]));
        // Difference that clears every spilled bit trims canonically.
        let wide = ReaderSet::from_iter([ProcId(1), ProcId(999)]);
        let just_high = ReaderSet::single(ProcId(999));
        assert_eq!(&wide - &just_high, ReaderSet::single(ProcId(1)));
        assert_eq!(
            (&wide - &just_high).mix64(),
            ReaderSet::single(ProcId(1)).bits()
        );
    }

    #[test]
    fn iter_ascending() {
        let s = ReaderSet::from_iter([ProcId(9), ProcId(2), ProcId(5)]);
        let got: Vec<usize> = s.iter().map(|p| p.0).collect();
        assert_eq!(got, vec![2, 5, 9]);
        let wide = ReaderSet::from_iter([ProcId(700), ProcId(3), ProcId(65)]);
        let got: Vec<usize> = wide.iter().map(|p| p.0).collect();
        assert_eq!(got, vec![3, 65, 700]);
    }

    #[test]
    fn display_format() {
        let s = ReaderSet::from_iter([ProcId(1), ProcId(2)]);
        assert_eq!(s.to_string(), "{P1,P2}");
        assert_eq!(ReaderSet::new().to_string(), "{}");
        let wide = ReaderSet::from_iter([ProcId(1), ProcId(100)]);
        assert_eq!(wide.to_string(), "{P1,P100}");
    }

    #[test]
    fn bits_round_trip() {
        let s = ReaderSet::from_iter([ProcId(0), ProcId(63)]);
        assert_eq!(ReaderSet::from_bits(s.bits()), s);
    }

    #[test]
    fn mix64_matches_bits_for_inline_sets() {
        for set in [
            ReaderSet::new(),
            ReaderSet::single(ProcId(0)),
            ReaderSet::all(64),
            ReaderSet::from_iter([ProcId(7), ProcId(63)]),
        ] {
            assert_eq!(set.mix64(), set.bits());
        }
    }

    #[test]
    fn mix64_distinguishes_high_bits() {
        let a = ReaderSet::from_iter([ProcId(1), ProcId(64)]);
        let b = ReaderSet::from_iter([ProcId(1), ProcId(65)]);
        let c = ReaderSet::from_iter([ProcId(1), ProcId(128)]);
        assert_ne!(a.mix64(), b.mix64());
        assert_ne!(a.mix64(), c.mix64());
        assert_ne!(b.mix64(), c.mix64());
    }

    #[test]
    fn ordering_matches_u64_order_for_inline_sets() {
        let a = ReaderSet::from_bits(0b0110);
        let b = ReaderSet::from_bits(0b1001);
        assert!(a < b, "inline order is the raw u64 order");
        let wide = ReaderSet::single(ProcId(64));
        assert!(a < wide, "any spilled bit outranks the inline word");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        ReaderSet::new().insert(ProcId(MAX_PROCS));
    }

    #[test]
    fn contains_out_of_range_is_false() {
        assert!(!ReaderSet::all(MAX_PROCS).contains(ProcId(MAX_PROCS)));
        assert!(!ReaderSet::all(64).contains(ProcId(64)));
    }

    #[test]
    fn extend_and_or_assign() {
        let mut s = ReaderSet::new();
        s.extend([ProcId(1), ProcId(4)]);
        s |= ReaderSet::single(ProcId(2));
        assert_eq!(s.len(), 3);
        s |= ReaderSet::single(ProcId(99));
        assert_eq!(s.len(), 4);
        assert!(s.contains(ProcId(99)));
    }
}
