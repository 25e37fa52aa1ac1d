//! Pattern-table symbols: the alphabet a predictor learns over.

use std::fmt;

use specdsm_types::{AckKind, DirMsg, ProcId, ReaderSet, ReqKind, SetId};

/// One history/pattern-table symbol.
///
/// * Cosmos uses [`Symbol::Req`] and [`Symbol::Ack`].
/// * MSP uses only [`Symbol::Req`].
/// * VMSP uses [`Symbol::Req`] for writes/upgrades and
///   [`Symbol::ReadVec`] for whole read sequences.
///
/// Read vectors are carried as interned [`SetId`]s, so a symbol is
/// `Copy` and symbol equality/hashing is O(1) even on wide machines
/// whose reader sets spill past 64 processors. The id's cached digest
/// is exactly [`ReaderSet::mix64`], so pattern keys are unchanged from
/// the pre-interning representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Symbol {
    /// A request message `<kind, proc>`.
    Req(ReqKind, ProcId),
    /// An acknowledgement message `<kind, proc>` (Cosmos only).
    Ack(AckKind, ProcId),
    /// A read sequence folded into an interned reader bit-vector
    /// (VMSP only). The id is minted by the owning predictor's
    /// `ReaderSetInterner`.
    ReadVec(SetId),
}

impl Symbol {
    /// Converts a directory message into a symbol (requests and acks
    /// map one-to-one; vectors are built by VMSP, not by conversion).
    #[must_use]
    pub fn from_msg(msg: DirMsg) -> Symbol {
        match msg {
            DirMsg::Request(kind, p) => Symbol::Req(kind, p),
            DirMsg::Ack(kind, p) => Symbol::Ack(kind, p),
        }
    }

    /// The request content if this symbol is a request.
    #[must_use]
    pub fn request(&self) -> Option<(ReqKind, ProcId)> {
        match *self {
            Symbol::Req(kind, p) => Some((kind, p)),
            _ => None,
        }
    }

    /// The interned reader vector if this symbol is a read sequence.
    #[must_use]
    pub fn read_vec(&self) -> Option<SetId> {
        match *self {
            Symbol::ReadVec(v) => Some(v),
            _ => None,
        }
    }

    /// The symbol's contribution to a rolling [`HistoryKey`]: a
    /// two-round SplitMix64 over the symbol's `(type tag, payload)`
    /// pair. The tag is diffused first and the **full 64-bit payload**
    /// folded in afterwards, so a wide [`ReadVec`](Symbol::ReadVec)
    /// loses no reader bits (a packed single-word encoding would have
    /// to truncate the vector to make room for the tag — fatal now
    /// that the result indexes the pattern tables). For read vectors
    /// the payload is [`SetId::key`] — the interned set's cached
    /// [`ReaderSet::mix64`] digest: identical to the raw bit word for
    /// machines up to 64 processors (so pattern keys are unchanged by
    /// the hybrid-bitset and interning reworks), a whole-vector fold
    /// for spilled sets. The additive constant keeps the all-zero pair
    /// (`<Read, P0>`) away from the mix function's zero fixed point.
    #[must_use]
    pub(crate) fn mixed(&self) -> u64 {
        let (tag, payload): (u64, u64) = match self {
            Symbol::Req(kind, p) => {
                let k = match kind {
                    ReqKind::Read => 0u64,
                    ReqKind::Write => 1,
                    ReqKind::Upgrade => 2,
                };
                (k, p.0 as u64)
            }
            Symbol::Ack(kind, p) => {
                let k = match kind {
                    AckKind::InvAck => 3u64,
                    AckKind::Writeback => 4,
                };
                (k, p.0 as u64)
            }
            Symbol::ReadVec(v) => (5, v.key()),
        };
        splitmix64(splitmix64(tag.wrapping_add(0x9E37_79B9_7F4A_7C15)).wrapping_add(payload))
    }
}

/// The SplitMix64 finalizer: a bijective 64-bit diffusion round.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Symbol::Req(kind, p) => write!(f, "<{kind}, {p}>"),
            Symbol::Ack(kind, p) => write!(f, "<{kind}, {p}>"),
            // An inline id is the raw low word, so the paper's set
            // notation can be reconstructed without an interner; a
            // spilled id is shown by arena index and digest.
            Symbol::ReadVec(v) => match v.index() {
                None => write!(f, "<Read, {}>", ReaderSet::from_bits(v.key())),
                Some(idx) => write!(f, "<Read, #{idx}:{:016x}>", v.key()),
            },
        }
    }
}

/// A stable hash of a history window, used both as the **index of the
/// pattern tables** (entries are keyed by `HistoryKey`, the software
/// analogue of the paper's hardware table index) and as a compact
/// handle when the protocol needs to refer back to "the pattern entry
/// that was current when speculation was triggered" (SWI premature
/// bits, read-vector pruning).
///
/// The key is a polynomial rolling hash over the window's mixed symbol
/// encodings, ordered oldest first:
///
/// ```text
/// key(s0..s(n-1)) = Σ mixed(si) · B^(n-1-i)   (mod 2^64)
/// ```
///
/// with `B` an odd constant. Because multiplication by an odd constant
/// is invertible modulo 2^64, appending a symbol ([`HistoryKey::push`])
/// and retiring the oldest one (the crate-internal `shift`) are exact O(1)
/// updates — a full [`History`](crate::History) register maintains its
/// key incrementally instead of re-hashing the window on every access.
///
/// # Example
///
/// ```
/// use specdsm_core::{HistoryKey, Symbol};
/// use specdsm_types::{ProcId, ReqKind};
///
/// let h = [Symbol::Req(ReqKind::Upgrade, ProcId(3))];
/// assert_eq!(HistoryKey::of(&h), HistoryKey::of(&h));
/// assert_ne!(
///     HistoryKey::of(&h),
///     HistoryKey::of(&[Symbol::Req(ReqKind::Upgrade, ProcId(2))]),
/// );
///
/// // Incremental and batch construction agree.
/// let w = Symbol::Req(ReqKind::Write, ProcId(1));
/// assert_eq!(
///     HistoryKey::EMPTY.push(&h[0]).push(&w),
///     HistoryKey::of(&[h[0], w]),
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistoryKey(u64);

impl HistoryKey {
    /// The polynomial base. Odd, so that `wrapping_mul(B)` never
    /// collapses information (it is a bijection on `u64`).
    pub(crate) const BASE: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Key of the empty window.
    pub const EMPTY: HistoryKey = HistoryKey(0);

    /// Hashes a history window, oldest symbol first.
    #[must_use]
    pub fn of(history: &[Symbol]) -> HistoryKey {
        history
            .iter()
            .fold(HistoryKey::EMPTY, |key, sym| key.push(sym))
    }

    /// Key of the window extended by one symbol: `key·B + mixed(sym)`.
    #[must_use]
    pub fn push(self, sym: &Symbol) -> HistoryKey {
        HistoryKey(self.0.wrapping_mul(Self::BASE).wrapping_add(sym.mixed()))
    }

    /// Key of a **full** depth-`d` window after shifting `incoming` in
    /// and `outgoing` (the oldest symbol) out. `base_pow_depth` must be
    /// `B^d`, precomputed once per register (see
    /// [`History`](crate::History)).
    #[must_use]
    pub(crate) fn shift(self, outgoing: &Symbol, incoming: &Symbol, base_pow_depth: u64) -> Self {
        HistoryKey(
            self.0
                .wrapping_mul(Self::BASE)
                .wrapping_add(incoming.mixed())
                .wrapping_sub(outgoing.mixed().wrapping_mul(base_pow_depth)),
        )
    }

    /// `B^depth`, the per-register constant consumed by
    /// [`HistoryKey::shift`].
    #[must_use]
    pub(crate) fn base_pow(depth: usize) -> u64 {
        let mut pow: u64 = 1;
        for _ in 0..depth {
            pow = pow.wrapping_mul(Self::BASE);
        }
        pow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An inline read-vector symbol over processors `P0..P63` — the
    /// complete id needs no interner below the spill boundary.
    fn read_vec_of(procs: &[usize]) -> Symbol {
        let set: ReaderSet = procs.iter().map(|&i| ProcId(i)).collect();
        assert!(!set.has_spill(), "test helper is for inline sets");
        Symbol::ReadVec(SetId::from_bits(set.bits()))
    }

    #[test]
    fn from_msg_round_trip() {
        let m = DirMsg::read(ProcId(2));
        assert_eq!(Symbol::from_msg(m), Symbol::Req(ReqKind::Read, ProcId(2)));
        let a = DirMsg::ack_inv(ProcId(1));
        assert_eq!(Symbol::from_msg(a), Symbol::Ack(AckKind::InvAck, ProcId(1)));
    }

    #[test]
    fn accessors() {
        let s = Symbol::Req(ReqKind::Write, ProcId(4));
        assert_eq!(s.request(), Some((ReqKind::Write, ProcId(4))));
        assert_eq!(s.read_vec(), None);
        let v = read_vec_of(&[1]);
        assert_eq!(v.read_vec(), Some(SetId::from_bits(1 << 1)));
        assert_eq!(v.request(), None);
    }

    #[test]
    fn mixed_is_distinct_across_kinds() {
        let symbols = [
            Symbol::Req(ReqKind::Read, ProcId(1)),
            Symbol::Req(ReqKind::Write, ProcId(1)),
            Symbol::Req(ReqKind::Upgrade, ProcId(1)),
            Symbol::Ack(AckKind::InvAck, ProcId(1)),
            Symbol::Ack(AckKind::Writeback, ProcId(1)),
            read_vec_of(&[1]),
            Symbol::Req(ReqKind::Read, ProcId(2)),
        ];
        for (i, a) in symbols.iter().enumerate() {
            for (j, b) in symbols.iter().enumerate() {
                if i != j {
                    assert_ne!(a.mixed(), b.mixed(), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn mixed_keeps_high_reader_bits() {
        // The full 64-bit reader vector must reach the hash: vectors
        // differing only in the top processors (P56..P63) are distinct
        // symbols and must stay distinct in key space.
        let hi_a = read_vec_of(&[1, 60]);
        let hi_b = read_vec_of(&[1, 61]);
        let hi_c = read_vec_of(&[63]);
        let lo = read_vec_of(&[1]);
        assert_ne!(hi_a.mixed(), hi_b.mixed());
        assert_ne!(hi_c.mixed(), lo.mixed());
        assert_ne!(
            HistoryKey::of(&[hi_a]),
            HistoryKey::of(&[hi_b]),
            "high reader bits must survive into the table index"
        );
    }

    #[test]
    fn history_key_distinguishes_order() {
        let a = Symbol::Req(ReqKind::Read, ProcId(1));
        let b = Symbol::Req(ReqKind::Read, ProcId(2));
        let of = |syms: &[&Symbol]| HistoryKey::of(&syms.iter().map(|s| **s).collect::<Vec<_>>());
        assert_ne!(of(&[&a, &b]), of(&[&b, &a]));
        assert_ne!(of(&[&a]), of(&[&a, &a]));
    }

    #[test]
    fn rolling_shift_matches_batch_hash() {
        // Sliding a full window by one symbol via the O(1) shift must
        // agree exactly with re-hashing the slice from scratch.
        let syms = [
            Symbol::Req(ReqKind::Upgrade, ProcId(3)),
            Symbol::Req(ReqKind::Read, ProcId(1)),
            Symbol::Req(ReqKind::Read, ProcId(2)),
            Symbol::Ack(AckKind::InvAck, ProcId(1)),
            read_vec_of(&[1, 2]),
            Symbol::Req(ReqKind::Write, ProcId(0)),
        ];
        for depth in 1..=4usize {
            let pow = HistoryKey::base_pow(depth);
            let mut window: Vec<Symbol> = syms[..depth].to_vec();
            let mut key = HistoryKey::of(&window);
            for incoming in &syms[depth..] {
                let outgoing = window.remove(0);
                window.push(*incoming);
                key = key.shift(&outgoing, incoming, pow);
                assert_eq!(key, HistoryKey::of(&window), "depth {depth}");
            }
        }
    }

    #[test]
    fn mixed_contributions_are_distinct_and_nonzero() {
        let symbols = [
            Symbol::Req(ReqKind::Read, ProcId(0)), // all-zero raw encoding
            Symbol::Req(ReqKind::Read, ProcId(1)),
            Symbol::Req(ReqKind::Write, ProcId(1)),
            Symbol::Ack(AckKind::Writeback, ProcId(2)),
            read_vec_of(&[3]),
        ];
        for (i, a) in symbols.iter().enumerate() {
            assert_ne!(a.mixed(), 0, "{a}");
            for b in &symbols[i + 1..] {
                assert_ne!(a.mixed(), b.mixed(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(
            Symbol::Req(ReqKind::Upgrade, ProcId(3)).to_string(),
            "<Upgrade, P3>"
        );
        let v = read_vec_of(&[1, 2]);
        assert_eq!(v.to_string(), "<Read, {P1,P2}>");
        // Spilled vectors can't be reconstructed from the id alone;
        // they display the arena handle instead.
        let mut sets = specdsm_types::ReaderSetInterner::new();
        let wide = sets.intern(&ReaderSet::from_iter([ProcId(1), ProcId(100)]));
        assert_eq!(
            Symbol::ReadVec(wide).to_string(),
            format!("<Read, #0:{:016x}>", wide.key())
        );
    }
}
