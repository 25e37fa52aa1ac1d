//! The directory-observed message alphabet.
//!
//! A coherence predictor sits next to the home directory and observes the
//! stream of *incoming* messages for each home block. The paper
//! distinguishes:
//!
//! * **request messages** — [`ReqKind::Read`], [`ReqKind::Write`],
//!   [`ReqKind::Upgrade`]: the primary messages that invoke a sequence of
//!   protocol actions. These are what MSP/VMSP predict.
//! * **acknowledgement messages** — [`AckKind::InvAck`] (response to a
//!   read-only invalidation) and [`AckKind::Writeback`] (response to a
//!   writeback request): always expected, part of the coherence overhead.
//!   Cosmos, the general message predictor, predicts these too.

use std::fmt;

use crate::ids::ProcId;

/// The three memory-request message types (paper §2).
///
/// * `Read` — fetch a read-only copy of a block.
/// * `Write` — obtain a writable copy of a block.
/// * `Upgrade` — write to an already-cached read-only copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReqKind {
    /// Fetch a read-only copy.
    Read,
    /// Obtain a writable copy.
    Write,
    /// Promote an existing read-only copy to writable.
    Upgrade,
}

impl ReqKind {
    /// Whether this request asks for write permission (`Write` or
    /// `Upgrade`).
    #[must_use]
    pub fn is_write_like(self) -> bool {
        matches!(self, ReqKind::Write | ReqKind::Upgrade)
    }

    /// Bits needed to encode a request type (paper §3: MSP uses 2 bits
    /// for three request message types).
    pub const ENCODING_BITS: u32 = 2;
}

impl fmt::Display for ReqKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReqKind::Read => "Read",
            ReqKind::Write => "Write",
            ReqKind::Upgrade => "Upgrade",
        };
        f.write_str(s)
    }
}

/// The two acknowledgement message types a general message predictor also
/// tracks (paper §3: "responses to read-only invalidations and
/// writebacks").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AckKind {
    /// Acknowledgement of an invalidation of a read-only copy.
    InvAck,
    /// Data writeback of an invalidated writable copy.
    Writeback,
}

impl fmt::Display for AckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AckKind::InvAck => "ack",
            AckKind::Writeback => "writeback",
        };
        f.write_str(s)
    }
}

/// One incoming directory message for a block: what a predictor observes.
///
/// Cosmos consumes the full stream; MSP and VMSP filter it with
/// [`DirMsg::request`] and consume only the request sub-stream.
///
/// # Example
///
/// ```
/// use specdsm_types::{DirMsg, ProcId, ReqKind};
///
/// let stream = [
///     DirMsg::Request(ReqKind::Upgrade, ProcId(3)),
///     DirMsg::ack_inv(ProcId(1)),
///     DirMsg::ack_inv(ProcId(2)),
///     DirMsg::Request(ReqKind::Read, ProcId(1)),
/// ];
/// let requests: Vec<_> = stream.iter().filter_map(|m| m.request()).collect();
/// assert_eq!(requests, vec![(ReqKind::Upgrade, ProcId(3)), (ReqKind::Read, ProcId(1))]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirMsg {
    /// A memory request message from a processor.
    Request(ReqKind, ProcId),
    /// A protocol acknowledgement from a processor.
    Ack(AckKind, ProcId),
}

impl DirMsg {
    /// Shorthand for an invalidation acknowledgement.
    #[must_use]
    pub fn ack_inv(p: ProcId) -> DirMsg {
        DirMsg::Ack(AckKind::InvAck, p)
    }

    /// Shorthand for a writeback.
    #[must_use]
    pub fn writeback(p: ProcId) -> DirMsg {
        DirMsg::Ack(AckKind::Writeback, p)
    }

    /// Shorthand for a read request.
    #[must_use]
    pub fn read(p: ProcId) -> DirMsg {
        DirMsg::Request(ReqKind::Read, p)
    }

    /// Shorthand for a write request.
    #[must_use]
    pub fn write(p: ProcId) -> DirMsg {
        DirMsg::Request(ReqKind::Write, p)
    }

    /// Shorthand for an upgrade request.
    #[must_use]
    pub fn upgrade(p: ProcId) -> DirMsg {
        DirMsg::Request(ReqKind::Upgrade, p)
    }

    /// The request content, or `None` for acknowledgements.
    #[must_use]
    pub fn request(&self) -> Option<(ReqKind, ProcId)> {
        match *self {
            DirMsg::Request(kind, p) => Some((kind, p)),
            DirMsg::Ack(..) => None,
        }
    }

    /// The sending processor.
    #[must_use]
    pub fn sender(&self) -> ProcId {
        match *self {
            DirMsg::Request(_, p) | DirMsg::Ack(_, p) => p,
        }
    }

    /// Whether this is a request message (vs. an acknowledgement).
    #[must_use]
    pub fn is_request(&self) -> bool {
        matches!(self, DirMsg::Request(..))
    }
}

impl fmt::Display for DirMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirMsg::Request(kind, p) => write!(f, "<{kind}, {p}>"),
            DirMsg::Ack(kind, p) => write!(f, "<{kind}, {p}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_extraction() {
        assert_eq!(
            DirMsg::read(ProcId(1)).request(),
            Some((ReqKind::Read, ProcId(1)))
        );
        assert_eq!(DirMsg::ack_inv(ProcId(1)).request(), None);
        assert_eq!(DirMsg::writeback(ProcId(2)).request(), None);
    }

    #[test]
    fn write_like() {
        assert!(ReqKind::Write.is_write_like());
        assert!(ReqKind::Upgrade.is_write_like());
        assert!(!ReqKind::Read.is_write_like());
    }

    #[test]
    fn sender_of_each_variant() {
        assert_eq!(DirMsg::upgrade(ProcId(3)).sender(), ProcId(3));
        assert_eq!(DirMsg::writeback(ProcId(4)).sender(), ProcId(4));
    }

    #[test]
    fn display_matches_paper_figures() {
        // Figure 2 of the paper writes entries as "<Upgrade, P3>" and
        // "<ack, P1>".
        assert_eq!(DirMsg::upgrade(ProcId(3)).to_string(), "<Upgrade, P3>");
        assert_eq!(DirMsg::ack_inv(ProcId(1)).to_string(), "<ack, P1>");
        assert_eq!(DirMsg::writeback(ProcId(3)).to_string(), "<writeback, P3>");
    }

    #[test]
    fn is_request() {
        assert!(DirMsg::write(ProcId(0)).is_request());
        assert!(!DirMsg::ack_inv(ProcId(0)).is_request());
    }
}
