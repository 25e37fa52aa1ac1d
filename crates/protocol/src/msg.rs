//! Protocol network messages.

use std::fmt;

use specdsm_types::{BlockAddr, NodeId, ProcId, ReqKind};

/// A protocol message in flight between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Msg {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Block the message concerns.
    pub block: BlockAddr,
    /// Payload.
    pub kind: MsgKind,
}

/// Message payloads of the full-map write-invalidate protocol plus the
/// speculative data message.
///
/// `version` fields carry the block's write version (assigned by the
/// home directory at each write grant); caches store and return it so
/// tests can verify coherence end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// A processor's request for a block (processor → home): a read
    /// copy, a writable copy, or write permission for a cached
    /// read-only copy.
    Req {
        /// What the requester asks for.
        kind: ReqKind,
        /// Requesting processor.
        proc: ProcId,
        /// Requester-local sequence number. Each processor stamps its
        /// requests with a strictly increasing number. On a reliable
        /// network it is inert payload; under a fault plan the home
        /// accepts each `(proc, seq)` at most once, so retransmitted or
        /// duplicated requests are suppressed without protocol side
        /// effects.
        seq: u64,
    },

    /// Read-only data reply (home → processor).
    DataShared {
        /// Write version of the delivered data.
        version: u64,
    },
    /// Writable data reply (home → processor).
    DataExcl {
        /// Version assigned to this write grant.
        version: u64,
    },
    /// Write permission granted for an already-cached copy
    /// (home → processor).
    UpgradeAck {
        /// Version assigned to this write grant.
        version: u64,
    },
    /// Invalidate a read-only copy (home → processor).
    Inval,
    /// Invalidate a writable copy and return the data (home →
    /// processor). An SWI invalidation is this same message: SWI only
    /// issues it early.
    InvWriteback,
    /// Speculatively forwarded read-only copy (home → processor). The
    /// receiver installs it with the reference bit set, or drops it if
    /// it has a demand request in flight for the block (the race rule,
    /// paper §4.2).
    ///
    /// One FR/SWI trigger materializes a single `SpecData` payload and
    /// fans it out to every predicted reader in ascending reader order
    /// (one [`Network::depart`](crate::network::Network::depart) per
    /// destination).
    SpecData {
        /// Write version of the delivered data.
        version: u64,
    },

    /// Acknowledge an [`MsgKind::Inval`] (processor → home).
    /// `spec_unused` piggy-backs the reference bit: `true` means the
    /// copy was placed speculatively and never referenced — a
    /// misspeculation signal for the home predictor.
    InvAck {
        /// Acknowledging processor.
        proc: ProcId,
        /// Speculative copy was never referenced.
        spec_unused: bool,
    },
    /// Writable copy's data returned after [`MsgKind::InvWriteback`]
    /// (processor → home).
    WritebackData {
        /// Processor that held the writable copy.
        proc: ProcId,
        /// The version it held.
        version: u64,
    },
}

impl fmt::Display for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}→{} {} {:?}",
            self.src, self.dst, self.block, self.kind
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let m = Msg {
            src: NodeId(0),
            dst: NodeId(1),
            block: BlockAddr(2),
            kind: MsgKind::Inval,
        };
        assert!(m.to_string().contains("N0"));
    }
}
