//! Processor and node identifiers.

use std::fmt;

/// Maximum number of processors supported by the bit-vector types.
///
/// [`crate::ReaderSet`] is a hybrid bitset: machines up to 64
/// processors (including the paper's 16-node machine) stay on an inline
/// `u64` fast path, while wider machines spill to a heap word array.
/// The cap exists only to catch wild processor ids early; 1024 leaves
/// room for the scaling sweeps far beyond the paper's evaluation.
pub const MAX_PROCS: usize = 1024;

/// Identifier of a processor in the simulated machine.
///
/// The paper's machine has one processor per node, so `ProcId(i)` and
/// [`NodeId`]`(i)` refer to the same physical node; the types are kept
/// distinct so that directory code (which reasons about nodes) cannot be
/// accidentally mixed with predictor code (which reasons about
/// processors).
///
/// # Example
///
/// ```
/// use specdsm_types::{NodeId, ProcId};
/// let p = ProcId(5);
/// assert_eq!(p.node(), NodeId(5));
/// assert_eq!(p.to_string(), "P5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub usize);

impl ProcId {
    /// The node hosting this processor (identity mapping: one processor
    /// per node, as in the paper's 16-node machine).
    #[must_use]
    pub fn node(self) -> NodeId {
        NodeId(self.0)
    }

    /// All processors `P0..Pn`.
    pub fn all(n: usize) -> impl Iterator<Item = ProcId> {
        (0..n).map(ProcId)
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<ProcId> for usize {
    fn from(p: ProcId) -> usize {
        p.0
    }
}

/// Identifier of a DSM node (a processor + cache + directory + NI).
///
/// # Example
///
/// ```
/// use specdsm_types::NodeId;
/// assert_eq!(NodeId(2).to_string(), "N2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The processor hosted on this node (identity mapping).
    #[must_use]
    pub fn proc(self) -> ProcId {
        ProcId(self.0)
    }

    /// All nodes `N0..Nn`.
    pub fn all(n: usize) -> impl Iterator<Item = NodeId> {
        (0..n).map(NodeId)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl From<NodeId> for usize {
    fn from(n: NodeId) -> usize {
        n.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_node_round_trip() {
        for i in 0..16 {
            assert_eq!(ProcId(i).node().proc(), ProcId(i));
            assert_eq!(NodeId(i).proc().node(), NodeId(i));
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(ProcId(0).to_string(), "P0");
        assert_eq!(NodeId(15).to_string(), "N15");
    }

    #[test]
    fn all_enumerates_in_order() {
        let ids: Vec<ProcId> = ProcId::all(4).collect();
        assert_eq!(ids, vec![ProcId(0), ProcId(1), ProcId(2), ProcId(3)]);
        assert_eq!(NodeId::all(3).count(), 3);
    }

    #[test]
    fn ordering_matches_index() {
        assert!(ProcId(1) < ProcId(2));
        assert!(NodeId(0) < NodeId(15));
    }

    #[test]
    fn into_usize() {
        let u: usize = ProcId(7).into();
        assert_eq!(u, 7);
        let u: usize = NodeId(9).into();
        assert_eq!(u, 9);
    }
}
