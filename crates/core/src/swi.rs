//! The Speculative Write-Invalidation early-write-invalidate table.

use std::collections::HashMap;

use specdsm_types::{BlockAddr, ProcId};

/// The early-write-invalidate table of the SWI heuristic (paper §4.1).
///
/// SWI predicts that a processor is done writing to a memory block when
/// the directory receives a *subsequent* write (or upgrade) request to
/// **another** block from the same processor. The table records, per
/// processor, the block address of its last write/upgrade request; when
/// the processor writes somewhere else, the previous block is a
/// candidate for speculative invalidation (which, on success, triggers
/// the consumers' read-sequence speculation).
///
/// One table lives at each home directory and only covers that home's
/// blocks.
///
/// # Example
///
/// ```
/// use specdsm_core::SwiTable;
/// use specdsm_types::{BlockAddr, ProcId};
///
/// let mut swi = SwiTable::new();
/// assert_eq!(swi.note_write(ProcId(3), BlockAddr(0x100)), None);
/// // Writing the same block again is not a completion signal.
/// assert_eq!(swi.note_write(ProcId(3), BlockAddr(0x100)), None);
/// // Writing a different block predicts 0x100 is done.
/// assert_eq!(swi.note_write(ProcId(3), BlockAddr(0x200)), Some(BlockAddr(0x100)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SwiTable {
    last_write: HashMap<ProcId, BlockAddr>,
}

impl SwiTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a write/upgrade request by `proc` for `block`.
    ///
    /// Returns the *previous* block written by `proc` when it differs
    /// from `block` — the SWI signal that the previous block's writing
    /// phase has likely completed.
    pub fn note_write(&mut self, proc: ProcId, block: BlockAddr) -> Option<BlockAddr> {
        let prev = self.last_write.insert(proc, block);
        prev.filter(|&b| b != block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_write_gives_no_signal() {
        let mut t = SwiTable::new();
        assert_eq!(t.note_write(ProcId(0), BlockAddr(1)), None);
    }

    #[test]
    fn rewrite_of_same_block_gives_no_signal() {
        let mut t = SwiTable::new();
        t.note_write(ProcId(0), BlockAddr(1));
        assert_eq!(t.note_write(ProcId(0), BlockAddr(1)), None);
        // Still tracked: the next different block signals it.
        assert_eq!(t.note_write(ProcId(0), BlockAddr(2)), Some(BlockAddr(1)));
    }

    #[test]
    fn write_to_other_block_signals_previous() {
        let mut t = SwiTable::new();
        t.note_write(ProcId(0), BlockAddr(1));
        assert_eq!(t.note_write(ProcId(0), BlockAddr(2)), Some(BlockAddr(1)));
        assert_eq!(t.note_write(ProcId(0), BlockAddr(3)), Some(BlockAddr(2)));
    }

    #[test]
    fn processors_are_independent() {
        let mut t = SwiTable::new();
        t.note_write(ProcId(0), BlockAddr(1));
        assert_eq!(t.note_write(ProcId(1), BlockAddr(2)), None);
        // Each processor's next write signals only its own block.
        assert_eq!(t.note_write(ProcId(0), BlockAddr(3)), Some(BlockAddr(1)));
        assert_eq!(t.note_write(ProcId(1), BlockAddr(4)), Some(BlockAddr(2)));
    }
}
