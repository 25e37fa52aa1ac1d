//! The SWI early-write-invalidate rule (paper §4.1).
//!
//! SWI predicts that a processor is done writing a block when the home
//! receives its next write or upgrade request to **another** block. Each
//! home keeps a [`LastWrites`] map, in
//! [`System::swi_last_write`](crate::System::swi_last_write), of the
//! block each processor last wrote or upgraded there; the directory's
//! request handler feeds it through [`note_write`].

use specdsm_core::FxHashMap;
use specdsm_types::{BlockAddr, ProcId};

/// One home's SWI table: the block each processor last wrote or upgraded
/// at that home. Never iterated.
pub(crate) type LastWrites = FxHashMap<ProcId, BlockAddr>;

/// Records a write or upgrade by `p` for `block`. Returns the block `p`
/// wrote before when it differs from `block`: the signal that `p` is
/// done writing it.
pub(crate) fn note_write(last: &mut LastWrites, p: ProcId, block: BlockAddr) -> Option<BlockAddr> {
    let prev = last.insert(p, block);
    prev.filter(|&prev| prev != block)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_write_gives_no_signal() {
        let mut t = LastWrites::default();
        assert_eq!(note_write(&mut t, ProcId(0), BlockAddr(1)), None);
    }

    #[test]
    fn rewrite_of_same_block_gives_no_signal() {
        let mut t = LastWrites::default();
        note_write(&mut t, ProcId(0), BlockAddr(1));
        assert_eq!(note_write(&mut t, ProcId(0), BlockAddr(1)), None);
        // Still tracked: the next different block signals it.
        assert_eq!(
            note_write(&mut t, ProcId(0), BlockAddr(2)),
            Some(BlockAddr(1))
        );
    }

    #[test]
    fn write_to_other_block_signals_previous() {
        let mut t = LastWrites::default();
        note_write(&mut t, ProcId(0), BlockAddr(1));
        assert_eq!(
            note_write(&mut t, ProcId(0), BlockAddr(2)),
            Some(BlockAddr(1))
        );
        assert_eq!(
            note_write(&mut t, ProcId(0), BlockAddr(3)),
            Some(BlockAddr(2))
        );
    }

    #[test]
    fn processors_are_independent() {
        let mut t = LastWrites::default();
        note_write(&mut t, ProcId(0), BlockAddr(1));
        assert_eq!(note_write(&mut t, ProcId(1), BlockAddr(2)), None);
        // Each processor's next write signals only its own block.
        assert_eq!(
            note_write(&mut t, ProcId(0), BlockAddr(3)),
            Some(BlockAddr(1))
        );
        assert_eq!(
            note_write(&mut t, ProcId(1), BlockAddr(4)),
            Some(BlockAddr(2))
        );
    }
}
