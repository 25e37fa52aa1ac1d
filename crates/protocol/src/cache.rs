//! Per-processor caches.
//!
//! Each read-only line keeps its own [`SpecVerdict`]: a speculative
//! copy arrives `Unused` under the ticket and trigger it was sent with,
//! its first read makes it `Referenced`, and its invalidation hands the
//! verdict to the ack, so the home learns the copy's fate without
//! keeping a record of it (paper §4.2).

use specdsm_core::{FxHashMap, SpecTicket};
use specdsm_types::BlockAddr;

use crate::spec::{SpecTrigger, SpecVerdict};

/// State of one cached block.
///
/// The paper's caches hold either a read-only or a writable copy;
/// MESI's E/M distinction is irrelevant here because writebacks happen
/// only on invalidation: a [`Cache`] has no capacity limit, so it never
/// evicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Read-only copy. `verdict` is the copy's side of the speculation
    /// verification scheme (paper §4.2): a demand copy, or a speculative
    /// one that is unused until its first read.
    Shared {
        /// How the copy was placed and whether it has been read since.
        verdict: SpecVerdict,
    },
    /// Writable copy.
    Exclusive,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Line {
    state: LineState,
    version: u64,
}

/// A processor cache at block granularity.
///
/// The cache is the combined processor cache + remote cache of a node
/// (Figure 5). It is unbounded: the paper sizes the remote cache
/// "large enough to hold the remote data" (§6), so all simulated
/// traffic is true sharing traffic and a line leaves the cache only
/// when the protocol invalidates it.
#[derive(Debug, Clone, Default)]
pub struct Cache {
    // Keyed through the trusted-input FxHash hasher: the cache is
    // probed on *every* processor memory operation (hits included), so
    // SipHash would tax the simulator's hottest loop.
    lines: FxHashMap<BlockAddr, Line>,
}

impl Cache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// State of `block`, if cached.
    #[must_use]
    pub fn state(&self, block: BlockAddr) -> Option<LineState> {
        self.lines.get(&block).map(|l| l.state)
    }

    /// Version held for `block`, if cached.
    #[must_use]
    pub fn version(&self, block: BlockAddr) -> Option<u64> {
        self.lines.get(&block).map(|l| l.version)
    }

    /// Processor read. On a hit returns the version and marks an unused
    /// speculative copy referenced; `true` in the second slot means this
    /// was the first touch of a speculatively placed copy (i.e. a read
    /// that would have been remote without speculation).
    pub fn read(&mut self, block: BlockAddr) -> Option<(u64, bool)> {
        let line = self.lines.get_mut(&block)?;
        let first_touch = matches!(
            line.state,
            LineState::Shared {
                verdict: SpecVerdict::Unused(..)
            }
        );
        if first_touch {
            line.state = LineState::Shared {
                verdict: SpecVerdict::Referenced,
            };
        }
        Some((line.version, first_touch))
    }

    /// Whether the processor can write without a request (holds the
    /// writable copy).
    #[must_use]
    pub fn can_write(&self, block: BlockAddr) -> bool {
        matches!(self.state(block), Some(LineState::Exclusive))
    }

    /// Whether the processor holds a read-only copy (write ⇒ upgrade).
    #[must_use]
    pub fn has_shared(&self, block: BlockAddr) -> bool {
        matches!(self.state(block), Some(LineState::Shared { .. }))
    }

    /// Installs a demand read-only copy.
    pub fn fill_shared(&mut self, block: BlockAddr, version: u64) {
        self.lines.insert(
            block,
            Line {
                state: LineState::Shared {
                    verdict: SpecVerdict::Demand,
                },
                version,
            },
        );
    }

    /// Installs a writable copy (write grant).
    pub fn fill_exclusive(&mut self, block: BlockAddr, version: u64) {
        self.lines.insert(
            block,
            Line {
                state: LineState::Exclusive,
                version,
            },
        );
    }

    /// Promotes a read-only copy to writable with the granted version.
    /// A speculative copy's verdict goes with it: written before any
    /// read, it counts as neither used nor unused.
    ///
    /// # Panics
    ///
    /// Panics if the block is not cached: the caller must install a
    /// writable copy instead when the read-only one is gone.
    pub fn upgrade(&mut self, block: BlockAddr, version: u64) {
        let line = self
            .lines
            .get_mut(&block)
            .expect("upgrade granted for an uncached block");
        line.state = LineState::Exclusive;
        line.version = version;
    }

    /// Installs a speculatively forwarded copy, unused under the
    /// `ticket` and `trigger` it was sent with.
    ///
    /// # Panics
    ///
    /// Panics if the block is already cached: the home forwards only to
    /// processors it does not list as holders, and home→processor
    /// delivery is FIFO, so a forward never finds a copy in place.
    pub fn fill_speculative(
        &mut self,
        block: BlockAddr,
        version: u64,
        ticket: SpecTicket,
        trigger: SpecTrigger,
    ) {
        let prev = self.lines.insert(
            block,
            Line {
                state: LineState::Shared {
                    verdict: SpecVerdict::Unused(ticket, trigger),
                },
                version,
            },
        );
        assert!(
            prev.is_none(),
            "speculative copy of {block}, already cached"
        );
    }

    /// Invalidates a read-only copy and returns its verdict for the
    /// ack. Idempotent: invalidating an absent line returns
    /// [`SpecVerdict::Demand`], which verifies nothing.
    pub fn invalidate(&mut self, block: BlockAddr) -> SpecVerdict {
        match self.lines.remove(&block) {
            Some(Line {
                state: LineState::Shared { verdict },
                ..
            }) => verdict,
            _ => SpecVerdict::Demand,
        }
    }

    /// Invalidates a writable copy, returning its version for the
    /// writeback. Returns `None` if no writable copy is held (races are
    /// the caller's responsibility).
    pub fn invalidate_exclusive(&mut self, block: BlockAddr) -> Option<u64> {
        match self.lines.get(&block) {
            Some(line) if line.state == LineState::Exclusive => {
                let version = line.version;
                self.lines.remove(&block);
                Some(version)
            }
            _ => None,
        }
    }

    /// Every cached block, in no particular order.
    pub(crate) fn lines(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.lines.keys().copied()
    }

    /// Number of cached blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdsm_core::HistoryKey;

    const B: BlockAddr = BlockAddr(42);

    fn ticket() -> SpecTicket {
        SpecTicket::from_key(HistoryKey::EMPTY)
    }

    #[test]
    fn read_miss_on_empty() {
        let mut c = Cache::new();
        assert_eq!(c.read(B), None);
    }

    #[test]
    fn fill_then_read() {
        let mut c = Cache::new();
        c.fill_shared(B, 7);
        assert_eq!(c.read(B), Some((7, false)));
        assert!(c.has_shared(B));
        assert!(!c.can_write(B));
    }

    #[test]
    fn exclusive_fill_allows_writes() {
        let mut c = Cache::new();
        c.fill_exclusive(B, 3);
        assert!(c.can_write(B));
        assert_eq!(c.read(B), Some((3, false)));
    }

    #[test]
    fn upgrade_promotes() {
        let mut c = Cache::new();
        c.fill_shared(B, 1);
        c.upgrade(B, 2);
        assert!(c.can_write(B));
        assert_eq!(c.version(B), Some(2));
    }

    #[test]
    #[should_panic(expected = "uncached")]
    fn upgrade_of_uncached_block_panics() {
        Cache::new().upgrade(B, 1);
    }

    #[test]
    fn speculative_fill_and_first_touch() {
        let mut c = Cache::new();
        c.fill_speculative(B, 9, ticket(), SpecTrigger::Fr);
        assert_eq!(
            c.state(B),
            Some(LineState::Shared {
                verdict: SpecVerdict::Unused(ticket(), SpecTrigger::Fr)
            })
        );
        // The first read marks the copy referenced and reports first touch.
        assert_eq!(c.read(B), Some((9, true)));
        assert_eq!(c.read(B), Some((9, false)));
        assert_eq!(
            c.state(B),
            Some(LineState::Shared {
                verdict: SpecVerdict::Referenced
            })
        );
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn speculative_copy_of_a_cached_block_panics() {
        let mut c = Cache::new();
        c.fill_shared(B, 1);
        c.fill_speculative(B, 2, ticket(), SpecTrigger::Fr);
    }

    #[test]
    fn invalidate_reports_unused_spec_bit() {
        let mut c = Cache::new();
        c.fill_speculative(B, 1, ticket(), SpecTrigger::Swi);
        assert_eq!(
            c.invalidate(B),
            SpecVerdict::Unused(ticket(), SpecTrigger::Swi),
            "never referenced: the ticket goes back"
        );

        c.fill_speculative(B, 2, ticket(), SpecTrigger::Fr);
        c.read(B);
        assert_eq!(c.invalidate(B), SpecVerdict::Referenced);

        c.fill_shared(B, 3);
        assert_eq!(c.invalidate(B), SpecVerdict::Demand, "demand copy");
        assert_eq!(c.invalidate(B), SpecVerdict::Demand, "absent line");
    }

    #[test]
    fn infinite_cache_never_evicts() {
        let mut c = Cache::new();
        for i in 0..10_000 {
            c.fill_shared(BlockAddr(i), 0);
        }
        assert_eq!(c.len(), 10_000);
    }

    #[test]
    fn invalidate_exclusive_returns_version() {
        let mut c = Cache::new();
        c.fill_exclusive(B, 5);
        assert_eq!(c.invalidate_exclusive(B), Some(5));
        assert!(c.lines.is_empty());
        assert_eq!(c.invalidate_exclusive(B), None);
        // A shared copy is not eligible.
        c.fill_shared(B, 6);
        assert_eq!(c.invalidate_exclusive(B), None);
    }
}
