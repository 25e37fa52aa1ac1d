//! Per-processor caches.

use specdsm_core::FxHashMap;
use specdsm_types::BlockAddr;

/// State of one cached block.
///
/// The paper's caches hold either a read-only or a writable copy;
/// MESI's E/M distinction is irrelevant here because writebacks happen
/// only on invalidation: a [`Cache`] has no capacity limit, so it never
/// evicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Read-only copy. `spec_unreferenced` is the reference bit of the
    /// speculation verification scheme: set when the copy was placed
    /// speculatively and has not yet been referenced (paper §4.2).
    Shared {
        /// Speculative copy not yet referenced by the processor.
        spec_unreferenced: bool,
    },
    /// Writable copy.
    Exclusive,
}

#[derive(Debug, Clone, Copy)]
struct Line {
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

    /// Processor read. On a hit returns the version and clears the
    /// reference bit; `true` in the second slot means this was the
    /// first touch of a speculatively placed copy (i.e. a read that
    /// would have been remote without speculation).
    pub fn read(&mut self, block: BlockAddr) -> Option<(u64, bool)> {
        let line = self.lines.get_mut(&block)?;
        let first_touch = matches!(
            line.state,
            LineState::Shared {
                spec_unreferenced: true
            }
        );
        if first_touch {
            line.state = LineState::Shared {
                spec_unreferenced: false,
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
                    spec_unreferenced: false,
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

    /// Installs a speculatively forwarded copy with the reference bit
    /// set.
    ///
    /// # Panics
    ///
    /// Panics if the block is already cached: the home forwards only to
    /// processors it does not list as holders, and home→processor
    /// delivery is FIFO, so a forward never finds a copy in place.
    pub fn fill_speculative(&mut self, block: BlockAddr, version: u64) {
        let prev = self.lines.insert(
            block,
            Line {
                state: LineState::Shared {
                    spec_unreferenced: true,
                },
                version,
            },
        );
        assert!(
            prev.is_none(),
            "speculative copy of {block}, already cached"
        );
    }

    /// Invalidates a read-only copy. Returns `true` if the removed copy
    /// was speculative and never referenced (the piggy-backed
    /// verification bit). Idempotent: invalidating an absent line
    /// returns `false`.
    pub fn invalidate(&mut self, block: BlockAddr) -> bool {
        match self.lines.remove(&block) {
            Some(line) => matches!(
                line.state,
                LineState::Shared {
                    spec_unreferenced: true
                }
            ),
            None => false,
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

    const B: BlockAddr = BlockAddr(42);

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
        c.fill_speculative(B, 9);
        assert_eq!(
            c.state(B),
            Some(LineState::Shared {
                spec_unreferenced: true
            })
        );
        // First read clears the reference bit and reports first touch.
        assert_eq!(c.read(B), Some((9, true)));
        assert_eq!(c.read(B), Some((9, false)));
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn speculative_copy_of_a_cached_block_panics() {
        let mut c = Cache::new();
        c.fill_shared(B, 1);
        c.fill_speculative(B, 2);
    }

    #[test]
    fn invalidate_reports_unused_spec_bit() {
        let mut c = Cache::new();
        c.fill_speculative(B, 1);
        assert!(c.invalidate(B), "never referenced: bit set");

        c.fill_speculative(B, 2);
        c.read(B);
        assert!(!c.invalidate(B), "referenced: bit cleared");

        assert!(!c.invalidate(B), "absent line: no bit");
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
