//! Per-processor caches.

use specdsm_core::FxHashMap;
use specdsm_types::BlockAddr;

/// State of one cached block.
///
/// The paper's caches hold either a read-only or a writable copy;
/// MESI's E/M distinction is irrelevant here because writebacks happen
/// only on invalidation (caches are "large enough to hold the remote
/// data", §6 — no capacity evictions).
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
    last_use: u64,
}

/// A processor cache at block granularity.
///
/// The cache is the combined processor cache + remote cache of a node
/// (Figure 5). By default it is unbounded: the paper sizes the remote
/// cache "large enough to hold the remote data" so all simulated
/// traffic is true sharing traffic. [`Cache::with_capacity`] enables
/// the finite mode the paper deliberately excludes: read-only lines
/// are evicted LRU (silently — the directory's sharer list goes stale,
/// which the protocol tolerates), re-introducing capacity misses.
/// Writable lines are never evicted, so no writeback-on-eviction
/// machinery is needed.
#[derive(Debug, Clone, Default)]
pub struct Cache {
    // Keyed through the trusted-input FxHash hasher: the cache is
    // probed on *every* processor memory operation (hits included), so
    // SipHash would tax the simulator's hottest loop.
    lines: FxHashMap<BlockAddr, Line>,
    capacity: Option<usize>,
    clock: u64,
}

impl Cache {
    /// Creates an empty, unbounded cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cache bounded to `blocks` lines (finite remote-cache
    /// mode; read-only lines evict LRU).
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero.
    #[must_use]
    pub fn with_capacity(blocks: usize) -> Self {
        assert!(blocks > 0, "cache capacity must be at least one block");
        Cache {
            capacity: Some(blocks),
            ..Self::default()
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Makes room for one more line when at capacity by evicting the
    /// least recently used *read-only* line. If every line is writable
    /// the insert proceeds anyway (writable copies are pinned).
    fn make_room(&mut self) {
        let Some(cap) = self.capacity else { return };
        if self.lines.len() < cap {
            return;
        }
        let victim = self
            .lines
            .iter()
            .filter(|(_, l)| matches!(l.state, LineState::Shared { .. }))
            .min_by_key(|(a, l)| (l.last_use, a.0))
            .map(|(a, _)| *a);
        if let Some(addr) = victim {
            self.lines.remove(&addr);
        }
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
        self.clock += 1;
        let clock = self.clock;
        let line = self.lines.get_mut(&block)?;
        line.last_use = clock;
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
        self.make_room();
        let last_use = self.tick();
        self.lines.insert(
            block,
            Line {
                state: LineState::Shared {
                    spec_unreferenced: false,
                },
                version,
                last_use,
            },
        );
    }

    /// Installs a writable copy (write grant).
    pub fn fill_exclusive(&mut self, block: BlockAddr, version: u64) {
        self.make_room();
        let last_use = self.tick();
        self.lines.insert(
            block,
            Line {
                state: LineState::Exclusive,
                version,
                last_use,
            },
        );
    }

    /// Promotes a read-only copy to writable with the granted version.
    ///
    /// # Panics
    ///
    /// Panics if the block is not cached (protocol bug: an upgrade was
    /// granted to a processor that lost its copy — the directory must
    /// convert such upgrades into write grants).
    pub fn upgrade(&mut self, block: BlockAddr, version: u64) {
        self.clock += 1;
        let clock = self.clock;
        let line = self
            .lines
            .get_mut(&block)
            .expect("upgrade granted for an uncached block");
        line.state = LineState::Exclusive;
        line.version = version;
        line.last_use = clock;
    }

    /// Installs a speculatively forwarded copy with the reference bit
    /// set. Returns `false` (and installs nothing) if the block is
    /// already cached — the duplicate-drop rule.
    pub fn fill_speculative(&mut self, block: BlockAddr, version: u64) -> bool {
        if self.lines.contains_key(&block) {
            return false;
        }
        self.make_room();
        let last_use = self.tick();
        self.lines.insert(
            block,
            Line {
                state: LineState::Shared {
                    spec_unreferenced: true,
                },
                version,
                last_use,
            },
        );
        true
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

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
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
        assert!(c.fill_speculative(B, 9));
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
    fn speculative_duplicate_is_dropped() {
        let mut c = Cache::new();
        c.fill_shared(B, 1);
        assert!(!c.fill_speculative(B, 2));
        assert_eq!(c.version(B), Some(1), "original copy untouched");
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
    fn finite_cache_evicts_lru_shared_line() {
        let mut c = Cache::with_capacity(2);
        c.fill_shared(BlockAddr(1), 0);
        c.fill_shared(BlockAddr(2), 0);
        // Touch block 1 so block 2 becomes the LRU victim.
        c.read(BlockAddr(1));
        c.fill_shared(BlockAddr(3), 0);
        assert_eq!(c.len(), 2);
        assert!(c.state(BlockAddr(2)).is_none(), "LRU line evicted");
        assert!(c.state(BlockAddr(1)).is_some());
        assert!(c.state(BlockAddr(3)).is_some());
    }

    #[test]
    fn finite_cache_never_evicts_writable_lines() {
        let mut c = Cache::with_capacity(2);
        c.fill_exclusive(BlockAddr(1), 0);
        c.fill_exclusive(BlockAddr(2), 0);
        // No shared victim exists: the insert exceeds capacity rather
        // than dropping a dirty line.
        c.fill_shared(BlockAddr(3), 0);
        assert_eq!(c.len(), 3);
        assert!(c.can_write(BlockAddr(1)));
        assert!(c.can_write(BlockAddr(2)));
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
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Cache::with_capacity(0);
    }

    #[test]
    fn invalidate_exclusive_returns_version() {
        let mut c = Cache::new();
        c.fill_exclusive(B, 5);
        assert_eq!(c.invalidate_exclusive(B), Some(5));
        assert!(c.is_empty());
        assert_eq!(c.invalidate_exclusive(B), None);
        // A shared copy is not eligible.
        c.fill_shared(B, 6);
        assert_eq!(c.invalidate_exclusive(B), None);
    }
}
