//! The keyed calendar-queue event scheduler.
//!
//! [`KeyedQueue`] is the heart of the simulation loop: every protocol
//! message delivery, processor resume, and directory release passes
//! through it once. The order of same-cycle events is not the implicit
//! *insertion* order but an explicit [`SchedKey`] supplied by the
//! caller. That makes the order **reconstructible across execution
//! strategies** — the property the parallel sharded engine is built
//! on:
//!
//! * In a single sequential event loop, insertion order and key order
//!   coincide (events are scheduled while processing in time order, so
//!   keys are assigned monotonically) and the queue is FIFO among
//!   same-cycle events.
//! * In bounded-lag windowed execution, a cross-shard message is
//!   scheduled at its *receiver* one window barrier after it was sent.
//!   Insertion order then depends on window boundaries (and would make
//!   thread count observable); the key — `(scheduling cycle, source
//!   shard, per-source sequence)` captured at the *send* — does not.
//!
//! See `docs/ARCHITECTURE.md` (repo root) for how the key ordering
//! yields bit-identical parallel and sequential runs.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::clock::Cycle;

/// Number of one-cycle buckets on the timing wheel. Must be a power of
/// two. 2048 cycles comfortably covers every protocol latency of the
/// paper's machine (the longest uncontended path, a three-hop
/// invalidate + writeback + grant, is under 800 cycles), so in steady
/// state almost every event lands on the wheel; long `Compute` phases
/// spill to the overflow heap.
const WHEEL_SLOTS: usize = 2048;
const WHEEL_MASK: u64 = (WHEEL_SLOTS - 1) as u64;
/// Occupancy-bitmap words (one bit per bucket).
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;

/// Deterministic tie-break key of one scheduled event.
///
/// Compared lexicographically as `(sched, src, seq)`:
///
/// * `sched` — the simulated cycle at which the *scheduling action*
///   happened (for a protocol message: the cycle its sender processed
///   the event that sent it, not its delivery cycle);
/// * `src` — the shard that performed the scheduling action;
/// * `seq` — that shard's private monotone action counter.
///
/// For two same-cycle events this reproduces the order a single
/// sequential loop would have popped them in, except when two *distinct
/// shards* schedule at the same `sched` cycle — there the `src` index
/// breaks the tie, deterministically and independently of thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SchedKey {
    /// Cycle of the scheduling action.
    pub sched: u64,
    /// Shard that scheduled the event.
    pub src: u32,
    /// The scheduling shard's action sequence number.
    pub seq: u64,
}

impl SchedKey {
    /// The smallest possible key (sorts before every real key).
    pub const MIN: SchedKey = SchedKey {
        sched: 0,
        src: 0,
        seq: 0,
    };

    /// Packs the key into two machine words for compact queue entries
    /// and two-instruction comparisons. Lossless while `sched < 2^48`
    /// (2.8·10^14 cycles — far beyond any simulated run) and
    /// `src < 2^16` (shards are capped by `MAX_PROCS` = 1024).
    #[inline]
    fn pack(self) -> Packed {
        debug_assert!(self.sched < 1 << 48, "simulated time exceeds 2^48");
        debug_assert!(self.src < 1 << 16, "shard index exceeds 2^16");
        Packed((self.sched << 16) | u64::from(self.src), self.seq)
    }
}

/// A [`SchedKey`] packed as `(sched·2^16 | src, seq)`; orders exactly
/// like the unpacked key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Packed(u64, u64);

/// A deterministic discrete-event queue ordered by `(cycle,
/// [`SchedKey`])`: a calendar queue (bucketed timing wheel plus
/// overflow heap) whose same-cycle order is the caller's explicit key.
///
/// # Ordering invariant
///
/// Events pop in increasing cycle order; events scheduled for the same
/// cycle pop in increasing [`SchedKey`] order **regardless of insertion
/// order**. The sharded engine relies on this: window-barrier merges
/// insert cross-shard deliveries after a shard has already scheduled
/// its own later-keyed events for the same cycle. Both internal stores
/// agree on `(cycle, key)` as the total order, so the guarantee holds
/// even when same-cycle events straddle the wheel/overflow boundary.
///
/// # Structure
///
/// * A **timing wheel** of 2048 (`WHEEL_SLOTS`) one-cycle buckets
///   holds every event scheduled within the horizon of the wheel
///   cursor. Scheduling is O(1) in the common case: index by
///   `cycle mod WHEEL_SLOTS`, append (an out-of-order key is inserted
///   by binary search into its still-small bucket). Popping advances
///   the cursor to the next occupied bucket via a two-level bitmap scan
///   (a few word operations), so the common case — protocol latencies
///   of tens to hundreds of cycles — never touches a comparison-based
///   structure.
/// * An **overflow heap** (`BinaryHeap`) absorbs events beyond the
///   wheel horizon (for this simulator: long `Compute` delays) and
///   events scheduled at or before an already-popped cycle. `pop`
///   compares the wheel's earliest `(cycle, key)` with the heap's top,
///   so correctness never depends on migrating events between the
///   stores. An empty wheel re-centers its window on the next
///   scheduled event, so sparse phases stay O(1) too.
///
/// Both `schedule` and `pop` are amortized O(1) for near-future events
/// versus the O(log n) of the seed's `BinaryHeap<Reverse<Entry>>`
/// scheduler.
///
/// # Example
///
/// ```
/// use specdsm_sim::{Cycle, KeyedQueue, SchedKey};
///
/// let key = |sched, seq| SchedKey { sched, src: 0, seq };
/// let mut q = KeyedQueue::new();
/// q.schedule(Cycle(400), key(100, 7), "local");
/// // A remote delivery for the same cycle, sent earlier (sched 10):
/// // inserted later, pops first.
/// q.schedule(Cycle(400), key(10, 3), "remote");
/// assert_eq!(q.pop(), Some((Cycle(400), "remote")));
/// assert_eq!(q.pop(), Some((Cycle(400), "local")));
/// ```
#[derive(Debug, Clone)]
pub struct KeyedQueue<E> {
    /// `WHEEL_SLOTS` one-cycle buckets, each sorted by key.
    wheel: Vec<VecDeque<(Packed, E)>>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WHEEL_WORDS],
    /// Second-level occupancy: bit `w` set iff `occupied[w] != 0`, so
    /// the earliest-bucket scan is two trailing-zero counts instead of
    /// a word walk (the scan runs several times per simulated event).
    summary: u32,
    /// Lower bound (inclusive) of the wheel's cycle window.
    cursor: u64,
    /// Events currently on the wheel.
    wheel_len: usize,
    /// Events beyond the wheel horizon (or scheduled in the past).
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    /// All-time schedule count (the `sim_events` metric).
    scheduled: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    at: Cycle,
    key: Packed,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.key).cmp(&(other.at, other.key))
    }
}

impl<E> KeyedQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        KeyedQueue {
            wheel: (0..WHEEL_SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: [0; WHEEL_WORDS],
            summary: 0,
            cursor: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            scheduled: 0,
        }
    }

    /// Schedules `event` to fire at cycle `at` with tie-break `key`.
    ///
    /// Keys must be unique per `(cycle, key)` pair for the order to be
    /// fully deterministic; the engine guarantees this by consuming a
    /// fresh per-shard sequence number for every scheduling action.
    #[inline]
    pub fn schedule(&mut self, at: Cycle, key: SchedKey, event: E) {
        let key = key.pack();
        self.scheduled += 1;
        if self.wheel_len == 0 && at.0 > self.cursor {
            // Empty wheel: re-center the window on the next event.
            self.cursor = at.0;
        }
        if at.0 >= self.cursor && at.0 - self.cursor < WHEEL_SLOTS as u64 {
            let idx = (at.0 & WHEEL_MASK) as usize;
            let bucket = &mut self.wheel[idx];
            // Fast path: keys almost always arrive in increasing order
            // (a sequential loop's keys are monotone; merges insert
            // sorted batches into still-small buckets).
            match bucket.back() {
                Some((last, _)) if *last > key => {
                    let pos = bucket.partition_point(|(k, _)| *k < key);
                    bucket.insert(pos, (key, event));
                }
                _ => bucket.push_back((key, event)),
            }
            self.occupied[idx >> 6] |= 1 << (idx & 63);
            self.summary |= 1 << (idx >> 6);
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse(Entry { at, key, event }));
        }
    }

    /// The earliest wheel event as `(cycle, key, bucket index)`.
    ///
    /// Two-level bitmap scan: the cursor's own word first (masked below
    /// the cursor), then one rotate + trailing-zero count over the
    /// summary word to find the next occupied word — constant time.
    #[inline]
    fn wheel_peek(&self) -> Option<(u64, Packed, usize)> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.cursor & WHEEL_MASK) as usize;
        let sw = start >> 6;
        let first = self.occupied[sw] & (!0u64 << (start & 63));
        let (word_idx, word) = if first != 0 {
            (sw, first)
        } else {
            // Wrapping scan from the next word; ends back at `sw`
            // unmasked (its below-cursor bits are wrapped cycles).
            let rotated = self
                .summary
                .rotate_right((sw as u32 + 1) % WHEEL_WORDS as u32);
            debug_assert_ne!(rotated, 0, "wheel_len > 0 but empty summary");
            let off = rotated.trailing_zeros() as usize;
            let w = (sw + 1 + off) & (WHEEL_WORDS - 1);
            (w, self.occupied[w])
        };
        let idx = (word_idx << 6) | word.trailing_zeros() as usize;
        let dist = (idx.wrapping_sub(start) & (WHEEL_SLOTS - 1)) as u64;
        let cycle = self.cursor + dist;
        let key = self.wheel[idx].front().expect("occupied bit set").0;
        Some((cycle, key, idx))
    }

    /// Removes and returns the earliest event (by `(cycle, key)`), or
    /// `None` when empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.pop_before(Cycle(u64::MAX))
    }

    /// Removes and returns the earliest event **if** its cycle is
    /// strictly below `horizon`; leaves the queue untouched otherwise.
    /// One structure scan per call — the windowed engine's hot loop
    /// (`pop` + horizon check) fused.
    #[inline]
    pub fn pop_before(&mut self, horizon: Cycle) -> Option<(Cycle, E)> {
        let wheel = self.wheel_peek();
        let over = self.overflow.peek().map(|Reverse(e)| (e.at.0, e.key));
        let take_wheel = match (wheel, over) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some((wc, wk, _)), Some(ok)) => (wc, wk) <= ok,
        };
        if take_wheel {
            let (c, _, idx) = wheel.expect("checked");
            (c < horizon.0).then(|| self.pop_wheel(c, idx))
        } else {
            if self.overflow.peek().expect("checked").0.at >= horizon {
                return None;
            }
            self.pop_overflow()
        }
    }

    #[inline]
    fn pop_wheel(&mut self, cycle: u64, idx: usize) -> (Cycle, E) {
        self.cursor = cycle;
        let bucket = &mut self.wheel[idx];
        let (_, event) = bucket.pop_front().expect("occupied bucket");
        self.wheel_len -= 1;
        if bucket.is_empty() {
            self.occupied[idx >> 6] &= !(1 << (idx & 63));
            if self.occupied[idx >> 6] == 0 {
                self.summary &= !(1 << (idx >> 6));
            }
        }
        (Cycle(cycle), event)
    }

    fn pop_overflow(&mut self) -> Option<(Cycle, E)> {
        let Reverse(e) = self.overflow.pop()?;
        if self.wheel_len == 0 {
            self.cursor = self.cursor.max(e.at.0);
        }
        Some((e.at, e.event))
    }

    /// The cycle of the earliest pending event.
    #[must_use]
    pub fn peek_cycle(&self) -> Option<Cycle> {
        let wheel = self.wheel_peek().map(|(c, _, _)| c);
        let over = self.overflow.peek().map(|Reverse(e)| e.at.0);
        match (wheel, over) {
            (None, None) => None,
            (Some(c), None) | (None, Some(c)) => Some(Cycle(c)),
            (Some(a), Some(b)) => Some(Cycle(a.min(b))),
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled on this queue.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled
    }
}

impl<E> Default for KeyedQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(sched: u64, src: u32, seq: u64) -> SchedKey {
        SchedKey { sched, src, seq }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = KeyedQueue::new();
        q.schedule(Cycle(30), key(0, 0, 0), 3);
        q.schedule(Cycle(10), key(0, 0, 1), 1);
        q.schedule(Cycle(20), key(0, 0, 2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_cycle_orders_by_key_not_insertion() {
        let mut q = KeyedQueue::new();
        // Inserted in reverse key order on purpose.
        q.schedule(Cycle(7), key(5, 1, 0), "c");
        q.schedule(Cycle(7), key(5, 0, 9), "b");
        q.schedule(Cycle(7), key(2, 3, 0), "a");
        q.schedule(Cycle(7), key(6, 0, 0), "d");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn monotone_keys_behave_fifo() {
        // The sequential engine's usage pattern: keys strictly increase
        // with each scheduling action.
        let mut q = KeyedQueue::new();
        for i in 0..100u64 {
            q.schedule(Cycle(7), key(3, 0, i), i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn key_order_holds_across_wheel_and_overflow() {
        let mut q = KeyedQueue::new();
        let far = WHEEL_SLOTS as u64 * 2 + 9;
        // Lands in the overflow heap (beyond the horizon).
        q.schedule(Cycle(far), key(0, 2, 0), "late-key-small-cycle");
        q.schedule(Cycle(0), key(0, 0, 0), "now");
        assert_eq!(q.pop(), Some((Cycle(0), "now")));
        // The wheel re-centers; this same-cycle event lands on the wheel
        // with a *smaller* key than the overflow resident.
        q.schedule(Cycle(far), key(0, 1, 0), "wheel");
        assert_eq!(q.pop(), Some((Cycle(far), "wheel")));
        assert_eq!(q.pop(), Some((Cycle(far), "late-key-small-cycle")));
    }

    #[test]
    fn past_schedule_pops_before_present() {
        let mut q = KeyedQueue::new();
        q.schedule(Cycle(100), key(0, 0, 0), "present");
        q.schedule(Cycle(200), key(0, 0, 1), "future");
        assert_eq!(q.pop(), Some((Cycle(100), "present")));
        q.schedule(Cycle(50), key(0, 0, 2), "late");
        assert_eq!(q.pop(), Some((Cycle(50), "late")));
        assert_eq!(q.pop(), Some((Cycle(200), "future")));
    }

    #[test]
    fn counters_and_peek() {
        let mut q = KeyedQueue::new();
        assert!(q.is_empty());
        q.schedule(Cycle(9), key(0, 0, 0), ());
        assert_eq!(q.peek_cycle(), Some(Cycle(9)));
        assert_eq!(q.len(), 1);
        q.pop();
        q.schedule(Cycle(10), key(0, 0, 1), ());
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn wheel_wraps_across_many_rotations() {
        let mut q = KeyedQueue::new();
        q.schedule(Cycle(0), key(0, 0, 0), 0u64);
        let mut expected = 0;
        let step = 97;
        while let Some((at, e)) = q.pop() {
            assert_eq!(e, expected);
            assert_eq!(at.0, expected * step);
            expected += 1;
            if expected < 100 {
                q.schedule(at + step, key(at.0, 0, expected), expected);
            }
        }
        assert_eq!(expected, 100);
    }

    #[test]
    fn interleaved_merge_batches_stay_sorted() {
        // Two "shards" deliver same-cycle batches out of insertion
        // order, as window merges do.
        let mut q = KeyedQueue::new();
        q.schedule(Cycle(50), key(40, 1, 0), 4);
        q.schedule(Cycle(50), key(10, 1, 0), 1);
        q.schedule(Cycle(50), key(10, 1, 1), 2);
        q.schedule(Cycle(50), key(20, 0, 5), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }
}
