//! The keyed calendar-queue event scheduler.
//!
//! [`KeyedQueue`] is the heart of the simulation loop: every protocol
//! message delivery, processor resume, and directory release passes
//! through it once. The order of same-cycle events is not the implicit
//! *insertion* order but an explicit [`SchedKey`] supplied by the
//! caller. That makes the order **reconstructible across execution
//! strategies** — the property the windowed sharded engine is built
//! on:
//!
//! * In a single sequential event loop, insertion order and key order
//!   coincide (events are scheduled while processing in time order, so
//!   keys are assigned monotonically) and the queue is FIFO among
//!   same-cycle events.
//! * In bounded-lag windowed execution, a cross-shard message is
//!   scheduled at its *receiver* one window barrier after it was sent.
//!   Insertion order then depends on window boundaries and on the
//!   order shards are visited; the key — `(scheduling cycle, source
//!   shard, per-source sequence)` captured at the *send* — does not.
//!
//! See `docs/ARCHITECTURE.md` (repo root) for how the key ordering
//! makes windowed runs deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
/// The null slab index: end of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

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
/// breaks the tie, deterministically and independently of the order the
/// shards run in.
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

/// One slab entry: a pending event, or a free slot (`event: None`)
/// whose `next` links the free list.
#[derive(Debug, Clone)]
struct Slot<E> {
    key: Packed,
    /// Next slot in the same bucket list (or free list), `NIL` at the
    /// end.
    next: u32,
    event: Option<E>,
}

/// One wheel bucket: a singly linked list of slab slots sorted by key.
/// `tail` is meaningful only while `head != NIL`.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
    };
}

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
/// * One **slab** (`Vec` of slots) stores every pending event, wherever
///   it is indexed from. A freed slot goes on a LIFO free list and is
///   the next one reused, so the live slots stay few and cache-hot:
///   the slab never grows past the peak number of pending events.
/// * A **timing wheel** of 2048 (`WHEEL_SLOTS`) one-cycle buckets
///   indexes every event scheduled within the horizon of the wheel
///   cursor. A bucket is just a `(head, tail)` pair of slab indices
///   heading a singly linked list sorted by key. Scheduling indexes by
///   `cycle mod WHEEL_SLOTS` and appends at the tail — O(1), since a
///   sequential loop's keys are monotone; an out-of-order key (window
///   merges) walks the short list to its place. Popping advances the
///   cursor to the next occupied bucket via a two-level bitmap scan (a
///   few word operations) and unlinks the head.
/// * An **overflow heap** (`BinaryHeap` of `(cycle, key, slot)`) indexes
///   events beyond the wheel horizon (for this simulator: long
///   `Compute` delays) and events scheduled at or before an
///   already-popped cycle. Keys are unique, so the slot index never
///   decides the order. `pop` compares the wheel's earliest `(cycle,
///   key)` with the heap's top, so correctness never depends on
///   migrating events between the stores. An empty wheel re-centers
///   its window on the next scheduled event, so sparse phases stay
///   O(1) too.
///
/// Both `schedule` and `pop` are amortized O(1) for near-future events.
/// The wheel itself is 16 KB of list heads; event payloads live only
/// in the slab.
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
    /// Every pending event, plus free slots.
    slots: Vec<Slot<E>>,
    /// Head of the LIFO free list of `slots`.
    free: u32,
    /// `WHEEL_SLOTS` one-cycle buckets, each a key-sorted slot list.
    wheel: Box<[Bucket; WHEEL_SLOTS]>,
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
    /// Events beyond the wheel horizon (or scheduled in the past), as
    /// `(cycle, key, slot)`.
    overflow: BinaryHeap<Reverse<(u64, Packed, u32)>>,
    /// All-time schedule count (the `sim_events` metric).
    scheduled: u64,
}

impl<E> KeyedQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        KeyedQueue {
            slots: Vec::new(),
            free: NIL,
            wheel: Box::new([Bucket::EMPTY; WHEEL_SLOTS]),
            occupied: [0; WHEEL_WORDS],
            summary: 0,
            cursor: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            scheduled: 0,
        }
    }

    /// Stores `event` in a slab slot (the most recently freed one, if
    /// any) and returns its index.
    #[inline]
    fn alloc(&mut self, key: Packed, event: E) -> u32 {
        let slot = Slot {
            key,
            next: NIL,
            event: Some(event),
        };
        if self.free == NIL {
            let i = u32::try_from(self.slots.len()).expect("queue exceeds 2^32 pending events");
            self.slots.push(slot);
            i
        } else {
            let i = self.free;
            self.free = self.slots[i as usize].next;
            self.slots[i as usize] = slot;
            i
        }
    }

    /// Takes the event out of slot `i` and puts the slot on the free
    /// list.
    #[inline]
    fn release(&mut self, i: u32) -> E {
        let slot = &mut self.slots[i as usize];
        slot.next = self.free;
        self.free = i;
        slot.event.take().expect("released slot holds an event")
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
        let i = self.alloc(key, event);
        if at.0 >= self.cursor && at.0 - self.cursor < WHEEL_SLOTS as u64 {
            let idx = (at.0 & WHEEL_MASK) as usize;
            self.link(idx, i, key);
            self.occupied[idx >> 6] |= 1 << (idx & 63);
            self.summary |= 1 << (idx >> 6);
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse((at.0, key, i)));
        }
    }

    /// Links slot `i` (carrying `key`) into bucket `idx` in key order.
    #[inline]
    fn link(&mut self, idx: usize, i: u32, key: Packed) {
        let Bucket { head, tail } = self.wheel[idx];
        if head == NIL {
            self.wheel[idx] = Bucket { head: i, tail: i };
        } else if self.slots[tail as usize].key < key {
            // Fast path: keys almost always arrive in increasing order
            // (a sequential loop's keys are monotone).
            self.slots[tail as usize].next = i;
            self.wheel[idx].tail = i;
        } else if key < self.slots[head as usize].key {
            self.slots[i as usize].next = head;
            self.wheel[idx].head = i;
        } else {
            // Out-of-order key (window merges): walk the short list.
            // The tail's key exceeds `key`, so the walk stops before it.
            let mut prev = head;
            loop {
                let next = self.slots[prev as usize].next;
                if self.slots[next as usize].key > key {
                    self.slots[i as usize].next = next;
                    self.slots[prev as usize].next = i;
                    return;
                }
                prev = next;
            }
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
        let key = self.slots[self.wheel[idx].head as usize].key;
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
        let over = self.overflow.peek().map(|Reverse((c, k, _))| (*c, *k));
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
            let (c, _) = over.expect("checked");
            (c < horizon.0).then(|| self.pop_overflow())
        }
    }

    #[inline]
    fn pop_wheel(&mut self, cycle: u64, idx: usize) -> (Cycle, E) {
        self.cursor = cycle;
        let head = self.wheel[idx].head;
        let next = self.slots[head as usize].next;
        self.wheel[idx].head = next;
        self.wheel_len -= 1;
        if next == NIL {
            self.occupied[idx >> 6] &= !(1 << (idx & 63));
            if self.occupied[idx >> 6] == 0 {
                self.summary &= !(1 << (idx >> 6));
            }
        }
        (Cycle(cycle), self.release(head))
    }

    fn pop_overflow(&mut self) -> (Cycle, E) {
        let Reverse((at, _, i)) = self.overflow.pop().expect("checked");
        if self.wheel_len == 0 {
            self.cursor = self.cursor.max(at);
        }
        (Cycle(at), self.release(i))
    }

    /// The cycle of the earliest pending event.
    #[must_use]
    pub fn peek_cycle(&self) -> Option<Cycle> {
        let wheel = self.wheel_peek().map(|(c, _, _)| c);
        let over = self.overflow.peek().map(|Reverse((c, _, _))| *c);
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
    fn slab_never_outgrows_the_peak_of_pending_events() {
        // The engine's shape: pop one event, schedule 0-3 successors up
        // to 3000 cycles ahead (past the wheel horizon), for more than
        // ten wheel rotations. Freed slots are reused before the slab
        // grows.
        let mut q = KeyedQueue::new();
        let mut rng = crate::Xorshift64Star::new(11);
        for i in 0..64u64 {
            q.schedule(Cycle(i), key(0, 0, i), ());
        }
        let (mut seq, mut peak) = (64, q.len());
        while let Some((at, ())) = q.pop() {
            if at.0 < 12 * WHEEL_SLOTS as u64 {
                let n = rng.range(0, 4).min(256 - q.len() as u64);
                for _ in 0..n {
                    q.schedule(at + rng.range(1, 3001), key(at.0, 0, seq), ());
                    seq += 1;
                }
            }
            peak = peak.max(q.len());
            assert!(
                q.slots.len() <= peak,
                "slab {} > peak {peak}",
                q.slots.len()
            );
        }
        assert!(seq > 10 * peak as u64, "slots were reused many times over");
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
