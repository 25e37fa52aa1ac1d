//! Heap high-water marks, counted by a global allocator that wraps the
//! system allocator.
//!
//! Resident set size on this kind of host depends on how the C allocator
//! fragments and trims its arenas, and it grows with the number of passes
//! a run makes; the bytes the program has allocated do not. The benchmark
//! runs on one thread (checked before it reports), so the counters use
//! plain loads and stores rather than read-modify-write atomics, which
//! keeps the cost per allocation to a few instructions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grow(bytes: usize) {
    let now = CURRENT.load(Relaxed) + bytes;
    CURRENT.store(now, Relaxed);
    if now > PEAK.load(Relaxed) {
        PEAK.store(now, Relaxed);
    }
}

fn shrink(bytes: usize) {
    CURRENT.store(CURRENT.load(Relaxed).saturating_sub(bytes), Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only
// observe sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result and the most heap bytes it had live
/// at once beyond what was live when it started.
pub fn growth<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = CURRENT.load(Relaxed);
    PEAK.store(start, Relaxed);
    let result = f();
    (result, (PEAK.load(Relaxed) - start) as u64)
}
