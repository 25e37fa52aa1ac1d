//! Host-speed calibration.
//!
//! The shared host this benchmark runs on changes speed by up to ±30% over
//! minutes, because other tenants contend for its memory system; a
//! register-only loop barely notices. The calibration kernel is a small,
//! fixed discrete-event loop (a binary-heap event queue over a hash map of
//! block states and a table of words, about 12 MiB) whose speed tracks the
//! simulator's: over seven minutes its time correlated with simulation
//! times at r = 0.72–0.76. It is the benchmark's own code and never
//! changes with the library, so dividing by it removes host drift without
//! hiding a change in the simulator.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Nominal kernel time. Host times are reported as if the calibration
/// runs around them had taken exactly this long; on the 2-vCPU Intel Xeon
/// VM the benchmark was built on, the kernel takes 0.045–0.08 s depending
/// on the host's phase.
pub const REFERENCE_S: f64 = 0.05;

/// Runs the kernel once and returns the host seconds it took.
pub fn kernel() -> f64 {
    const BLOCKS: u64 = 200_000;
    const EVENTS: usize = 400_000;
    let t = Instant::now();
    let mut queue = BinaryHeap::new();
    let mut dir: HashMap<u64, (u64, u32)> = HashMap::with_capacity(BLOCKS as usize);
    let mut mem = vec![0u64; BLOCKS as usize * 4];
    let mut x = 0x9E37_79B9_u64;
    for i in 0..256u64 {
        queue.push(Reverse((i, i)));
    }
    for _ in 0..EVENTS {
        let Reverse((at, id)) = queue.pop().expect("the queue never empties");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let entry = dir.entry(x % BLOCKS).or_insert((0, 0));
        entry.0 += at;
        entry.1 += 1;
        let word = (x as usize >> 7) % mem.len();
        mem[word] = mem[word].wrapping_add(id);
        queue.push(Reverse((at + 1 + (x >> 40) % 400, id)));
    }
    black_box((dir.len(), mem[0]));
    t.elapsed().as_secs_f64()
}

/// The factor that scales a host time measured between two kernel runs
/// to the reference host speed.
pub fn scale(before: f64, after: f64) -> f64 {
    REFERENCE_S / ((before + after) / 2.0)
}
