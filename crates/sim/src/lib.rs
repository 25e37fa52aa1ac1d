//! Deterministic discrete-event simulation engine.
//!
//! The paper evaluated its designs on the Wisconsin Wind Tunnel II, a
//! direct-execution parallel simulator. This crate provides the
//! repo-local substitute: a small, fully deterministic, single-threaded
//! discrete-event engine with
//!
//! * a [`Cycle`] time axis,
//! * a [`KeyedQueue`] — a calendar queue (bucketed timing wheel with
//!   an overflow heap, both indexing one event slab) whose same-cycle
//!   order is an *explicit* per-event [`SchedKey`] tie-break, so runs
//!   are reproducible bit-for-bit and the sharded windowed protocol
//!   engine orders events independently of the order it visits shards
//!   in,
//! * [`FifoResource`] for occupancy-based contention modeling (memory
//!   banks, network interfaces), and
//! * a tiny, stable [`Xorshift64Star`] PRNG used to generate the timing
//!   jitter that stands in for real-system load imbalance.
//!
//! # Example
//!
//! ```
//! use specdsm_sim::{Cycle, KeyedQueue, SchedKey};
//!
//! let key = |seq| SchedKey { sched: 0, src: 0, seq };
//! let mut q = KeyedQueue::new();
//! q.schedule(Cycle(10), key(0), "b");
//! q.schedule(Cycle(5), key(1), "a");
//! q.schedule(Cycle(10), key(2), "c");
//! let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
//! assert_eq!(order, vec!["a", "b", "c"]); // key order among equal cycles
//! ```
//!
//! How the engine fits into the whole simulator — the message
//! lifecycle and the scheduler design rationale — is documented in
//! `docs/ARCHITECTURE.md` at the repository root.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
mod keyed;
mod resource;
mod rng;

pub use clock::Cycle;
pub use keyed::{KeyedQueue, SchedKey};
pub use resource::FifoResource;
pub use rng::Xorshift64Star;
