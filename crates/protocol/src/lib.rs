//! Event-driven CC-NUMA DSM simulator.
//!
//! This crate is the substrate the paper ran on (there, the Wisconsin
//! Wind Tunnel II): a sixteen-node CC-NUMA with a full-map
//! write-invalidate coherence protocol, per-node directories, infinite
//! processor/remote caches, a constant-latency point-to-point network
//! with contention modeled at the network interfaces, and memory-bus
//! contention at each node (paper §6, Table 1).
//!
//! On top of the base protocol it implements the paper's **speculative
//! coherent DSM** (§4): an online [VMSP](specdsm_core::Vmsp) with history
//! depth 1 at each home directory, the **FR** (first-read) and **SWI**
//! (speculative write-invalidation) triggers, speculative read-only data
//! forwarding with the reference-bit verification scheme, and the race
//! rule that drops a speculatively-sent block when a demand request is in
//! flight. The base protocol is unmodified — speculation only *advises*
//! it to execute existing coherence operations early.
//!
//! The directory and the online [`Vmsp`](specdsm_core::Vmsp) each keep
//! one record per block in a per-home
//! [`HomeTable`](specdsm_types::HomeTable): the engine computes each
//! message's [`Slot`](specdsm_types::Slot) once and reaches both records
//! by direct indexing, so the FR/SWI fast path makes no hash-map probes.
//!
//! The full message lifecycle (processor → network → directory →
//! speculation engine → predictor feedback), and the design rationale
//! for the per-home tables and the calendar-queue scheduler underneath
//! them, are documented in `docs/ARCHITECTURE.md` at the repository
//! root.
//!
//! # Example
//!
//! ```
//! use specdsm_protocol::{SpecPolicy, System, SystemConfig};
//! use specdsm_types::{BlockAddr, MachineConfig, Op, OpStream, Workload};
//!
//! struct Ping;
//! impl Workload for Ping {
//!     fn name(&self) -> &str { "ping" }
//!     fn num_procs(&self) -> usize { 2 }
//!     fn build_streams(&self) -> Vec<OpStream> {
//!         (0..2).map(|p| {
//!             let ops = vec![
//!                 Op::Compute(100),
//!                 if p == 0 { Op::Write(BlockAddr(0)) } else { Op::Read(BlockAddr(0)) },
//!                 Op::Barrier,
//!             ];
//!             Box::new(ops.into_iter()) as OpStream
//!         }).collect()
//!     }
//! }
//!
//! let cfg = SystemConfig {
//!     machine: MachineConfig::with_nodes(2),
//!     policy: SpecPolicy::Base,
//!     ..SystemConfig::default()
//! };
//! let stats = System::new(cfg, &Ping).unwrap().run();
//! assert!(stats.exec_cycles > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod audit;
mod cache;
mod directory;
mod msg;
mod network;
mod processor;
mod shard;
mod spec;
mod stats;
mod sync;
mod system;

pub use spec::{SpecPolicy, SpecStats};
pub use stats::{FaultStats, ProcStats, RunStats};
pub use system::{BuildError, EngineConfig, EngineError, System, SystemConfig, Waiting};
