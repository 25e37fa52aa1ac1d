//! Common vocabulary types for the `specdsm` workspace.
//!
//! This crate defines the identifiers, addresses, message alphabets, and
//! machine configuration shared by the coherence-protocol simulator
//! ([`specdsm-protocol`]), the memory sharing predictors
//! ([`specdsm-core`]), and the workload generators
//! ([`specdsm-workloads`]).
//!
//! Everything here mirrors the target machine of Lai & Falsafi (ISCA '99):
//! a CC-NUMA DSM with at most [`MAX_PROCS`] processors, fine-grain
//! coherence blocks, and a home directory per node observing three request
//! message types (read, write, upgrade) plus two acknowledgement types
//! (invalidation acks and writebacks).
//!
//! # Example
//!
//! ```
//! use specdsm_types::{BlockAddr, MachineConfig, ProcId, ReaderSet};
//!
//! let machine = MachineConfig::paper_machine();
//! assert_eq!(machine.num_nodes, 16);
//! assert_eq!(machine.remote_read_round_trip(), 418);
//!
//! let mut readers = ReaderSet::new();
//! readers.insert(ProcId(3));
//! assert!(readers.contains(ProcId(3)));
//! let home = machine.home_of(BlockAddr(12345));
//! assert!(home.0 < machine.num_nodes);
//! ```
//!
//! [`specdsm-protocol`]: ../specdsm_protocol/index.html
//! [`specdsm-core`]: ../specdsm_core/index.html
//! [`specdsm-workloads`]: ../specdsm_workloads/index.html

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod addr;
mod config;
mod error;
mod fault;
mod geometry;
mod ids;
mod intern;
mod msg;
mod ops;
mod readers;

pub use addr::BlockAddr;
pub use config::{LatencyConfig, MachineConfig, PAPER_BLOCK_BYTES, PAPER_NODES};
pub use error::ConfigError;
pub use fault::{FaultDecision, FaultPlan};
pub use geometry::HomeGeometry;
pub use ids::{NodeId, ProcId, MAX_PROCS};
pub use intern::{ReaderSetInterner, SetId};
pub use msg::{AckKind, DirMsg, ReqKind};
pub use ops::{LockId, Op, OpStream, Workload};
pub use readers::ReaderSet;
