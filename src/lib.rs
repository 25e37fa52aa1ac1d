//! # specdsm — Memory Sharing Predictors & a Speculative Coherent DSM
//!
//! A full reproduction of **Lai & Falsafi, "Memory Sharing Predictor:
//! The Key to a Speculative Coherent DSM" (ISCA 26, 1999)** as a Rust
//! workspace:
//!
//! * [`core`] — the paper's contribution: the [`Cosmos`](core::Cosmos)
//!   baseline general message predictor, the [`Msp`](core::Msp) and
//!   [`Vmsp`](core::Vmsp) memory sharing predictors, storage accounting,
//!   and the SWI early-write-invalidate table.
//! * [`protocol`] — the substrate: an event-driven sixteen-node CC-NUMA
//!   with a full-map write-invalidate protocol, plus the speculative
//!   extensions (FR and SWI triggers, reference-bit verification).
//! * [`workloads`] — the seven applications of the paper's Table 2 as
//!   deterministic synthetic kernels, plus micro-patterns.
//! * [`analytic`] — the closed-form performance model (Equations 1–2).
//! * [`sim`] / [`types`] — the discrete-event engine and shared types.
//!
//! The `specdsm-bench` crate regenerates every table and figure of the
//! paper's evaluation (`cargo run --release -p specdsm-bench --bin
//! repro`).
//!
//! # Quickstart
//!
//! Run one application on the three systems the paper compares:
//!
//! ```
//! use specdsm::protocol::{SpecPolicy, System, SystemConfig};
//! use specdsm::types::MachineConfig;
//! use specdsm::workloads::{Em3d, Em3dParams};
//!
//! let machine = MachineConfig::paper_machine();
//! let app = Em3d::new(machine.clone(), Em3dParams::quick());
//! let mut exec = Vec::new();
//! for policy in SpecPolicy::ALL {
//!     let cfg = SystemConfig { machine: machine.clone(), policy, ..SystemConfig::default() };
//!     exec.push(System::new(cfg, &app)?.run().exec_cycles);
//! }
//! // Speculation never slows this producer/consumer kernel down.
//! assert!(exec[1] <= exec[0]);
//! assert!(exec[2] <= exec[0]);
//! # Ok::<(), specdsm::protocol::BuildError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use specdsm_analytic as analytic;
pub use specdsm_core as core;
pub use specdsm_protocol as protocol;
pub use specdsm_sim as sim;
pub use specdsm_types as types;
pub use specdsm_workloads as workloads;

/// Convenience prelude re-exporting the items most programs need.
pub mod prelude {
    pub use specdsm_analytic::ModelParams;
    pub use specdsm_core::{Cosmos, DirectoryTrace, Msp, PredictorKind, SharingPredictor, Vmsp};
    pub use specdsm_protocol::{FaultStats, RunStats, SpecPolicy, System, SystemConfig};
    pub use specdsm_types::{
        BlockAddr, DirMsg, FaultPlan, MachineConfig, NodeId, Op, OpStream, ProcId, ReaderSet,
        ReqKind, Workload,
    };
    pub use specdsm_workloads::{adversarial_suite, fault_plan, suite, AppId, Scale};
}
