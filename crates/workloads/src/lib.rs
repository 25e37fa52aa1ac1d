//! Synthetic shared-memory workloads.
//!
//! The paper evaluates on seven applications run under direct execution
//! (Table 2): appbt, barnes, em3d, moldyn, ocean, tomcatv, and
//! unstructured. This crate re-implements each as a *workload
//! generator*: a deterministic factory of per-processor operation
//! streams whose **sharing pattern** matches the paper's own description
//! of the application (§7.1 of the paper) — producer/consumer degree,
//! migratory chains, reduction behaviour, pipeline structure, and the
//! sources of message re-ordering (per-iteration timing jitter standing
//! in for real-system load imbalance).
//!
//! Only *shared* accesses are emitted as reads/writes; purely local
//! computation (which with the paper's infinite remote caches never
//! produces coherence traffic after warm-up) is modeled as compute
//! cycles. This keeps streams compact without changing anything the
//! directory — and therefore the predictors — can observe.
//!
//! # Example
//!
//! ```
//! use specdsm_types::{MachineConfig, Workload};
//! use specdsm_workloads::{Em3d, Em3dParams};
//!
//! let machine = MachineConfig::paper_machine();
//! let em3d = Em3d::new(machine.clone(), Em3dParams::quick());
//! let streams = em3d.build_streams();
//! assert_eq!(streams.len(), machine.num_nodes);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod adversarial;
mod apps;
mod jitter;
mod micro;
mod space;
mod stream;
mod suite;

pub use adversarial::{adversarial_suite, FalseSharingStorm, HotspotStorm, MigratoryPingPong};
pub use apps::appbt::{Appbt, AppbtParams};
pub use apps::barnes::{Barnes, BarnesParams};
pub use apps::em3d::{Em3d, Em3dParams};
pub use apps::moldyn::{Moldyn, MoldynParams};
pub use apps::ocean::{Ocean, OceanParams};
pub use apps::tomcatv::{Tomcatv, TomcatvParams};
pub use apps::unstructured::{Unstructured, UnstructuredParams};
pub use jitter::Jitter;
pub use micro::{Migratory, ProducerConsumer, WideSharing};
pub use space::{AddressSpace, Region};
pub use stream::PhasedStream;
pub use suite::{fault_plan, suite, AppId, Scale, WorkloadError};
