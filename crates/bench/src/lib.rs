//! Experiment harness for the paper's evaluation section.
//!
//! The `repro` binary renders each table and figure of the paper as an
//! aligned [`TextTable`] mirroring the paper's rows and series, straight
//! from the runs and trace replays this library caches:
//!
//! | Paper artifact | `repro` experiment | Computed from |
//! |---|---|---|
//! | Tables 1–2 (machine, applications) | `config` | the paper machine |
//! | Figure 6 (analytic model, 4 panels) | `fig6` | `specdsm_analytic::figure6` |
//! | Figure 7 (predictor accuracy, d=1) | `fig7` | [`Lab::eval`] |
//! | Figure 8 (accuracy vs history depth) | `fig8` | [`Lab::eval`] |
//! | Table 3 (messages predicted / correct) | `table3` | [`Lab::eval`] |
//! | Table 4 (predictor storage) | `table4` | [`Lab::eval`] |
//! | Figure 9 (speculative DSM execution time) | `fig9` | [`Lab::run`] |
//! | Table 5 (speculation frequencies) | `table5` | [`Lab::run`] |
//! | Per-run diagnostic counters | `detail` | [`Lab::run`] |
//! | Ablations: online depth, network hop | `ablation` | [`Lab::run`] plus its own runs |
//!
//! [`Lab`] caches the three system runs per application (the Base-DSM
//! run records the directory trace) and every replay of that trace
//! through one predictor at one history depth, so the experiments of
//! one `repro` invocation share them. `repro`'s quick-scale output is
//! pinned byte for byte in `tests/fixtures/repro/` by the
//! `repro_args` test.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod lab;
mod table;

pub use lab::Lab;
pub use table::TextTable;

pub use specdsm_workloads::{AppId, Scale};
