//! Memory Sharing Predictors — the paper's primary contribution.
//!
//! This crate implements the three pattern-based coherence predictors
//! evaluated by Lai & Falsafi (ISCA '99), all derived from Yeh & Patt's
//! two-level adaptive PAp branch predictor. [`PredictorKind::build`]
//! constructs each of them:
//!
//! * Cosmos and MSP are two kinds of one two-level message predictor,
//!   which differ only in which messages enter its tables.
//!   [`PredictorKind::Cosmos`] is the baseline *general message
//!   predictor* of Mukherjee & Hill (ISCA '98). It learns and predicts
//!   **every** incoming directory message for a block: read/write/upgrade
//!   requests *and* the invalidation-ack / writeback acknowledgements.
//!   [`PredictorKind::Msp`] is the **Memory Sharing Predictor**: only
//!   *request* messages enter the history and pattern tables. Acks are
//!   always expected anyway, and dropping them removes the perturbation
//!   caused by ack re-ordering, shrinks the tables, and needs one bit
//!   less per message type.
//! * [`PredictorKind::Vmsp`] — the **Vector MSP**. Folds an entire read
//!   sequence into a single [`ReaderSet`] bit-vector pattern entry, the
//!   way a full-map directory tracks sharers, eliminating read
//!   re-ordering effects entirely.
//!
//! All three keep one two-level record per block and report
//! accuracy/coverage via [`PredictorStats`] and storage via
//! [`StorageReport`] (the byte formulas of the paper's Table 4). A
//! [`Predictor`] observes a per-block [`DirMsg`] stream one message at
//! a time, [`evaluate_trace`] replays a recorded [`DirectoryTrace`], and
//! [`Vmsp`] is the online VMSP the speculative protocol queries.
//!
//! Where this crate sits in the full simulator — predictors observe
//! the directory request stream and feed the FR/SWI speculation
//! triggers — is documented in `docs/ARCHITECTURE.md` at the
//! repository root (see "The message lifecycle").
//!
//! The crate holds the predictors and nothing else. The speculative
//! DSM's FR and SWI triggers live in the protocol crate, which asks the
//! VMSP who reads next ([`Vmsp::predicted_readers_at`]), folds
//! speculative readers into its open vector
//! ([`Vmsp::speculate_readers_at`]) and feeds verification back into
//! its pattern table ([`Vmsp::prune_reader_at`],
//! [`Vmsp::mark_swi_premature_at`]) under the [`SpecTicket`] each
//! prediction hands out.
//!
//! # Example: the paper's Figure 3/4 producer–consumer pattern
//!
//! ```
//! use specdsm_core::PredictorKind;
//! use specdsm_types::{BlockAddr, DirMsg, ProcId};
//!
//! let block = BlockAddr(0x100);
//! let (p1, p2, p3) = (ProcId(1), ProcId(2), ProcId(3));
//! let phase = [DirMsg::upgrade(p3), DirMsg::read(p1), DirMsg::read(p2)];
//!
//! let mut vmsp = PredictorKind::Vmsp.build(1, 16);
//! for _ in 0..8 {
//!     for msg in phase {
//!         vmsp.observe(block, msg);
//!     }
//! }
//! // After a few iterations the pattern is fully learned.
//! let stats = vmsp.stats();
//! assert!(stats.accuracy() > 0.9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod eval;
mod fxhash;
mod intern;
mod predictor;
mod stats;
mod storage;
mod symbol;
mod table;
mod twolevel;
mod vmsp;

pub use eval::{evaluate_trace, DirectoryTrace, TraceEval};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHasher};
pub use intern::{ReaderSetInterner, SetId};
pub use predictor::{Predictor, PredictorKind};
pub use stats::{Observation, PredictorStats};
pub use storage::{StorageModel, StorageReport};
pub use symbol::{HistoryKey, Symbol};
pub use table::{History, PatternEntry, PatternTable};
pub use vmsp::{SpecTicket, Vmsp};

pub use specdsm_types::{DirMsg, ReaderSet};
