//! Runtime coherence auditing.
//!
//! The [`Auditor`] is an optional, purely observational shadow of the
//! coherence protocol: it watches every home-originated send and every
//! delivery in the machine, maintains its own copy of each block's
//! grant state, and panics the moment a message contradicts the
//! protocol's invariants — rather than letting the corruption surface
//! thousands of cycles later as a wrong cache value or a deadlock. It
//! exists for the fault-injection path (drops, duplicates, delays,
//! retries, and directory-side duplicate suppression must *never*
//! change what the protocol grants), but it is equally valid on a
//! reliable network.
//!
//! Invariants checked, per block:
//!
//! * **Single writer** — at most one writable copy is ever outstanding:
//!   a write grant requires no current owner and no read-only copy at
//!   anyone but the grantee; a writeback must come from the owner.
//! * **Reader-set soundness** — the directory's reader set is a
//!   superset of the shadow's outstanding read-only copies (the
//!   full-map directory may over-approximate after a recipient drops a
//!   speculative copy under the race rule, never under-approximate),
//!   and invalidations/acks only name actual sharers.
//! * **No stale data** — data replies carry the current memory version;
//!   the sequence of versions delivered to any one processor is
//!   non-decreasing, so no processor ever reads state older than what
//!   it already observed (e.g. a reordered reply arriving after the
//!   invalidation it preceded logically).
//!
//! The auditor schedules no events and touches no protocol state, so
//! enabling it cannot perturb the simulation: runs with and without
//! auditing are bit-identical.
//!
//! On a violation it panics with the invariant violated plus a bounded
//! trace of the most recent messages touching the offending block.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;

use specdsm_sim::Cycle;
use specdsm_types::{BlockAddr, ProcId, ReaderSet};

use crate::directory::DirState;
use crate::msg::{Msg, MsgKind};

/// Messages retained for post-mortem diagnostics.
const RING_CAP: usize = 96;

/// The auditor's model of one block's grant state, built purely from
/// the messages the home sends and receives.
#[derive(Debug, Clone, Default)]
struct Shadow {
    /// Holder of the writable copy, if one is outstanding.
    owner: Option<ProcId>,
    /// Processors holding read-only copies (demand or speculative).
    readers: ReaderSet,
    /// Version of the last write grant (returned by the writeback).
    version: u64,
}

/// The runtime coherence auditor of one machine. See the module docs.
///
/// `shadows` follows each block's grant state from the home's sends
/// and the home-bound deliveries; `delivered` holds each processor's
/// version floor per block, from the data deliveries it received.
#[derive(Clone)]
pub(crate) struct Auditor {
    shadows: HashMap<BlockAddr, Shadow>,
    /// Highest data version delivered to each (processor, block).
    delivered: HashMap<(ProcId, BlockAddr), u64>,
    ring: VecDeque<(Cycle, &'static str, Msg)>,
}

impl Auditor {
    pub(crate) fn new() -> Self {
        Auditor {
            shadows: HashMap::new(),
            delivered: HashMap::new(),
            ring: VecDeque::with_capacity(RING_CAP),
        }
    }

    fn record(&mut self, now: Cycle, dir: &'static str, msg: &Msg) {
        if self.ring.len() == RING_CAP {
            self.ring.pop_front();
        }
        self.ring.push_back((now, dir, *msg));
    }

    /// Fails the run with the violated invariant plus the retained
    /// messages touching the block.
    fn fail(&self, block: BlockAddr, what: &str) -> ! {
        let mut diag = String::new();
        for (at, dir, m) in self.ring.iter().filter(|(_, _, m)| m.block == block) {
            let _ = writeln!(diag, "  cycle {at}: {dir} {m}");
        }
        panic!(
            "coherence audit violation at {block}: {what}\n\
             recent messages touching the block:\n{diag}"
        );
    }

    /// Observes a message leaving its sender. Only home-originated
    /// kinds carry grant semantics; processor-originated messages are
    /// audited where they are delivered (at their home).
    pub(crate) fn note_sent(&mut self, now: Cycle, msg: &Msg) {
        let block = msg.block;
        match msg.kind {
            MsgKind::DataShared { version } | MsgKind::SpecData { version } => {
                self.record(now, "send", msg);
                let sh = self.shadows.entry(block).or_default();
                let (owner, current) = (sh.owner, sh.version);
                if owner.is_some() {
                    self.fail(block, "read-only copy granted while a writable copy exists");
                }
                if version != current {
                    self.fail(block, "data reply carries a stale version");
                }
                let reader = msg.dst.proc();
                self.shadows.get_mut(&block).unwrap().readers.insert(reader);
            }
            MsgKind::DataExcl { version } | MsgKind::UpgradeAck { version } => {
                self.record(now, "send", msg);
                let grantee = msg.dst.proc();
                let sh = self.shadows.entry(block).or_default();
                let owner = sh.owner;
                // The shadow's reader set can be machine-wide; finding
                // a foreign sharer needs no copy of its spill words.
                let foreign_reader = sh.readers.iter().any(|r| r != grantee);
                if owner.is_some() {
                    self.fail(
                        block,
                        "second writable copy granted (single-writer violated)",
                    );
                }
                if foreign_reader {
                    self.fail(
                        block,
                        "write granted while read-only copies are outstanding elsewhere",
                    );
                }
                let sh = self.shadows.get_mut(&block).unwrap();
                sh.owner = Some(grantee);
                sh.readers = ReaderSet::new();
                sh.version = version;
            }
            MsgKind::Inval => {
                self.record(now, "send", msg);
                let target = msg.dst.proc();
                let listed = self
                    .shadows
                    .entry(block)
                    .or_default()
                    .readers
                    .contains(target);
                if !listed {
                    self.fail(block, "invalidation sent to a processor without a copy");
                }
            }
            MsgKind::InvWriteback => {
                self.record(now, "send", msg);
                let target = msg.dst.proc();
                let owner = self.shadows.entry(block).or_default().owner;
                if owner != Some(target) {
                    self.fail(block, "writeback demanded from a non-owner");
                }
            }
            // Requests and acknowledgements originate at processors;
            // they are recorded at delivery, at the home.
            _ => {}
        }
    }

    /// Observes a delivered message (after any
    /// duplicate-suppression — suppressed duplicates have no protocol
    /// effect and are deliberately invisible here).
    pub(crate) fn note_delivered(&mut self, now: Cycle, msg: &Msg) {
        let block = msg.block;
        match msg.kind {
            MsgKind::Req { .. } => self.record(now, "recv", msg),
            MsgKind::InvAck { proc, .. } => {
                self.record(now, "recv", msg);
                let listed = self
                    .shadows
                    .entry(block)
                    .or_default()
                    .readers
                    .contains(proc);
                if !listed {
                    self.fail(
                        block,
                        "invalidation ack from a processor not in the reader set",
                    );
                }
                self.shadows.get_mut(&block).unwrap().readers.remove(proc);
            }
            MsgKind::WritebackData { proc, version } => {
                self.record(now, "recv", msg);
                let sh = self.shadows.entry(block).or_default();
                let (owner, granted) = (sh.owner, sh.version);
                if owner != Some(proc) {
                    self.fail(block, "writeback from a non-owner (single-writer violated)");
                }
                if version != granted {
                    self.fail(
                        block,
                        "writeback returned a version other than the one granted",
                    );
                }
                self.shadows.get_mut(&block).unwrap().owner = None;
            }
            MsgKind::DataShared { version }
            | MsgKind::DataExcl { version }
            | MsgKind::UpgradeAck { version }
            | MsgKind::SpecData { version } => {
                // No stale read after an invalidation ack: once a
                // processor acknowledges losing a copy, any data it
                // receives next must be at least as new as everything
                // it ever held.
                let key = (msg.dst.proc(), block);
                let floor = self.delivered.get(&key).copied().unwrap_or(0);
                if version < floor {
                    self.fail(
                        block,
                        "stale data delivered: version older than one already observed",
                    );
                }
                self.delivered.insert(key, version);
            }
            // Inval / InvWriteback arriving at a processor carry no
            // grant-state transition the shadow tracks there.
            _ => {}
        }
    }

    /// Cross-checks the directory's published state for `block` against
    /// the shadow (called after directory-bound deliveries).
    pub(crate) fn check_dir_state(&mut self, block: BlockAddr, state: &DirState) {
        let Some(sh) = self.shadows.get(&block) else {
            return;
        };
        match state {
            DirState::Idle => {
                if sh.owner.is_some() || !sh.readers.is_empty() {
                    self.fail(block, "directory idle while copies are outstanding");
                }
            }
            DirState::Shared(listed) => {
                if sh.owner.is_some() {
                    self.fail(
                        block,
                        "directory shared while a writable copy is outstanding",
                    );
                }
                if !listed.is_superset(&sh.readers) {
                    self.fail(block, "directory reader set misses an actual sharer");
                }
            }
            DirState::Exclusive(owner) => {
                if sh.owner != Some(*owner) {
                    self.fail(
                        block,
                        "directory owner disagrees with the granted writable copy",
                    );
                }
                if !sh.readers.is_empty() {
                    self.fail(block, "writable copy coexists with read-only copies");
                }
            }
        }
    }
}

impl std::fmt::Debug for Auditor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Auditor")
            .field("blocks", &self.shadows.len())
            .field("ring", &self.ring.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdsm_types::NodeId;

    fn msg(src: usize, dst: usize, kind: MsgKind) -> Msg {
        Msg {
            src: NodeId(src),
            dst: NodeId(dst),
            block: BlockAddr(7),
            kind,
        }
    }

    fn at(c: u64) -> Cycle {
        Cycle(c)
    }

    #[test]
    fn clean_read_write_cycle_passes() {
        let mut a = Auditor::new();
        // Home 0 grants a read-only copy to P1, then invalidates it for
        // a write grant to P2, which later writes back.
        a.note_sent(at(0), &msg(0, 1, MsgKind::DataShared { version: 0 }));
        a.note_delivered(at(10), &msg(0, 1, MsgKind::DataShared { version: 0 }));
        a.note_sent(at(20), &msg(0, 1, MsgKind::Inval));
        a.note_delivered(
            at(30),
            &msg(
                1,
                0,
                MsgKind::InvAck {
                    proc: ProcId(1),
                    spec_unused: false,
                },
            ),
        );
        a.note_sent(at(40), &msg(0, 2, MsgKind::DataExcl { version: 1 }));
        a.check_dir_state(BlockAddr(7), &DirState::Exclusive(ProcId(2)));
        a.note_sent(at(50), &msg(0, 2, MsgKind::InvWriteback));
        a.note_delivered(
            at(60),
            &msg(
                2,
                0,
                MsgKind::WritebackData {
                    proc: ProcId(2),
                    version: 1,
                },
            ),
        );
        a.note_sent(at(70), &msg(0, 3, MsgKind::DataShared { version: 1 }));
    }

    #[test]
    #[should_panic(expected = "single-writer violated")]
    fn double_write_grant_fails() {
        let mut a = Auditor::new();
        a.note_sent(at(0), &msg(0, 1, MsgKind::DataExcl { version: 1 }));
        a.note_sent(at(5), &msg(0, 2, MsgKind::DataExcl { version: 2 }));
    }

    #[test]
    #[should_panic(expected = "read-only copies are outstanding")]
    fn write_grant_over_live_reader_fails() {
        let mut a = Auditor::new();
        a.note_sent(at(0), &msg(0, 1, MsgKind::DataShared { version: 0 }));
        a.note_sent(at(5), &msg(0, 2, MsgKind::DataExcl { version: 1 }));
    }

    #[test]
    #[should_panic(expected = "stale version")]
    fn stale_data_reply_fails() {
        let mut a = Auditor::new();
        a.note_sent(at(0), &msg(0, 1, MsgKind::DataExcl { version: 3 }));
        a.note_delivered(
            at(10),
            &msg(
                1,
                0,
                MsgKind::WritebackData {
                    proc: ProcId(1),
                    version: 3,
                },
            ),
        );
        // Memory is at version 3; serving version 2 is stale.
        a.note_sent(at(20), &msg(0, 2, MsgKind::DataShared { version: 2 }));
    }

    #[test]
    #[should_panic(expected = "not in the reader set")]
    fn stray_inv_ack_fails() {
        let mut a = Auditor::new();
        a.note_sent(at(0), &msg(0, 1, MsgKind::DataShared { version: 0 }));
        a.note_delivered(
            at(10),
            &msg(
                2,
                0,
                MsgKind::InvAck {
                    proc: ProcId(2),
                    spec_unused: false,
                },
            ),
        );
    }

    #[test]
    #[should_panic(expected = "stale data delivered")]
    fn version_regression_at_processor_fails() {
        let mut a = Auditor::new();
        a.note_delivered(at(0), &msg(0, 1, MsgKind::DataShared { version: 5 }));
        a.note_delivered(at(9), &msg(0, 1, MsgKind::SpecData { version: 4 }));
    }

    #[test]
    #[should_panic(expected = "reader set misses")]
    fn directory_underapproximation_fails() {
        let mut a = Auditor::new();
        a.note_sent(at(0), &msg(0, 1, MsgKind::DataShared { version: 0 }));
        a.note_sent(at(1), &msg(0, 2, MsgKind::DataShared { version: 0 }));
        // Directory claims only P2 shares the block — P1's copy is lost.
        let only_p2 = ReaderSet::single(ProcId(2));
        a.check_dir_state(BlockAddr(7), &DirState::Shared(only_p2));
    }

    #[test]
    fn wide_directory_underapproximation_fails() {
        // The same loss on a 256-node machine: the shadow holds P1 and
        // P200, and the directory lists only one of them, either the
        // spilled P200 or the inline P1.
        for listed in [ProcId(200), ProcId(1)] {
            let err = std::panic::catch_unwind(|| {
                let mut a = Auditor::new();
                a.note_sent(at(0), &msg(0, 1, MsgKind::DataShared { version: 0 }));
                a.note_sent(at(1), &msg(0, 200, MsgKind::DataShared { version: 0 }));
                a.check_dir_state(BlockAddr(7), &DirState::Shared(ReaderSet::single(listed)));
            })
            .unwrap_err();
            let text = err.downcast_ref::<String>().expect("panic carries text");
            assert!(text.contains("reader set misses"), "{listed}: {text}");
        }
    }

    #[test]
    fn wide_reader_shadow_audits_without_cloning() {
        // A >64-processor machine spills the shadow's reader set; the
        // single-writer check must still accept a grant to the sole
        // remaining reader and reject one over live foreign copies —
        // by iterating, not by deep-cloning the spill on every grant.
        let mut a = Auditor::new();
        for r in [1usize, 70, 200] {
            a.note_sent(at(0), &msg(0, r, MsgKind::DataShared { version: 0 }));
        }
        for r in [1usize, 70] {
            a.note_delivered(
                at(10),
                &msg(
                    r,
                    0,
                    MsgKind::InvAck {
                        proc: ProcId(r),
                        spec_unused: false,
                    },
                ),
            );
        }
        // P200 is the only copy left; an in-place upgrade to it is fine.
        a.note_sent(at(20), &msg(0, 200, MsgKind::UpgradeAck { version: 1 }));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut b = Auditor::new();
            b.note_sent(at(0), &msg(0, 1, MsgKind::DataShared { version: 0 }));
            b.note_sent(at(0), &msg(0, 200, MsgKind::DataShared { version: 0 }));
            b.note_sent(at(5), &msg(0, 1, MsgKind::DataExcl { version: 1 }));
        }))
        .unwrap_err();
        let text = err.downcast_ref::<String>().expect("panic carries text");
        assert!(text.contains("read-only copies are outstanding"), "{text}");
    }

    #[test]
    fn violation_report_includes_block_trace() {
        let mut a = Auditor::new();
        a.note_sent(at(0), &msg(0, 1, MsgKind::DataExcl { version: 1 }));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.note_sent(at(5), &msg(0, 2, MsgKind::DataExcl { version: 2 }));
        }))
        .unwrap_err();
        let text = err
            .downcast_ref::<String>()
            .expect("panic carries a String");
        assert!(text.contains("coherence audit violation"), "{text}");
        assert!(text.contains("recent messages"), "{text}");
        assert!(
            text.contains("cycle 0"),
            "trace shows the first grant: {text}"
        );
    }
}
