//! Whole-run statistics.

use std::fmt;

use specdsm_core::{DirectoryTrace, PredictorStats};

use crate::spec::{SpecPolicy, SpecStats};

/// Per-processor time and access accounting.
///
/// Every cycle of a processor's life is attributed to exactly one of
/// `compute_cycles` (instructions + cache hits), `sync_wait` (barrier
/// and lock waiting — counted as computation in the paper's Figure 9
/// breakdown), or `mem_wait` (blocked on a memory request — the paper's
/// "remote request waiting time").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Cycles spent computing (including cache hit latencies).
    pub compute_cycles: u64,
    /// Cycles blocked at barriers or locks.
    pub sync_wait: u64,
    /// Cycles blocked waiting for memory request replies.
    pub mem_wait: u64,
    /// Read operations executed.
    pub reads: u64,
    /// Reads that hit in the cache.
    pub read_hits: u64,
    /// Reads that missed and issued a request.
    pub read_misses: u64,
    /// Reads that hit a speculatively placed, not-yet-referenced copy —
    /// i.e. remote reads converted to local hits by speculation.
    pub spec_read_hits: u64,
    /// Write operations executed.
    pub writes: u64,
    /// Writes that hit a writable copy.
    pub write_hits: u64,
    /// Writes that missed entirely (write requests).
    pub write_misses: u64,
    /// Writes that hit a read-only copy (upgrade requests).
    pub upgrades: u64,
    /// Cycle at which this processor finished its stream.
    pub finished_at: u64,
}

impl ProcStats {
    /// Reads that needed (or would have needed) a remote request:
    /// misses plus speculative first touches.
    #[must_use]
    pub fn reads_effective(&self) -> u64 {
        self.read_misses + self.spec_read_hits
    }
}

/// Fault-injection and recovery accounting, summed over the run.
///
/// All zero when no [`FaultPlan`](specdsm_types::FaultPlan) is active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Request transmissions lost in the network.
    pub drops: u64,
    /// Request transmissions duplicated by the network.
    pub duplicates: u64,
    /// Requester-side retransmissions after a timeout.
    pub retries: u64,
    /// Duplicate requests suppressed at the home directory.
    pub dup_suppressed: u64,
    /// Total cycles processors spent blocked on requests that needed at
    /// least one retry — the latency cost of loss recovery.
    pub recovery_cycles: u64,
}

/// Result of one complete system simulation.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Workload name.
    pub workload: String,
    /// System configuration that ran.
    pub policy: SpecPolicy,
    /// Total execution time (cycle of the last processor's completion).
    pub exec_cycles: u64,
    /// Discrete events processed by the simulation loop (resumes,
    /// deliveries, directory releases). Simulator-side work, not a
    /// property of the modeled machine; `sim_events / wall time` is the
    /// simulator throughput perfbench reports as `mitems_per_s`.
    pub sim_events: u64,
    /// Per-processor breakdowns.
    pub per_proc: Vec<ProcStats>,
    /// Remote network messages sent.
    pub remote_messages: u64,
    /// Cycles messages spent waiting for NI slots (contention).
    pub ni_wait_cycles: u64,
    /// Cycles memory accesses spent queued behind other accesses
    /// (memory-bus contention), summed over homes.
    pub mem_wait_cycles: u64,
    /// Cycles the home memories spent busy, summed over homes.
    pub mem_busy_cycles: u64,
    /// Read requests observed at the directories. Equals the summed
    /// [`ProcStats::read_misses`]: retries plus the homes' duplicate
    /// suppression deliver each miss to its home exactly once.
    pub dir_reads: u64,
    /// Write requests observed at the directories; equals the summed
    /// [`ProcStats::write_misses`], for the same reason.
    pub dir_writes: u64,
    /// Upgrade requests observed at the directories; equals the summed
    /// [`ProcStats::upgrades`], for the same reason.
    pub dir_upgrades: u64,
    /// Speculation counters (all zero for Base-DSM).
    pub spec: SpecStats,
    /// Fault-injection and recovery counters (all zero without a
    /// fault plan).
    pub faults: FaultStats,
    /// Online predictor accuracy (FR-/SWI-DSM only).
    pub predictor: Option<PredictorStats>,
    /// Directory message trace, when recording was enabled.
    pub trace: Option<DirectoryTrace>,
}

impl RunStats {
    /// Sum of a per-processor field.
    fn sum(&self, f: impl Fn(&ProcStats) -> u64) -> u64 {
        self.per_proc.iter().map(f).sum()
    }

    /// Average memory-request wait per processor, in cycles — the
    /// "request" component of the Figure 9 bars.
    #[must_use]
    pub fn avg_mem_wait(&self) -> f64 {
        if self.per_proc.is_empty() {
            return 0.0;
        }
        self.sum(|p| p.mem_wait) as f64 / self.per_proc.len() as f64
    }

    /// Average computation + synchronization per processor, in cycles —
    /// the "comp" component of the Figure 9 bars.
    #[must_use]
    pub fn avg_comp(&self) -> f64 {
        if self.per_proc.is_empty() {
            return 0.0;
        }
        self.sum(|p| p.compute_cycles + p.sync_wait) as f64 / self.per_proc.len() as f64
    }

    /// Total reads that were (or would have been) remote requests.
    #[must_use]
    pub fn reads_effective(&self) -> u64 {
        self.sum(ProcStats::reads_effective)
    }

    /// Fraction of effective reads satisfied speculatively.
    #[must_use]
    pub fn spec_read_fraction(&self) -> f64 {
        let eff = self.reads_effective();
        if eff == 0 {
            0.0
        } else {
            self.sum(|p| p.spec_read_hits) as f64 / eff as f64
        }
    }

    /// The application communication ratio `c` of the analytic model:
    /// memory-wait cycles over total cycles, averaged across
    /// processors.
    #[must_use]
    pub fn communication_ratio(&self) -> f64 {
        let total = self.avg_comp() + self.avg_mem_wait();
        if total == 0.0 {
            0.0
        } else {
            self.avg_mem_wait() / total
        }
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {} cycles (comp {:.0}, request {:.0}; c = {:.2})",
            self.workload,
            self.policy,
            self.exec_cycles,
            self.avg_comp(),
            self.avg_mem_wait(),
            self.communication_ratio(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(per_proc: Vec<ProcStats>) -> RunStats {
        RunStats {
            workload: "test".into(),
            policy: SpecPolicy::Base,
            exec_cycles: 1000,
            sim_events: 0,
            per_proc,
            remote_messages: 0,
            ni_wait_cycles: 0,
            mem_wait_cycles: 0,
            mem_busy_cycles: 0,
            dir_reads: 0,
            dir_writes: 0,
            dir_upgrades: 0,
            spec: SpecStats::default(),
            faults: FaultStats::default(),
            predictor: None,
            trace: None,
        }
    }

    #[test]
    fn averages() {
        let s = stats_with(vec![
            ProcStats {
                compute_cycles: 600,
                sync_wait: 100,
                mem_wait: 300,
                ..ProcStats::default()
            },
            ProcStats {
                compute_cycles: 500,
                sync_wait: 300,
                mem_wait: 200,
                ..ProcStats::default()
            },
        ]);
        assert_eq!(s.avg_comp(), 750.0);
        assert_eq!(s.avg_mem_wait(), 250.0);
        assert_eq!(s.communication_ratio(), 0.25);
    }

    #[test]
    fn effective_request_counts() {
        let s = stats_with(vec![ProcStats {
            read_misses: 10,
            spec_read_hits: 5,
            ..ProcStats::default()
        }]);
        assert_eq!(s.reads_effective(), 15);
        assert!((s.spec_read_fraction() - 5.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_zero() {
        let s = stats_with(vec![]);
        assert_eq!(s.avg_comp(), 0.0);
        assert_eq!(s.avg_mem_wait(), 0.0);
        assert_eq!(s.communication_ratio(), 0.0);
        assert_eq!(s.spec_read_fraction(), 0.0);
    }

    #[test]
    fn display_mentions_policy() {
        let s = stats_with(vec![]);
        assert!(s.to_string().contains("Base-DSM"));
    }
}
