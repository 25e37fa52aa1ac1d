//! Output checks that hold for any seed and any correct model, and the
//! tally of attempted and failed operations.
//!
//! An operation is one simulation or one trace replay. It fails when it
//! panics, returns an `EngineError` or a `BuildError`, or breaks a check.

use std::panic::{catch_unwind, AssertUnwindSafe};

use specdsm_core::PredictorStats;
use specdsm_protocol::{RunStats, System, SystemConfig};
use specdsm_types::{Op, Workload};

/// Per-processor `(reads, writes)` in each application's generated
/// streams, counted once outside the simulator.
pub type Issued = Vec<(u64, u64)>;

/// Drains `workload`'s streams and counts each processor's reads and
/// writes. Returns the counts and the total number of operations.
pub fn issued(workload: &dyn Workload) -> (Issued, u64) {
    let mut ops = 0;
    let counts = workload
        .build_streams()
        .into_iter()
        .map(|stream| {
            let (mut reads, mut writes) = (0, 0);
            for op in stream {
                ops += 1;
                match op {
                    Op::Read(_) => reads += 1,
                    Op::Write(_) => writes += 1,
                    _ => {}
                }
            }
            (reads, writes)
        })
        .collect();
    (counts, ops)
}

/// Attempted and failed operations.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `Err` marks it failed, and the first few
    /// failures are reported on standard error.
    pub fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        outcome
            .map_err(|reason| {
                self.failed += 1;
                if self.failed <= 8 {
                    eprintln!("perfbench: {what} failed: {reason}");
                }
            })
            .ok()
    }
}

/// Builds a system; a configuration the library rejects is a failure.
pub fn build(cfg: SystemConfig, workload: &dyn Workload) -> Result<System, String> {
    System::new(cfg, workload).map_err(|e| format!("System::new: {e}"))
}

/// Runs a system to completion, turning panics and engine errors into
/// failures.
pub fn simulate(system: System) -> Result<RunStats, String> {
    match catch_unwind(AssertUnwindSafe(|| system.try_run())) {
        Ok(Ok(stats)) => Ok(stats),
        Ok(Err(e)) => Err(format!("engine error: {e}")),
        Err(payload) => Err(format!(
            "panicked: {}",
            payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string payload")
        )),
    }
}

/// `correct <= predicted <= seen`.
pub fn predictor(stats: &PredictorStats) -> Result<(), String> {
    if stats.correct <= stats.predicted && stats.predicted <= stats.seen {
        Ok(())
    } else {
        Err(format!("predictor counts out of order: {stats:?}"))
    }
}

/// The checks on one simulation's statistics.
pub fn run(stats: &RunStats, issued: &Issued) -> Result<(), String> {
    if stats.per_proc.len() != issued.len() {
        return Err(format!(
            "{}: {} processors reported, {} generated",
            stats.workload,
            stats.per_proc.len(),
            issued.len()
        ));
    }
    for (p, (proc, &(reads, writes))) in stats.per_proc.iter().zip(issued).enumerate() {
        if proc.reads != reads || proc.writes != writes {
            return Err(format!(
                "{} P{p}: executed {}/{} reads/writes, stream has {reads}/{writes}",
                stats.workload, proc.reads, proc.writes
            ));
        }
    }
    if let Some(p) = &stats.predictor {
        predictor(p)?;
    }
    if stats.spec.verified > stats.spec.total_sent() {
        return Err(format!(
            "{}: {} speculative copies verified but {} sent",
            stats.workload,
            stats.spec.verified,
            stats.spec.total_sent()
        ));
    }
    Ok(())
}

/// Each processor's `(reads, writes)` as executed.
pub fn accesses(stats: &RunStats) -> Issued {
    stats.per_proc.iter().map(|p| (p.reads, p.writes)).collect()
}

/// The simulated outputs a deterministic model must repeat exactly when
/// the same inputs run again.
pub fn fingerprint(s: &RunStats) -> String {
    format!(
        "{} {} {} {} {} {} {} {:?} {:?} {:?}",
        s.exec_cycles,
        s.sim_events,
        s.remote_messages,
        s.ni_wait_cycles,
        s.dir_reads,
        s.dir_writes,
        s.dir_upgrades,
        s.spec,
        s.faults,
        s.predictor
    )
}
