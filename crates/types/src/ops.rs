//! The processor operation vocabulary shared by workload generators and
//! the protocol simulator.

use std::fmt;

use crate::addr::BlockAddr;

/// Identifier of a synchronization lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub u32);

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// One operation in a processor's instruction stream.
///
/// Workload generators emit a lazy stream of these per processor; the
/// protocol simulator executes them on a blocking in-order processor
/// model. Synchronization (barriers, locks) is handled by dedicated
/// managers rather than through shared memory, and the time spent
/// waiting on it is accounted as computation time — matching the
/// paper's Figure 9 breakdown ("computation time including barrier
/// synchronization and spinning on locks").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Compute for the given number of cycles.
    Compute(u64),
    /// Read one coherence block.
    Read(BlockAddr),
    /// Write one coherence block.
    Write(BlockAddr),
    /// Wait at the global barrier until all processors arrive.
    Barrier,
    /// Acquire a lock (FIFO queueing).
    Lock(LockId),
    /// Release a lock.
    ///
    /// Releasing a lock the processor does not hold is a workload bug
    /// and the simulator will panic.
    Unlock(LockId),
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Compute(n) => write!(f, "compute({n})"),
            Op::Read(b) => write!(f, "read({b})"),
            Op::Write(b) => write!(f, "write({b})"),
            Op::Barrier => write!(f, "barrier"),
            Op::Lock(l) => write!(f, "lock({l})"),
            Op::Unlock(l) => write!(f, "unlock({l})"),
        }
    }
}

/// A lazy per-processor operation stream.
///
/// Streams are `Send` so a whole simulated system, streams included, can
/// move to another thread (for example to run independent simulations
/// concurrently).
pub type OpStream = Box<dyn Iterator<Item = Op> + Send>;

/// A multiprocessor workload: a factory for one [`OpStream`] per
/// processor.
///
/// Building the streams must be deterministic: the simulator builds a
/// fresh set for each system configuration (Base-, FR-, SWI-DSM) so all
/// three run the identical program.
pub trait Workload {
    /// Short name (used in reports, e.g. `"em3d"`).
    fn name(&self) -> &str;

    /// Number of processors the workload is written for.
    fn num_procs(&self) -> usize;

    /// Builds the operation streams, indexed by processor id.
    fn build_streams(&self) -> Vec<OpStream>;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TwoProcPingPong;

    impl Workload for TwoProcPingPong {
        fn name(&self) -> &str {
            "pingpong"
        }
        fn num_procs(&self) -> usize {
            2
        }
        fn build_streams(&self) -> Vec<OpStream> {
            (0..2)
                .map(|p| {
                    let ops = vec![
                        Op::Compute(10),
                        if p == 0 {
                            Op::Write(BlockAddr(1))
                        } else {
                            Op::Read(BlockAddr(1))
                        },
                        Op::Barrier,
                    ];
                    Box::new(ops.into_iter()) as OpStream
                })
                .collect()
        }
    }

    #[test]
    fn workload_builds_streams() {
        let w = TwoProcPingPong;
        let streams = w.build_streams();
        assert_eq!(streams.len(), w.num_procs());
        for s in streams {
            assert_eq!(s.count(), 3);
        }
    }

    #[test]
    fn rebuilding_streams_is_deterministic() {
        let w = TwoProcPingPong;
        let a: Vec<Vec<Op>> = w
            .build_streams()
            .into_iter()
            .map(Iterator::collect)
            .collect();
        let b: Vec<Vec<Op>> = w
            .build_streams()
            .into_iter()
            .map(Iterator::collect)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn op_display() {
        assert_eq!(Op::Compute(5).to_string(), "compute(5)");
        assert_eq!(Op::Read(BlockAddr(16)).to_string(), "read(0x10)");
        assert_eq!(Op::Lock(LockId(2)).to_string(), "lock(L2)");
        assert_eq!(Op::Barrier.to_string(), "barrier");
    }
}
