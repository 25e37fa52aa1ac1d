//! The whole simulated system: configuration, validation, the state
//! and the event loop.
//!
//! [`System::new`] validates a [`SystemConfig`] and builds one
//! [`System`], which owns every node's processor, cache, directory
//! records, memory bus and network interfaces, the online VMSP, the
//! barrier and lock managers, and one [`KeyedQueue`] of events.
//! [`System::try_run`] pops events in `(cycle, key)` order until the
//! queue drains; each handler may schedule further events. Every
//! scheduling action consumes the next key of one monotone counter, so
//! same-cycle events pop in the order they were scheduled.
//!
//! The handlers of each layer are one `impl System` block in that
//! layer's module: `processor.rs`, `sync.rs`, `network.rs`, `fault.rs`,
//! `directory.rs`, `spec.rs` and `audit.rs`. See `docs/ARCHITECTURE.md`
//! for the layer map and the full design.

use std::error::Error;
use std::fmt;

use specdsm_core::{DirectoryTrace, Vmsp};
use specdsm_sim::{Cycle, FifoResource, KeyedQueue, SchedKey};
use specdsm_types::{
    BlockAddr, ConfigError, FaultPlan, HomeGeometry, LockId, MachineConfig, ProcId, Slot, Workload,
};

use crate::audit::Auditor;
use crate::directory::Directory;
use crate::msg::Msg;
use crate::network::Network;
use crate::processor::{Blocked, Processor};
use crate::spec::{SpecPolicy, SpecStats};
use crate::stats::{FaultStats, RunStats};
use crate::swi;
use crate::sync::{BarrierManager, LockManager};

/// Names the engine. Both variants run the same one engine.
///
/// This type and [`SystemConfig::engine`] stay only because the
/// benchmark under `perfbench/` still constructs them. ROADMAP item 1,
/// step 1 removes that use, and both go with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineConfig {
    /// The one engine. The default.
    #[default]
    Sequential,
    /// The same engine as [`EngineConfig::Sequential`]; `threads` is
    /// ignored.
    Windowed {
        /// Ignored.
        threads: usize,
    },
}

/// Configuration of one simulated system run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The machine (node count, latencies, home mapping).
    pub machine: MachineConfig,
    /// Speculation policy (Base / FR / SWI+FR).
    pub policy: SpecPolicy,
    /// History depth of the online VMSP (the paper uses 1).
    pub predictor_depth: usize,
    /// Record the per-block directory message trace (for offline
    /// predictor evaluation).
    pub record_trace: bool,
    /// Optional safety limit on simulated time: the run stops with
    /// [`EngineError::MaxCycles`] at the first event past it (guards
    /// against runaway workloads in development).
    pub max_cycles: Option<u64>,
    /// Ignored; see [`EngineConfig`].
    pub engine: EngineConfig,
    /// Optional deterministic fault-injection plan for remote request
    /// messages (drop / duplicate / extra delay), with requester-side
    /// timeout-and-retry recovery. `None` — or any plan whose
    /// [`FaultPlan::is_noop`] holds — runs the reliable network
    /// bit-for-bit unchanged.
    pub faults: Option<FaultPlan>,
    /// Run the runtime coherence auditor alongside the protocol: a
    /// shadow copy of ownership/reader state checked on every send and
    /// delivery, failing fast (with a recent-message trace for the
    /// offending block) on any invariant violation. Purely
    /// observational — enabling it never perturbs timing or statistics.
    pub audit: bool,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            machine: MachineConfig::paper_machine(),
            policy: SpecPolicy::Base,
            predictor_depth: 1,
            record_trace: false,
            max_cycles: None,
            engine: EngineConfig::Sequential,
            faults: None,
            audit: false,
        }
    }
}

/// Error constructing a [`System`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The machine configuration is invalid.
    Config(ConfigError),
    /// The workload's processor count does not match the machine.
    ProcCountMismatch {
        /// Processors the workload is written for.
        workload: usize,
        /// Nodes in the machine.
        machine: usize,
    },
    /// The workload built a different number of op streams than the
    /// processors it declared.
    StreamCountMismatch {
        /// Streams the workload built.
        streams: usize,
        /// Processors the workload declared.
        procs: usize,
    },
    /// [`SystemConfig::predictor_depth`] is 0; a history needs at least
    /// one entry.
    ZeroPredictorDepth,
    /// The fault plan names a slow node the machine does not have.
    SlowNodeOutOfRange {
        /// The named node.
        node: usize,
        /// Nodes in the machine.
        nodes: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Config(e) => write!(f, "invalid machine config: {e}"),
            BuildError::ProcCountMismatch { workload, machine } => write!(
                f,
                "workload uses {workload} processors but the machine has {machine} nodes"
            ),
            BuildError::StreamCountMismatch { streams, procs } => write!(
                f,
                "workload built {streams} op streams for {procs} processors"
            ),
            BuildError::ZeroPredictorDepth => write!(f, "predictor depth must be at least 1"),
            BuildError::SlowNodeOutOfRange { node, nodes } => write!(
                f,
                "fault plan slows node {node}, but the machine has {nodes} nodes"
            ),
        }
    }
}

impl Error for BuildError {}

impl From<ConfigError> for BuildError {
    fn from(e: ConfigError) -> Self {
        BuildError::Config(e)
    }
}

/// What an unfinished processor waits for when a run deadlocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waiting {
    /// The barrier, since the cycle it arrived.
    Barrier {
        /// Arrival cycle.
        since: u64,
    },
    /// A lock another processor holds.
    Lock {
        /// The lock.
        lock: LockId,
        /// Cycle of the acquire.
        since: u64,
    },
    /// The reply to a memory request.
    Memory {
        /// The requested block.
        block: BlockAddr,
        /// Cycle the request was issued.
        since: u64,
    },
}

impl fmt::Display for Waiting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Waiting::Barrier { since } => write!(f, "at the barrier since cycle {since}"),
            Waiting::Lock { lock, since } => write!(f, "for {lock} since cycle {since}"),
            Waiting::Memory { block, since } => {
                write!(f, "for block {block} since cycle {since}")
            }
        }
    }
}

/// A failure of a run that its inputs caused, returned by
/// [`System::try_run`].
///
/// Protocol-invariant violations and coherence-audit violations are
/// bugs, and panic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// The event queue drained while processors were still unfinished,
    /// for example after mismatched barrier or lock use.
    Deadlock {
        /// Cycle of the last event processed.
        cycle: u64,
        /// Each unfinished processor, in id order, and what it waits
        /// for.
        blocked: Vec<(ProcId, Waiting)>,
    },
    /// An event lay past [`SystemConfig::max_cycles`].
    MaxCycles {
        /// The configured limit.
        limit: u64,
    },
    /// A request stayed unanswered after every retransmission the
    /// fault plan's `retry_cap` allows.
    RetryBudget {
        /// The requesting processor.
        proc: ProcId,
        /// The requested block.
        block: BlockAddr,
        /// Transmissions made, the first included.
        attempts: u32,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Deadlock { cycle, blocked } => {
                let n = blocked.len();
                let noun = if n == 1 { "processor" } else { "processors" };
                write!(f, "deadlock at cycle {cycle}: {n} {noun} never finished:")?;
                for (i, (p, waiting)) in blocked.iter().enumerate() {
                    let sep = if i == 0 { " " } else { "; " };
                    write!(f, "{sep}{p} waits {waiting}")?;
                }
                Ok(())
            }
            EngineError::MaxCycles { limit } => {
                write!(f, "simulation exceeded max_cycles = {limit}")
            }
            EngineError::RetryBudget {
                proc,
                block,
                attempts,
            } => write!(
                f,
                "request retry cap exceeded: {proc}'s request for {block} \
                 unanswered after {attempts} transmissions"
            ),
        }
    }
}

impl Error for EngineError {}

#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// A processor continues execution.
    Resume(ProcId),
    /// A message is delivered at its destination.
    Deliver(Msg),
    /// A directory block's reply-hold expires (the outgoing data has
    /// been handed to the NI; queued requests may proceed). Carries the
    /// block's slot so the release path does no lookup at all.
    DirRelease(Slot, BlockAddr),
    /// A request's retransmission timer fires. Stale once the request
    /// completed (`seq` no longer matches the processor's outstanding
    /// request); otherwise the request is retransmitted with doubled
    /// backoff. Only scheduled under an active fault plan.
    ReqTimeout {
        proc: ProcId,
        seq: u64,
        attempt: u32,
    },
}

/// A complete simulated DSM: processors, caches, directories, network,
/// synchronization, and (optionally) the speculation engine.
///
/// Build one with [`System::new`] and consume it with [`System::run`].
pub struct System {
    /// The configuration, with a no-op fault plan normalized away: an
    /// active plan is `Some`, and all-zero plans are `None`, keeping
    /// them bit-identical with no plan at all.
    pub(crate) cfg: SystemConfig,
    workload_name: String,
    /// The processors, indexed by node.
    pub(crate) procs: Vec<Processor>,
    /// Directory records of every home.
    pub(crate) dir: Directory,
    /// The memory buses, indexed by node.
    pub(crate) mems: Vec<FifoResource>,
    /// The network interfaces (outbound and inbound).
    pub(crate) net: Network,
    /// The online predictor of every home directory.
    pub(crate) vmsp: Vmsp,
    /// The SWI early-write-invalidate table of every home, indexed by
    /// home node (paper §4.1): the block each processor last wrote or
    /// upgraded at that home. A write to a different block there
    /// signals that the previous one is done. Never iterated.
    pub(crate) swi_last_write: Vec<swi::LastWrites>,
    /// Speculation activity counters.
    pub(crate) spec_stats: SpecStats,
    queue: KeyedQueue<Event>,
    /// Monotone counter behind every scheduling action's [`SchedKey`].
    seq: u64,
    /// Cycle of the event currently being processed; after a run, the
    /// cycle of the last event.
    pub(crate) cur: Cycle,
    pub(crate) barrier: BarrierManager,
    pub(crate) locks: LockManager,
    /// The directory message trace, when recording.
    pub(crate) trace: Option<DirectoryTrace>,
    /// Fault and recovery counters.
    pub(crate) fstats: FaultStats,
    /// Highest request sequence number accepted per `(home,
    /// requester)` — the directory-side duplicate-suppression state.
    /// Empty when no fault plan is active.
    pub(crate) req_seen: Vec<Vec<u64>>,
    /// Optional runtime coherence auditor (purely observational).
    pub(crate) audit: Option<Box<Auditor>>,
}

impl System {
    /// Builds a system running `workload` under `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the machine configuration or fault
    /// plan is invalid, the fault plan slows a node outside the machine,
    /// the predictor depth is 0, or the workload's processor or stream
    /// count does not match the node count.
    pub fn new(mut cfg: SystemConfig, workload: &dyn Workload) -> Result<Self, BuildError> {
        cfg.machine.validate()?;
        let n = cfg.machine.num_nodes;
        if let Some(plan) = &cfg.faults {
            plan.validate()?;
            if let Some(&node) = plan.slow_nodes.iter().find(|&&node| node >= n) {
                return Err(BuildError::SlowNodeOutOfRange { node, nodes: n });
            }
        }
        if cfg.predictor_depth == 0 {
            return Err(BuildError::ZeroPredictorDepth);
        }
        if workload.num_procs() != n {
            return Err(BuildError::ProcCountMismatch {
                workload: workload.num_procs(),
                machine: n,
            });
        }
        let streams = workload.build_streams();
        if streams.len() != n {
            return Err(BuildError::StreamCountMismatch {
                streams: streams.len(),
                procs: n,
            });
        }
        // An all-zero plan never enters the fault path, so such configs
        // stay bit-identical to the reliable network (no timeout
        // events, no dedup bookkeeping).
        cfg.faults = cfg.faults.filter(|plan| !plan.is_noop());
        let machine = &cfg.machine;
        Ok(System {
            procs: streams
                .into_iter()
                .enumerate()
                .map(|(i, s)| Processor::new(ProcId(i), s, machine.latency.cache_hit))
                .collect(),
            dir: Directory::new(machine),
            mems: (0..n).map(|_| FifoResource::new()).collect(),
            net: Network::new(n, machine.latency),
            vmsp: Vmsp::with_geometry(cfg.predictor_depth, HomeGeometry::of_machine(machine)),
            swi_last_write: vec![swi::LastWrites::default(); n],
            spec_stats: SpecStats::default(),
            queue: KeyedQueue::new(),
            seq: 0,
            cur: Cycle::ZERO,
            barrier: BarrierManager::new(n),
            locks: LockManager::new(),
            trace: cfg.record_trace.then(DirectoryTrace::new),
            fstats: FaultStats::default(),
            req_seen: if cfg.faults.is_some() {
                vec![vec![0u64; n]; n]
            } else {
                Vec::new()
            },
            audit: cfg.audit.then(|| Box::new(Auditor::new())),
            workload_name: workload.name().to_string(),
            cfg,
        })
    }

    /// Runs the simulation to completion and returns the statistics.
    ///
    /// # Panics
    ///
    /// Panics with the [`EngineError`]'s message if
    /// [`System::try_run`] returns one, and on any failure
    /// [`System::try_run`] panics on.
    pub fn run(self) -> RunStats {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the simulation to completion, returning a deadlock, an
    /// exceeded `max_cycles` or an exhausted retry budget as an
    /// [`EngineError`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Deadlock`] if the events run out while a
    /// processor is unfinished, [`EngineError::MaxCycles`] if the run
    /// passes [`SystemConfig::max_cycles`], and
    /// [`EngineError::RetryBudget`] if a request is still unanswered
    /// after the fault plan's last retry.
    ///
    /// # Panics
    ///
    /// Panics on a protocol-invariant or coherence-audit violation, and
    /// if the end-of-run directory state disagrees with a cache.
    pub fn try_run(mut self) -> Result<RunStats, EngineError> {
        self.simulate()?;
        self.check_quiescent()?;
        self.check_coherence();
        Ok(self.into_stats())
    }

    /// Schedules an event at `at`; the scheduling action is stamped
    /// with the current processing cycle and the next sequence number.
    #[inline]
    pub(crate) fn sched(&mut self, at: Cycle, event: Event) {
        let key = SchedKey {
            sched: self.cur.raw(),
            src: 0,
            seq: self.seq,
        };
        self.seq += 1;
        self.queue.schedule(at, key, event);
    }

    /// Queues every processor's first resume at cycle 0, then
    /// processes events until the queue drains.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::MaxCycles`] when an event lies past the
    /// configured `max_cycles`, and [`EngineError::RetryBudget`] when a
    /// request exhausts its retries.
    fn simulate(&mut self) -> Result<(), EngineError> {
        for p in 0..self.procs.len() {
            self.sched(Cycle::ZERO, Event::Resume(ProcId(p)));
        }
        self.drain()
    }

    /// Processes events until the queue drains, failing as `simulate`.
    pub(crate) fn drain(&mut self) -> Result<(), EngineError> {
        while let Some((now, event)) = self.queue.pop() {
            if let Some(limit) = self.cfg.max_cycles {
                if now.raw() > limit {
                    return Err(EngineError::MaxCycles { limit });
                }
            }
            self.cur = now;
            match event {
                Event::Resume(p) => self.step_proc(now, p),
                Event::Deliver(msg) => self.deliver(now, msg),
                Event::DirRelease(slot, block) => self.dir_release(now, slot, block),
                Event::ReqTimeout { proc, seq, attempt } => {
                    self.req_timeout(now, proc, seq, attempt)?;
                }
            }
        }
        Ok(())
    }

    fn into_stats(self) -> RunStats {
        let per_proc: Vec<_> = self.procs.iter().map(|p| p.stats).collect();
        let sum = |f: fn(&crate::ProcStats) -> u64| per_proc.iter().map(f).sum();
        // Retries plus home-side duplicate suppression deliver each miss
        // to its home exactly once, so the homes saw every miss.
        let (dir_reads, dir_writes, dir_upgrades) = (
            sum(|p| p.read_misses),
            sum(|p| p.write_misses),
            sum(|p| p.upgrades),
        );
        RunStats {
            workload: self.workload_name,
            policy: self.cfg.policy,
            exec_cycles: per_proc.iter().map(|p| p.finished_at).max().unwrap_or(0),
            sim_events: self.queue.scheduled_total(),
            remote_messages: self.net.messages_sent(),
            ni_wait_cycles: self.net.ni_wait_cycles(),
            mem_wait_cycles: self.mems.iter().map(FifoResource::wait_cycles).sum(),
            mem_busy_cycles: self.mems.iter().map(FifoResource::busy_cycles).sum(),
            dir_reads,
            dir_writes,
            dir_upgrades,
            spec: self.spec_stats,
            faults: self.fstats,
            predictor: self.cfg.policy.uses_predictor().then(|| self.vmsp.stats()),
            trace: self.trace.map(DirectoryTrace::compacted),
            per_proc,
        }
    }
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let done = self.procs.iter().filter(|p| p.blocked == Blocked::Done);
        f.debug_struct("System")
            .field("workload", &self.workload_name)
            .field("policy", &self.cfg.policy)
            .field("nodes", &self.procs.len())
            .field("cycle", &self.cur)
            .field("queued", &self.queue.len())
            .field("done", &done.count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::DirState;
    use specdsm_types::{NodeId, Op, OpStream, ReqKind};

    /// A workload described directly as per-processor op vectors.
    struct Script {
        name: &'static str,
        ops: Vec<Vec<Op>>,
    }

    impl Workload for Script {
        fn name(&self) -> &str {
            self.name
        }
        fn num_procs(&self) -> usize {
            self.ops.len()
        }
        fn build_streams(&self) -> Vec<OpStream> {
            self.ops
                .iter()
                .map(|v| Box::new(v.clone().into_iter()) as OpStream)
                .collect()
        }
    }

    fn machine(n: usize) -> MachineConfig {
        MachineConfig::with_nodes(n)
    }

    fn run_script(n: usize, policy: SpecPolicy, ops: Vec<Vec<Op>>) -> RunStats {
        let cfg = SystemConfig {
            machine: machine(n),
            policy,
            max_cycles: Some(50_000_000),
            ..SystemConfig::default()
        };
        System::new(
            cfg,
            &Script {
                name: "script",
                ops,
            },
        )
        .expect("valid system")
        .run()
    }

    /// Block homed on node `h` (first page of that home).
    fn homed(h: usize) -> BlockAddr {
        MachineConfig::with_nodes(4).page_on(NodeId(h), 0)
    }

    #[test]
    fn remote_clean_read_costs_418() {
        // P1 reads a block homed on node 0 that nobody caches: the
        // paper's Table 1 round-trip miss latency.
        let b = homed(0);
        let stats = run_script(
            4,
            SpecPolicy::Base,
            vec![vec![], vec![Op::Read(b)], vec![], vec![]],
        );
        assert_eq!(stats.per_proc[1].mem_wait, 418);
        assert_eq!(stats.per_proc[1].read_misses, 1);
    }

    #[test]
    fn local_clean_read_costs_104() {
        let b = homed(0);
        let stats = run_script(
            4,
            SpecPolicy::Base,
            vec![vec![Op::Read(b)], vec![], vec![], vec![]],
        );
        assert_eq!(stats.per_proc[0].mem_wait, 104);
    }

    #[test]
    fn rtl_is_about_four() {
        let m = machine(4);
        assert!((m.remote_to_local_ratio() - 4.02).abs() < 0.01);
    }

    #[test]
    fn producer_consumer_values_flow() {
        // P0 writes, barrier, P1..P3 read: everyone must see version 1.
        let b = homed(0);
        let mut ops = vec![vec![Op::Write(b), Op::Barrier]];
        for _ in 1..4 {
            ops.push(vec![Op::Barrier, Op::Read(b)]);
        }
        let stats = run_script(4, SpecPolicy::Base, ops);
        assert_eq!(stats.dir_writes, 1);
        assert_eq!(stats.dir_reads, 3);
        // The first reader invalidates the writable copy: a writeback
        // happened, so remote messages flow.
        assert!(stats.remote_messages > 0);
    }

    #[test]
    fn write_after_readers_invalidates_all() {
        // Two readers cache the block; a writer then upgrades... writer
        // had no copy, so it is a write miss that invalidates both.
        let b = homed(0);
        let stats = run_script(
            4,
            SpecPolicy::Base,
            vec![
                vec![Op::Barrier, Op::Write(b)],
                vec![Op::Read(b), Op::Barrier],
                vec![Op::Read(b), Op::Barrier],
                vec![Op::Barrier],
            ],
        );
        assert_eq!(stats.per_proc[0].write_misses, 1);
        // The write had to collect 2 invalidation acks; it costs more
        // than a clean write.
        assert!(stats.per_proc[0].mem_wait > 418);
    }

    #[test]
    fn upgrade_in_place_is_cheaper_than_write_miss() {
        let b = homed(0);
        // P1 reads then writes (upgrade); nobody else caches it.
        let stats = run_script(
            4,
            SpecPolicy::Base,
            vec![vec![], vec![Op::Read(b), Op::Write(b)], vec![], vec![]],
        );
        assert_eq!(stats.per_proc[1].upgrades, 1);
        // Upgrade round trip has no memory access: strictly less than
        // a 418 read plus a 418 write.
        assert!(stats.per_proc[1].mem_wait < 418 + 418);
    }

    #[test]
    fn migratory_write_write_transfers_ownership() {
        // Home (node 3) is distinct from both writers, so P1's write
        // pays the full three-hop invalidate + writeback + grant path:
        // 157 (req) + 157 (inval) + 157 (wb) + 104 (mem) + 157 (grant).
        let b = homed(3);
        let stats = run_script(
            4,
            SpecPolicy::Base,
            vec![
                vec![Op::Write(b), Op::Barrier],
                vec![Op::Barrier, Op::Write(b)],
                vec![Op::Barrier],
                vec![Op::Barrier],
            ],
        );
        assert_eq!(stats.per_proc[1].write_misses, 1);
        assert_eq!(stats.per_proc[1].mem_wait, 157 * 4 + 104);
    }

    #[test]
    fn deterministic_across_runs() {
        let b = homed(0);
        let ops = || {
            vec![
                vec![Op::Write(b), Op::Barrier, Op::Read(b.offset(1))],
                vec![Op::Barrier, Op::Read(b)],
                vec![Op::Barrier, Op::Read(b)],
                vec![Op::Compute(13), Op::Barrier],
            ]
        };
        let a = run_script(4, SpecPolicy::Base, ops());
        let c = run_script(4, SpecPolicy::Base, ops());
        assert_eq!(a.exec_cycles, c.exec_cycles);
        assert_eq!(a.remote_messages, c.remote_messages);
        assert_eq!(a.sim_events, c.sim_events);
        assert!(a.sim_events > 0, "event count is recorded");
    }

    #[test]
    fn wrong_proc_count_rejected() {
        let cfg = SystemConfig {
            machine: machine(4),
            ..SystemConfig::default()
        };
        let err = System::new(
            cfg,
            &Script {
                name: "bad",
                ops: vec![vec![]],
            },
        )
        .unwrap_err();
        assert!(matches!(err, BuildError::ProcCountMismatch { .. }));
    }

    #[test]
    fn wrong_stream_count_rejected() {
        /// Declares four processors but builds no streams.
        struct NoStreams;
        impl Workload for NoStreams {
            fn name(&self) -> &str {
                "no streams"
            }
            fn num_procs(&self) -> usize {
                4
            }
            fn build_streams(&self) -> Vec<OpStream> {
                Vec::new()
            }
        }
        let cfg = SystemConfig {
            machine: machine(4),
            ..SystemConfig::default()
        };
        let err = System::new(cfg, &NoStreams).unwrap_err();
        assert_eq!(
            err,
            BuildError::StreamCountMismatch {
                streams: 0,
                procs: 4
            }
        );
    }

    #[test]
    fn zero_predictor_depth_rejected_under_every_policy() {
        for policy in SpecPolicy::ALL {
            let cfg = SystemConfig {
                machine: machine(4),
                policy,
                predictor_depth: 0,
                ..SystemConfig::default()
            };
            let script = Script {
                name: "depth 0",
                ops: vec![vec![]; 4],
            };
            let err = System::new(cfg, &script).unwrap_err();
            assert_eq!(err, BuildError::ZeroPredictorDepth, "{policy:?}");
        }
    }

    #[test]
    fn slow_node_outside_the_machine_rejected() {
        let cfg = SystemConfig {
            faults: Some(FaultPlan {
                slow_nodes: vec![99],
                ..FaultPlan::light(1)
            }),
            ..SystemConfig::default()
        };
        let nodes = cfg.machine.num_nodes;
        let script = Script {
            name: "slow 99",
            ops: vec![vec![]; nodes],
        };
        let err = System::new(cfg, &script).unwrap_err();
        assert_eq!(err, BuildError::SlowNodeOutOfRange { node: 99, nodes });
    }

    #[test]
    fn overflowing_page_stride_is_a_config_error() {
        let mut cfg = SystemConfig::default();
        cfg.machine.page_blocks = 1 << 62;
        let script = Script {
            name: "huge pages",
            ops: vec![vec![]; cfg.machine.num_nodes],
        };
        let err = System::new(cfg, &script).unwrap_err();
        assert!(
            matches!(
                err,
                BuildError::Config(ConfigError::PageStrideOverflow { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn mismatched_barriers_deadlock() {
        let cfg = SystemConfig {
            machine: machine(2),
            ..SystemConfig::default()
        };
        let ops = vec![vec![Op::Compute(5), Op::Barrier], vec![]];
        let err = System::new(cfg, &Script { name: "one", ops })
            .unwrap()
            .try_run()
            .unwrap_err();
        // P1 finishes at cycle 0; P0 reaches the barrier at cycle 5.
        assert_eq!(
            err,
            EngineError::Deadlock {
                cycle: 5,
                blocked: vec![(ProcId(0), Waiting::Barrier { since: 5 })],
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(
            msg.contains("P0 waits at the barrier since cycle 5"),
            "{msg}"
        );
    }

    #[test]
    fn lock_held_at_the_end_deadlocks() {
        // P0 finishes holding L0; P1 asks for it at cycle 10 and waits
        // forever.
        let cfg = SystemConfig {
            machine: machine(2),
            ..SystemConfig::default()
        };
        let ops = vec![
            vec![Op::Lock(LockId(0))],
            vec![Op::Compute(10), Op::Lock(LockId(0))],
        ];
        let err = System::new(cfg, &Script { name: "held", ops })
            .unwrap()
            .try_run()
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::Deadlock {
                cycle: 10,
                blocked: vec![(
                    ProcId(1),
                    Waiting::Lock {
                        lock: LockId(0),
                        since: 10
                    }
                )],
            }
        );
        assert_eq!(
            err.to_string(),
            "deadlock at cycle 10: 1 processor never finished: P1 waits for L0 since cycle 10"
        );
    }

    #[test]
    fn max_cycles_guard_stops_the_run() {
        // The one remote read cannot complete within 10 cycles.
        let cfg = SystemConfig {
            machine: machine(4),
            max_cycles: Some(10),
            ..SystemConfig::default()
        };
        let ops = vec![vec![], vec![Op::Read(homed(0))], vec![], vec![]];
        let err = System::new(cfg, &Script { name: "tiny", ops })
            .unwrap()
            .try_run()
            .unwrap_err();
        assert_eq!(err, EngineError::MaxCycles { limit: 10 });
        assert!(err.to_string().contains("max_cycles"), "{err}");
    }

    #[test]
    fn fr_speculation_forwards_to_predicted_readers() {
        // Repeated producer/consumer phases: producer P0 writes, readers
        // P1..P3 read *staggered in time*. Under FR, once the pattern is
        // learned, the first read triggers pushes to the later readers,
        // whose reads then hit locally.
        let b = homed(0);
        let iters = 10;
        let mut p0 = Vec::new();
        let mut readers: Vec<Vec<Op>> = vec![Vec::new(); 3];
        for _ in 0..iters {
            p0.push(Op::Write(b));
            p0.push(Op::Barrier);
            p0.push(Op::Barrier);
            for (k, r) in readers.iter_mut().enumerate() {
                r.push(Op::Barrier);
                // Stagger so the speculative copies outrun the reads.
                r.push(Op::Compute(2_000 * k as u64));
                r.push(Op::Read(b));
                r.push(Op::Barrier);
            }
        }
        let mut ops = vec![p0];
        ops.extend(readers);
        let base = run_script(4, SpecPolicy::Base, ops.clone());
        let fr = run_script(4, SpecPolicy::FirstRead, ops);
        assert!(fr.spec.fr_sent > 0, "FR sent speculative copies");
        let spec_hits: u64 = fr.per_proc.iter().map(|p| p.spec_read_hits).sum();
        assert!(spec_hits > 0, "some reads were satisfied speculatively");
        assert!(
            fr.exec_cycles <= base.exec_cycles,
            "FR must not slow down a perfectly predictable pattern: {} vs {}",
            fr.exec_cycles,
            base.exec_cycles
        );
    }

    #[test]
    fn swi_speculation_triggers_on_producer_moving_on() {
        // The producer fills a two-block message buffer each iteration,
        // then the consumers read it — the paper's canonical SWI case:
        // writing b2 signals that b1 is done, so SWI invalidates b1
        // early and pushes it to the predicted readers.
        let b1 = homed(0);
        let b2 = homed(0).offset(1);
        let iters = 12;
        let mut p0 = Vec::new();
        let mut rdr = Vec::new();
        for _ in 0..iters {
            p0.push(Op::Write(b1));
            p0.push(Op::Compute(500));
            p0.push(Op::Write(b2));
            p0.push(Op::Barrier);
            p0.push(Op::Barrier);
            rdr.push(Op::Barrier);
            rdr.push(Op::Read(b1));
            rdr.push(Op::Read(b2));
            rdr.push(Op::Barrier);
        }
        let ops = vec![p0, rdr.clone(), rdr.clone(), rdr];
        let swi = run_script(4, SpecPolicy::SwiFr, ops);
        assert!(swi.spec.swi_inval_sent > 0, "SWI invalidations issued");
        assert!(swi.spec.swi_sent > 0, "SWI pushed copies to readers");
    }

    #[test]
    fn spec_policies_preserve_read_values() {
        // All three systems must execute the same program with the same
        // per-processor access counts (speculation is transparent).
        let b = homed(1);
        let ops = || {
            let mut p1 = Vec::new();
            let mut rdr = Vec::new();
            for _ in 0..8 {
                p1.push(Op::Write(b));
                p1.push(Op::Barrier);
                p1.push(Op::Barrier);
                rdr.push(Op::Barrier);
                rdr.push(Op::Read(b));
                rdr.push(Op::Barrier);
            }
            vec![rdr.clone(), p1, rdr.clone(), rdr]
        };
        let runs: Vec<RunStats> = SpecPolicy::ALL
            .iter()
            .map(|&policy| run_script(4, policy, ops()))
            .collect();
        for r in &runs {
            for (i, p) in r.per_proc.iter().enumerate() {
                assert_eq!(
                    p.reads + p.writes,
                    runs[0].per_proc[i].reads + runs[0].per_proc[i].writes,
                    "{}: proc {i} executed a different number of accesses",
                    r.policy
                );
            }
        }
    }

    #[test]
    fn trace_records_requests_and_acks() {
        let b = homed(0);
        let cfg = SystemConfig {
            machine: machine(2),
            record_trace: true,
            ..SystemConfig::default()
        };
        let script = Script {
            name: "trace",
            ops: vec![
                vec![Op::Write(b), Op::Barrier],
                vec![Op::Barrier, Op::Read(b)],
            ],
        };
        let stats = System::new(cfg, &script).unwrap().run();
        let trace = stats.trace.expect("trace recorded");
        assert_eq!(trace.num_blocks(), 1);
        // write + read + the read-triggered writeback ack.
        assert_eq!(trace.total_requests(), 2);
        assert!(trace.total_messages() >= 3);
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    #[test]
    fn lock_hand_off_follows_arrival_order() {
        // All four processors contend on one lock at staggered times:
        // P3 arrives first (cycle 50), then P2, P1 and P0, 50 cycles
        // apart. Each holder's unlock wakes the next arriver in the
        // same cycle and finishes itself one cycle later.
        let b = homed(2);
        let arrival = |p: usize| 50 * (4 - p as u64);
        let ops: Vec<Vec<Op>> = (0..4)
            .map(|p| {
                vec![
                    Op::Compute(arrival(p)),
                    Op::Lock(LockId(3)),
                    Op::Read(b),
                    Op::Write(b),
                    Op::Unlock(LockId(3)),
                ]
            })
            .collect();
        let s = run_script(4, SpecPolicy::Base, ops);
        let finished: Vec<u64> = s.per_proc.iter().map(|p| p.finished_at).collect();
        assert_eq!(finished, [2983, 1936, 1203, 784]);
        assert_eq!(s.per_proc[3].sync_wait, 0, "the first arriver never waits");
        for (waiter, holder) in [(2, 3), (1, 2), (0, 1)] {
            let unlock = s.per_proc[holder].finished_at - 1;
            assert_eq!(
                s.per_proc[waiter].sync_wait,
                unlock - arrival(waiter),
                "P{waiter} waits from its arrival until P{holder}'s unlock"
            );
        }
        let waits: Vec<u64> = s.per_proc.iter().map(|p| p.sync_wait).collect();
        assert_eq!(waits, [1735, 1052, 683, 0]);
    }

    fn assert_same_model_output(a: &RunStats, b: &RunStats, ctx: &str) {
        assert_eq!(a.exec_cycles, b.exec_cycles, "{ctx}: exec_cycles");
        assert_eq!(a.sim_events, b.sim_events, "{ctx}: sim_events");
        assert_eq!(a.remote_messages, b.remote_messages, "{ctx}: messages");
        assert_eq!(a.ni_wait_cycles, b.ni_wait_cycles, "{ctx}: ni_wait");
        assert_eq!(a.mem_wait_cycles, b.mem_wait_cycles, "{ctx}: mem_wait");
        assert_eq!(a.dir_reads, b.dir_reads, "{ctx}: dir_reads");
        assert_eq!(a.dir_writes, b.dir_writes, "{ctx}: dir_writes");
        assert_eq!(a.dir_upgrades, b.dir_upgrades, "{ctx}: dir_upgrades");
        assert_eq!(a.spec, b.spec, "{ctx}: spec stats");
        assert_eq!(a.predictor, b.predictor, "{ctx}: predictor stats");
        assert_eq!(a.per_proc, b.per_proc, "{ctx}: per-proc stats");
    }

    /// A sync- and speculation-heavy script exercising barriers, locks,
    /// invalidations and (under FR/SWI) the speculative paths.
    fn mixed_script(n: usize) -> Vec<Vec<Op>> {
        let m = MachineConfig::with_nodes(n);
        let blocks: Vec<BlockAddr> = (0..n).map(|h| m.page_on(NodeId(h), 0)).collect();
        (0..n)
            .map(|p| {
                let mut ops = Vec::new();
                for it in 0..6u64 {
                    ops.push(Op::Compute(37 * (p as u64 + 1) + 11 * it));
                    // Everyone writes its own block, then reads the
                    // left neighbor's (producer/consumer ring).
                    ops.push(Op::Write(blocks[p]));
                    ops.push(Op::Barrier);
                    ops.push(Op::Read(blocks[(p + n - 1) % n]));
                    ops.push(Op::Compute(13 * (it + 1) * ((p as u64 % 3) + 1)));
                    // Lock-protected reduction on a shared block.
                    ops.push(Op::Lock(LockId(0)));
                    ops.push(Op::Read(blocks[0].offset(7)));
                    ops.push(Op::Write(blocks[0].offset(7)));
                    ops.push(Op::Unlock(LockId(0)));
                    ops.push(Op::Barrier);
                }
                ops
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Fault injection and audit
    // ------------------------------------------------------------------

    use crate::stats::FaultStats;

    /// A plan aggressive enough that a few dozen remote requests are
    /// guaranteed to see drops, duplicates, and delays.
    fn heavy_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            drop_rate: 0.15,
            dup_rate: 0.10,
            delay_rate: 0.20,
            delay_max: 300,
            slow_nodes: vec![1],
            slow_extra: 45,
            ..FaultPlan::new(seed)
        }
    }

    fn run_faulty(
        n: usize,
        policy: SpecPolicy,
        faults: Option<FaultPlan>,
        audit: bool,
        ops: Vec<Vec<Op>>,
    ) -> RunStats {
        let cfg = SystemConfig {
            machine: machine(n),
            policy,
            max_cycles: Some(50_000_000),
            faults,
            audit,
            ..SystemConfig::default()
        };
        System::new(
            cfg,
            &Script {
                name: "faulty",
                ops,
            },
        )
        .expect("valid system")
        .run()
    }

    #[test]
    fn sequential_faulty_run_recovers_under_audit() {
        for policy in SpecPolicy::ALL {
            let s = run_faulty(4, policy, Some(heavy_plan(0xFEED)), true, mixed_script(4));
            assert!(s.faults.drops > 0, "{policy}: {:?}", s.faults);
            assert!(s.faults.retries > 0, "{policy}: {:?}", s.faults);
            assert!(s.faults.recovery_cycles > 0, "{policy}: {:?}", s.faults);
        }
    }

    /// Three training rounds of "P2 writes `b`, then P1 and P3 read
    /// it" teach the online VMSP that P1 and P3 read `b` after P2's
    /// write. In the last round P1 upgrades `b` at cycle
    /// `LATE_UPGRADE_AT` and P2 writes it one cycle later, while P3
    /// first misses on three far blocks and only then reads `b`.
    fn late_upgrade_script() -> Vec<Vec<Op>> {
        let b = homed(0);
        // P2 and P3 stay one cycle clear of the cycles the burst below
        // covers: cycle 0 and P1's upgrade.
        let mut ops = vec![Vec::new(), Vec::new(), vec![Op::Compute(1)], Vec::new()];
        for _ in 0..3 {
            ops[0].extend([Op::Barrier, Op::Barrier]);
            ops[1].extend([Op::Barrier, Op::Read(b), Op::Barrier]);
            ops[2].extend([Op::Write(b), Op::Barrier, Op::Barrier]);
            ops[3].extend([Op::Barrier, Op::Read(b), Op::Barrier]);
        }
        ops[1].push(Op::Write(b));
        ops[2].extend([Op::Compute(1), Op::Write(b)]);
        ops[3].extend([
            Op::Compute(1),
            Op::Read(homed(1)),
            Op::Read(homed(2)),
            Op::Read(homed(1).offset(1)),
            Op::Read(b),
        ]);
        ops
    }

    /// Cycle at which P1 sends the upgrade of the last round.
    const LATE_UPGRADE_AT: u64 = 4_485;

    #[test]
    fn retried_upgrade_finds_no_copy_after_race_rule_drop() {
        // A one-cycle burst drops P1's upgrade and nothing else: it
        // recurs at multiples of its period, where no other request
        // leaves. The long timeout lets the round finish before the
        // retry. P2's write invalidates P1's copy, and P3's read makes
        // FR forward `b` to P1. P1 drops the forward under the race
        // rule (§4.2), yet the directory lists it as a sharer again, so
        // the retry gets an in-place upgrade grant with no copy to
        // promote. Dropping, not delaying, matters: a delayed request
        // would hold its link's FIFO, and P1's invalidation ack would
        // queue behind it.
        let plan = FaultPlan {
            drop_rate: 1.0,
            burst_period: LATE_UPGRADE_AT,
            burst_len: 1,
            retry_timeout: 10_000,
            ..FaultPlan::new(7)
        };
        let s = run_faulty(
            4,
            SpecPolicy::FirstRead,
            Some(plan),
            true,
            late_upgrade_script(),
        );
        assert_eq!(s.faults.drops, 1, "{:?}", s.faults);
        assert_eq!(s.faults.retries, 1, "{:?}", s.faults);
        assert_eq!(s.per_proc[1].upgrades, 1);
        // FR forwards `b` in the second and third rounds and, to P1,
        // in the last one.
        assert_eq!(s.spec.fr_sent, 3, "{:?}", s.spec);
    }

    #[test]
    fn exhausted_retry_budget_is_an_engine_error() {
        // Every remote request is dropped and one retry is allowed, so
        // P1's read goes out twice and is never answered.
        let block = homed(0);
        let cfg = SystemConfig {
            machine: machine(4),
            faults: Some(FaultPlan {
                drop_rate: 1.0,
                retry_cap: 1,
                ..FaultPlan::new(5)
            }),
            ..SystemConfig::default()
        };
        let ops = vec![vec![], vec![Op::Read(block)], vec![], vec![]];
        let err = System::new(cfg, &Script { name: "lossy", ops })
            .unwrap()
            .try_run()
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::RetryBudget {
                proc: ProcId(1),
                block,
                attempts: 2,
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("request retry cap exceeded"), "{msg}");
        assert!(msg.contains("after 2 transmissions"), "{msg}");
    }

    #[test]
    fn duplicates_are_suppressed_at_the_home() {
        // Duplication only, no drops: every duplicate that arrives must
        // be swallowed by the watermark, and nothing needs retrying
        // fast enough to matter.
        let plan = FaultPlan {
            dup_rate: 0.5,
            ..FaultPlan::new(99)
        };
        let s = run_faulty(4, SpecPolicy::Base, Some(plan), true, mixed_script(4));
        assert!(s.faults.duplicates > 0);
        assert_eq!(s.faults.dup_suppressed, s.faults.duplicates);
        assert_eq!(s.faults.drops, 0);
    }

    #[test]
    fn zero_rate_plan_and_audit_are_inert() {
        let base = run_script(4, SpecPolicy::SwiFr, mixed_script(4));
        let z = run_faulty(
            4,
            SpecPolicy::SwiFr,
            Some(FaultPlan::new(3)),
            true,
            mixed_script(4),
        );
        assert_same_model_output(&base, &z, "zero-rate");
        assert_eq!(z.faults, FaultStats::default());
    }

    /// Base-DSM never speculates, so after a whole run no directory
    /// record holds a pending SWI verdict and no cache holds a
    /// speculative copy.
    #[test]
    fn base_run_opens_no_speculation_state() {
        use crate::cache::LineState;
        use crate::spec::SpecVerdict;
        use specdsm_workloads::{AppId, Scale};

        let m = MachineConfig::paper_machine();
        for app in AppId::ALL {
            let w = app.build(&m, Scale::Quick).unwrap();
            let cfg = SystemConfig {
                machine: m.clone(),
                policy: SpecPolicy::Base,
                ..SystemConfig::default()
            };
            let mut sys = System::new(cfg, &*w).expect("valid system");
            sys.simulate().expect("the run finishes");
            for (addr, b) in sys.dir.iter() {
                assert!(
                    b.more.as_ref().is_none_or(|m| m.swi_pending.is_none()),
                    "{app}: {addr} holds an SWI verdict"
                );
            }
            for p in &sys.procs {
                for block in p.cache.lines() {
                    assert!(
                        matches!(
                            p.cache.state(block),
                            Some(
                                LineState::Exclusive
                                    | LineState::Shared {
                                        verdict: SpecVerdict::Demand
                                    }
                            )
                        ),
                        "{app}: {} holds a speculative copy of {block}",
                        p.id()
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Quiescence audit: one corrupted record per invariant
    // ------------------------------------------------------------------

    /// Runs `ops` to quiescence and checks the clean machine once,
    /// then hands it back for corruption.
    fn quiesced(ops: Vec<Vec<Op>>) -> System {
        let cfg = SystemConfig {
            machine: machine(4),
            max_cycles: Some(50_000_000),
            ..SystemConfig::default()
        };
        let mut sys = System::new(cfg, &Script { name: "audit", ops }).expect("valid system");
        sys.simulate().expect("the run finishes");
        sys.check_quiescent().expect("every processor finished");
        sys.check_coherence();
        sys
    }

    /// P1 and P2 hold read-only copies of `homed(0)` at version 0.
    fn shared_by_p1_p2() -> System {
        let b = homed(0);
        quiesced(vec![vec![], vec![Op::Read(b)], vec![Op::Read(b)], vec![]])
    }

    /// P1 holds the writable copy of `homed(0)`.
    fn owned_by_p1() -> System {
        quiesced(vec![vec![], vec![Op::Write(homed(0))], vec![], vec![]])
    }

    #[test]
    fn quiescence_check_reports_a_processor_waiting_for_memory() {
        let mut sys = shared_by_p1_p2();
        let block = homed(0);
        sys.procs[2].blocked = Blocked::Mem {
            block,
            since: Cycle(40),
            kind: ReqKind::Upgrade,
            seq: 2,
            retried: false,
        };
        assert_eq!(
            sys.check_quiescent(),
            Err(EngineError::Deadlock {
                cycle: sys.cur.raw(),
                blocked: vec![(ProcId(2), Waiting::Memory { block, since: 40 })],
            })
        );
    }

    #[test]
    #[should_panic(expected = "transaction still in flight at quiescence")]
    fn audit_rejects_a_transaction_in_flight() {
        let mut sys = shared_by_p1_p2();
        sys.dir.block_mut(homed(0)).busy = Some(crate::directory::Busy::Reply);
        sys.check_coherence();
    }

    #[test]
    #[should_panic(expected = "is Idle but P1 holds a copy")]
    fn audit_rejects_a_copy_of_an_idle_block() {
        let mut sys = shared_by_p1_p2();
        sys.dir.block_mut(homed(0)).state = DirState::Idle;
        sys.check_coherence();
    }

    #[test]
    #[should_panic(expected = "sharer P2 holds Some(Exclusive)")]
    fn audit_rejects_a_sharer_in_the_wrong_state() {
        let mut sys = shared_by_p1_p2();
        sys.procs[2].cache.fill_exclusive(homed(0), 0);
        sys.check_coherence();
    }

    #[test]
    #[should_panic(expected = "stale copy at P1")]
    fn audit_rejects_a_stale_sharer_version() {
        let mut sys = shared_by_p1_p2();
        sys.procs[1].cache.fill_shared(homed(0), 7);
        sys.check_coherence();
    }

    #[test]
    #[should_panic(expected = "sharer P1 holds None")]
    fn audit_rejects_a_sharer_that_lost_its_copy() {
        let mut sys = shared_by_p1_p2();
        sys.procs[1].cache.invalidate(homed(0));
        sys.check_coherence();
    }

    #[test]
    #[should_panic(expected = "non-sharer P3 holds a copy")]
    fn audit_rejects_a_copy_at_a_non_sharer() {
        let mut sys = shared_by_p1_p2();
        sys.procs[3].cache.fill_shared(homed(0), 0);
        sys.check_coherence();
    }

    #[test]
    #[should_panic(expected = "is Idle but P3 holds a copy")]
    fn audit_rejects_a_copy_the_directory_never_saw() {
        let mut sys = shared_by_p1_p2();
        sys.procs[3].cache.fill_shared(homed(1), 0);
        sys.check_coherence();
    }

    #[test]
    #[should_panic(expected = "owner P1 lost its copy")]
    fn audit_rejects_an_owner_without_its_copy() {
        let mut sys = owned_by_p1();
        sys.procs[1].cache.invalidate_exclusive(homed(0));
        sys.check_coherence();
    }

    #[test]
    #[should_panic(expected = "P2 holds a copy besides the owner")]
    fn audit_rejects_a_copy_besides_the_owner() {
        let mut sys = owned_by_p1();
        sys.procs[2].cache.fill_shared(homed(0), 0);
        sys.check_coherence();
    }
}
