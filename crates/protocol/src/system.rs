//! The whole-machine engine: shard composition, execution strategies,
//! and global synchronization.
//!
//! All protocol logic and node-local state live in [`HomeShard`] (see
//! `shard.rs`); this module assembles shards into a machine and drives
//! them under one of two strategies selected by
//! [`SystemConfig::engine`]:
//!
//! * [`EngineConfig::Sequential`] — one shard spanning every node, one
//!   event loop, messages delivered inline. This is the pre-shard
//!   monolithic engine, bit for bit: same event order, same
//!   network-interface serialization, same statistics.
//! * [`EngineConfig::Windowed`] — one shard **per home node**, executed
//!   on the calling thread in conservative bounded-lag windows whose
//!   lookahead is the minimum cross-node message latency
//!   ([`LatencyConfig::one_way`](specdsm_types::LatencyConfig::one_way)):
//!   a message sent inside a window cannot be delivered inside it, so
//!   each shard processes a window on its own and the shards exchange
//!   mailboxes at window barriers, merged in deterministic
//!   `(cycle, source, sequence)` key order. The schedule is a pure
//!   function of the simulated machine, not of the order in which shards
//!   are visited.
//!
//! Synchronization (the barrier and lock managers) is global state the
//! shards cannot touch: a shard yields sync operations and the engine
//! arbitrates them in deterministic `(cycle, processor)` order at
//! window barriers (inline in sequential mode), answering with
//! [`Directive`]s. See `docs/ARCHITECTURE.md` for the full design,
//! including when the windowed engine's tie-breaking can deviate from
//! the sequential engine's.

use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use specdsm_core::SharingPredictor;
use specdsm_sim::Cycle;
use specdsm_types::{ConfigError, FaultPlan, MachineConfig, ProcId, Workload};

use crate::cache::LineState;
use crate::directory::DirState;
use crate::processor::{Blocked, Processor, SyncKind};
use crate::shard::{Directive, HomeShard, InFlight, ShardId, ShardYield, SyncOp};
use crate::spec::{SpecEngine, SpecPolicy};
use crate::stats::RunStats;
use crate::sync::{BarrierManager, LockManager};

/// Execution strategy of the protocol engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineConfig {
    /// A single shard spanning all nodes, run to completion on the
    /// calling thread. Exactly reproduces the historical monolithic
    /// engine. The default.
    #[default]
    Sequential,
    /// Per-home shards under the bounded-lag window scheduler, run on
    /// the calling thread.
    Windowed {
        /// Must be 0 or 1 (both mean the calling thread); any larger
        /// value makes [`System::new`] return
        /// [`BuildError::WorkerThreads`]. The field remains only because
        /// the benchmark constructs it, and goes when the benchmark
        /// stops doing so.
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
    /// Optional safety limit; the run panics if simulated time exceeds
    /// it (guards against workload deadlocks in development).
    pub max_cycles: Option<u64>,
    /// Execution strategy (sequential single-shard by default).
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
    /// [`EngineConfig::Windowed`] asked for more than one thread; the
    /// windowed engine runs on the calling thread only.
    WorkerThreads {
        /// The requested thread count.
        requested: usize,
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
            BuildError::WorkerThreads { requested } => write!(
                f,
                "the windowed engine runs on one thread, but {requested} were requested"
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

/// Fatal failure inside the windowed engine, surfaced structurally by
/// [`System::try_run`] instead of unwinding.
///
/// A shard panics when it hits a protocol assertion, a coherence-audit
/// violation, an exhausted retry budget, or the `max_cycles` guard; the
/// windowed driver catches the unwind around each shard's round and
/// reports *which* shard failed in *which* window. For diagnosis,
/// re-run the same configuration under [`EngineConfig::Sequential`] —
/// the failure replays in one event loop where the full panic
/// backtrace points directly at the offending event.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// A shard's window execution panicked.
    WorkerPanic {
        /// The shard that failed (== its home node id in windowed mode).
        shard: usize,
        /// Floor cycle of the window being executed when it failed.
        window_floor: u64,
        /// The panic message, verbatim.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::WorkerPanic {
                shard,
                window_floor,
                message,
            } => write!(
                f,
                "shard {shard} failed in the window at cycle {window_floor}: {message}"
            ),
        }
    }
}

impl Error for EngineError {}

/// Best-effort extraction of a panic payload's message (panics carry
/// `String` or `&'static str` in practice).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// A complete simulated DSM: processors, caches, directories, network,
/// synchronization, and (optionally) the speculation engine, whose
/// predictor state is one slot-addressed [`Vmsp`](specdsm_core::Vmsp)
/// per shard.
///
/// Build one with [`System::new`] and consume it with [`System::run`].
pub struct System {
    cfg: SystemConfig,
    shards: Vec<HomeShard>,
    barrier: BarrierManager,
    locks: LockManager,
    workload_name: String,
}

/// What one shard publishes at a window barrier.
#[derive(Debug)]
struct ShardReport {
    /// Earliest queued event.
    queue: Option<Cycle>,
    /// Lower bound on the earliest undelivered arrival.
    arrivals: Option<Cycle>,
    /// The parked sync operation, if any (the shard stops dead at it
    /// until the engine arbitrates it).
    op: Option<SyncOp>,
    /// Whether an owned processor is blocked on synchronization.
    sync_blocked: bool,
}

/// One round's marching orders for one shard.
#[derive(Debug, Default)]
struct ShardPlan {
    /// Sync-resolution effects to apply, in order.
    directives: Vec<Directive>,
    /// Whether the shard's parked op was arbitrated; clear its pause.
    resolved: bool,
}

/// One window round, as computed by the deterministic planner.
#[derive(Debug)]
struct Plan {
    /// Global floor: no event anywhere precedes this cycle.
    floor: Cycle,
    /// Exclusive horizon for shards with a sync-blocked processor: one
    /// past the earliest cycle at which *any* sync operation could
    /// still fire (held ops, ops discoverable by running shards, ops
    /// reachable through resumes granted this round) — a later
    /// arbitration may schedule a blocked shard's resume there, and
    /// the shard must not have run past the insertion point. `None`
    /// when no sync source remains (no release can ever happen).
    sync_guard: Option<Cycle>,
    per_shard: Vec<ShardPlan>,
}

fn opt_min(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(x), Some(y)) => Some(x.min(y)),
    }
}

/// Applies one sync operation to the global managers, emitting the
/// resulting directives in exactly the order the sequential engine
/// performs the equivalent state changes and schedules.
fn resolve_sync(
    barrier: &mut BarrierManager,
    locks: &mut LockManager,
    op: SyncOp,
    out: &mut Vec<Directive>,
) {
    match op.kind {
        SyncKind::Barrier => match barrier.arrive(op.proc) {
            Some(released) => {
                for w in released {
                    out.push(Directive::Release { proc: w, at: op.at });
                }
            }
            None => out.push(Directive::Block {
                proc: op.proc,
                at: op.at,
                lock: false,
            }),
        },
        SyncKind::Lock(l) => {
            if locks.acquire(l, op.proc) {
                out.push(Directive::ResumeSelf {
                    proc: op.proc,
                    at: op.at,
                });
            } else {
                out.push(Directive::Block {
                    proc: op.proc,
                    at: op.at,
                    lock: true,
                });
            }
        }
        SyncKind::Unlock(l) => {
            if let Some(next) = locks.release(l, op.proc) {
                out.push(Directive::Release {
                    proc: next,
                    at: op.at,
                });
            }
            out.push(Directive::ResumeSelf {
                proc: op.proc,
                at: op.at,
            });
        }
    }
}

impl System {
    /// Builds a system running `workload` under `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the machine configuration or fault
    /// plan is invalid, the fault plan slows a node outside the machine,
    /// the predictor depth is 0, the workload's processor or stream
    /// count does not match the node count, or the windowed engine is
    /// asked for more than one thread.
    pub fn new(cfg: SystemConfig, workload: &dyn Workload) -> Result<Self, BuildError> {
        cfg.machine.validate()?;
        let n = cfg.machine.num_nodes;
        if let EngineConfig::Windowed { threads } = cfg.engine {
            if threads > 1 {
                return Err(BuildError::WorkerThreads { requested: threads });
            }
        }
        if let Some(plan) = &cfg.faults {
            plan.validate()?;
            if let Some(&node) = plan.slow_nodes.iter().find(|&&node| node >= n) {
                return Err(BuildError::SlowNodeOutOfRange { node, nodes: n });
            }
        }
        if cfg.predictor_depth == 0 {
            return Err(BuildError::ZeroPredictorDepth);
        }
        // Normalize an all-zero plan to "no plan": the fault path is
        // never entered, so such configs stay bit-identical to the
        // reliable engine (no timeout events, no dedup bookkeeping).
        let faults: Option<Arc<FaultPlan>> = cfg
            .faults
            .as_ref()
            .filter(|plan| !plan.is_noop())
            .map(|plan| Arc::new(plan.clone()));
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
        let mut procs: Vec<Processor> = streams
            .into_iter()
            .enumerate()
            .map(|(i, s)| Processor::new(ProcId(i), s, cfg.machine.latency.cache_hit))
            .collect();
        // One shard per home node (windowed), or one for the whole
        // machine (sequential).
        let sharded = matches!(cfg.engine, EngineConfig::Windowed { .. });
        let ranges: Vec<(usize, usize)> = if sharded {
            (0..n).map(|i| (i, i + 1)).collect()
        } else {
            vec![(0, n)]
        };
        let mut shards = Vec::with_capacity(ranges.len());
        for (id, (lo, hi)) in ranges.into_iter().enumerate() {
            let owned: Vec<Processor> = procs.drain(..hi - lo).collect();
            shards.push(HomeShard::new(
                id as ShardId,
                lo,
                hi,
                owned,
                &cfg.machine,
                SpecEngine::new(cfg.policy, cfg.predictor_depth, &cfg.machine),
                cfg.record_trace,
                !sharded,
                cfg.max_cycles,
                faults.clone(),
                cfg.audit,
            ));
        }
        Ok(System {
            shards,
            barrier: BarrierManager::new(n),
            locks: LockManager::new(),
            workload_name: workload.name().to_string(),
            cfg,
        })
    }

    /// Runs the simulation to completion and returns the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the workload deadlocks (all activity drains while
    /// processors are still blocked — e.g. mismatched barrier or lock
    /// usage), if `max_cycles` is exceeded, or on any
    /// [`EngineError`] a windowed run surfaces (the error's message —
    /// naming the failing shard and window — becomes the panic
    /// message).
    pub fn run(self) -> RunStats {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the simulation to completion, surfacing windowed-engine
    /// failures as structured [`EngineError`]s instead of panics.
    ///
    /// A shard panic during windowed execution (protocol assertion,
    /// coherence-audit violation, retry-budget exhaustion, `max_cycles`)
    /// is caught around that shard's round and returned as
    /// [`EngineError::WorkerPanic`] naming the shard and window floor.
    /// Sequential runs are not wrapped: they panic in the caller's
    /// thread with a full backtrace, which is exactly what you want
    /// when replaying a windowed failure for diagnosis.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if a windowed shard fails.
    ///
    /// # Panics
    ///
    /// Panics if the workload deadlocks, or on sequential-engine
    /// failures (see above).
    pub fn try_run(mut self) -> Result<RunStats, EngineError> {
        for shard in &mut self.shards {
            shard.seed();
        }
        match self.cfg.engine {
            EngineConfig::Sequential => self.run_sequential(),
            EngineConfig::Windowed { .. } => self.run_windowed()?,
        }
        self.check_quiescent();
        self.check_coherence();
        Ok(self.into_stats())
    }

    // ------------------------------------------------------------------
    // Sequential driver
    // ------------------------------------------------------------------

    /// Drives the single whole-machine shard to exhaustion, resolving
    /// sync operations inline — at the exact event position the
    /// monolithic engine resolved them.
    fn run_sequential(&mut self) {
        let shard = &mut self.shards[0];
        let mut directives = Vec::new();
        loop {
            match shard.run_until(Cycle(u64::MAX)) {
                ShardYield::Idle => break,
                ShardYield::Sync => {
                    let op = shard.paused.take().expect("yielded sync op");
                    directives.clear();
                    resolve_sync(&mut self.barrier, &mut self.locks, op, &mut directives);
                    for d in directives.drain(..) {
                        shard.apply(d);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Windowed driver
    // ------------------------------------------------------------------

    /// The window lookahead: the minimum latency of any cross-node
    /// message, so nothing sent inside a window can arrive inside it.
    fn lookahead(&self) -> u64 {
        let l = self.cfg.machine.latency.one_way();
        debug_assert!(l >= 1, "validated configs have a non-zero network hop");
        l.max(1)
    }

    fn report(shard: &HomeShard) -> ShardReport {
        ShardReport {
            queue: shard.queue.peek_cycle(),
            arrivals: shard.arrivals_bound(),
            op: shard.paused,
            sync_blocked: shard.has_sync_blocked(),
        }
    }

    /// The deterministic round planner: arbitrates parked sync
    /// operations in `(cycle, processor)` order (holding any that a
    /// still-running shard could yet pre-empt), computes the next
    /// global floor, and packages per-shard directives. Pure function
    /// of published shard state.
    ///
    /// Returns `None` when no activity remains anywhere: the run is
    /// complete.
    fn plan_round(&mut self, reports: &[ShardReport], staged_bound: Option<Cycle>) -> Option<Plan> {
        let mut ops: Vec<SyncOp> = reports.iter().filter_map(|r| r.op).collect();
        ops.sort_unstable_by_key(|o| (o.at, o.proc.0));

        let mut arb_base: Option<Cycle> = staged_bound;
        for r in reports {
            // A parked shard is frozen and cannot discover earlier ops.
            if r.op.is_none() && !r.sync_blocked {
                arb_base = opt_min(arb_base, opt_min(r.queue, r.arrivals));
            }
        }

        let mut per_shard: Vec<ShardPlan> = (0..self.shards.len())
            .map(|_| ShardPlan::default())
            .collect();
        let mut staged_directives = Vec::new();
        let mut resume_floor: Option<Cycle> = None;
        let mut held: Option<Cycle> = None;
        for op in ops {
            let bound = opt_min(arb_base, resume_floor);
            let applicable = bound.is_none_or(|b| op.at < b);
            if applicable {
                staged_directives.clear();
                resolve_sync(
                    &mut self.barrier,
                    &mut self.locks,
                    op,
                    &mut staged_directives,
                );
                for d in staged_directives.drain(..) {
                    // Processor `i` lives on node `i`, the home of shard `i`.
                    per_shard[d.proc().0].directives.push(d);
                }
                per_shard[op.proc.0].resolved = true;
                resume_floor = opt_min(resume_floor, Some(op.at + 1));
            } else {
                held = opt_min(held, Some(op.at));
            }
        }

        // Earliest cycle any sync operation can still fire: a held op, a
        // new op discovered by a runnable shard (≥ `arb_base`), or an op
        // reached through a resume granted this round (≥ `resume_floor`).
        // Monotone across rounds, so "blocked shards never run past
        // `sync_guard`" stays valid for releases at *any* later barrier.
        let sync_guard = opt_min(opt_min(arb_base, resume_floor), held).map(|c| c + 1);

        let mut floor = opt_min(staged_bound, resume_floor);
        floor = opt_min(floor, held.map(|c| c + 1));
        for r in reports {
            floor = opt_min(floor, opt_min(r.queue, r.arrivals));
        }
        floor.map(|floor| Plan {
            floor,
            sync_guard,
            per_shard,
        })
    }

    /// One shard's share of a window round: apply sync resolutions,
    /// merge incoming mail, deliver everything now safe to deliver, and
    /// process the window. The caller routes `shard.outbox` afterwards.
    /// `incoming` is drained in place (its capacity is reused across
    /// rounds — the round loop runs tens of thousands of times).
    fn shard_round(
        shard: &mut HomeShard,
        plan: &mut ShardPlan,
        incoming: &mut Vec<InFlight>,
        floor: Cycle,
        sync_guard: Option<Cycle>,
        lookahead: u64,
    ) {
        if plan.resolved {
            shard.paused = None;
        }
        for d in plan.directives.drain(..) {
            shard.apply(d);
        }
        if !incoming.is_empty() {
            incoming.sort_unstable_by_key(|m| m.key);
            let all_eligible = shard.pending_in.is_empty()
                && incoming.last().expect("non-empty").key.sched < floor.raw();
            if all_eligible {
                shard.deliver_batch(incoming.drain(..));
            } else {
                shard.receive(incoming.drain(..));
            }
        }
        shard.drain_arrivals(floor);
        // A parked shard stops dead until its op resolves.
        if shard.paused.is_none() {
            let window_end = floor + lookahead;
            let horizon = if shard.has_sync_blocked() {
                // The shard's resume may be scheduled at `sync_guard`
                // or later by a future arbitration; it must not have
                // processed past the insertion point by then.
                sync_guard.map_or(window_end, |g| g.min(window_end))
            } else {
                window_end
            };
            shard.run_until(horizon);
        }
    }

    /// Windowed execution: plan a round, run every shard's share of it,
    /// route the mail, repeat until the planner finds no activity.
    fn run_windowed(&mut self) -> Result<(), EngineError> {
        let lookahead = self.lookahead();
        let n = self.shards.len();
        let one_way = self.cfg.machine.latency.one_way();
        // Double-buffered mail staging, per destination shard: `staging`
        // is delivered this round, `next_staging` collects this round's
        // sends. A shard later in the loop must not see mail an earlier
        // one sent this round, so a shard's round depends only on the
        // round's plan and its own state, never on the visiting order.
        let mut staging: Vec<Vec<InFlight>> = (0..n).map(|_| Vec::new()).collect();
        let mut next_staging: Vec<Vec<InFlight>> = (0..n).map(|_| Vec::new()).collect();
        let mut reports: Vec<ShardReport> = Vec::with_capacity(n);
        loop {
            reports.clear();
            reports.extend(self.shards.iter().map(Self::report));
            // Same lower bound as `arrivals_bound`: earliest scheduling
            // action plus the minimum cross-node latency.
            let staged_bound = staging
                .iter()
                .flatten()
                .map(|m| Cycle(m.key.sched) + one_way)
                .min();
            let Some(mut plan) = self.plan_round(&reports, staged_bound) else {
                break;
            };
            for (i, shard) in self.shards.iter_mut().enumerate() {
                // A failing shard is reported by id and window floor,
                // as `EngineError::WorkerPanic`, rather than unwound.
                catch_unwind(AssertUnwindSafe(|| {
                    Self::shard_round(
                        shard,
                        &mut plan.per_shard[i],
                        &mut staging[i],
                        plan.floor,
                        plan.sync_guard,
                        lookahead,
                    );
                }))
                .map_err(|payload| EngineError::WorkerPanic {
                    shard: i,
                    window_floor: plan.floor.raw(),
                    message: panic_message(payload),
                })?;
                for m in shard.outbox.drain(..) {
                    next_staging[m.msg.dst.0].push(m);
                }
            }
            std::mem::swap(&mut staging, &mut next_staging);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // End-of-run checks and statistics
    // ------------------------------------------------------------------

    fn procs(&self) -> impl Iterator<Item = &Processor> + '_ {
        self.shards.iter().flat_map(|s| s.procs.iter())
    }

    /// Cycle of the last event any shard processed.
    fn last_cycle(&self) -> Cycle {
        self.shards
            .iter()
            .map(|s| s.cur)
            .max()
            .unwrap_or(Cycle::ZERO)
    }

    /// Asserts the end-of-run coherence invariants: no in-flight
    /// transactions, directory state consistent with every cache
    /// (sharers hold read-only copies of the memory version, exclusive
    /// owners hold the writable copy, nobody else holds anything).
    ///
    /// Linear in the directory's sharer entries plus the cached lines:
    /// the directory side visits only the holders each record lists,
    /// and the cache side checks each cached line against its home's
    /// record, so a copy the directory does not list — including one
    /// of a block the directory never saw — fails there.
    ///
    /// # Panics
    ///
    /// Panics on any violation — these are protocol bugs, not workload
    /// errors.
    fn check_coherence(&self) {
        // Processor ids are dense and shards own consecutive ranges,
        // so both tables are indexed by node.
        let procs: Vec<&Processor> = self.procs().collect();
        let home_shard: Vec<&HomeShard> = self
            .shards
            .iter()
            .flat_map(|s| (s.lo..s.hi).map(move |_| s))
            .collect();
        for shard in &self.shards {
            shard.dir.check_invariants();
            for (block, blk) in shard.dir.iter() {
                assert!(
                    blk.busy.is_none(),
                    "{block}: transaction still in flight at quiescence"
                );
                match &blk.state {
                    DirState::Idle => {}
                    DirState::Shared(readers) => {
                        for reader in readers.iter() {
                            let cache = procs[reader.0].cache();
                            let cached = cache.state(block);
                            assert!(
                                matches!(cached, Some(LineState::Shared { .. })),
                                "{block}: sharer {reader} holds {cached:?}"
                            );
                            assert_eq!(
                                cache.version(block),
                                Some(blk.version),
                                "{block}: stale copy at {reader}"
                            );
                        }
                    }
                    DirState::Exclusive(owner) => {
                        assert_eq!(
                            procs[owner.0].cache().state(block),
                            Some(LineState::Exclusive),
                            "{block}: owner {owner} lost its copy"
                        );
                    }
                }
            }
        }
        for proc in &procs {
            let id = proc.id();
            for block in proc.cache().lines() {
                let home = self.cfg.machine.home_of(block).0;
                match home_shard[home].dir.state(block) {
                    DirState::Idle => panic!("{block} is Idle but {id} holds a copy"),
                    DirState::Shared(readers) => assert!(
                        readers.contains(id),
                        "{block}: non-sharer {id} holds a copy"
                    ),
                    DirState::Exclusive(owner) => {
                        assert!(id == *owner, "{block}: {id} holds a copy besides the owner")
                    }
                }
            }
        }
    }

    fn check_quiescent(&self) {
        let stuck: Vec<String> = self
            .procs()
            .filter(|p| p.blocked != Blocked::Done)
            .map(|p| format!("{}: {:?}", p.id(), p.blocked))
            .collect();
        if stuck.is_empty() {
            return;
        }
        panic!(
            "deadlock at {}: {} of {} processors never finished: {}",
            self.last_cycle(),
            stuck.len(),
            self.procs().count(),
            stuck.join("; ")
        );
    }

    fn into_stats(self) -> RunStats {
        let cfg = self.cfg;
        let mut per_proc = Vec::with_capacity(self.shards.iter().map(|s| s.procs.len()).sum());
        let mut sim_events = 0;
        let mut remote_messages = 0;
        let mut ni_wait_cycles = 0;
        let mut mem_wait_cycles = 0;
        let mut mem_busy_cycles = 0;
        let mut spec = crate::spec::SpecStats::default();
        let mut faults = crate::stats::FaultStats::default();
        let mut predictor = cfg
            .policy
            .uses_predictor()
            .then(specdsm_core::PredictorStats::default);
        let mut trace = cfg.record_trace.then(specdsm_core::DirectoryTrace::new);
        for shard in self.shards {
            per_proc.extend(shard.procs.iter().map(|p| p.stats));
            sim_events += shard.queue.scheduled_total();
            remote_messages += shard.net.messages_sent();
            ni_wait_cycles += shard.net.ni_wait_cycles();
            mem_wait_cycles += shard
                .mems
                .iter()
                .map(specdsm_sim::FifoResource::wait_cycles)
                .sum::<u64>();
            mem_busy_cycles += shard
                .mems
                .iter()
                .map(specdsm_sim::FifoResource::busy_cycles)
                .sum::<u64>();
            spec += shard.spec.stats;
            faults += shard.fstats;
            if let Some(total) = &mut predictor {
                *total += shard.spec.vmsp.stats();
            }
            if let (Some(total), Some(t)) = (&mut trace, shard.trace) {
                total.merge(t);
            }
        }
        let exec_cycles = per_proc.iter().map(|p| p.finished_at).max().unwrap_or(0);
        // Retries plus home-side duplicate suppression deliver each miss
        // to its home exactly once, so the homes saw every miss.
        let dir_reads = per_proc.iter().map(|p| p.read_misses).sum();
        let dir_writes = per_proc.iter().map(|p| p.write_misses).sum();
        let dir_upgrades = per_proc.iter().map(|p| p.upgrades).sum();
        RunStats {
            workload: self.workload_name,
            policy: cfg.policy,
            exec_cycles,
            sim_events,
            per_proc,
            remote_messages,
            ni_wait_cycles,
            mem_wait_cycles,
            mem_busy_cycles,
            dir_reads,
            dir_writes,
            dir_upgrades,
            spec,
            faults,
            predictor,
            trace,
        }
    }
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("workload", &self.workload_name)
            .field("policy", &self.cfg.policy)
            .field("engine", &self.cfg.engine)
            .field("shards", &self.shards.len())
            .field(
                "done",
                &self.procs().filter(|p| p.blocked == Blocked::Done).count(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdsm_types::{BlockAddr, LockId, NodeId, Op, OpStream};

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

    fn run_script_on(
        n: usize,
        policy: SpecPolicy,
        engine: EngineConfig,
        ops: Vec<Vec<Op>>,
    ) -> RunStats {
        let cfg = SystemConfig {
            machine: machine(n),
            policy,
            engine,
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

    fn run_script(n: usize, policy: SpecPolicy, ops: Vec<Vec<Op>>) -> RunStats {
        run_script_on(n, policy, EngineConfig::Sequential, ops)
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
    #[should_panic(expected = "deadlock")]
    fn mismatched_barriers_deadlock() {
        let _ = run_script(2, SpecPolicy::Base, vec![vec![Op::Barrier], vec![]]);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn mismatched_barriers_deadlock_windowed() {
        let _ = run_script_on(
            2,
            SpecPolicy::Base,
            EngineConfig::Windowed { threads: 1 },
            vec![vec![Op::Barrier], vec![]],
        );
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
    // Windowed (sharded) engine
    // ------------------------------------------------------------------

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

    #[test]
    fn windowed_matches_sequential_on_mixed_script() {
        for policy in SpecPolicy::ALL {
            let seq = run_script_on(4, policy, EngineConfig::Sequential, mixed_script(4));
            let win = run_script_on(
                4,
                policy,
                EngineConfig::Windowed { threads: 1 },
                mixed_script(4),
            );
            assert_same_model_output(&seq, &win, &format!("{policy}"));
        }
    }

    #[test]
    fn windowed_threads_zero_and_one_are_identical() {
        let run = |threads| {
            run_script_on(
                8,
                SpecPolicy::SwiFr,
                EngineConfig::Windowed { threads },
                mixed_script(8),
            )
        };
        assert_eq!(format!("{:?}", run(0)), format!("{:?}", run(1)));
    }

    #[test]
    fn windowed_rejects_worker_threads() {
        let cfg = SystemConfig {
            machine: machine(4),
            engine: EngineConfig::Windowed { threads: 2 },
            ..SystemConfig::default()
        };
        let err = System::new(
            cfg,
            &Script {
                name: "threads",
                ops: vec![vec![]; 4],
            },
        )
        .unwrap_err();
        assert_eq!(err, BuildError::WorkerThreads { requested: 2 });
    }

    #[test]
    fn windowed_matches_sequential_remote_read_latency() {
        let b = homed(0);
        let stats = run_script_on(
            4,
            SpecPolicy::Base,
            EngineConfig::Windowed { threads: 1 },
            vec![vec![], vec![Op::Read(b)], vec![], vec![]],
        );
        assert_eq!(stats.per_proc[1].mem_wait, 418);
    }

    #[test]
    fn windowed_lock_fairness_matches_sequential() {
        // All four processors contend on one lock at staggered times;
        // grant order (and therefore total sync wait) must match the
        // sequential engine exactly.
        let b = homed(2);
        let ops: Vec<Vec<Op>> = (0..4)
            .map(|p| {
                vec![
                    Op::Compute(50 * (4 - p as u64)),
                    Op::Lock(LockId(3)),
                    Op::Read(b),
                    Op::Write(b),
                    Op::Unlock(LockId(3)),
                    Op::Barrier,
                ]
            })
            .collect();
        let seq = run_script_on(4, SpecPolicy::Base, EngineConfig::Sequential, ops.clone());
        let win = run_script_on(
            4,
            SpecPolicy::Base,
            EngineConfig::Windowed { threads: 1 },
            ops,
        );
        assert_same_model_output(&seq, &win, "lock contention");
    }

    // ------------------------------------------------------------------
    // Fault injection, audit, and engine degradation
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
        engine: EngineConfig,
        faults: Option<FaultPlan>,
        audit: bool,
        ops: Vec<Vec<Op>>,
    ) -> RunStats {
        let cfg = SystemConfig {
            machine: machine(n),
            policy,
            engine,
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
        let s = run_faulty(
            4,
            SpecPolicy::Base,
            EngineConfig::Sequential,
            Some(heavy_plan(0xFEED)),
            true,
            mixed_script(4),
        );
        assert!(s.faults.drops > 0, "drops observed: {:?}", s.faults);
        assert!(s.faults.retries > 0, "retries observed: {:?}", s.faults);
        assert!(
            s.faults.recovery_cycles > 0,
            "recovery wait accounted: {:?}",
            s.faults
        );
    }

    #[test]
    fn windowed_faulty_run_recovers_under_audit() {
        for policy in SpecPolicy::ALL {
            let s = run_faulty(
                4,
                policy,
                EngineConfig::Windowed { threads: 1 },
                Some(heavy_plan(0xFEED)),
                true,
                mixed_script(4),
            );
            assert!(s.faults.drops > 0, "{policy}: {:?}", s.faults);
            assert!(s.faults.retries > 0, "{policy}: {:?}", s.faults);
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
            EngineConfig::Sequential,
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
    fn duplicates_are_suppressed_at_the_home() {
        // Duplication only, no drops: every duplicate that arrives must
        // be swallowed by the watermark, and nothing needs retrying
        // fast enough to matter.
        let plan = FaultPlan {
            dup_rate: 0.5,
            ..FaultPlan::new(99)
        };
        let s = run_faulty(
            4,
            SpecPolicy::Base,
            EngineConfig::Sequential,
            Some(plan),
            true,
            mixed_script(4),
        );
        assert!(s.faults.duplicates > 0);
        assert_eq!(s.faults.dup_suppressed, s.faults.duplicates);
        assert_eq!(s.faults.drops, 0);
    }

    #[test]
    fn zero_rate_plan_and_audit_are_inert() {
        for engine in [
            EngineConfig::Sequential,
            EngineConfig::Windowed { threads: 1 },
        ] {
            let base = run_script_on(4, SpecPolicy::SwiFr, engine, mixed_script(4));
            let z = run_faulty(
                4,
                SpecPolicy::SwiFr,
                engine,
                Some(FaultPlan::new(3)),
                true,
                mixed_script(4),
            );
            assert_same_model_output(&base, &z, &format!("{engine:?} zero-rate"));
            assert_eq!(z.faults, FaultStats::default());
        }
    }

    /// A windowed system whose one remote read cannot complete within
    /// its 10-cycle `max_cycles` budget, so the shard delivering past
    /// the limit trips the guard.
    fn windowed_over_budget() -> System {
        let cfg = SystemConfig {
            machine: machine(4),
            max_cycles: Some(10),
            engine: EngineConfig::Windowed { threads: 1 },
            ..SystemConfig::default()
        };
        let ops = vec![vec![], vec![Op::Read(homed(0))], vec![], vec![]];
        System::new(cfg, &Script { name: "tiny", ops }).unwrap()
    }

    #[test]
    fn windowed_failure_surfaces_as_engine_error() {
        // The windowed driver must catch and name the failure, not
        // unwind.
        let msg = windowed_over_budget().try_run().unwrap_err().to_string();
        assert!(msg.contains("max_cycles"), "inner message kept: {msg}");
        assert!(msg.contains("shard"), "failing shard named: {msg}");
    }

    #[test]
    #[should_panic(expected = "max_cycles")]
    fn run_panics_on_windowed_failure() {
        let _ = windowed_over_budget().run();
    }

    #[test]
    fn windowed_trace_merges_across_shards() {
        let b = homed(0);
        let cfg = SystemConfig {
            machine: machine(2),
            record_trace: true,
            engine: EngineConfig::Windowed { threads: 1 },
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
        assert_eq!(trace.total_requests(), 2);
    }

    // ------------------------------------------------------------------
    // Quiescence audit: one corrupted record per invariant
    // ------------------------------------------------------------------

    /// Runs `ops` to quiescence on the sequential engine and checks the
    /// clean machine once, then hands it back for corruption.
    fn quiesced(ops: Vec<Vec<Op>>) -> System {
        let cfg = SystemConfig {
            machine: machine(4),
            max_cycles: Some(50_000_000),
            ..SystemConfig::default()
        };
        let mut sys = System::new(cfg, &Script { name: "audit", ops }).expect("valid system");
        for shard in &mut sys.shards {
            shard.seed();
        }
        sys.run_sequential();
        sys.check_quiescent();
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
    #[should_panic(expected = "transaction still in flight at quiescence")]
    fn audit_rejects_a_transaction_in_flight() {
        let mut sys = shared_by_p1_p2();
        sys.shards[0].dir.block_mut(homed(0)).busy = Some(crate::directory::Busy::Reply);
        sys.check_coherence();
    }

    #[test]
    #[should_panic(expected = "is Idle but P1 holds a copy")]
    fn audit_rejects_a_copy_of_an_idle_block() {
        let mut sys = shared_by_p1_p2();
        sys.shards[0].dir.block_mut(homed(0)).state = DirState::Idle;
        sys.check_coherence();
    }

    #[test]
    #[should_panic(expected = "sharer P2 holds Some(Exclusive)")]
    fn audit_rejects_a_sharer_in_the_wrong_state() {
        let mut sys = shared_by_p1_p2();
        sys.shards[0].procs[2].cache.fill_exclusive(homed(0), 0);
        sys.check_coherence();
    }

    #[test]
    #[should_panic(expected = "stale copy at P1")]
    fn audit_rejects_a_stale_sharer_version() {
        let mut sys = shared_by_p1_p2();
        sys.shards[0].procs[1].cache.fill_shared(homed(0), 7);
        sys.check_coherence();
    }

    #[test]
    #[should_panic(expected = "sharer P1 holds None")]
    fn audit_rejects_a_sharer_that_lost_its_copy() {
        let mut sys = shared_by_p1_p2();
        sys.shards[0].procs[1].cache.invalidate(homed(0));
        sys.check_coherence();
    }

    #[test]
    #[should_panic(expected = "non-sharer P3 holds a copy")]
    fn audit_rejects_a_copy_at_a_non_sharer() {
        let mut sys = shared_by_p1_p2();
        sys.shards[0].procs[3].cache.fill_shared(homed(0), 0);
        sys.check_coherence();
    }

    #[test]
    #[should_panic(expected = "is Idle but P3 holds a copy")]
    fn audit_rejects_a_copy_the_directory_never_saw() {
        let mut sys = shared_by_p1_p2();
        sys.shards[0].procs[3].cache.fill_shared(homed(1), 0);
        sys.check_coherence();
    }

    #[test]
    #[should_panic(expected = "owner P1 lost its copy")]
    fn audit_rejects_an_owner_without_its_copy() {
        let mut sys = owned_by_p1();
        sys.shards[0].procs[1].cache.invalidate_exclusive(homed(0));
        sys.check_coherence();
    }

    #[test]
    #[should_panic(expected = "P2 holds a copy besides the owner")]
    fn audit_rejects_a_copy_besides_the_owner() {
        let mut sys = owned_by_p1();
        sys.shards[0].procs[2].cache.fill_shared(homed(0), 0);
        sys.check_coherence();
    }
}
