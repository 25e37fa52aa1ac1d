//! One pass of a workload's operations, shared by the untraced and the
//! traced runs: set up the inputs and `System`s, run them, replay traces.

use std::time::Instant;

use specdsm_core::{evaluate_trace, DirectoryTrace, PredictorKind, TraceEval};
use specdsm_protocol::{RunStats, SpecPolicy, System, SystemConfig};

use crate::cases::{policy_tag, Suite};
use crate::check::{self, Issued, Tally};
use crate::heap;
use crate::trace::Tracer;

/// History depths the predictors are replayed at.
pub const DEPTHS: [usize; 3] = [1, 2, 4];

/// A simulation that passed its checks: application index, policy, and
/// statistics.
pub type Run = (usize, SpecPolicy, RunStats);

/// One simulation's outcome.
pub struct Sim {
    pub app: usize,
    pub policy: SpecPolicy,
    pub outcome: Result<RunStats, String>,
}

/// The result of simulating a suite under some policies.
pub struct Sims {
    /// Host seconds in `System::try_run`, summed over simulations.
    pub run_s: f64,
    /// Simulated events, summed over successful simulations.
    pub events: u64,
    /// Heap high-water mark of each simulation above the heap live when
    /// it started, summed over simulations.
    pub heap: u64,
    pub sims: Vec<Sim>,
}

/// Systems built for one pass, not yet run.
pub struct Setup {
    /// Host seconds to build the inputs and every `System`.
    pub setup_s: f64,
    systems: Vec<(u32, usize, SpecPolicy, Result<System, String>)>,
}

/// Builds `suite`'s inputs and one `System` per application and policy,
/// on the sequential engine unless `edit` says otherwise.
pub fn setup(
    suite: &Suite,
    policies: &[SpecPolicy],
    edit: &dyn Fn(&mut SystemConfig),
    tracer: &mut Tracer,
) -> Setup {
    let t = Instant::now();
    let systems = tracer.span("bench.setup", |tr| {
        let inputs = tr.span("workloads.build", |_| (suite.build(), suite.len() as u64));
        let mut systems = Vec::new();
        for (app, workload) in inputs.iter().enumerate() {
            for &policy in policies {
                let op = tr.fresh_op();
                let mut cfg = suite.config(policy);
                edit(&mut cfg);
                let system = tr.span("protocol.new", |_| {
                    (check::build(cfg, workload.as_ref()), 1)
                });
                systems.push((op, app, policy, system));
            }
        }
        (systems, 0)
    });
    Setup {
        setup_s: t.elapsed().as_secs_f64(),
        systems,
    }
}

/// Runs every system of a set-up; run spans are named
/// `protocol.run.{policy}`.
pub fn run(setup: Setup, tracer: &mut Tracer) -> Sims {
    let t = Instant::now();
    let mut heap_sum = 0;
    let (sims, events) = tracer.span("bench.run", |tr| {
        let mut events = 0;
        let sims = setup
            .systems
            .into_iter()
            .map(|(op, app, policy, system)| {
                tr.set_op(op);
                let name = format!("protocol.run.{}", policy_tag(policy));
                let (outcome, heap) = tr.span(&name, |_| {
                    let (outcome, heap) = heap::growth(|| system.and_then(check::simulate));
                    let n = outcome.as_ref().map_or(0, |s| s.sim_events);
                    ((outcome, heap), n)
                });
                heap_sum += heap;
                events += outcome.as_ref().map_or(0, |s| s.sim_events);
                Sim {
                    app,
                    policy,
                    outcome,
                }
            })
            .collect::<Vec<_>>();
        ((sims, events), events)
    });
    Sims {
        run_s: t.elapsed().as_secs_f64(),
        events,
        heap: heap_sum,
        sims,
    }
}

/// [`setup`] then [`run`].
pub fn simulate(
    suite: &Suite,
    policies: &[SpecPolicy],
    edit: &dyn Fn(&mut SystemConfig),
    tracer: &mut Tracer,
) -> Sims {
    run(setup(suite, policies, edit, tracer), tracer)
}

/// Checks every simulation of a pass and counts it in `tally`: the
/// per-run checks, identical accesses across policies of one app, and,
/// when `reference` holds an earlier pass, identical simulated outputs.
/// Returns the statistics of the simulations that passed.
pub fn check_sims(
    sims: Sims,
    issued: &[Issued],
    reference: &mut Option<Vec<String>>,
    tally: &mut Tally,
) -> Vec<Run> {
    let prints: Vec<String> = sims
        .sims
        .iter()
        .map(|s| s.outcome.as_ref().map_or(String::new(), check::fingerprint))
        .collect();
    let reference = reference.get_or_insert_with(|| prints.clone());
    // Reads and writes issued must be identical across the policies of one app.
    let mut first_of_app: Vec<Option<Issued>> = vec![None; issued.len()];
    let mut passed = Vec::new();
    for (i, sim) in sims.sims.into_iter().enumerate() {
        let outcome = sim.outcome.and_then(|stats| {
            check::run(&stats, &issued[sim.app])?;
            if first_of_app[sim.app]
                .as_ref()
                .is_some_and(|rw| *rw != check::accesses(&stats))
            {
                return Err(format!(
                    "{} {:?}: reads/writes differ from another policy's run of the same app",
                    stats.workload, sim.policy
                ));
            }
            if prints[i] != reference[i] {
                return Err(format!(
                    "{} {:?}: simulated outputs differ from an earlier pass of the same inputs",
                    stats.workload, sim.policy
                ));
            }
            Ok(stats)
        });
        if let Some(stats) = tally.record("simulation", outcome) {
            first_of_app[sim.app].get_or_insert_with(|| check::accesses(&stats));
            passed.push((sim.app, sim.policy, stats));
        }
    }
    passed
}

/// Lower-case predictor name, as used in metric and span names.
pub fn kind_tag(kind: PredictorKind) -> String {
    kind.to_string().to_lowercase()
}

/// What a pass of replays did.
pub struct Replays {
    pub secs: f64,
    pub msgs: u64,
    /// Heap high-water mark of each replay above the heap live when it
    /// started, summed over replays.
    pub heap: u64,
    /// Evaluations in `(trace, kind, depth)` order.
    pub evals: Vec<TraceEval>,
}

/// Replays every trace through each predictor kind at each depth.
pub fn replay(
    traces: &[DirectoryTrace],
    kinds: &[PredictorKind],
    depths: &[usize],
    nprocs: usize,
    tracer: &mut Tracer,
) -> Replays {
    let t = Instant::now();
    let (mut msgs, mut heap) = (0, 0);
    let mut evals = Vec::with_capacity(traces.len() * kinds.len() * depths.len());
    for trace in traces {
        let n = trace.total_messages();
        for &kind in kinds {
            for &depth in depths {
                tracer.fresh_op();
                let name = format!("core.replay.{}.d{depth}", kind_tag(kind));
                let (eval, bytes) = tracer.span(&name, |_| {
                    (
                        heap::growth(|| evaluate_trace(trace, kind, depth, nprocs)),
                        n,
                    )
                });
                evals.push(eval);
                msgs += n;
                heap += bytes;
            }
        }
    }
    Replays {
        secs: t.elapsed().as_secs_f64(),
        msgs,
        heap,
        evals,
    }
}

/// Checks a pass of replays and counts each in `tally`.
pub fn check_replays(evals: &[TraceEval], reference: &mut Option<Vec<String>>, tally: &mut Tally) {
    let prints: Vec<String> = evals
        .iter()
        .map(|e| format!("{:?} {:?}", e.stats, e.storage))
        .collect();
    let reference = reference.get_or_insert_with(|| prints.clone());
    for (i, eval) in evals.iter().enumerate() {
        let outcome = check::predictor(&eval.stats).and_then(|()| {
            if prints[i] == reference[i] {
                Ok(())
            } else {
                Err(format!(
                    "{} d{}: replay differs from an earlier pass",
                    eval.kind, eval.depth
                ))
            }
        });
        tally.record("replay", outcome);
    }
}

/// Records each application's directory trace under `policy`.
pub fn record(
    suite: &Suite,
    policy: SpecPolicy,
    issued: &[Issued],
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Vec<DirectoryTrace> {
    let sims = simulate(suite, &[policy], &|c| c.record_trace = true, tracer);
    check_sims(sims, issued, &mut None, tally)
        .into_iter()
        .filter_map(|(_, _, stats)| stats.trace)
        .collect()
}

/// Online VMSP accuracy pooled over every run that had a predictor.
pub fn online_accuracy(runs: &[Run]) -> f64 {
    let (correct, predicted) = runs
        .iter()
        .filter_map(|(_, _, s)| s.predictor)
        .fold((0, 0), |(c, p), s| (c + s.correct, p + s.predicted));
    crate::trace::ratio(correct as f64, predicted as f64)
}

/// Geometric mean over applications of Base `exec_cycles` divided by
/// SWI+FR `exec_cycles`.
pub fn swi_speedup(runs: &[Run]) -> f64 {
    let exec = |app: usize, policy: SpecPolicy| {
        runs.iter()
            .find(|(a, p, _)| *a == app && *p == policy)
            .map(|(_, _, s)| s.exec_cycles as f64)
    };
    let apps = runs.iter().map(|(a, _, _)| *a).max().map_or(0, |m| m + 1);
    let logs: Vec<f64> = (0..apps)
        .filter_map(|app| Some((exec(app, SpecPolicy::Base)? / exec(app, SpecPolicy::SwiFr)?).ln()))
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}
