//! The traced run: spans around every call into `workloads`, `protocol`,
//! `core` and `sim`, and the per-layer metrics derived from them.
//!
//! Generic layer metrics come from the selected workload's own
//! applications, run under all three policies. The fault/audit metrics
//! always come from the `faulty16` applications, and the 256-node VMSP
//! and windowed-engine metrics from the `wide256` applications, at the
//! run's size and seed. See the layer map in `perfbench/README.md`.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use specdsm_core::PredictorKind;
use specdsm_protocol::{EngineConfig, RunStats, SpecPolicy};
use specdsm_sim::{Cycle, KeyedQueue, SchedKey};

use crate::bed::{oracle, Bed};
use crate::cases::{policy_tag, Bench, Size, Suite};
use crate::check::{self, Tally};
use crate::pass::{self, kind_tag, DEPTHS};
use crate::report::Metric;
use crate::trace::{ratio, Tracer};

/// Traced and untraced passes of the workload, alternated, for
/// `bench.trace_overhead`: traced wall divided by untraced wall.
fn trace_overhead(bed: &Bed, seconds: u64, tally: &mut Tally) -> f64 {
    let mut reference = None;
    let mut walls = [0.0; 2];
    let start = Instant::now();
    loop {
        for traced in [false, true, true, false] {
            let mut tracer = Tracer::new(traced);
            walls[usize::from(traced)] +=
                bed.checked_pass(&mut tracer, &mut reference, tally).wall_s;
        }
        if start.elapsed() >= Duration::from_secs(seconds / 2) {
            return ratio(walls[1], walls[0]);
        }
    }
}

/// `KeyedQueue::schedule` plus `pop`, `events` times, with `occupancy`
/// events pending throughout.
fn queue(tracer: &mut Tracer, name: &str, occupancy: u64, events: u64) {
    let mut q = KeyedQueue::new();
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    let mut delay = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        1 + x % 512
    };
    for seq in 0..occupancy {
        q.schedule(
            Cycle(delay()),
            SchedKey {
                sched: 0,
                src: 0,
                seq,
            },
            seq,
        );
    }
    tracer.span(name, |_| {
        for seq in occupancy..occupancy + events {
            let (at, e) = q.pop().expect("the queue stays at its occupancy");
            let key = SchedKey {
                sched: at.0,
                src: 0,
                seq,
            };
            q.schedule(Cycle(at.0 + delay()), key, e);
        }
        black_box(q.len());
        ((), events)
    });
}

/// Simulates `suite` under `policies` inside a span named `phase`, checks
/// the runs, and returns the statistics of those that passed.
fn sims_in(
    tracer: &mut Tracer,
    phase: &str,
    suite: &Suite,
    policies: &[SpecPolicy],
    engine: EngineConfig,
    tally: &mut Tally,
) -> Vec<RunStats> {
    let issued = oracle(suite);
    tracer.span(phase, |tr| {
        let sims = pass::simulate(suite, policies, &|c| c.engine = engine, tr);
        let events = sims.events;
        let runs = pass::check_sims(sims, &issued, &mut None, tally);
        (runs.into_iter().map(|(_, _, s)| s).collect(), events)
    })
}

/// Replays `suite`'s directory traces under `policy` through the given
/// predictors inside a span named `phase`. Returns the spilled reader-set
/// bytes the predictors held, summed over replays.
fn replays_in(
    tracer: &mut Tracer,
    phase: &str,
    suite: &Suite,
    policy: SpecPolicy,
    kinds: &[PredictorKind],
    depths: &[usize],
    tally: &mut Tally,
) -> u64 {
    let issued = oracle(suite);
    tracer.span(phase, |tr| {
        let traces = pass::record(suite, policy, &issued, tally, tr);
        let replays = pass::replay(&traces, kinds, depths, suite.machine.num_nodes, tr);
        pass::check_replays(&replays.evals, &mut None, tally);
        let spill = replays.evals.iter().map(|e| e.storage.spill_bytes).sum();
        (spill, replays.msgs)
    })
}

/// Seconds per event over the `protocol.run.*` spans under `phase`.
fn secs_per_event(tracer: &Tracer, phase: &str) -> f64 {
    let (secs, events) = SpecPolicy::ALL
        .iter()
        .map(|&p| tracer.total_in(phase, &format!("protocol.run.{}", policy_tag(p))))
        .fold((0.0, 0), |(t, n), (s, e)| (t + s, n + e));
    ratio(secs, events as f64)
}

pub fn measure(
    bench: Bench,
    size: Size,
    seed: u64,
    seconds: u64,
    spans: &Path,
    tally: &mut Tally,
) -> Vec<Metric> {
    let bed = Bed::new(bench, size, seed, tally);
    let overhead = trace_overhead(&bed, seconds, tally);
    let suite = &bed.suite;
    let seq = EngineConfig::Sequential;
    let mut tr = Tracer::new(true);

    // workloads: generate every stream outside the simulator.
    tr.span("layer.gen", |tr| {
        let inputs = tr.span("workloads.build", |_| (suite.build(), suite.len() as u64));
        let ops = tr.span("workloads.gen", |_| {
            let ops = inputs.iter().map(|w| check::issued(w.as_ref()).1).sum();
            (ops, ops)
        });
        ((), ops)
    });

    // protocol: the workload's applications under every policy.
    let runs = sims_in(&mut tr, "layer.sweep", suite, &SpecPolicy::ALL, seq, tally);
    let sum = |f: &dyn Fn(&RunStats) -> u64| -> u64 { runs.iter().map(f).sum() };
    let sum_if = |policy: SpecPolicy, f: &dyn Fn(&RunStats) -> u64| -> u64 {
        runs.iter().filter(|s| s.policy == policy).map(f).sum()
    };
    let events = sum(&|s| s.sim_events);

    // core: every predictor over the Base traces, and VMSP over FR's own.
    replays_in(
        &mut tr,
        "layer.replay",
        suite,
        SpecPolicy::Base,
        &PredictorKind::ALL,
        &DEPTHS,
        tally,
    );
    replays_in(
        &mut tr,
        "layer.fr_vmsp",
        suite,
        SpecPolicy::FirstRead,
        &[PredictorKind::Vmsp],
        &[1],
        tally,
    );

    // The 256-node machine: VMSP over wide traces, windowed vs sequential.
    let wide = Suite::of(Bench::Wide256, size, seed);
    let spill = replays_in(
        &mut tr,
        "probe.wide",
        &wide,
        SpecPolicy::Base,
        &[PredictorKind::Vmsp],
        &[1],
        tally,
    );
    sims_in(&mut tr, "probe.seq", &wide, &[SpecPolicy::Base], seq, tally);
    let windowed = EngineConfig::Windowed { threads: 1 };
    sims_in(
        &mut tr,
        "probe.windowed1t",
        &wide,
        &[SpecPolicy::Base],
        windowed,
        tally,
    );

    // Faults and the auditor, against the same applications without them.
    let faulty = Suite::of(Bench::Faulty16, size, seed);
    let policies = [SpecPolicy::Base, SpecPolicy::SwiFr];
    let fault_runs = sims_in(&mut tr, "probe.faulty", &faulty, &policies, seq, tally);
    sims_in(
        &mut tr,
        "probe.reliable",
        &faulty.reliable(),
        &policies,
        seq,
        tally,
    );
    let faults = |f: &dyn Fn(&RunStats) -> u64| -> u64 { fault_runs.iter().map(f).sum() };

    // sim: the event queue alone, for the sweep's event count.
    tr.span("layer.queue", |tr| {
        queue(tr, "sim.queue.n16", 16, events);
        queue(tr, "sim.queue.n256", 256, events);
        ((), 2 * events)
    });

    let (base, fr, swi) = (SpecPolicy::Base, SpecPolicy::FirstRead, SpecPolicy::SwiFr);
    let run_s =
        |p: SpecPolicy| tr.total_in("layer.sweep", &format!("protocol.run.{}", policy_tag(p)));
    let ns_per_event = |p: SpecPolicy| {
        let (secs, events) = run_s(p);
        ratio(secs * 1e9, events as f64)
    };
    let gen = tr.total_in("layer.gen", "workloads.gen");
    let accesses = sum(&|s| s.per_proc.iter().map(|p| p.reads + p.writes).sum());
    let remote = sum(&|s| s.remote_messages);
    let spec_runs = |f: &dyn Fn(&RunStats) -> u64| sum_if(fr, f) + sum_if(swi, f);
    let sent = spec_runs(&|s| s.spec.total_sent());
    let fr_vmsp_s = tr.total_in("layer.fr_vmsp", "core.replay.vmsp.d1").0;
    let windowed_s = tr.total_in("probe.windowed1t", "protocol.run.base").0;
    let seq_s = tr.total_in("probe.seq", "protocol.run.base").0;

    let mut m = vec![
        Metric::new("workloads.gen_s", gen.0, "s"),
        Metric::new("workloads.ops", gen.1 as f64, "count"),
        Metric::new(
            "protocol.new_s",
            tr.total_in("layer.sweep", "protocol.new").0,
            "s",
        ),
    ];
    for p in SpecPolicy::ALL {
        m.push(Metric::new(
            format!("protocol.run_s.{}", policy_tag(p)),
            run_s(p).0,
            "s",
        ));
    }
    for p in SpecPolicy::ALL {
        m.push(Metric::new(
            format!("protocol.ns_per_event.{}", policy_tag(p)),
            ns_per_event(p),
            "ns",
        ));
    }
    m.extend([
        Metric::new("protocol.events", events as f64, "count"),
        Metric::new("protocol.remote_messages", remote as f64, "count"),
        Metric::new(
            "protocol.ni_wait_cycles",
            sum(&|s| s.ni_wait_cycles) as f64,
            "cycles",
        ),
        Metric::new(
            "protocol.dir_requests",
            sum(&|s| s.dir_reads + s.dir_writes + s.dir_upgrades) as f64,
            "count",
        ),
        Metric::new(
            "protocol.remote_msgs_per_op",
            ratio(remote as f64, accesses as f64),
            "ratio",
        ),
        Metric::new(
            "protocol.spec.overhead_fr",
            ratio(ns_per_event(fr), ns_per_event(base)),
            "ratio",
        ),
        Metric::new(
            "protocol.spec.overhead_swi",
            ratio(ns_per_event(swi), ns_per_event(base)),
            "ratio",
        ),
        Metric::new("protocol.spec.sent", sent as f64, "count"),
        Metric::new(
            "protocol.spec.useful_ratio",
            ratio(spec_runs(&|s| s.spec.verified) as f64, sent as f64),
            "ratio",
        ),
        Metric::new(
            "protocol.spec.dropped",
            spec_runs(&|s| s.spec.dropped) as f64,
            "count",
        ),
        Metric::new(
            "protocol.spec.swi_premature_ratio",
            ratio(
                sum_if(swi, &|s| s.spec.swi_inval_premature) as f64,
                sum_if(swi, &|s| s.spec.swi_inval_sent) as f64,
            ),
            "ratio",
        ),
    ]);
    for kind in PredictorKind::ALL {
        for depth in DEPTHS {
            let name = format!("core.replay.{}.d{depth}", kind_tag(kind));
            m.push(Metric::new(
                format!("core.replay_ns_per_msg.{}.d{depth}", kind_tag(kind)),
                tr.ns_per_item("layer.replay", &name),
                "ns",
            ));
        }
    }
    m.extend([
        Metric::new(
            "core.vmsp.online_share_fr",
            ratio(fr_vmsp_s, run_s(fr).0 - run_s(base).0),
            "ratio",
        ),
        Metric::new(
            "core.vmsp.ns_per_msg_256",
            tr.ns_per_item("probe.wide", "core.replay.vmsp.d1"),
            "ns",
        ),
        Metric::new("core.vmsp.spill_bytes", spill as f64, "bytes"),
        Metric::new(
            "sim.queue_ns_per_event.n16",
            tr.ns_per_item("layer.queue", "sim.queue.n16"),
            "ns",
        ),
        Metric::new(
            "sim.queue_ns_per_event.n256",
            tr.ns_per_item("layer.queue", "sim.queue.n256"),
            "ns",
        ),
        Metric::new(
            "protocol.audit.overhead",
            ratio(
                secs_per_event(&tr, "probe.faulty"),
                secs_per_event(&tr, "probe.reliable"),
            ),
            "ratio",
        ),
        Metric::new(
            "protocol.fault.drops",
            faults(&|s| s.faults.drops) as f64,
            "count",
        ),
        Metric::new(
            "protocol.fault.retries",
            faults(&|s| s.faults.retries) as f64,
            "count",
        ),
        Metric::new(
            "protocol.fault.dup_suppressed",
            faults(&|s| s.faults.dup_suppressed) as f64,
            "count",
        ),
        Metric::new(
            "protocol.fault.recovery_cycles",
            faults(&|s| s.faults.recovery_cycles) as f64,
            "cycles",
        ),
        Metric::new(
            "protocol.windowed_1t_over_seq",
            ratio(windowed_s, seq_s),
            "ratio",
        ),
        Metric::new("bench.trace_overhead", overhead, "ratio"),
    ]);
    if let Err(e) = tr.write(spans) {
        eprintln!("perfbench: cannot write spans to {}: {e}", spans.display());
    }
    m
}
