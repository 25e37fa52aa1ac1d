//! Differential replay: the sharded bounded-lag protocol engine under
//! 1, 2, and 4 worker threads, against each other and against the
//! sequential single-shard engine.
//!
//! Two distinct claims are enforced, at different strengths:
//!
//! 1. **Parallelism is unobservable (bit-identical).** The windowed
//!    engine's schedule is a pure function of the simulated machine:
//!    running the identical configuration with 2 or 4 worker threads
//!    must reproduce the 1-worker (sequential execution) run **bit for
//!    bit** — execution cycles, every message/request counter,
//!    NI-contention cycles, speculation activity, and online predictor
//!    accuracy. This is the hard determinism guarantee of the parallel
//!    engine, checked across the entire workload suite and every
//!    policy.
//!
//! 2. **The windowed engine simulates the same machine as the
//!    sequential engine.** The two engines order *simultaneous* events
//!    differently in one documented case (two different shards
//!    scheduling at the same cycle: the sequential engine breaks the
//!    tie by global arrival order, which a parallel engine cannot
//!    observe; the windowed engine breaks it by shard index — see
//!    `docs/ARCHITECTURE.md`). Same-cycle NI contention can therefore
//!    swap queue slots, so outputs are not bit-identical — but the
//!    program structure is fixed and the timing perturbation is tiny.
//!    The test pins per-processor access counts exactly and total
//!    timing/traffic within tight tolerances.
//!
//! Scale: `Quick` by default so `cargo test` stays fast; CI re-runs
//! this file in **release** mode (covering the LTO build) with
//! `SPECDSM_DIFF_SCALE=default` for the full-size inputs.

use specdsm::prelude::*;
use specdsm::protocol::{EngineConfig, SystemConfig};

fn scale() -> Scale {
    match std::env::var("SPECDSM_DIFF_SCALE").as_deref() {
        Ok("default") => Scale::Default,
        Ok("paper") => Scale::Paper,
        _ => Scale::Quick,
    }
}

fn run_with(
    machine: &MachineConfig,
    policy: SpecPolicy,
    engine: EngineConfig,
    w: &dyn Workload,
) -> RunStats {
    let cfg = SystemConfig {
        machine: machine.clone(),
        policy,
        engine,
        max_cycles: Some(2_000_000_000),
        ..SystemConfig::default()
    };
    specdsm::protocol::System::new(cfg, w)
        .expect("valid system")
        .run()
}

/// Asserts every model-output field of two runs is identical. Wall
/// clock is the only thing allowed to differ.
fn assert_bit_identical(a: &RunStats, b: &RunStats, ctx: &str) {
    assert_eq!(a.exec_cycles, b.exec_cycles, "{ctx}: exec_cycles");
    assert_eq!(a.sim_events, b.sim_events, "{ctx}: sim_events");
    assert_eq!(
        a.remote_messages, b.remote_messages,
        "{ctx}: remote_messages"
    );
    assert_eq!(a.ni_wait_cycles, b.ni_wait_cycles, "{ctx}: ni_wait_cycles");
    assert_eq!(
        a.mem_wait_cycles, b.mem_wait_cycles,
        "{ctx}: mem_wait_cycles"
    );
    assert_eq!(
        a.mem_busy_cycles, b.mem_busy_cycles,
        "{ctx}: mem_busy_cycles"
    );
    assert_eq!(a.dir_reads, b.dir_reads, "{ctx}: dir_reads");
    assert_eq!(a.dir_writes, b.dir_writes, "{ctx}: dir_writes");
    assert_eq!(a.dir_upgrades, b.dir_upgrades, "{ctx}: dir_upgrades");
    assert_eq!(a.spec, b.spec, "{ctx}: speculation counters");
    assert_eq!(a.predictor, b.predictor, "{ctx}: predictor accuracy stats");
    assert_eq!(a.per_proc, b.per_proc, "{ctx}: per-processor stats");
}

fn rel_diff(a: u64, b: u64) -> f64 {
    if a == 0 && b == 0 {
        return 0.0;
    }
    (a as f64 - b as f64).abs() / (a.max(b) as f64)
}

/// Claim 2 above: the windowed engine runs the identical program and
/// lands within a whisker of the sequential engine's timing/traffic.
fn assert_same_machine(seq: &RunStats, win: &RunStats, ctx: &str) {
    assert_same_machine_tol(seq, win, ctx, 0.025);
}

/// Same claim with a caller-chosen timing/traffic tolerance, for
/// workloads built to amplify the documented same-cycle tie-break
/// divergence (still deterministic — the bit-identical claim across
/// thread counts is unweakened).
fn assert_same_machine_tol(seq: &RunStats, win: &RunStats, ctx: &str, tol: f64) {
    assert_eq!(seq.per_proc.len(), win.per_proc.len(), "{ctx}: proc count");
    for (i, (s, w)) in seq.per_proc.iter().zip(&win.per_proc).enumerate() {
        // The executed instruction stream is engine-independent.
        assert_eq!(s.reads, w.reads, "{ctx}: P{i} reads");
        assert_eq!(s.writes, w.writes, "{ctx}: P{i} writes");
    }
    let exec = rel_diff(seq.exec_cycles, win.exec_cycles);
    assert!(
        exec < tol,
        "{ctx}: exec_cycles diverge {:.4}% ({} vs {})",
        exec * 100.0,
        seq.exec_cycles,
        win.exec_cycles
    );
    let msg_tol = if tol > 0.025 { tol } else { 0.015 };
    let msgs = rel_diff(seq.remote_messages, win.remote_messages);
    assert!(
        msgs < msg_tol,
        "{ctx}: remote_messages diverge {:.4}% ({} vs {})",
        msgs * 100.0,
        seq.remote_messages,
        win.remote_messages
    );
    match (&seq.predictor, &win.predictor) {
        (None, None) => {}
        (Some(s), Some(w)) => {
            assert!(
                (s.accuracy() - w.accuracy()).abs() < 0.02f64.max(tol / 3.0),
                "{ctx}: predictor accuracy diverges ({:.4} vs {:.4})",
                s.accuracy(),
                w.accuracy()
            );
            assert!(
                rel_diff(s.seen, w.seen) < tol,
                "{ctx}: predictor saw different traffic ({} vs {})",
                s.seen,
                w.seen
            );
        }
        (s, w) => panic!("{ctx}: predictor presence differs ({s:?} vs {w:?})"),
    }
}

/// The full suite, all policies: 2- and 4-worker runs must be bit
/// identical to the sequential (1-worker) execution of the windowed
/// engine, and the windowed engine must track the sequential engine's
/// machine.
#[test]
fn worker_threads_are_bit_identical_across_suite() {
    let machine = MachineConfig::paper_machine();
    let scale = scale();
    for app in AppId::ALL {
        let w = app.build(&machine, scale);
        for policy in SpecPolicy::ALL {
            let seq = run_with(&machine, policy, EngineConfig::Sequential, w.as_ref());
            let one = run_with(
                &machine,
                policy,
                EngineConfig::Windowed { threads: 1 },
                w.as_ref(),
            );
            assert_same_machine(&seq, &one, &format!("{app}/{policy}"));
            for threads in [2usize, 4] {
                let many = run_with(
                    &machine,
                    policy,
                    EngineConfig::Windowed { threads },
                    w.as_ref(),
                );
                assert_bit_identical(&one, &many, &format!("{app}/{policy}/threads={threads}"));
            }
            assert!(one.exec_cycles > 0 && one.sim_events > 0, "{app}: ran");
        }
    }
}

/// The scaling axis the shard rework exists for: machines past the
/// paper's 16 nodes — including past the former 64-processor ceiling —
/// run end-to-end, deterministically, at any worker count.
#[test]
fn windowed_engine_scales_beyond_64_nodes() {
    for nodes in [24usize, 128] {
        let machine = MachineConfig::with_nodes(nodes);
        let w = AppId::Em3d.build(&machine, Scale::Quick);
        for policy in [SpecPolicy::Base, SpecPolicy::SwiFr] {
            let seq = run_with(&machine, policy, EngineConfig::Sequential, w.as_ref());
            let one = run_with(
                &machine,
                policy,
                EngineConfig::Windowed { threads: 1 },
                w.as_ref(),
            );
            assert_same_machine(&seq, &one, &format!("em3d@{nodes}/{policy}"));
            for threads in [2usize, 4] {
                let many = run_with(
                    &machine,
                    policy,
                    EngineConfig::Windowed { threads },
                    w.as_ref(),
                );
                assert_bit_identical(
                    &one,
                    &many,
                    &format!("em3d@{nodes}/{policy}/threads={threads}"),
                );
            }
        }
    }
}

/// The interned-wide-set regime: at 256 nodes every shared read vector
/// spills past the 64-bit inline word, so directory `Shared` states,
/// VMSP read vectors, and pattern-table symbols all live in the
/// hash-cons arenas. The full suite must stay bit-identical across
/// engines and worker counts there too — each shard (and each store
/// backend) owns its own arena and allocates `SetId`s in its own
/// order, so agreement here proves the simulation is independent of
/// arena id assignment on wide machines.
#[test]
fn interned_wide_sets_bit_identical_at_256_nodes() {
    let machine = MachineConfig::with_nodes(256);
    let mut spec_reads = 0u64;
    for app in AppId::ALL {
        let w = app.build(&machine, Scale::Quick);
        for policy in [SpecPolicy::Base, SpecPolicy::SwiFr] {
            let seq = run_with(&machine, policy, EngineConfig::Sequential, w.as_ref());
            let one = run_with(
                &machine,
                policy,
                EngineConfig::Windowed { threads: 1 },
                w.as_ref(),
            );
            assert_same_machine(&seq, &one, &format!("{app}@256/{policy}"));
            for threads in [2usize, 4] {
                let many = run_with(
                    &machine,
                    policy,
                    EngineConfig::Windowed { threads },
                    w.as_ref(),
                );
                assert_bit_identical(
                    &one,
                    &many,
                    &format!("{app}@256/{policy}/threads={threads}"),
                );
            }
            spec_reads += one.spec.fr_sent + one.spec.swi_sent;
        }
    }
    // The suite must actually drive speculative wide read vectors
    // through the arenas, or this only covered the inline fast path.
    assert!(spec_reads > 0, "256-node suite used speculative reads");
}

/// The adversarial conflict generators (hotspot-home storm, migratory
/// ping-pong, false-sharing storm): their barrier-free cross-shard
/// storms cross a shard boundary with nearly every message, yet the
/// windowed engine must stay bit-identical across worker-thread counts
/// and on the same machine as the sequential engine.
#[test]
fn adversarial_workloads_stay_deterministic_on_windowed_engine() {
    let machine = MachineConfig::paper_machine();
    for w in adversarial_suite(&machine, scale()) {
        for policy in [SpecPolicy::Base, SpecPolicy::SwiFr] {
            let name = w.name().to_string();
            let seq = run_with(&machine, policy, EngineConfig::Sequential, w.as_ref());
            let one = run_with(
                &machine,
                policy,
                EngineConfig::Windowed { threads: 1 },
                w.as_ref(),
            );
            // The storms amplify same-cycle reordering on purpose, so
            // the documented tie-break divergence shows up larger here
            // than on the apps (notably in predictor accuracy, which
            // feeds on the reordered streams); the band is loosened
            // accordingly — determinism below stays exact.
            assert_same_machine_tol(&seq, &one, &format!("adv:{name}/{policy}"), 0.09);
            for threads in [2usize, 4] {
                let many = run_with(
                    &machine,
                    policy,
                    EngineConfig::Windowed { threads },
                    w.as_ref(),
                );
                assert_bit_identical(
                    &one,
                    &many,
                    &format!("adv:{name}/{policy}/threads={threads}"),
                );
            }
        }
    }
}

/// Finite-cache mode adds capacity evictions and speculative
/// fill/eviction races — a different invalidation-ack pattern for the
/// window merges to preserve.
#[test]
fn worker_threads_are_bit_identical_with_finite_caches() {
    let machine = MachineConfig::paper_machine();
    let w = AppId::Em3d.build(&machine, Scale::Quick);
    for policy in [SpecPolicy::FirstRead, SpecPolicy::SwiFr] {
        let run = |threads: usize| {
            let cfg = SystemConfig {
                machine: machine.clone(),
                policy,
                engine: EngineConfig::Windowed { threads },
                cache_blocks: Some(16),
                max_cycles: Some(2_000_000_000),
                ..SystemConfig::default()
            };
            specdsm::protocol::System::new(cfg, w.as_ref())
                .expect("valid")
                .run()
        };
        let one = run(1);
        let four = run(4);
        assert_bit_identical(&one, &four, &format!("em3d-finite/{policy}"));
    }
}
