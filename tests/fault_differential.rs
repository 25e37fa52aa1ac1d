//! Differential replay under deterministic fault injection.
//!
//! Two claims:
//!
//! 1. **Recovery is complete and audited on the windowed engine.** With
//!    the suite-standard fault plan active and the runtime coherence
//!    auditor armed, every application finishes under Base, FR, and SWI
//!    — no auditor violation, no deadlock, no retry-budget exhaustion —
//!    and the run actually exercised the fault machinery (drops and
//!    retries are nonzero over the suite). The sequential engine runs
//!    the same plan with the auditor on in the `model-fault` rows of
//!    `tests/golden_stats.rs`, which pin every fault counter exactly.
//!
//! 2. **A zero-rate plan is inert.** All-zero rates (plus the auditor)
//!    must be bit-for-bit indistinguishable from running with no plan at
//!    all, on both the sequential and the windowed engine — the fault
//!    path adds no events, no sequence-number effects, no timing.
//!
//! Scale: `Quick` by default so `cargo test` stays fast; CI re-runs
//! this file in **release** mode with `SPECDSM_DIFF_SCALE=default`.

use specdsm::prelude::*;
use specdsm::protocol::{EngineConfig, SystemConfig};

fn scale() -> Scale {
    std::env::var("SPECDSM_DIFF_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(Scale::Quick)
}

fn run_with(
    machine: &MachineConfig,
    policy: SpecPolicy,
    engine: EngineConfig,
    faults: Option<FaultPlan>,
    w: &dyn Workload,
) -> RunStats {
    let cfg = SystemConfig {
        machine: machine.clone(),
        policy,
        engine,
        faults,
        audit: true,
        max_cycles: Some(2_000_000_000),
        ..SystemConfig::default()
    };
    specdsm::protocol::System::new(cfg, w)
        .expect("valid system")
        .run()
}

/// Asserts every model-output field of two runs is identical, fault
/// counters included. Wall clock is the only thing allowed to differ.
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
    assert_eq!(a.faults, b.faults, "{ctx}: fault counters");
    assert_eq!(a.predictor, b.predictor, "{ctx}: predictor accuracy stats");
    assert_eq!(a.per_proc, b.per_proc, "{ctx}: per-processor stats");
}

/// Claim 1: the audited, fault-injected suite completes under every
/// policy on the windowed engine and exercises recovery.
#[test]
fn faulty_windowed_suite_recovers() {
    let machine = MachineConfig::paper_machine();
    let scale = scale();
    let plan = fault_plan(0x1a1f);
    let mut total = FaultStats::default();
    for app in AppId::ALL {
        let w = app.build(&machine, scale).unwrap();
        for policy in SpecPolicy::ALL {
            let s = run_with(
                &machine,
                policy,
                EngineConfig::Windowed { threads: 1 },
                Some(plan.clone()),
                w.as_ref(),
            );
            assert!(s.exec_cycles > 0, "{app}/{policy}: ran");
            total += s.faults;
        }
    }
    // The plan is light, so individual apps may dodge losses at Quick
    // scale — but over 7 apps x 3 policies the machinery must fire.
    assert!(total.drops > 0, "suite saw drops: {total:?}");
    assert!(total.retries > 0, "suite saw retries: {total:?}");
    assert!(
        total.dup_suppressed > 0,
        "suite saw duplicate suppression: {total:?}"
    );
}

/// Claim 2: a zero-rate plan (with the auditor armed) is bit-for-bit
/// the reliable engine, sequentially and windowed.
#[test]
fn zero_rate_plan_is_bit_identical_to_reliable_engine() {
    let machine = MachineConfig::paper_machine();
    let zero = FaultPlan::new(0xdead);
    for app in [AppId::Appbt, AppId::Em3d] {
        let w = app.build(&machine, Scale::Quick).unwrap();
        for policy in SpecPolicy::ALL {
            for engine in [
                EngineConfig::Sequential,
                EngineConfig::Windowed { threads: 1 },
            ] {
                let reliable = run_with(&machine, policy, engine, None, w.as_ref());
                let zeroed = run_with(&machine, policy, engine, Some(zero.clone()), w.as_ref());
                let ctx = format!("{app}/{policy}/{engine:?}");
                assert_bit_identical(&reliable, &zeroed, &ctx);
                assert_eq!(zeroed.faults, FaultStats::default(), "{ctx}: all zero");
            }
        }
    }
}
