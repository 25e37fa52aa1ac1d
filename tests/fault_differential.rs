//! A zero-rate fault plan is inert: all-zero rates (plus the auditor)
//! must be bit-for-bit indistinguishable from running with no plan at
//! all — the fault path adds no events, no sequence-number effects, no
//! timing.
//!
//! The suite's audited runs under a real fault plan, at quick and at
//! default scale, are the `model-fault` rows of `tests/golden_stats.rs`,
//! which pin every fault counter exactly.

use specdsm::prelude::*;
use specdsm::protocol::SystemConfig;

fn run_with(
    machine: &MachineConfig,
    policy: SpecPolicy,
    faults: Option<FaultPlan>,
    w: &dyn Workload,
) -> RunStats {
    let cfg = SystemConfig {
        machine: machine.clone(),
        policy,
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

/// A zero-rate plan (with the auditor armed) is bit-for-bit the
/// reliable engine.
#[test]
fn zero_rate_plan_is_bit_identical_to_reliable_engine() {
    let machine = MachineConfig::paper_machine();
    let zero = FaultPlan::new(0xdead);
    for app in [AppId::Appbt, AppId::Em3d] {
        let w = app.build(&machine, Scale::Quick).unwrap();
        for policy in SpecPolicy::ALL {
            let reliable = run_with(&machine, policy, None, w.as_ref());
            let zeroed = run_with(&machine, policy, Some(zero.clone()), w.as_ref());
            let ctx = format!("{app}/{policy}");
            assert_bit_identical(&reliable, &zeroed, &ctx);
            assert_eq!(zeroed.faults, FaultStats::default(), "{ctx}: all zero");
        }
    }
}
