//! Golden-stats regression test: predictor accuracy must not drift.
//!
//! The paper's headline numbers — Figure 7 (accuracy per predictor per
//! application) and Table 3 (coverage and correctly-predicted fraction)
//! — are regenerated by the `repro` binary, but nothing used to *fail*
//! when a refactor nudged them: drift only showed up if someone read
//! the BENCH json. This test renders the same `fig7`/`table3`
//! experiments the repro path uses (quick scale, so `cargo test` stays
//! fast) and diffs them against the checked-in fixture at
//! `tests/fixtures/golden_stats.txt`.
//!
//! The fixture also pins the simulated machine itself: a `model` row
//! per application and system (Base, FR, SWI+FR) on the sequential
//! engine carries execution time, message and directory-request
//! counts, NI contention, event count and the speculation counters,
//! and a `windowed1t` row carries the windowed engine's execution
//! time, message and event counts on one thread. Any engine or
//! protocol refactor that changes what the machine does shows up here.
//!
//! The simulation and the trace replay are fully deterministic, so the
//! comparison is exact at 6 decimal places. If a change *intentionally*
//! alters predictor behavior, regenerate the fixture with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_stats
//! ```
//!
//! and justify the diff in the commit that carries it.

use std::fmt::Write as _;

use specdsm::prelude::{AppId, MachineConfig, RunStats, System, SystemConfig};
use specdsm::protocol::{EngineConfig, SpecPolicy};
use specdsm_bench::{fig7, table3, Lab, Scale};

const FIXTURE: &str = "tests/fixtures/golden_stats.txt";

/// One simulation of `app` under `policy` at quick scale on the paper
/// machine.
fn run_app(app: AppId, policy: SpecPolicy, engine: EngineConfig) -> RunStats {
    let machine = MachineConfig::paper_machine();
    let w = app.build(&machine, specdsm::workloads::Scale::Quick);
    let cfg = SystemConfig {
        machine,
        policy,
        engine,
        ..SystemConfig::default()
    };
    System::new(cfg, w.as_ref()).expect("valid config").run()
}

/// Short, space-free policy labels for the fixture rows.
fn policy_label(policy: SpecPolicy) -> &'static str {
    match policy {
        SpecPolicy::Base => "base",
        SpecPolicy::FirstRead => "fr",
        SpecPolicy::SwiFr => "swi",
    }
}

/// The modeled machine's outputs for every app and system: the full
/// counter set on the sequential engine, and the headline counters on
/// the one-thread windowed engine.
fn render_model(out: &mut String) {
    for app in AppId::ALL {
        for policy in SpecPolicy::ALL {
            let r = run_app(app, policy, EngineConfig::Sequential);
            let s = r.spec;
            let _ = writeln!(
                out,
                "model {} {} exec_cycles={} remote_messages={} dir_reads={} dir_writes={} \
                 dir_upgrades={} ni_wait_cycles={} sim_events={} fr_sent={} swi_sent={} \
                 fr_unused={} swi_unused={} verified={} dropped={} swi_inval_sent={} \
                 swi_inval_premature={}",
                app,
                policy_label(policy),
                r.exec_cycles,
                r.remote_messages,
                r.dir_reads,
                r.dir_writes,
                r.dir_upgrades,
                r.ni_wait_cycles,
                r.sim_events,
                s.fr_sent,
                s.swi_sent,
                s.fr_unused,
                s.swi_unused,
                s.verified,
                s.dropped,
                s.swi_inval_sent,
                s.swi_inval_premature
            );
        }
    }
    for app in AppId::ALL {
        for policy in SpecPolicy::ALL {
            let r = run_app(app, policy, EngineConfig::Windowed { threads: 1 });
            let _ = writeln!(
                out,
                "windowed1t {} {} exec_cycles={} remote_messages={} sim_events={}",
                app,
                policy_label(policy),
                r.exec_cycles,
                r.remote_messages,
                r.sim_events
            );
        }
    }
}

fn render_golden() -> String {
    let mut lab = Lab::new(Scale::Quick);
    let mut out = String::new();
    out.push_str("# Golden predictor stats (quick scale, 16 nodes, depth 1).\n");
    out.push_str("# fig7: accuracy per predictor; table3: coverage/correct fraction.\n");
    out.push_str("# model: sequential-engine machine counters per app and system.\n");
    out.push_str("# windowed1t: windowed-engine (1 thread) headline counters.\n");
    out.push_str("# Regenerate with UPDATE_GOLDEN=1 cargo test --test golden_stats\n");
    for row in fig7(&mut lab) {
        let _ = writeln!(
            out,
            "fig7 {} cosmos={:.6} msp={:.6} vmsp={:.6}",
            row.app, row.accuracy[0], row.accuracy[1], row.accuracy[2]
        );
    }
    for row in table3(&mut lab) {
        let _ = write!(out, "table3 {}", row.app);
        for (name, (cov, correct)) in ["cosmos", "msp", "vmsp"].iter().zip(row.predicted) {
            let _ = write!(out, " {name}={cov:.6}/{correct:.6}");
        }
        out.push('\n');
    }
    render_model(&mut out);
    out
}

#[test]
fn predictor_accuracy_matches_golden_fixture() {
    let got = render_golden();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
        eprintln!("regenerated {FIXTURE}");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .unwrap_or_else(|e| panic!("cannot read {FIXTURE}: {e}; regenerate with UPDATE_GOLDEN=1"));
    if got != want {
        // Line-by-line report so the drifted number is obvious.
        for (g, w) in got.lines().zip(want.lines()) {
            if g != w {
                eprintln!("golden mismatch:\n  expected: {w}\n  actual:   {g}");
            }
        }
        panic!(
            "predictor accuracy drifted from {FIXTURE}; if intentional, regenerate with \
             UPDATE_GOLDEN=1 cargo test --test golden_stats"
        );
    }
}
