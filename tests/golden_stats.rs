//! Golden-stats regression test: predictor accuracy must not drift.
//!
//! The paper's predictor numbers — Figure 7 (accuracy per predictor per
//! application), Figure 8 (accuracy at history depths 1, 2 and 4),
//! Table 3 (coverage and correctly-predicted fraction) and Table 4
//! (pattern entries per block at depths 1 and 4, bytes per block) —
//! are rendered by the `repro` binary to one decimal place, and pinned
//! at quick scale by `crates/bench/tests/repro_args.rs`. This test
//! renders the same numbers from the same replays (`Lab::eval`) to 6
//! decimal places, as `fig7`/`table3`/`fig8`/`table4` rows, and diffs
//! them against a checked-in fixture.
//!
//! The fixture also pins the simulated machine itself:
//!
//! - a `model` row per application and system (Base, FR, SWI+FR)
//!   carries execution time, message and
//!   directory-request counts, NI and memory contention, event count,
//!   the speculation counters and the online predictor's accuracy
//!   counters;
//! - a `proc` row per application and system carries each processor's
//!   compute/sync/mem-wait split plus the machine-wide access counters;
//! - `model-n64`/`model-n256` rows carry the `model` counters of em3d
//!   under SWI+FR on 64 and 256 nodes. The 64-node run uses the scale
//!   under test; the 256-node run always uses the quick inputs;
//! - `model-adv` rows carry the `model` counters of the hotspot and
//!   false-sharing storms from `adversarial_suite` under each system,
//!   with the coherence auditor on. They deliver a write request to an
//!   `Exclusive` block whose transaction is still in flight, which no
//!   application run does;
//! - `model-fault` rows carry the `model` counters plus every
//!   `FaultStats` field of each application under each system with the
//!   suite-standard fault plan (`fault_plan`, fixed seed) and the
//!   coherence auditor on. They pin retry timing, backoff and duplicate
//!   suppression; rendered at default scale, they are the suite's
//!   default-scale audited fault runs.
//!
//! Any engine or protocol refactor that changes what the machine does
//! shows up here. A third test feeds the same Base traces to the
//! per-message `Predictor` of each kind, one message at a time, and
//! asserts that the streaming `evaluate_trace` behind the predictor rows
//! agrees exactly.
//!
//! Scale: quick by default, against `tests/fixtures/golden_stats.txt`.
//! With `SPECDSM_DIFF_SCALE=default` the same rows are rendered from
//! the default-scale inputs and compared against
//! `tests/fixtures/golden_stats_default.txt` (CI runs that in release).
//!
//! The simulation and the trace replay are fully deterministic, so the
//! comparison is exact at 6 decimal places. If a change *intentionally*
//! alters predictor behavior, regenerate the fixture with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_stats
//! UPDATE_GOLDEN=1 SPECDSM_DIFF_SCALE=default cargo test --release --test golden_stats
//! ```
//!
//! and justify the diff in the commit that carries it.

use std::fmt::{Display, Write as _};
use std::sync::{Mutex, OnceLock};

use specdsm::core::evaluate_trace;
use specdsm::prelude::{
    adversarial_suite, fault_plan, AppId, MachineConfig, PredictorKind, RunStats, Scale, System,
    SystemConfig,
};
use specdsm::protocol::SpecPolicy;
use specdsm_bench::Lab;

/// The input scale under test: `SPECDSM_DIFF_SCALE=default` selects the
/// default-scale inputs, anything else the quick ones.
fn scale() -> Scale {
    match std::env::var("SPECDSM_DIFF_SCALE").as_deref() {
        Ok("default") => Scale::Default,
        _ => Scale::Quick,
    }
}

fn fixture(scale: Scale) -> &'static str {
    match scale {
        Scale::Default => "tests/fixtures/golden_stats_default.txt",
        _ => "tests/fixtures/golden_stats.txt",
    }
}

/// One simulation of `app` under `policy` on a paper machine with
/// `nodes` nodes.
fn run_app(app: AppId, policy: SpecPolicy, scale: Scale, nodes: usize) -> RunStats {
    let machine = MachineConfig::with_nodes(nodes);
    let w = app.build(&machine, scale).unwrap();
    let cfg = SystemConfig {
        machine,
        policy,
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

/// Seed of the fault plan behind the `model-fault` rows.
const FAULT_SEED: u64 = 0x1a1f;

/// The full machine-counter row of one run.
fn write_model_row(
    out: &mut String,
    label: &str,
    app: impl Display,
    policy: SpecPolicy,
    r: &RunStats,
) {
    write_model_fields(out, label, app, policy, r);
    out.push('\n');
}

/// The `model` row of one faulty run, followed by its fault counters.
fn write_fault_row(out: &mut String, app: AppId, policy: SpecPolicy, r: &RunStats) {
    write_model_fields(out, "model-fault", app, policy, r);
    let f = r.faults;
    let _ = writeln!(
        out,
        " drops={} duplicates={} retries={} dup_suppressed={} recovery_cycles={}",
        f.drops, f.duplicates, f.retries, f.dup_suppressed, f.recovery_cycles
    );
}

/// The machine counters of a `model` row, without the line break.
fn write_model_fields(
    out: &mut String,
    label: &str,
    app: impl Display,
    policy: SpecPolicy,
    r: &RunStats,
) {
    let s = r.spec;
    let _ = write!(
        out,
        "{label} {app} {} exec_cycles={} remote_messages={} dir_reads={} dir_writes={} \
         dir_upgrades={} ni_wait_cycles={} sim_events={} fr_sent={} swi_sent={} \
         fr_unused={} swi_unused={} verified={} dropped={} swi_inval_sent={} \
         swi_inval_premature={} mem_wait_cycles={} mem_busy_cycles={}",
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
        s.swi_inval_premature,
        r.mem_wait_cycles,
        r.mem_busy_cycles,
    );
    match r.predictor {
        Some(p) => {
            let _ = write!(out, " predictor={}/{}/{}", p.seen, p.predicted, p.correct);
        }
        None => out.push_str(" predictor=none"),
    }
}

/// The per-processor row of one run: machine-wide access
/// counters, then each processor's `compute/sync/mem_wait` cycles.
fn write_proc_row(out: &mut String, label: &str, app: AppId, policy: SpecPolicy, r: &RunStats) {
    let sum = |f: fn(&specdsm::protocol::ProcStats) -> u64| r.per_proc.iter().map(f).sum::<u64>();
    let _ = write!(
        out,
        "{label} {app} {} reads={} read_hits={} read_misses={} spec_read_hits={} writes={} \
         write_hits={} write_misses={} upgrades={} time",
        policy_label(policy),
        sum(|p| p.reads),
        sum(|p| p.read_hits),
        sum(|p| p.read_misses),
        sum(|p| p.spec_read_hits),
        sum(|p| p.writes),
        sum(|p| p.write_hits),
        sum(|p| p.write_misses),
        sum(|p| p.upgrades),
    );
    for p in &r.per_proc {
        let _ = write!(out, " {}/{}/{}", p.compute_cycles, p.sync_wait, p.mem_wait);
    }
    out.push('\n');
}

/// Everything the fixture is rendered from, computed once per test
/// binary and shared by the fixture diff and the paper-claim checks.
struct Golden {
    text: String,
    /// Cosmos, MSP and VMSP accuracy at depth 1, per app.
    fig7: Vec<(AppId, [f64; 3])>,
    /// Execution cycles per (app, policy).
    exec_cycles: Vec<(AppId, SpecPolicy, u64)>,
    /// The lab the rows came from, with its Base traces.
    lab: Mutex<Lab>,
}

impl Golden {
    fn exec_cycles(&self, app: AppId, policy: SpecPolicy) -> u64 {
        self.exec_cycles
            .iter()
            .find(|(a, p, _)| *a == app && *p == policy)
            .map(|(_, _, cycles)| *cycles)
            .expect("every app and policy is run")
    }
}

fn golden(scale: Scale) -> &'static Golden {
    static QUICK: OnceLock<Golden> = OnceLock::new();
    static DEFAULT: OnceLock<Golden> = OnceLock::new();
    let cell = if scale == Scale::Default {
        &DEFAULT
    } else {
        &QUICK
    };
    cell.get_or_init(|| render_golden(scale))
}

fn render_golden(scale: Scale) -> Golden {
    let mut lab = Lab::new(scale);
    let mut out = String::new();
    let scale_name = match scale {
        Scale::Default => "default",
        _ => "quick",
    };
    let _ = writeln!(
        out,
        "# Golden predictor stats ({scale_name} scale, 16 nodes, depth 1 unless noted)."
    );
    out.push_str("# fig7: accuracy per predictor; table3: coverage/correct fraction.\n");
    out.push_str("# fig8: accuracy at depths 1/2/4; table4: pte at depths 1/4 and ovh bytes.\n");
    out.push_str("# model: sequential-engine machine counters per app and system.\n");
    out.push_str("# proc: access counters, per-processor compute/sync/mem_wait cycles.\n");
    out.push_str("# model-n64/model-n256: em3d SWI+FR on 64 nodes, and on 256 at quick scale.\n");
    out.push_str("# model-adv: hotspot and false-sharing storms, auditor on.\n");
    out.push_str("# model-fault: every app under the suite fault plan, auditor on.\n");
    if scale == Scale::Default {
        out.push_str(
            "# Regenerate with UPDATE_GOLDEN=1 SPECDSM_DIFF_SCALE=default \
             cargo test --release --test golden_stats\n",
        );
    } else {
        out.push_str("# Regenerate with UPDATE_GOLDEN=1 cargo test --test golden_stats\n");
    }
    let kinds = PredictorKind::ALL.map(|kind| (kind, kind.to_string().to_lowercase()));
    let mut fig7 = Vec::new();
    for app in AppId::ALL {
        let accuracy = PredictorKind::ALL.map(|kind| lab.eval(app, kind, 1).stats.accuracy());
        let [cosmos, msp, vmsp] = accuracy;
        let _ = writeln!(
            out,
            "fig7 {app} cosmos={cosmos:.6} msp={msp:.6} vmsp={vmsp:.6}"
        );
        fig7.push((app, accuracy));
    }
    for app in AppId::ALL {
        let _ = write!(out, "table3 {app}");
        for (kind, name) in &kinds {
            let stats = lab.eval(app, *kind, 1).stats;
            let (cov, correct) = (stats.coverage(), stats.correct_fraction());
            let _ = write!(out, " {name}={cov:.6}/{correct:.6}");
        }
        out.push('\n');
    }
    for app in AppId::ALL {
        let _ = write!(out, "fig8 {app}");
        for (kind, name) in &kinds {
            let [d1, d2, d4] = [1, 2, 4].map(|d| lab.eval(app, *kind, d).stats.accuracy());
            let _ = write!(out, " {name}={d1:.6}/{d2:.6}/{d4:.6}");
        }
        out.push('\n');
    }
    for app in AppId::ALL {
        let _ = write!(out, "table4 {app}");
        for (kind, name) in &kinds {
            let d1 = lab.eval(app, *kind, 1).storage;
            let d4 = lab.eval(app, *kind, 4).storage;
            let (pte1, pte4, ovh) = (d1.pte_per_block(), d4.pte_per_block(), d1.bytes_per_block());
            let _ = write!(out, " {name}={pte1:.6}/{pte4:.6}/{ovh:.6}");
        }
        out.push('\n');
    }

    // `Lab` runs the paper machine, and its Base runs' trace recording
    // changes no counter.
    let mut exec_cycles = Vec::new();
    for app in AppId::ALL {
        for policy in SpecPolicy::ALL {
            let r = lab.run(app, policy);
            write_model_row(&mut out, "model", app, policy, r);
            exec_cycles.push((app, policy, r.exec_cycles));
        }
    }
    for app in AppId::ALL {
        for policy in SpecPolicy::ALL {
            write_proc_row(&mut out, "proc", app, policy, lab.run(app, policy));
        }
    }
    // Wider machines: 64 nodes fill the inline reader-set word, 256
    // spill wide reader sets past it into heap words.
    for (label, nodes, scale) in [("model-n64", 64, scale), ("model-n256", 256, Scale::Quick)] {
        let r = run_app(AppId::Em3d, SpecPolicy::SwiFr, scale, nodes);
        write_model_row(&mut out, label, AppId::Em3d, SpecPolicy::SwiFr, &r);
    }
    // The storms reach a write request on a busy `Exclusive` block.
    let machine = MachineConfig::paper_machine();
    for w in adversarial_suite(&machine, scale) {
        for policy in SpecPolicy::ALL {
            let cfg = SystemConfig {
                machine: machine.clone(),
                policy,
                audit: true,
                ..SystemConfig::default()
            };
            let r = System::new(cfg, w.as_ref()).expect("valid config").run();
            write_model_row(&mut out, "model-adv", w.name(), policy, &r);
        }
    }
    // Lossy requests: retries, backoff and duplicate suppression.
    let plan = fault_plan(FAULT_SEED);
    for app in AppId::ALL {
        let w = app.build(&machine, scale).unwrap();
        for policy in SpecPolicy::ALL {
            let cfg = SystemConfig {
                machine: machine.clone(),
                policy,
                faults: Some(plan.clone()),
                audit: true,
                ..SystemConfig::default()
            };
            let r = System::new(cfg, w.as_ref()).expect("valid config").run();
            write_fault_row(&mut out, app, policy, &r);
        }
    }
    Golden {
        text: out,
        fig7,
        exec_cycles,
        lab: Mutex::new(lab),
    }
}

#[test]
fn predictor_accuracy_matches_golden_fixture() {
    let scale = scale();
    let g = golden(scale);
    let fixture = fixture(scale);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(fixture, &g.text).expect("write fixture");
        eprintln!("regenerated {fixture}");
        return;
    }
    let want = std::fs::read_to_string(fixture)
        .unwrap_or_else(|e| panic!("cannot read {fixture}: {e}; regenerate with UPDATE_GOLDEN=1"));
    if g.text != want {
        // Line-by-line report so the drifted number is obvious.
        for (got, want) in g.text.lines().zip(want.lines()) {
            if got != want {
                eprintln!("golden mismatch:\n  expected: {want}\n  actual:   {got}");
            }
        }
        panic!(
            "predictor accuracy drifted from {fixture}; if intentional, regenerate with \
             UPDATE_GOLDEN=1 (see the module docs)"
        );
    }
}

/// The replay behind every predictor row is exact: for each app's Base
/// trace, every kind at depths 1, 2 and 4, `evaluate_trace` equals a
/// per-message `Predictor` fed every message one at a time, in the
/// statistics and in the whole storage report.
#[test]
fn trace_replay_equals_per_message_observe() {
    let mut lab = golden(scale())
        .lab
        .lock()
        .expect("no test panics holding the lab");
    let num_procs = lab.machine().num_nodes;
    for app in AppId::ALL {
        let trace = lab.trace(app);
        for kind in PredictorKind::ALL {
            for depth in [1, 2, 4] {
                let eval = evaluate_trace(trace, kind, depth, num_procs);
                let mut p = kind.build(depth, num_procs);
                for (block, msgs) in trace.iter() {
                    for &msg in msgs {
                        p.observe(block, msg);
                    }
                }
                assert_eq!(eval.stats, p.stats(), "{app} {kind} d={depth}");
                assert_eq!(eval.storage, p.storage(), "{app} {kind} d={depth}");
            }
        }
    }
}

/// The paper's qualitative claims, checked on the quick-scale runs the
/// fixture is rendered from:
///
/// - Figure 7: VMSP is at least as accurate as MSP, and MSP at least
///   as accurate as Cosmos, on every application. This is a
///   quick-scale fact: at default scale Cosmos beats MSP on appbt,
///   barnes and unstructured.
/// - em3d, the producer/consumer kernel: SWI+FR runs faster than FR,
///   and FR faster than Base.
/// - SWI+FR runs faster than Base on every application except **ocean
///   and appbt**, where it runs *slower* at quick scale: most of their
///   SWI invalidations prove premature (their `swi_inval_premature`
///   counts in the fixture). The test pins that exception exactly, so
///   a change that fixes or widens it shows up here.
#[test]
fn quick_scale_runs_reproduce_the_paper_claims() {
    let g = golden(Scale::Quick);
    for &(app, [cosmos, msp, vmsp]) in &g.fig7 {
        assert!(
            vmsp >= msp && msp >= cosmos,
            "fig7 {app}: expected vmsp >= msp >= cosmos, got cosmos={cosmos} msp={msp} vmsp={vmsp}"
        );
    }

    let [base, fr, swi] = SpecPolicy::ALL.map(|p| g.exec_cycles(AppId::Em3d, p));
    assert!(
        swi < fr && fr < base,
        "em3d exec cycles: expected SWI+FR < FR < Base, got {swi} / {fr} / {base}"
    );

    for app in AppId::ALL {
        let base = g.exec_cycles(app, SpecPolicy::Base);
        let swi = g.exec_cycles(app, SpecPolicy::SwiFr);
        let slower_expected = matches!(app, AppId::Ocean | AppId::Appbt);
        assert_eq!(
            swi > base,
            slower_expected,
            "{app}: SWI+FR {swi} cycles vs Base {base}"
        );
    }
}
