//! `repro` — regenerate every table and figure of the paper's
//! evaluation section.
//!
//! ```text
//! repro [EXPERIMENT ...] [--scale quick|default|paper] [--out DIR]
//!
//! EXPERIMENT: config fig6 fig7 fig8 table3 table4 fig9 table5 all
//!             detail ablation
//!             (default: all)
//! ```
//!
//! `all` stands for the eight paper experiments; `detail` and
//! `ablation` run only when named. Each experiment runs once, in the
//! order it was first named.
//!
//! Every argument is checked before anything is simulated: an unknown
//! experiment or option prints the usage and exits with status 2.
//!
//! Output goes to stdout and, with `--out`, one text file per
//! experiment in DIR. DIR is created before anything is simulated; if
//! it cannot be created, or an experiment's file cannot be written,
//! `repro` names the path and the error and exits with status 1.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use specdsm_bench::{Lab, Scale, TextTable};
use specdsm_core::PredictorKind;
use specdsm_protocol::SpecPolicy;
use specdsm_types::{MachineConfig, PAPER_BLOCK_BYTES};
use specdsm_workloads::AppId;

/// Renders one experiment's output from the shared runs in `lab`.
type Render = fn(&mut Lab) -> String;

/// What `all` (or no experiment at all) runs.
const ALL: [(&str, Render); 8] = [
    ("config", render_config),
    ("fig6", render_fig6),
    ("fig7", render_fig7),
    ("fig8", render_fig8),
    ("table3", render_table3),
    ("table4", render_table4),
    ("fig9", render_fig9),
    ("table5", render_table5),
];

/// Experiments run only when named.
const EXTRA: [(&str, Render); 2] = [("detail", render_detail), ("ablation", render_ablation)];

/// The usage line, naming every experiment `repro` accepts.
fn usage() -> String {
    let names: Vec<&str> = ALL
        .iter()
        .map(|(name, _)| *name)
        .chain(["all"])
        .chain(EXTRA.iter().map(|(name, _)| *name))
        .collect();
    format!(
        "usage: repro [{} ...] [--scale quick|default|paper] [--out DIR]",
        names.join("|")
    )
}

/// Reports a bad command line with the usage and exits with status 2.
fn bad_args(msg: &str) -> ! {
    eprintln!("{msg}\n{}", usage());
    std::process::exit(2);
}

/// Reports an I/O error on `path` and exits with status 1.
fn io_failure(action: &str, path: &Path, err: &std::io::Error) -> ! {
    eprintln!("cannot {action} {}: {err}", path.display());
    std::process::exit(1);
}

/// Appends the experiments in `named` that are not yet in `experiments`:
/// each experiment runs once, in the order it was first named.
fn add(experiments: &mut Vec<(&'static str, Render)>, named: &[(&'static str, Render)]) {
    for &experiment in named {
        if !experiments.iter().any(|(name, _)| *name == experiment.0) {
            experiments.push(experiment);
        }
    }
}

fn main() {
    let mut experiments: Vec<(&'static str, Render)> = Vec::new();
    let mut scale = Scale::Default;
    let mut out_dir: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| bad_args("--scale needs a value"));
                scale = v.parse().unwrap_or_else(|e: String| bad_args(&e));
            }
            "--out" => {
                out_dir = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| bad_args("--out needs a directory")),
                ));
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            other if other.starts_with('-') => bad_args(&format!("unknown option '{other}'")),
            "all" => add(&mut experiments, &ALL),
            other => match ALL.iter().chain(&EXTRA).find(|(name, _)| *name == other) {
                Some(experiment) => add(&mut experiments, std::slice::from_ref(experiment)),
                None => bad_args(&format!("unknown experiment '{other}'")),
            },
        }
    }
    if experiments.is_empty() {
        experiments.extend(ALL);
    }

    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            io_failure("create", dir, &e);
        }
    }

    let mut lab = Lab::new(scale);
    for (name, render) in experiments {
        let text = render(&mut lab);
        println!("{text}");
        if let Some(dir) = &out_dir {
            let path = dir.join(format!("{name}.txt"));
            if let Err(e) = std::fs::write(&path, &text) {
                io_failure("write", &path, &e);
            }
        }
    }
}

fn pct(x: f64) -> String {
    format!("{:.1}", 100.0 * x)
}

fn render_detail(lab: &mut Lab) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Diagnostic detail per app/system ==");
    let mut t = TextTable::new([
        "app",
        "system",
        "exec",
        "avg req wait",
        "dir reads",
        "dir writes",
        "dir upgr",
        "remote msgs",
        "ni wait",
        "mem wait",
        "mem busy",
        "spec sent",
        "spec drop",
        "unused",
        "winv",
        "premature",
    ]);
    for app in AppId::ALL {
        for policy in SpecPolicy::ALL {
            let r = lab.run(app, policy);
            t.row([
                app.to_string(),
                policy.to_string(),
                r.exec_cycles.to_string(),
                format!("{:.0}", r.avg_mem_wait()),
                r.dir_reads.to_string(),
                r.dir_writes.to_string(),
                r.dir_upgrades.to_string(),
                r.remote_messages.to_string(),
                r.ni_wait_cycles.to_string(),
                r.mem_wait_cycles.to_string(),
                r.mem_busy_cycles.to_string(),
                r.spec.total_sent().to_string(),
                r.spec.dropped.to_string(),
                r.spec.total_unused().to_string(),
                r.spec.swi_inval_sent.to_string(),
                r.spec.swi_inval_premature.to_string(),
            ]);
        }
    }
    let _ = write!(s, "{t}");
    s
}

/// The ablations vary one parameter of the paper's configuration; the
/// paper's own setting (depth 1, 80-cycle hops) comes from `lab`, and
/// only the other settings simulate here.
fn render_ablation(lab: &mut Lab) -> String {
    use specdsm_protocol::{System, SystemConfig};

    let mut s = String::new();
    let machine = lab.machine().clone();
    let scale = lab.scale();

    let run = |machine: MachineConfig, policy: SpecPolicy, depth: usize, app: AppId| {
        let w = app
            .build(&machine, scale)
            .expect("every suite app builds on the paper machine");
        let cfg = SystemConfig {
            machine,
            policy,
            predictor_depth: depth,
            ..SystemConfig::default()
        };
        System::new(cfg, w.as_ref()).expect("valid").run()
    };

    // Ablation 1: online predictor depth in SWI-DSM. The paper uses
    // depth 1; deeper history trades learning speed for accuracy.
    let _ = writeln!(s, "== Ablation: online VMSP history depth (SWI-DSM) ==");
    let mut t = TextTable::new([
        "application",
        "d=1 exec %",
        "d=2 exec %",
        "d=4 exec %",
        "d=1 acc %",
        "d=2 acc %",
        "d=4 acc %",
    ]);
    for app in [AppId::Em3d, AppId::Unstructured, AppId::Appbt] {
        let base = lab.run(app, SpecPolicy::Base).exec_cycles as f64;
        let mut cells = vec![app.to_string()];
        let mut runs = vec![lab.run(app, SpecPolicy::SwiFr).clone()];
        runs.extend([2usize, 4].map(|d| run(machine.clone(), SpecPolicy::SwiFr, d, app)));
        for r in &runs {
            cells.push(format!("{:.1}", 100.0 * r.exec_cycles as f64 / base));
        }
        for r in &runs {
            let acc = r.predictor.map_or(0.0, |p| p.accuracy());
            cells.push(pct(acc));
        }
        t.row(cells);
    }
    let _ = writeln!(s, "{t}");

    // Ablation 2: remote-to-local ratio. The analytic model (Figure 6,
    // bottom-right) predicts clusters (high rtl) gain the most from
    // speculation; verify with the real simulator by scaling the
    // network hop latency.
    let _ = writeln!(
        s,
        "== Ablation: speculation gain vs remote-to-local ratio (em3d, SWI-DSM) =="
    );
    let mut t2 = TextTable::new(["net hop", "rtl", "Base exec", "SWI exec", "speedup"]);
    for hop in [20u64, 80, 240] {
        let mut m = machine.clone();
        m.latency.net_hop = hop;
        let [base, swi] = [SpecPolicy::Base, SpecPolicy::SwiFr].map(|policy| {
            if hop == machine.latency.net_hop {
                lab.run(AppId::Em3d, policy).exec_cycles
            } else {
                run(m.clone(), policy, 1, AppId::Em3d).exec_cycles
            }
        });
        t2.row([
            hop.to_string(),
            format!("{:.1}", m.remote_to_local_ratio()),
            base.to_string(),
            swi.to_string(),
            format!("{:.2}x", base as f64 / swi as f64),
        ]);
    }
    let _ = write!(s, "{t2}");
    s
}

fn render_config(lab: &mut Lab) -> String {
    let m = lab.machine();
    let mut s = String::new();
    let _ = writeln!(s, "== Table 1: system configuration parameters ==");
    let mut t = TextTable::new(["parameter", "value"]);
    t.row(["Number of nodes", &m.num_nodes.to_string()]);
    t.row([
        "Local memory/remote cache access",
        &format!("{} cycles", m.latency.mem_access),
    ]);
    t.row(["Network latency", &format!("{} cycles", m.latency.net_hop)]);
    t.row([
        "Round-trip miss latency",
        &format!("{} cycles", m.remote_read_round_trip()),
    ]);
    t.row([
        "Remote-to-local access ratio (rtl)",
        &format!("~{:.1}", m.remote_to_local_ratio()),
    ]);
    t.row([
        "Coherence block size",
        &format!("{PAPER_BLOCK_BYTES} bytes"),
    ]);
    let _ = writeln!(s, "{t}");
    let _ = writeln!(s, "== Table 2: applications and input data sets ==");
    let mut t2 = TextTable::new(["application", "paper input"]);
    for app in AppId::ALL {
        t2.row([app.to_string(), app.paper_input().to_string()]);
    }
    let _ = write!(s, "{t2}");
    s
}

fn render_fig6(_: &mut Lab) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Figure 6: potential speedup in a speculative coherent DSM =="
    );
    for panel in specdsm_analytic::figure6(10) {
        let _ = writeln!(s, "\n-- {} --", panel.title);
        let mut headers = vec!["c".to_string()];
        headers.extend(panel.series.iter().map(|ser| ser.label.clone()));
        let mut t = TextTable::new(headers);
        let steps = panel.series[0].points.len();
        for i in 0..steps {
            let mut row = vec![format!("{:.1}", panel.series[0].points[i].0)];
            row.extend(
                panel
                    .series
                    .iter()
                    .map(|ser| format!("{:.2}", ser.points[i].1)),
            );
            t.row(row);
        }
        let _ = write!(s, "{t}");
    }
    s
}

fn render_fig7(lab: &mut Lab) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Figure 7: base predictor accuracy comparison (d=1, %) =="
    );
    let mut t = TextTable::new(["application", "Cosmos", "MSP", "VMSP"]);
    for app in AppId::ALL {
        let mut cells = vec![app.to_string()];
        cells.extend(PredictorKind::ALL.map(|kind| pct(lab.eval(app, kind, 1).stats.accuracy())));
        t.row(cells);
    }
    let _ = write!(s, "{t}");
    s
}

fn render_fig8(lab: &mut Lab) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Figure 8: predictor accuracy with varying history depth (%) =="
    );
    let mut t = TextTable::new([
        "application",
        "Cosmos d=1",
        "Cosmos d=2",
        "Cosmos d=4",
        "MSP d=1",
        "MSP d=2",
        "MSP d=4",
        "VMSP d=1",
        "VMSP d=2",
        "VMSP d=4",
    ]);
    for app in AppId::ALL {
        let mut cells = vec![app.to_string()];
        for kind in PredictorKind::ALL {
            cells.extend([1, 2, 4].map(|d| pct(lab.eval(app, kind, d).stats.accuracy())));
        }
        t.row(cells);
    }
    let _ = write!(s, "{t}");
    s
}

fn render_table3(lab: &mut Lab) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Table 3: messages predicted (and correctly predicted), d=1, % =="
    );
    let mut t = TextTable::new(["application", "Cosmos", "MSP", "VMSP"]);
    for app in AppId::ALL {
        let mut cells = vec![app.to_string()];
        cells.extend(PredictorKind::ALL.map(|kind| {
            let stats = lab.eval(app, kind, 1).stats;
            format!(
                "{} ({})",
                pct(stats.coverage()),
                pct(stats.correct_fraction())
            )
        }));
        t.row(cells);
    }
    let _ = write!(s, "{t}");
    s
}

fn render_table4(lab: &mut Lab) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Table 4: predictor storage overhead ==");
    let _ = writeln!(
        s,
        "(pte = average pattern-table entries per allocated block; ovh = bytes per block at d=1)"
    );
    let mut t = TextTable::new([
        "application",
        "Cosmos pte d=1",
        "Cosmos pte d=4",
        "Cosmos ovh",
        "MSP pte d=1",
        "MSP pte d=4",
        "MSP ovh",
        "VMSP pte d=1",
        "VMSP pte d=4",
        "VMSP ovh",
    ]);
    for app in AppId::ALL {
        let mut cells = vec![app.to_string()];
        for kind in PredictorKind::ALL {
            let d1 = lab.eval(app, kind, 1).storage;
            let d4 = lab.eval(app, kind, 4).storage;
            for x in [d1.pte_per_block(), d4.pte_per_block(), d1.bytes_per_block()] {
                cells.push(format!("{x:.1}"));
            }
        }
        t.row(cells);
    }
    let _ = write!(s, "{t}");
    s
}

fn render_fig9(lab: &mut Lab) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Figure 9: execution time normalized to Base-DSM (%, comp + request) =="
    );
    let mut t = TextTable::new([
        "application",
        "Base comp",
        "Base req",
        "Base total",
        "FR comp",
        "FR req",
        "FR total",
        "SWI comp",
        "SWI req",
        "SWI total",
    ]);
    // Each app's bar height per system, for the summary below.
    let mut totals: Vec<[f64; 3]> = Vec::new();
    for app in AppId::ALL {
        let base_exec = lab.run(app, SpecPolicy::Base).exec_cycles as f64;
        let mut cells = vec![app.to_string()];
        let bars = SpecPolicy::ALL.map(|policy| {
            let run = lab.run(app, policy);
            let total = run.exec_cycles as f64 / base_exec;
            let request = run.avg_mem_wait() / base_exec;
            let (comp, req) = ((total - request) * 100.0, request * 100.0);
            cells.push(format!("{comp:.1}"));
            cells.push(format!("{req:.1}"));
            cells.push(format!("{:.1}", comp + req));
            comp + req
        });
        totals.push(bars);
        t.row(cells);
    }
    let _ = write!(s, "{t}");
    let _ = writeln!(s);
    let _ = writeln!(s, "{}", summary_fig9(&totals));
    s
}

/// The average and best FR and SWI bars of Figure 9, given each app's
/// bar heights for Base, FR and SWI.
fn summary_fig9(totals: &[[f64; 3]]) -> String {
    let avg = |idx: usize| totals.iter().map(|bars| bars[idx]).sum::<f64>() / totals.len() as f64;
    let best = |idx: usize| {
        totals
            .iter()
            .map(|bars| bars[idx])
            .fold(f64::INFINITY, f64::min)
    };
    format!(
        "Average execution time: FR-DSM {:.1}% (best {:.1}%), SWI-DSM {:.1}% (best {:.1}%) of Base-DSM\n\
         (paper: FR reduces execution time on average 8%, at best 17%; SWI on average 12%, at best 24%)",
        avg(1),
        best(1),
        avg(2),
        best(2)
    )
}

fn render_table5(lab: &mut Lab) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Table 5: frequency of requests, speculations, and misspeculations =="
    );
    let _ = writeln!(s, "(sent/miss as % of Base-DSM reads or writes)");
    let mut t = TextTable::new([
        "application",
        "reads(k)",
        "writes(k)",
        "FR-DSM fr sent",
        "FR-DSM fr miss",
        "SWI fr sent",
        "SWI fr miss",
        "SWI swi sent",
        "SWI swi miss",
        "SWI winv sent",
        "SWI winv miss",
    ]);
    // Also report the spec-read fractions the paper quotes in the text.
    let mut t2 = TextTable::new(["application", "FR-DSM spec reads %", "SWI-DSM spec reads %"]);
    for app in AppId::ALL {
        let base = lab.run(app, SpecPolicy::Base);
        let (reads, writes) = (base.dir_reads, base.dir_writes + base.dir_upgrades);
        let frac_r = |x: u64| pct(x as f64 / reads.max(1) as f64);
        let frac_w = |x: u64| pct(x as f64 / writes.max(1) as f64);
        let fr = lab.run(app, SpecPolicy::FirstRead);
        let (fr_spec, fr_reads) = (fr.spec, fr.spec_read_fraction());
        let swi = lab.run(app, SpecPolicy::SwiFr);
        let (swi_spec, swi_reads) = (swi.spec, swi.spec_read_fraction());
        t.row([
            app.to_string(),
            format!("{:.0}", reads as f64 / 1000.0),
            format!("{:.0}", writes as f64 / 1000.0),
            frac_r(fr_spec.fr_sent),
            frac_r(fr_spec.fr_unused),
            frac_r(swi_spec.fr_sent),
            frac_r(swi_spec.fr_unused),
            frac_r(swi_spec.swi_sent),
            frac_r(swi_spec.swi_unused),
            frac_w(swi_spec.swi_inval_sent),
            frac_w(swi_spec.swi_inval_premature),
        ]);
        t2.row([app.to_string(), pct(fr_reads), pct(swi_reads)]);
    }
    let _ = write!(s, "{t}");
    let _ = writeln!(s);
    let _ = write!(s, "{t2}");
    s
}
