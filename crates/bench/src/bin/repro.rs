//! `repro` — regenerate every table and figure of the paper's
//! evaluation section.
//!
//! ```text
//! repro [EXPERIMENT ...] [--scale quick|default|paper] [--threads N]
//!       [--engine seq|windowed] [--out DIR]
//!
//! EXPERIMENT: config fig6 fig7 fig8 table3 table4 fig9 table5 all
//!             (default: all)
//! ```
//!
//! `--engine` picks the simulation engine explicitly: `seq` (the
//! default single-shard engine) or `windowed` (conservative bounded-lag
//! shards). `--threads N` sets the windowed engine's worker count; on
//! its own it implies `--engine windowed` (`--threads 0`: sequential). Engine choice perturbs results only by deterministic
//! same-cycle tie-breaking — see `docs/ARCHITECTURE.md`.
//!
//! Output goes to stdout and, with `--out`, one text file per
//! experiment in DIR.

use std::fmt::Write as _;
use std::path::PathBuf;

use specdsm_bench::{fig6, fig7, fig8, fig9, table3, table4, table5, Lab, Scale, TextTable};
use specdsm_protocol::{EngineConfig, SpecPolicy};
use specdsm_types::MachineConfig;
use specdsm_workloads::AppId;

fn main() {
    let mut experiments: Vec<String> = Vec::new();
    let mut scale = Scale::Default;
    let mut out_dir: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut engine: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = match v.as_str() {
                    "quick" => Scale::Quick,
                    "default" => Scale::Default,
                    "paper" => Scale::Paper,
                    other => {
                        eprintln!("unknown scale '{other}' (quick|default|paper)");
                        std::process::exit(2);
                    }
                };
            }
            "--threads" => {
                let v = args.next().unwrap_or_default();
                threads = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--threads needs a number");
                    std::process::exit(2);
                }));
            }
            "--engine" => {
                engine = Some(args.next().unwrap_or_default());
            }
            "--out" => {
                out_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                })));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [config|fig6|fig7|fig8|table3|table4|fig9|table5|all ...] \
                     [--scale quick|default|paper] [--threads N] \
                     [--engine seq|windowed] [--out DIR]"
                );
                return;
            }
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        experiments = [
            "config", "fig6", "fig7", "fig8", "table3", "table4", "fig9", "table5",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    let mut lab = Lab::new(scale);
    lab.set_engine(match (engine.as_deref(), threads) {
        // `--threads N` alone selects the windowed engine (N = 0 for
        // sequential).
        (None, None | Some(0)) | (Some("seq"), _) => EngineConfig::Sequential,
        (None, Some(threads)) => EngineConfig::Windowed { threads },
        (Some("windowed"), _) => EngineConfig::Windowed {
            threads: threads.unwrap_or(1).max(1),
        },
        (Some(other), _) => {
            eprintln!("unknown engine '{other}' (seq|windowed)");
            std::process::exit(2);
        }
    });
    for exp in &experiments {
        let text = match exp.as_str() {
            "config" => render_config(),
            "fig6" => render_fig6(),
            "fig7" => render_fig7(&mut lab),
            "fig8" => render_fig8(&mut lab),
            "table3" => render_table3(&mut lab),
            "table4" => render_table4(&mut lab),
            "fig9" => render_fig9(&mut lab),
            "table5" => render_table5(&mut lab),
            "detail" => render_detail(&mut lab),
            "ablation" => render_ablation(scale),
            other => {
                eprintln!("unknown experiment '{other}'");
                std::process::exit(2);
            }
        };
        println!("{text}");
        if let Some(dir) = &out_dir {
            std::fs::write(dir.join(format!("{exp}.txt")), &text).expect("write experiment output");
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
            let r = lab.run(app, policy).clone();
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

fn render_ablation(scale: Scale) -> String {
    use specdsm_protocol::{System, SystemConfig};

    let mut s = String::new();
    let machine = MachineConfig::paper_machine();

    let run = |machine: MachineConfig, policy: SpecPolicy, depth: usize, app: AppId| {
        let w = app.build(&machine, scale);
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
        let base = run(machine.clone(), SpecPolicy::Base, 1, app).exec_cycles as f64;
        let mut cells = vec![app.to_string()];
        let runs: Vec<_> = [1usize, 2, 4]
            .iter()
            .map(|&d| run(machine.clone(), SpecPolicy::SwiFr, d, app))
            .collect();
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
        let base = run(m.clone(), SpecPolicy::Base, 1, AppId::Em3d).exec_cycles;
        let swi = run(m.clone(), SpecPolicy::SwiFr, 1, AppId::Em3d).exec_cycles;
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

fn render_config() -> String {
    let m = MachineConfig::paper_machine();
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
    t.row(["Coherence block size", &format!("{} bytes", m.block_bytes)]);
    let _ = writeln!(s, "{t}");
    let _ = writeln!(s, "== Table 2: applications and input data sets ==");
    let mut t2 = TextTable::new(["application", "paper input"]);
    for app in AppId::ALL {
        t2.row([app.to_string(), app.paper_input().to_string()]);
    }
    let _ = write!(s, "{t2}");
    s
}

fn render_fig6() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Figure 6: potential speedup in a speculative coherent DSM =="
    );
    for panel in fig6(10) {
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
    for row in fig7(lab) {
        t.row([
            row.app.to_string(),
            pct(row.accuracy[0]),
            pct(row.accuracy[1]),
            pct(row.accuracy[2]),
        ]);
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
    for row in fig8(lab) {
        let mut cells = vec![row.app.to_string()];
        for p in 0..3 {
            for d in 0..3 {
                cells.push(pct(row.accuracy[p][d]));
            }
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
    for row in table3(lab) {
        let cell = |i: usize| format!("{} ({})", pct(row.predicted[i].0), pct(row.predicted[i].1));
        t.row([row.app.to_string(), cell(0), cell(1), cell(2)]);
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
    for row in table4(lab) {
        let mut cells = vec![row.app.to_string()];
        for (d1, d4, ovh) in row.storage {
            cells.push(format!("{d1:.1}"));
            cells.push(format!("{d4:.1}"));
            cells.push(format!("{ovh:.1}"));
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
    for row in fig9(lab) {
        let mut cells = vec![row.app.to_string()];
        for (comp, req) in row.bars {
            cells.push(format!("{comp:.1}"));
            cells.push(format!("{req:.1}"));
            cells.push(format!("{:.1}", comp + req));
        }
        t.row(cells);
    }
    let _ = write!(s, "{t}");
    let _ = writeln!(s);
    let _ = writeln!(s, "{}", summary_fig9(lab));
    s
}

fn summary_fig9(lab: &mut Lab) -> String {
    let rows = fig9(lab);
    let avg = |idx: usize| {
        let sum: f64 = rows.iter().map(|r| r.bars[idx].0 + r.bars[idx].1).sum();
        sum / rows.len() as f64
    };
    let best = |idx: usize| {
        rows.iter()
            .map(|r| r.bars[idx].0 + r.bars[idx].1)
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
    for row in table5(lab) {
        t.row([
            row.app.to_string(),
            format!("{:.0}", row.base_reads as f64 / 1000.0),
            format!("{:.0}", row.base_writes as f64 / 1000.0),
            pct(row.fr_dsm.0),
            pct(row.fr_dsm.1),
            pct(row.swi_dsm_reads.0),
            pct(row.swi_dsm_reads.1),
            pct(row.swi_dsm_reads.2),
            pct(row.swi_dsm_reads.3),
            pct(row.swi_dsm_invals.0),
            pct(row.swi_dsm_invals.1),
        ]);
    }
    let _ = write!(s, "{t}");
    // Also report the spec-read fractions the paper quotes in the text.
    let _ = writeln!(s);
    let mut t2 = TextTable::new(["application", "FR-DSM spec reads %", "SWI-DSM spec reads %"]);
    for app in AppId::ALL {
        let fr = lab.run(app, SpecPolicy::FirstRead).spec_read_fraction();
        let swi = lab.run(app, SpecPolicy::SwiFr).spec_read_fraction();
        t2.row([app.to_string(), pct(fr), pct(swi)]);
    }
    let _ = write!(s, "{t2}");
    s
}
