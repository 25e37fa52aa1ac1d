//! `perf_snapshot` — machine-readable performance snapshot.
//!
//! Two sections, two JSON files, so successive PRs can track the perf
//! trajectory without parsing bench logs:
//!
//! * **Predictors** (`BENCH_predictors.json`): predictor-throughput
//!   micro-measurements (the same stream shape as
//!   `benches/predictors.rs`), the speculation-feedback path, and the
//!   VMSP storage footprint at 16 and 256 processors (spill bytes and
//!   hash-cons dedup ratio for wide reader vectors).
//! * **Protocol** (`BENCH_protocol.json`): end-to-end whole-machine
//!   simulations of the paper's application suite (default scale, 16
//!   nodes) under all three system policies — wall time, simulation
//!   events processed, and events/second — alongside the recorded
//!   seed baseline (BinaryHeap event queue + per-home `HashMap`
//!   directories) so the speedup is visible in one file; plus the
//!   `scaling` section: the nodes × worker-threads matrix (16/64/256
//!   nodes, sequential vs windowed 1/2/4 workers) of the sharded
//!   engine.
//!
//! ```text
//! perf_snapshot [--out FILE] [--protocol-out FILE] [--skip-protocol]
//!     [--engine seq|windowed]
//!     (defaults: BENCH_predictors.json, BENCH_protocol.json)
//! ```
//!
//! `--engine` runs the end-to-end suite on the chosen engine (windowed
//! at 2 workers) and restricts the scaling matrix to that
//! engine family; the default keeps the historical shape — sequential
//! suite, full matrix.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use specdsm_bench::producer_consumer_stream;
use specdsm_core::{History, PatternTable, PredictorKind, SharingPredictor, Symbol, Vmsp};
use specdsm_protocol::{EngineConfig, FaultStats, SpecPolicy, System, SystemConfig};
use specdsm_types::{
    BlockAddr, DirMsg, MachineConfig, ProcId, ReaderSet, ReaderSetInterner, ReqKind,
};
use specdsm_workloads::{fault_plan, AppId, Scale};

/// Times `routine` adaptively: warm up, then run batches until the
/// window fills. Returns mean ns per call.
fn measure<F: FnMut() -> u64>(mut routine: F, window: Duration) -> f64 {
    // Warm-up call (also keeps the optimizer honest via the sink).
    let mut sink = 0u64;
    sink = sink.wrapping_add(routine());
    let probe_start = Instant::now();
    sink = sink.wrapping_add(routine());
    let probe = probe_start.elapsed().max(Duration::from_nanos(1));
    let batch = (window.as_nanos() / 8 / probe.as_nanos()).clamp(1, 1 << 20) as u64;

    let mut total = Duration::ZERO;
    let mut calls = 0u64;
    while total < window {
        let start = Instant::now();
        for _ in 0..batch {
            sink = sink.wrapping_add(routine());
        }
        total += start.elapsed();
        calls += batch;
    }
    std::hint::black_box(sink);
    total.as_nanos() as f64 / calls as f64
}

struct ObserveRow {
    predictor: String,
    depth: usize,
    msgs_per_run: usize,
    ns_per_msg: f64,
    ops_per_sec: f64,
}

struct FeedbackRow {
    op: &'static str,
    table_entries: usize,
    ns_per_op: f64,
}

fn observe_rows(window: Duration) -> Vec<ObserveRow> {
    let stream = producer_consumer_stream(64, 20);
    let mut rows = Vec::new();
    for kind in PredictorKind::ALL {
        for depth in [1usize, 2, 4] {
            let ns_per_run = measure(
                || {
                    let mut p = kind.build(depth, 16);
                    for &(block, msg) in &stream {
                        p.observe(block, msg);
                    }
                    p.stats().correct
                },
                window,
            );
            let ns_per_msg = ns_per_run / stream.len() as f64;
            rows.push(ObserveRow {
                predictor: kind.to_string(),
                depth,
                msgs_per_run: stream.len(),
                ns_per_msg,
                ops_per_sec: 1e9 / ns_per_msg,
            });
        }
    }
    rows
}

fn feedback_rows(window: Duration) -> Vec<FeedbackRow> {
    let mut rows = Vec::new();
    let mut sets = ReaderSetInterner::new();
    for entries in [64usize, 1024, 4096] {
        let mut table = PatternTable::new();
        let mut keys = Vec::with_capacity(entries);
        for i in 0..entries {
            let mut h = History::new(2);
            h.push(Symbol::Req(ReqKind::Upgrade, ProcId(i % 64)));
            h.push(Symbol::Req(ReqKind::Read, ProcId(i / 64)));
            let vec = sets.intern_owned(ReaderSet::from_iter([ProcId(1), ProcId(2)]));
            table.learn(&h, Symbol::ReadVec(vec));
            keys.push(h.key());
        }
        assert_eq!(table.len(), entries);

        let mut marked = table.clone();
        let ns = measure(
            || {
                keys.iter()
                    .map(|&k| u64::from(marked.set_swi_premature(k)))
                    .sum()
            },
            window,
        ) / keys.len() as f64;
        rows.push(FeedbackRow {
            op: "set_swi_premature",
            table_entries: entries,
            ns_per_op: ns,
        });

        let mut pruned = table.clone();
        let ns = measure(
            || {
                keys.iter()
                    .map(|&k| u64::from(pruned.prune_reader(&mut sets, k, ProcId(9))))
                    .sum()
            },
            window,
        ) / keys.len() as f64;
        rows.push(FeedbackRow {
            op: "prune_reader",
            table_entries: entries,
            ns_per_op: ns,
        });
    }
    rows
}

struct StorageRow {
    num_procs: usize,
    blocks: u64,
    entries: u64,
    sw_bytes_total: u64,
    spill_bytes: u64,
    spill_unique: u64,
    spill_refs: u64,
    dedup_ratio: f64,
}

/// VMSP software-storage footprint at 16 and 256 processors after the
/// same training run (256 blocks, four read phases each, one stable
/// wide read vector). On the 16-processor machine every read vector
/// fits the inline 64-bit word, so `spill_bytes` is 0 and the dedup
/// ratio is 1. At 256 processors the identical sharing pattern spills,
/// and the hash-cons arena stores the vector **once** no matter how
/// many pattern-table entries reference it — `dedup_ratio` is
/// references per unique spilled set, and `sw_bytes_total` charges the
/// arena words (a cost the report used to omit entirely).
fn storage_rows() -> Vec<StorageRow> {
    [16usize, 256]
        .iter()
        .map(|&procs| {
            let mut vmsp = Vmsp::new(2, procs);
            let readers = [1usize, 2, procs / 2, procs - 1];
            for bi in 0..256u64 {
                let b = BlockAddr(bi);
                for _ in 0..4 {
                    vmsp.observe(b, DirMsg::upgrade(ProcId(3)));
                    for &p in &readers {
                        vmsp.observe(b, DirMsg::read(ProcId(p)));
                    }
                }
                vmsp.observe(b, DirMsg::upgrade(ProcId(3)));
            }
            let rep = vmsp.storage();
            StorageRow {
                num_procs: procs,
                blocks: rep.blocks,
                entries: rep.entries,
                sw_bytes_total: rep.sw_bytes_total(),
                spill_bytes: rep.spill_bytes,
                spill_unique: rep.spill_unique,
                spill_refs: rep.spill_refs,
                dedup_ratio: rep.dedup_ratio(),
            }
        })
        .collect()
}

struct ProtoRow {
    app: String,
    policy: String,
    wall_ms: f64,
    sim_events: u64,
    exec_cycles: u64,
}

/// Seed-state reference: the same suite, measured on this container at
/// the commit *before* the calendar-queue + dense-directory rework
/// (`BinaryHeap<Reverse<Entry>>` scheduler, `HashMap<BlockAddr,
/// DirBlock>` per home, SipHash caches, no LTO). Wall-clock numbers are
/// machine-dependent; the point of keeping them next to the live
/// measurement is the *ratio* on identical hardware.
const SEED_BASELINE_NOTE: &str =
    "seed = pre-calendar-queue engine (BinaryHeap scheduler, HashMap directories), \
     same container, best of 3 suite passes";
const SEED_SUITE_WALL_MS: f64 = 2256.0;
const SEED_PER_RUN_WALL_MS: [(&str, f64); 21] = [
    ("appbt/Base-DSM", 57.0),
    ("appbt/FR-DSM", 62.0),
    ("appbt/SWI-DSM", 66.0),
    ("barnes/Base-DSM", 41.0),
    ("barnes/FR-DSM", 47.0),
    ("barnes/SWI-DSM", 52.0),
    ("em3d/Base-DSM", 141.0),
    ("em3d/FR-DSM", 164.0),
    ("em3d/SWI-DSM", 174.0),
    ("moldyn/Base-DSM", 83.0),
    ("moldyn/FR-DSM", 97.0),
    ("moldyn/SWI-DSM", 94.0),
    ("ocean/Base-DSM", 17.0),
    ("ocean/FR-DSM", 18.0),
    ("ocean/SWI-DSM", 18.0),
    ("tomcatv/Base-DSM", 34.0),
    ("tomcatv/FR-DSM", 34.0),
    ("tomcatv/SWI-DSM", 49.0),
    ("unstructured/Base-DSM", 273.0),
    ("unstructured/FR-DSM", 331.0),
    ("unstructured/SWI-DSM", 383.0),
];

/// Runs the full application suite end to end (default scale, paper
/// machine) once per policy on `engine` and records per-run wall time
/// and event throughput. One untimed warm-up run precedes the
/// measurements.
fn protocol_rows(engine: EngineConfig) -> Vec<ProtoRow> {
    let machine = MachineConfig::paper_machine();
    // Warm-up: populate allocator arenas and branch predictors.
    {
        let w = AppId::Ocean.build(&machine, Scale::Default);
        let cfg = SystemConfig {
            machine: machine.clone(),
            engine,
            ..SystemConfig::default()
        };
        let _ = System::new(cfg, w.as_ref()).expect("valid").run();
    }
    let mut rows = Vec::new();
    for app in AppId::ALL {
        let w = app.build(&machine, Scale::Default);
        for policy in SpecPolicy::ALL {
            let cfg = SystemConfig {
                machine: machine.clone(),
                policy,
                engine,
                ..SystemConfig::default()
            };
            let sys = System::new(cfg, w.as_ref()).expect("valid");
            let start = Instant::now();
            let stats = sys.run();
            let wall = start.elapsed();
            rows.push(ProtoRow {
                app: app.to_string(),
                policy: policy.to_string(),
                wall_ms: wall.as_secs_f64() * 1e3,
                sim_events: stats.sim_events,
                exec_cycles: stats.exec_cycles,
            });
        }
    }
    rows
}

struct ScalingRow {
    nodes: usize,
    scale: &'static str,
    /// `"sequential"` or `"windowed-Nt"`.
    engine: String,
    /// Worker threads (0 for the sequential single-shard engine).
    threads: usize,
    wall_ms: f64,
    sim_events: u64,
    exec_cycles: u64,
}

/// The nodes × engine × worker-threads scaling matrix over em3d (the
/// most communication-bound app): 16 nodes (the paper machine), 64
/// (the former `ReaderSet` ceiling), and 256 (well past it, quick
/// inputs to bound runtime). Each node count runs the sequential
/// engine once and the windowed engine at 1, 2, and 4 workers.
/// `only` restricts the matrix to one engine family (`--engine`).
fn scaling_rows(only: Option<&str>) -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    let wanted = |family: &str| only.is_none_or(|f| f == family);
    for (nodes, scale, scale_name) in [
        (16usize, Scale::Default, "Default"),
        (64, Scale::Default, "Default"),
        (256, Scale::Quick, "Quick"),
    ] {
        let mut engines = Vec::new();
        if wanted("seq") {
            engines.push(("sequential".to_string(), 0usize, EngineConfig::Sequential));
        }
        if wanted("windowed") {
            for threads in [1usize, 2, 4] {
                engines.push((
                    format!("windowed-{threads}t"),
                    threads,
                    EngineConfig::Windowed { threads },
                ));
            }
        }
        for (engine_name, threads, engine) in engines {
            let machine = MachineConfig::with_nodes(nodes);
            let w = AppId::Em3d.build(&machine, scale);
            let cfg = SystemConfig {
                machine,
                policy: SpecPolicy::SwiFr,
                engine,
                ..SystemConfig::default()
            };
            let sys = System::new(cfg, w.as_ref()).expect("valid");
            let start = Instant::now();
            let stats = sys.run();
            rows.push(ScalingRow {
                nodes,
                scale: scale_name,
                engine: engine_name,
                threads,
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
                sim_events: stats.sim_events,
                exec_cycles: stats.exec_cycles,
            });
        }
    }
    rows
}

struct FaultRow {
    policy: String,
    engine: &'static str,
    wall_ms: f64,
    sim_events: u64,
    exec_cycles: u64,
    faults: FaultStats,
}

/// Fault-injection overhead probe: em3d (the most communication-bound
/// app) under the suite-standard fault plan with the coherence auditor
/// armed, on both engines. The interesting numbers are the recovery
/// counters and the wall-clock cost of the fault + audit machinery
/// relative to the reliable rows above.
fn fault_rows() -> Vec<FaultRow> {
    let machine = MachineConfig::paper_machine();
    let w = AppId::Em3d.build(&machine, Scale::Default);
    let plan = fault_plan(0xbad5eed);
    let mut rows = Vec::new();
    for policy in [SpecPolicy::Base, SpecPolicy::SwiFr] {
        for (engine_name, engine) in [
            ("sequential", EngineConfig::Sequential),
            ("windowed-2t", EngineConfig::Windowed { threads: 2 }),
        ] {
            let cfg = SystemConfig {
                machine: machine.clone(),
                policy,
                engine,
                faults: Some(plan.clone()),
                audit: true,
                ..SystemConfig::default()
            };
            let sys = System::new(cfg, w.as_ref()).expect("valid");
            let start = Instant::now();
            let stats = sys.run();
            rows.push(FaultRow {
                policy: policy.to_string(),
                engine: engine_name,
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
                sim_events: stats.sim_events,
                exec_cycles: stats.exec_cycles,
                faults: stats.faults,
            });
        }
    }
    rows
}

/// Pre-arena (PR 2 engine: map-based online VMSP + `(block, proc)`
/// ticket map) speculative-policy overhead on this container, computed
/// from that commit's recorded per-run walls. The arena rework's goal
/// is to pull the live ratios below these.
const PRE_ARENA_FR_WALL: f64 = 1.343;
const PRE_ARENA_SWI_WALL: f64 = 1.566;
const PRE_ARENA_FR_PER_EVENT: f64 = 1.529;
const PRE_ARENA_SWI_PER_EVENT: f64 = 1.870;

/// Aggregate `(wall ratio, per-event ratio)` of `policy` vs Base-DSM
/// across the suite: total wall over total wall, and mean ns/event
/// over mean ns/event.
fn policy_overhead(rows: &[ProtoRow], policy: &str) -> (f64, f64) {
    let sum = |p: &str| -> (f64, u64) {
        rows.iter()
            .filter(|r| r.policy == p)
            .fold((0.0, 0), |(w, e), r| (w + r.wall_ms, e + r.sim_events))
    };
    let (base_wall, base_events) = sum("Base-DSM");
    let (wall, events) = sum(policy);
    (
        wall / base_wall,
        (wall / events as f64) / (base_wall / base_events as f64),
    )
}

fn render_protocol_json(
    engine_name: &str,
    rows: &[ProtoRow],
    scaling: &[ScalingRow],
    faults: &[FaultRow],
) -> String {
    let suite_wall_ms: f64 = rows.iter().map(|r| r.wall_ms).sum();
    let total_events: u64 = rows.iter().map(|r| r.sim_events).sum();
    let events_per_sec = total_events as f64 / (suite_wall_ms / 1e3);
    let speedup = SEED_SUITE_WALL_MS / suite_wall_ms;
    let (fr_wall, fr_event) = policy_overhead(rows, "FR-DSM");
    let (swi_wall, swi_event) = policy_overhead(rows, "SWI-DSM");

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"protocol_end_to_end\",\n");
    out.push_str("  \"scale\": \"Default\",\n");
    let _ = writeln!(out, "  \"suite_engine\": \"{engine_name}\",");
    out.push_str("  \"machine_nodes\": 16,\n");
    let _ = writeln!(
        out,
        "  \"suite\": {{\"wall_ms\": {suite_wall_ms:.1}, \"sim_events\": {total_events}, \
         \"events_per_sec\": {events_per_sec:.0}}},"
    );
    // Wall-clock ratio against the recorded seed measurement. Only
    // meaningful where the baseline was taken — on a different host it
    // mostly measures the hardware, hence the explicit key name.
    let _ = writeln!(
        out,
        "  \"wall_speedup_vs_seed_same_host_only\": {speedup:.2},"
    );
    // The ROADMAP's named hot spot: how much more wall-clock the
    // speculative configurations cost than Base-DSM. `*_wall` compares
    // whole-suite wall time; `*_per_event` divides by scheduler events
    // first (the policies execute different event counts, so this is
    // the honest per-event engine cost). `baseline_pre_arena` is the
    // same ratio measured on the PR 2 engine (map-based VMSP + ticket
    // map) on this container.
    out.push_str("  \"policy_overhead\": {\n");
    let _ = writeln!(out, "    \"fr_vs_base_wall\": {fr_wall:.3},");
    let _ = writeln!(out, "    \"swi_vs_base_wall\": {swi_wall:.3},");
    let _ = writeln!(out, "    \"fr_vs_base_per_event\": {fr_event:.3},");
    let _ = writeln!(out, "    \"swi_vs_base_per_event\": {swi_event:.3},");
    let _ = writeln!(
        out,
        "    \"baseline_pre_arena\": {{\"fr_vs_base_wall\": {PRE_ARENA_FR_WALL}, \
         \"swi_vs_base_wall\": {PRE_ARENA_SWI_WALL}, \
         \"fr_vs_base_per_event\": {PRE_ARENA_FR_PER_EVENT}, \
         \"swi_vs_base_per_event\": {PRE_ARENA_SWI_PER_EVENT}}},"
    );
    out.push_str("    \"per_app\": [\n");
    let apps: Vec<&str> = rows
        .iter()
        .filter(|r| r.policy == "Base-DSM")
        .map(|r| r.app.as_str())
        .collect();
    for (i, app) in apps.iter().enumerate() {
        let wall = |policy: &str| -> f64 {
            rows.iter()
                .find(|r| r.app == *app && r.policy == policy)
                .map_or(f64::NAN, |r| r.wall_ms)
        };
        let base = wall("Base-DSM");
        let comma = if i + 1 == apps.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "      {{\"app\": \"{app}\", \"fr_vs_base_wall\": {:.3}, \
             \"swi_vs_base_wall\": {:.3}}}{comma}",
            wall("FR-DSM") / base,
            wall("SWI-DSM") / base
        );
    }
    out.push_str("    ]\n");
    out.push_str("  },\n");
    out.push_str("  \"per_run\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let eps = r.sim_events as f64 / (r.wall_ms / 1e3);
        let _ = writeln!(
            out,
            "    {{\"app\": \"{}\", \"policy\": \"{}\", \"wall_ms\": {:.1}, \
             \"sim_events\": {}, \"events_per_sec\": {:.0}, \"exec_cycles\": {}}}{comma}",
            r.app, r.policy, r.wall_ms, r.sim_events, eps, r.exec_cycles
        );
    }
    out.push_str("  ],\n");
    // The nodes × worker-threads matrix (em3d, SWI-DSM). `threads: 0`
    // is the sequential single-shard engine; `threads >= 1` the
    // windowed sharded engine. Worker speedup only materializes on
    // multi-core hosts: on a single-CPU container the workers
    // timeshare and the barrier overhead is all that remains, so read
    // the 2/4-thread walls together with `host_cpus`.
    let host_cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let _ = writeln!(out, "  \"host_cpus\": {host_cpus},");
    out.push_str("  \"scaling\": [\n");
    for (i, r) in scaling.iter().enumerate() {
        let comma = if i + 1 == scaling.len() { "" } else { "," };
        let eps = r.sim_events as f64 / (r.wall_ms / 1e3);
        let _ = writeln!(
            out,
            "    {{\"app\": \"em3d\", \"nodes\": {}, \"scale\": \"{}\", \"engine\": \"{}\", \
             \"threads\": {}, \"wall_ms\": {:.1}, \"sim_events\": {}, \"events_per_sec\": {:.0}, \
             \"exec_cycles\": {}}}{comma}",
            r.nodes, r.scale, r.engine, r.threads, r.wall_ms, r.sim_events, eps, r.exec_cycles
        );
    }
    out.push_str("  ],\n");
    // em3d under the suite-standard fault plan (audited): recovery
    // counters plus the wall cost of faults + audit vs the reliable
    // per_run row for the same app/policy.
    out.push_str("  \"faults\": [\n");
    for (i, r) in faults.iter().enumerate() {
        let comma = if i + 1 == faults.len() { "" } else { "," };
        let reliable = rows
            .iter()
            .find(|p| p.app == "em3d" && p.policy == r.policy)
            .map_or(f64::NAN, |p| p.wall_ms);
        let f = r.faults;
        let _ = writeln!(
            out,
            "    {{\"app\": \"em3d\", \"policy\": \"{}\", \"engine\": \"{}\", \
             \"wall_ms\": {:.1}, \"wall_vs_reliable\": {:.3}, \"sim_events\": {}, \
             \"exec_cycles\": {}, \"drops\": {}, \"duplicates\": {}, \"retries\": {}, \
             \"dup_suppressed\": {}, \"recovery_cycles\": {}}}{comma}",
            r.policy,
            r.engine,
            r.wall_ms,
            r.wall_ms / reliable,
            r.sim_events,
            r.exec_cycles,
            f.drops,
            f.duplicates,
            f.retries,
            f.dup_suppressed,
            f.recovery_cycles
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"baseline_seed\": {\n");
    let _ = writeln!(out, "    \"note\": \"{SEED_BASELINE_NOTE}\",");
    let _ = writeln!(out, "    \"suite_wall_ms\": {SEED_SUITE_WALL_MS:.1},");
    out.push_str("    \"per_run_wall_ms\": {\n");
    for (i, (key, ms)) in SEED_PER_RUN_WALL_MS.iter().enumerate() {
        let comma = if i + 1 == SEED_PER_RUN_WALL_MS.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(out, "      \"{key}\": {ms:.1}{comma}");
    }
    out.push_str("    }\n");
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

fn render_json(observe: &[ObserveRow], feedback: &[FeedbackRow], storage: &[StorageRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"predictor_perf_snapshot\",\n");
    out.push_str("  \"unit\": \"ns\",\n");
    out.push_str("  \"observe\": [\n");
    for (i, r) in observe.iter().enumerate() {
        let comma = if i + 1 == observe.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"predictor\": \"{}\", \"depth\": {}, \"msgs_per_run\": {}, \
             \"ns_per_msg\": {:.2}, \"ops_per_sec\": {:.0}}}{comma}",
            r.predictor, r.depth, r.msgs_per_run, r.ns_per_msg, r.ops_per_sec
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"feedback\": [\n");
    for (i, r) in feedback.iter().enumerate() {
        let comma = if i + 1 == feedback.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"op\": \"{}\", \"table_entries\": {}, \"ns_per_op\": {:.2}}}{comma}",
            r.op, r.table_entries, r.ns_per_op
        );
    }
    out.push_str("  ],\n");
    // VMSP storage after an identical training run at two machine
    // widths. `sw_bytes_total` includes the spilled (>64-proc) reader
    // vectors in the hash-cons arena; `dedup_ratio` is spilled-vector
    // references per unique arena entry (1.0 when nothing spills).
    out.push_str("  \"storage\": [\n");
    for (i, r) in storage.iter().enumerate() {
        let comma = if i + 1 == storage.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"num_procs\": {}, \"blocks\": {}, \"entries\": {}, \
             \"sw_bytes_total\": {}, \"spill_bytes\": {}, \"spill_unique\": {}, \
             \"spill_refs\": {}, \"dedup_ratio\": {:.2}}}{comma}",
            r.num_procs,
            r.blocks,
            r.entries,
            r.sw_bytes_total,
            r.spill_bytes,
            r.spill_unique,
            r.spill_refs,
            r.dedup_ratio
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn main() {
    let mut out_path = String::from("BENCH_predictors.json");
    let mut protocol_out_path = String::from("BENCH_protocol.json");
    let mut skip_protocol = false;
    let mut engine_arg: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a file path");
                    std::process::exit(2);
                });
            }
            "--protocol-out" => {
                protocol_out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--protocol-out needs a file path");
                    std::process::exit(2);
                });
            }
            "--skip-protocol" => skip_protocol = true,
            "--engine" => {
                engine_arg = Some(args.next().unwrap_or_default());
            }
            "--help" | "-h" => {
                println!(
                    "usage: perf_snapshot [--out FILE] [--protocol-out FILE] [--skip-protocol] \
                     [--engine seq|windowed]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    let (engine_name, suite_engine) = match engine_arg.as_deref() {
        None | Some("seq") => ("seq", EngineConfig::Sequential),
        Some("windowed") => ("windowed", EngineConfig::Windowed { threads: 2 }),
        Some(other) => {
            eprintln!("unknown engine '{other}' (seq|windowed)");
            std::process::exit(2);
        }
    };

    let window = Duration::from_millis(300);
    eprintln!("measuring observe throughput (9 configurations)...");
    let observe = observe_rows(window);
    eprintln!("measuring feedback paths (6 configurations)...");
    let feedback = feedback_rows(window);
    eprintln!("measuring VMSP storage footprint (16 and 256 procs)...");
    let storage = storage_rows();

    let json = render_json(&observe, &feedback, &storage);
    print!("{json}");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");

    if skip_protocol {
        return;
    }
    eprintln!("running end-to-end suite (7 apps x 3 policies, default scale, {engine_name})...");
    let rows = protocol_rows(suite_engine);
    eprintln!("running scaling matrix (nodes 16/64/256 x engines)...");
    let scaling = scaling_rows(engine_arg.as_deref());
    eprintln!("running fault-injection probe (em3d, audited, 2 policies x 2 engines)...");
    let faults = fault_rows();
    let json = render_protocol_json(engine_name, &rows, &scaling, &faults);
    print!("{json}");
    if let Err(e) = std::fs::write(&protocol_out_path, &json) {
        eprintln!("cannot write {protocol_out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {protocol_out_path}");
}
