//! End-to-end integration tests spanning the whole workspace: the
//! machine calibration of Table 1, coherence correctness under all
//! three systems, the full application suite, and trace-driven
//! predictor evaluation.

use specdsm::core::{evaluate_trace, PredictorKind};
use specdsm::prelude::*;
use specdsm::protocol::{System, SystemConfig};
use specdsm::types::NodeId;
use specdsm::workloads::{Migratory, ProducerConsumer};

/// A workload described directly as per-processor op vectors.
struct Script {
    ops: Vec<Vec<Op>>,
}

impl Workload for Script {
    fn name(&self) -> &str {
        "script"
    }
    fn num_procs(&self) -> usize {
        self.ops.len()
    }
    fn build_streams(&self) -> Vec<OpStream> {
        self.ops
            .iter()
            .map(|v| Box::new(v.clone().into_iter()) as OpStream)
            .collect()
    }
}

fn run(machine: MachineConfig, policy: SpecPolicy, w: &dyn Workload) -> RunStats {
    let cfg = SystemConfig {
        machine,
        policy,
        max_cycles: Some(500_000_000),
        ..SystemConfig::default()
    };
    System::new(cfg, w).expect("valid system").run()
}

// ---------------------------------------------------------------------
// Table 1 calibration
// ---------------------------------------------------------------------

#[test]
fn remote_read_round_trip_matches_table_1() {
    // A clean remote read miss costs exactly the paper's 418 cycles.
    let machine = MachineConfig::paper_machine();
    let block = machine.page_on(NodeId(0), 0);
    let mut ops = vec![Vec::new(); 16];
    ops[3] = vec![Op::Read(block)];
    let stats = run(machine, SpecPolicy::Base, &Script { ops });
    assert_eq!(stats.per_proc[3].mem_wait, 418);
}

#[test]
fn local_access_matches_table_1() {
    let machine = MachineConfig::paper_machine();
    let block = machine.page_on(NodeId(0), 0);
    let mut ops = vec![Vec::new(); 16];
    ops[0] = vec![Op::Read(block)];
    let stats = run(machine, SpecPolicy::Base, &Script { ops });
    assert_eq!(stats.per_proc[0].mem_wait, 104);
}

#[test]
fn four_hop_ownership_transfer() {
    // Read of a dirty block: request + invalidate + writeback + data,
    // the four-message transaction of the paper's Figure 1.
    let machine = MachineConfig::paper_machine();
    let block = machine.page_on(NodeId(2), 0);
    let mut ops = vec![vec![Op::Barrier, Op::Barrier]; 16];
    ops[0] = vec![Op::Write(block), Op::Barrier, Op::Barrier];
    ops[1] = vec![Op::Barrier, Op::Read(block), Op::Barrier];
    let stats = run(machine, SpecPolicy::Base, &Script { ops });
    // 157 (req) + 157 (inval) + 157 (wb, jittered ack path not used for
    // writebacks) + 104 (mem) + 157 (data) = 732.
    assert_eq!(stats.per_proc[1].mem_wait, 732);
}

// ---------------------------------------------------------------------
// Program semantics across systems
// ---------------------------------------------------------------------

#[test]
fn all_policies_execute_the_same_program() {
    let machine = MachineConfig::paper_machine();
    for app in AppId::ALL {
        let w = app.build(&machine, Scale::Quick).unwrap();
        let counts: Vec<(u64, u64)> = SpecPolicy::ALL
            .iter()
            .map(|&policy| {
                let s = run(machine.clone(), policy, w.as_ref());
                let reads: u64 = s.per_proc.iter().map(|p| p.reads).sum();
                let writes: u64 = s.per_proc.iter().map(|p| p.writes).sum();
                (reads, writes)
            })
            .collect();
        assert_eq!(counts[0], counts[1], "{app}: FR changed the program");
        assert_eq!(counts[0], counts[2], "{app}: SWI changed the program");
    }
}

#[test]
fn runs_are_deterministic() {
    let machine = MachineConfig::paper_machine();
    let w = AppId::Ocean.build(&machine, Scale::Quick).unwrap();
    let a = run(machine.clone(), SpecPolicy::SwiFr, w.as_ref());
    let b = run(machine, SpecPolicy::SwiFr, w.as_ref());
    assert_eq!(a.exec_cycles, b.exec_cycles);
    assert_eq!(a.remote_messages, b.remote_messages);
    assert_eq!(a.spec, b.spec);
}

#[test]
fn whole_suite_passes_coherence_checks_under_all_policies() {
    // System::run asserts directory/cache coherence at quiescence, so
    // completing is the assertion.
    let machine = MachineConfig::paper_machine();
    for app in AppId::ALL {
        let w = app.build(&machine, Scale::Quick).unwrap();
        for policy in SpecPolicy::ALL {
            let stats = run(machine.clone(), policy, w.as_ref());
            assert!(stats.exec_cycles > 0, "{app}/{policy}");
            let correct = stats.spec.verified + stats.spec.total_unused();
            assert!(
                correct <= stats.spec.total_sent() + stats.spec.dropped,
                "{app}/{policy}: speculation accounting out of balance"
            );
        }
    }
}

#[test]
fn speculation_is_never_catastrophic() {
    // The paper's analytic model warns low accuracy can slow things
    // down, but on the suite's stable patterns FR/SWI must stay within
    // a few percent of Base even where they cannot help.
    let machine = MachineConfig::paper_machine();
    for app in AppId::ALL {
        let w = app.build(&machine, Scale::Quick).unwrap();
        let base = run(machine.clone(), SpecPolicy::Base, w.as_ref()).exec_cycles as f64;
        for policy in [SpecPolicy::FirstRead, SpecPolicy::SwiFr] {
            let exec = run(machine.clone(), policy, w.as_ref()).exec_cycles as f64;
            assert!(exec <= base * 1.15, "{app}/{policy}: {exec} vs base {base}");
        }
    }
}

// ---------------------------------------------------------------------
// Speculation mechanics end to end
// ---------------------------------------------------------------------

#[test]
fn swi_hides_most_consumer_reads_on_a_message_buffer() {
    let machine = MachineConfig::paper_machine();
    let mut pc = ProducerConsumer::new(machine.clone(), 32, 4, 20);
    pc.compute = 4_000;
    let base = run(machine.clone(), SpecPolicy::Base, &pc);
    let swi = run(machine, SpecPolicy::SwiFr, &pc);
    assert!(swi.spec.swi_inval_sent > 0);
    assert!(
        swi.spec_read_fraction() > 0.8,
        "most reads speculative: {}",
        swi.spec_read_fraction()
    );
    assert!(swi.exec_cycles < base.exec_cycles);
    assert_eq!(swi.spec.swi_inval_premature, 0, "stable pattern");
}

#[test]
fn premature_swi_is_learned_and_suppressed() {
    // A producer that immediately rewrites every block: SWI's early
    // invalidation is always premature, so after the first mistakes the
    // per-pattern bits must shut it off.
    let machine = MachineConfig::paper_machine();
    let block0 = machine.page_on(NodeId(0), 0);
    let mut producer = Vec::new();
    for _ in 0..30 {
        for b in 0..8u64 {
            producer.push(Op::Write(block0.offset(b)));
        }
        // Immediate rewrite pass.
        for b in 0..8u64 {
            producer.push(Op::Write(block0.offset(b)));
        }
        producer.push(Op::Barrier);
    }
    let mut ops = vec![vec![Op::Barrier; 30]; 16];
    ops[0] = producer;
    let stats = run(machine, SpecPolicy::SwiFr, &Script { ops });
    assert!(stats.spec.swi_inval_premature > 0, "prematures detected");
    assert!(
        stats.spec.swi_inval_sent < 60,
        "suppression caps SWI attempts: {}",
        stats.spec.swi_inval_sent
    );
}

#[test]
fn race_rule_drops_speculative_copies_for_inflight_reads() {
    // All consumers read simultaneously: most pushes race with demand
    // reads and must be dropped, never installed twice.
    let machine = MachineConfig::paper_machine();
    let pc = ProducerConsumer::new(machine.clone(), 16, 8, 15);
    let fr = run(machine, SpecPolicy::FirstRead, &pc);
    assert!(fr.spec.fr_sent > 0);
    assert!(fr.spec.dropped > 0, "simultaneous reads force drops");
}

// ---------------------------------------------------------------------
// Trace-driven predictor evaluation end to end
// ---------------------------------------------------------------------

#[test]
fn recorded_traces_reproduce_paper_orderings() {
    let machine = MachineConfig::paper_machine();
    let mig = Migratory::new(machine.clone(), 8, 3, 25);
    let cfg = SystemConfig {
        machine,
        record_trace: true,
        ..SystemConfig::default()
    };
    let stats = System::new(cfg, &mig).unwrap().run();
    let trace = stats.trace.expect("trace recorded");
    assert!(trace.total_requests() > 0);
    // Stable migratory chains are near-perfectly predictable for all
    // three predictors at depth 1 (paper §7.1, moldyn's migratory
    // phase).
    for kind in PredictorKind::ALL {
        let eval = evaluate_trace(&trace, kind, 1, 16);
        assert!(
            eval.stats.accuracy() > 0.85,
            "{kind}: {}",
            eval.stats.accuracy()
        );
    }
    // And MSP needs no more storage than Cosmos.
    let cosmos = evaluate_trace(&trace, PredictorKind::Cosmos, 1, 16);
    let msp = evaluate_trace(&trace, PredictorKind::Msp, 1, 16);
    assert!(msp.storage.entries <= cosmos.storage.entries);
}

#[test]
fn analytic_model_agrees_with_simulation_direction() {
    // The model says high-accuracy speculation on a communication-bound
    // app speeds it up; check the simulator agrees on a clean case.
    let machine = MachineConfig::paper_machine();
    let mut pc = ProducerConsumer::new(machine.clone(), 48, 4, 20);
    pc.compute = 1_000;
    let base = run(machine.clone(), SpecPolicy::Base, &pc);
    let swi = run(machine, SpecPolicy::SwiFr, &pc);
    let measured_speedup = base.exec_cycles as f64 / swi.exec_cycles as f64;
    assert!(measured_speedup > 1.1);

    let model = specdsm::analytic::ModelParams {
        f: swi.spec_read_fraction(),
        p: 0.98,
        rtl: 4.0,
        n: 2.0,
    };
    let predicted = model.speedup(base.communication_ratio());
    // Direction and rough magnitude agree (the model idealizes).
    assert!(predicted > 1.1);
    assert!((predicted - measured_speedup).abs() < 1.0);
}

// ---------------------------------------------------------------------
// Wide machines: past the paper's 16 nodes and the former 64-proc limit
// ---------------------------------------------------------------------

#[test]
fn wide_sharing_at_256_procs_spills_reader_sets_end_to_end() {
    // One producer, 255 consumers: the directory's sharer list and
    // VMSP's read vectors carry >64 readers, exercising the hybrid
    // ReaderSet's spilled representation through the entire protocol —
    // including FR forwarding to a predicted set wider than one word.
    // The engine's end-of-run coherence checks validate every sharer
    // list against every cache.
    let machine = MachineConfig::with_nodes(256);
    let w = specdsm::workloads::WideSharing::new(machine.clone(), 2, 4);
    let base = run(machine.clone(), SpecPolicy::Base, &w);
    let fr = run(machine.clone(), SpecPolicy::FirstRead, &w);
    assert_eq!(base.per_proc.len(), 256);
    // Every consumer read every block each iteration.
    let reads: u64 = base.per_proc.iter().map(|p| p.reads).sum();
    assert_eq!(reads, 255 * 2 * 4);
    assert!(
        fr.spec.fr_sent > 0,
        "FR forwarded speculative copies to a wide predicted set"
    );
    let spec_hits: u64 = fr.per_proc.iter().map(|p| p.spec_read_hits).sum();
    assert!(spec_hits > 64, "speculation reached readers beyond P63");
}

#[test]
fn suite_runs_at_64_nodes_under_all_policies() {
    // A full application (em3d, quick inputs) at the former processor
    // ceiling, under every policy.
    let machine = MachineConfig::with_nodes(64);
    let w = AppId::Em3d.build(&machine, Scale::Quick).unwrap();
    for policy in SpecPolicy::ALL {
        let stats = run(machine.clone(), policy, w.as_ref());
        assert_eq!(stats.per_proc.len(), 64);
        assert!(stats.exec_cycles > 0);
    }
}

#[test]
fn suite_runs_on_a_one_node_machine_under_all_policies() {
    // Every access is local and no app has a second consumer; em3d used
    // to panic building its topology here.
    let machine = MachineConfig::with_nodes(1);
    machine.validate().expect("one node is a valid machine");
    for app in AppId::ALL {
        let w = app.build(&machine, Scale::Quick).unwrap();
        for policy in SpecPolicy::ALL {
            let stats = run(machine.clone(), policy, w.as_ref());
            assert_eq!(stats.per_proc.len(), 1, "{app}/{policy}");
            assert!(stats.exec_cycles > 0, "{app}/{policy}");
        }
    }
}

#[test]
fn suite_runs_coherently_on_a_zero_latency_network() {
    // With `inject = net_hop = deliver = 0` a remote message is handed
    // over in the cycle it leaves its sender's NI. Every app must still
    // finish under every policy, pass the auditor and the end-of-run
    // coherence check.
    let mut machine = MachineConfig::paper_machine();
    machine.latency.inject = 0;
    machine.latency.net_hop = 0;
    machine.latency.deliver = 0;
    machine.validate().expect("a zero-latency network is valid");
    for app in AppId::ALL {
        let w = app.build(&machine, Scale::Quick).unwrap();
        for policy in SpecPolicy::ALL {
            let cfg = SystemConfig {
                machine: machine.clone(),
                policy,
                audit: true,
                max_cycles: Some(500_000_000),
                ..SystemConfig::default()
            };
            let stats = System::new(cfg, w.as_ref()).expect("valid system").run();
            assert!(stats.exec_cycles > 0, "{app}/{policy}");
            assert!(stats.remote_messages > 0, "{app}/{policy}");
        }
    }
}
