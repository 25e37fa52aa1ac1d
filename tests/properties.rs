//! Property-based tests on the core data structures and invariants.

mod map_model;

use proptest::prelude::*;

use map_model::{MapModel, SpecOps};
use std::collections::HashMap;

use specdsm::core::{
    evaluate_trace, DirectoryTrace, History, Observation, PatternEntry, PatternTable,
    PredictorKind, ReaderSetInterner, SpecTicket, Symbol, Vmsp,
};
use specdsm::prelude::*;
use specdsm::protocol::{System, SystemConfig};
use specdsm::sim::{Cycle, FifoResource};
use specdsm::types::{HomeGeometry, NodeId};

// ---------------------------------------------------------------------
// ReaderSet behaves like a set of small integers
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn reader_set_matches_model(ids in proptest::collection::vec(0usize..64, 0..40)) {
        let mut set = ReaderSet::new();
        let mut model = std::collections::BTreeSet::new();
        for &i in &ids {
            prop_assert_eq!(set.insert(ProcId(i)), model.insert(i));
        }
        prop_assert_eq!(set.len(), model.len());
        for i in 0..64 {
            prop_assert_eq!(set.contains(ProcId(i)), model.contains(&i));
        }
        let collected: Vec<usize> = set.iter().map(|p| p.0).collect();
        let expected: Vec<usize> = model.iter().copied().collect();
        prop_assert_eq!(collected, expected);
    }

    #[test]
    fn reader_set_algebra(a in any::<u64>(), b in any::<u64>()) {
        let (sa, sb) = (ReaderSet::from_bits(a), ReaderSet::from_bits(b));
        prop_assert_eq!((&sa | &sb).bits(), a | b);
        prop_assert_eq!((&sa & &sb).bits(), a & b);
        prop_assert_eq!((&sa - &sb).bits(), a & !b);
        prop_assert!((&sa | &sb).is_superset(&sa));
        prop_assert_eq!((&sa - &sb) & &sb, ReaderSet::new());
    }
}

// ---------------------------------------------------------------------
// Hybrid ReaderSet vs a HashSet model, across the u64 ↔ spill boundary
// ---------------------------------------------------------------------

/// One scripted operation on a `ReaderSet`, decoded from `(op, a, b)`
/// random triples so the same script drives the set and a
/// `HashSet<usize>` model.
fn apply_set_op(
    set: &mut ReaderSet,
    model: &mut std::collections::HashSet<usize>,
    width: usize,
    op: usize,
    a: usize,
    b: usize,
) {
    let pa = a % width;
    let pb = b % width;
    match op % 5 {
        0 => assert_eq!(
            set.insert(ProcId(pa)),
            model.insert(pa),
            "insert P{pa} (width {width})"
        ),
        1 => assert_eq!(
            set.remove(ProcId(pa)),
            model.remove(&pa),
            "remove P{pa} (width {width})"
        ),
        2 => {
            // Union with a small random set.
            let other = ReaderSet::from_iter([ProcId(pa), ProcId(pb)]);
            *set |= other;
            model.insert(pa);
            model.insert(pb);
        }
        3 => {
            // Difference with a small random set.
            let other = ReaderSet::from_iter([ProcId(pa), ProcId(pb)]);
            *set = std::mem::take(set) - other;
            model.remove(&pa);
            model.remove(&pb);
        }
        _ => {
            // Intersection with everything except one element — keeps
            // the trimming/canonicalization path honest.
            let mut mask = ReaderSet::all(width);
            mask.remove(ProcId(pa));
            *set = std::mem::take(set) & mask;
            model.remove(&pa);
        }
    }
}

proptest! {
    #[test]
    fn hybrid_reader_set_matches_hash_set_model(
        script in proptest::collection::vec((0usize..5, 0usize..1024, 0usize..1024), 1..120),
        width_pick in 0usize..4,
    ) {
        // 16 and 64 stay inline; 65 straddles the boundary by one; 256
        // spills several words.
        let width = [16usize, 64, 65, 256][width_pick];
        let mut set = ReaderSet::new();
        let mut model = std::collections::HashSet::new();
        for &(op, a, b) in &script {
            apply_set_op(&mut set, &mut model, width, op, a, b);
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
        }
        // Full-membership sweep one past the width (never present).
        for i in 0..=width {
            prop_assert_eq!(set.contains(ProcId(i)), model.contains(&i), "P{}", i);
        }
        // Ascending iteration matches the sorted model.
        let got: Vec<usize> = set.iter().map(|p| p.0).collect();
        let mut expected: Vec<usize> = model.iter().copied().collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
        // Canonical representation: rebuilding from the model yields a
        // structurally equal (and equally hashed) set.
        let rebuilt = ReaderSet::from_iter(model.iter().map(|&i| ProcId(i)));
        prop_assert_eq!(&set, &rebuilt);
        prop_assert_eq!(set.mix64(), rebuilt.mix64());
    }

    #[test]
    fn hybrid_reader_set_algebra_matches_model(
        xs in proptest::collection::vec(0usize..256, 0..24),
        ys in proptest::collection::vec(0usize..256, 0..24),
    ) {
        use std::collections::HashSet;
        let sx = ReaderSet::from_iter(xs.iter().map(|&i| ProcId(i)));
        let sy = ReaderSet::from_iter(ys.iter().map(|&i| ProcId(i)));
        let mx: HashSet<usize> = xs.iter().copied().collect();
        let my: HashSet<usize> = ys.iter().copied().collect();
        let check = |set: ReaderSet, model: HashSet<usize>, what: &str| {
            let got: Vec<usize> = set.iter().map(|p| p.0).collect();
            let mut expected: Vec<usize> = model.into_iter().collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "{what}");
        };
        check(&sx | &sy, mx.union(&my).copied().collect(), "union");
        check(&sx & &sy, mx.intersection(&my).copied().collect(), "intersection");
        check(&sx - &sy, mx.difference(&my).copied().collect(), "difference");
        prop_assert_eq!((&sx | &sy).is_superset(&sx), true);
        prop_assert_eq!(sx.is_superset(&sy), my.is_subset(&mx));
    }
}

// ---------------------------------------------------------------------
// ReaderSetInterner: SetId equality ⇔ set equality (hash-consing)
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn interned_set_ids_identify_sets(
        scripts in proptest::collection::vec(
            proptest::collection::vec((0usize..3, 0usize..1024, 0usize..1024), 0..40),
            2..6,
        ),
    ) {
        use specdsm::core::SetId;

        let mut sets = ReaderSetInterner::new();
        // Each script evolves a materialized model set and interns it
        // after every step, so ids are minted along independent
        // histories. Processor ids span the inline/spill boundary
        // (0..256).
        let mut tracked: Vec<(SetId, ReaderSet)> = Vec::new();
        for script in &scripts {
            let mut id = SetId::EMPTY;
            let mut model = ReaderSet::new();
            for &(op, a, b) in script {
                let pa = ProcId(a % 256);
                let pb = ProcId(b % 256);
                let removed = match op {
                    0 => {
                        model.insert(pa);
                        None
                    }
                    1 => {
                        model.remove(pa);
                        Some(sets.remove(id, pa))
                    }
                    _ => {
                        model |= ReaderSet::from_iter([pa, pb]);
                        None
                    }
                };
                id = sets.intern(model.clone());
                // The id resolves to exactly the model, and the
                // interner's own removal lands on the same id.
                prop_assert_eq!(&sets.resolve(id), &model);
                prop_assert_eq!(id.is_empty(), model.is_empty());
                if let Some(removed) = removed {
                    prop_assert_eq!(removed, id);
                }
            }
            tracked.push((id, model));
        }
        for (i, (id_a, set_a)) in tracked.iter().enumerate() {
            // Hash-consing: within one arena, id equality ⇔ set
            // equality, across independently-built histories.
            for (id_b, set_b) in &tracked[i..] {
                prop_assert_eq!(id_a == id_b, set_a == set_b);
            }
            for p in (0..256).step_by(7) {
                prop_assert_eq!(sets.contains(*id_a, ProcId(p)), set_a.contains(ProcId(p)));
            }
            // Canonical spill: an id is inline exactly when the set has
            // no member >= 64, and then carries the raw bit-vector.
            prop_assert_eq!(id_a.is_inline(), !set_a.has_spill());
            if id_a.is_inline() {
                prop_assert_eq!(id_a.key(), set_a.bits());
            } else {
                prop_assert!(sets.resolve(*id_a).iter().any(|p| p.0 >= 64));
            }
            // Re-interning the resolved set returns the identical id.
            prop_assert_eq!(sets.intern(set_a.clone()), *id_a);
        }
    }
}

// ---------------------------------------------------------------------
// Resource contention
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn fifo_resource_never_overlaps(reqs in proptest::collection::vec((0u64..5000, 1u64..50), 1..100)) {
        let mut r = FifoResource::new();
        let mut sorted = reqs.clone();
        sorted.sort();
        let mut last_end = 0u64;
        for (at, occ) in sorted {
            let start = r.acquire(Cycle(at), occ).raw();
            prop_assert!(start >= at, "no service before arrival");
            prop_assert!(start >= last_end, "no overlapping service");
            last_end = start + occ;
        }
    }
}

// ---------------------------------------------------------------------
// Predictor invariants on arbitrary message streams
// ---------------------------------------------------------------------

fn arb_msg() -> impl Strategy<Value = DirMsg> {
    arb_msg_among(8)
}

/// Any directory message from a processor drawn from `0..procs`.
fn arb_msg_among(procs: usize) -> impl Strategy<Value = DirMsg> {
    (0usize..5, 0usize..procs).prop_map(|(kind, p)| {
        let p = ProcId(p);
        match kind {
            0 => DirMsg::read(p),
            1 => DirMsg::write(p),
            2 => DirMsg::upgrade(p),
            3 => DirMsg::ack_inv(p),
            _ => DirMsg::writeback(p),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn predictor_counters_are_consistent(
        msgs in proptest::collection::vec((0u64..4, arb_msg()), 0..400),
        depth in 1usize..4,
    ) {
        for kind in PredictorKind::ALL {
            let mut p = kind.build(depth, 8);
            for &(b, m) in &msgs {
                p.observe(BlockAddr(b), m);
            }
            let s = p.stats();
            prop_assert!(s.correct <= s.predicted);
            prop_assert!(s.predicted <= s.seen);
            let total = msgs.len() as u64;
            prop_assert!(s.seen <= total);
            // Storage: entries only exist for observed blocks.
            let st = p.storage();
            prop_assert!(st.blocks <= 4);
            if st.blocks > 0 {
                prop_assert!(st.bytes_per_block() > 0.0);
            }
        }
    }

    #[test]
    fn msp_ignores_ack_stream_position(
        reqs in proptest::collection::vec((0u64..2, 0usize..4, 0usize..3), 1..100),
    ) {
        // Interleaving arbitrary acks anywhere in a request stream must
        // not change MSP's statistics at all.
        let requests: Vec<(BlockAddr, DirMsg)> = reqs
            .iter()
            .map(|&(b, p, k)| {
                let m = match k {
                    0 => DirMsg::read(ProcId(p)),
                    1 => DirMsg::write(ProcId(p)),
                    _ => DirMsg::upgrade(ProcId(p)),
                };
                (BlockAddr(b), m)
            })
            .collect();

        let mut clean = PredictorKind::Msp.build(1, 8);
        for &(b, m) in &requests {
            clean.observe(b, m);
        }

        let mut noisy = PredictorKind::Msp.build(1, 8);
        for (i, &(b, m)) in requests.iter().enumerate() {
            noisy.observe(BlockAddr(0), DirMsg::ack_inv(ProcId(i % 4)));
            noisy.observe(b, m);
            noisy.observe(BlockAddr(1), DirMsg::writeback(ProcId(i % 4)));
        }

        prop_assert_eq!(clean.stats(), noisy.stats());
    }

    #[test]
    fn trace_evaluation_is_pure(
        msgs in proptest::collection::vec((0u64..3, arb_msg()), 0..200),
    ) {
        let mut trace = DirectoryTrace::new();
        for &(b, m) in &msgs {
            trace.record(BlockAddr(b), m);
        }
        for kind in PredictorKind::ALL {
            let a = evaluate_trace(&trace, kind, 2, 8);
            let b = evaluate_trace(&trace, kind, 2, 8);
            prop_assert_eq!(a.stats, b.stats);
            prop_assert_eq!(a.storage.entries, b.storage.entries);
        }
    }
}

/// A trace-shaped message from a processor drawn from `0..procs`:
/// blocks 0–5 see any message, blocks 6–7 only acks, so some blocks'
/// runs hold no request at all. The block number is spread over
/// several 128-block pages, and so over several VMSP homes.
fn arb_trace_msg(procs: usize) -> impl Strategy<Value = (BlockAddr, DirMsg)> {
    (0u64..8, arb_msg_among(procs), 0usize..procs).prop_map(|(b, m, p)| {
        let m = if b >= 6 && m.is_request() {
            DirMsg::ack_inv(ProcId(p))
        } else {
            m
        };
        (BlockAddr(b * 61), m)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `evaluate_trace` streams each block's run through one reusable
    /// record; that must equal observing every message one at a time
    /// in the per-message `Predictor`, in recording order, in the
    /// statistics and in the whole storage report. The 128-processor
    /// input spills read vectors past the inline word, so `spill_bytes`
    /// compares the shared arena plus the per-block open vectors.
    /// VMSP streams also go through the online, slot-addressed `Vmsp`,
    /// whose table also holds the records it grew past, so its
    /// `blocks` counts active records only.
    #[test]
    fn streaming_replay_equals_per_message_observe(
        narrow in proptest::collection::vec(arb_trace_msg(8), 0..300),
        wide in proptest::collection::vec(arb_trace_msg(128), 0..300),
    ) {
        for (msgs, procs) in [(&narrow, 8), (&wide, 128)] {
            let mut trace = DirectoryTrace::new();
            for &(b, m) in msgs {
                trace.record(b, m);
            }
            for kind in PredictorKind::ALL {
                for depth in [1, 2, 4] {
                    let mut p = kind.build(depth, procs);
                    for &(b, m) in msgs {
                        p.observe(b, m);
                    }
                    let eval = evaluate_trace(&trace, kind, depth, procs);
                    prop_assert_eq!(eval.stats, p.stats(), "{} d={} n={}", kind, depth, procs);
                    prop_assert_eq!(
                        eval.storage, p.storage(), "{} d={} n={}", kind, depth, procs
                    );
                    if kind == PredictorKind::Vmsp {
                        let machine = MachineConfig::with_nodes(procs);
                        let geom = HomeGeometry::of_machine(&machine);
                        let mut online = Vmsp::with_geometry(depth, geom);
                        for &(b, m) in msgs {
                            online.observe_at(online.slot_of(b), m);
                        }
                        prop_assert_eq!(online.stats(), eval.stats, "online d={} n={}", depth, procs);
                        prop_assert_eq!(
                            online.storage(), eval.storage, "online d={} n={}", depth, procs
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// PatternTable's record slab vs a window-keyed map model
// ---------------------------------------------------------------------

/// Eight symbols the model windows are drawn from, read vectors
/// included.
fn slab_alphabet(sets: &mut ReaderSetInterner) -> [Symbol; 8] {
    let mut vec = |procs: &[usize]| {
        Symbol::ReadVec(sets.intern(ReaderSet::from_iter(procs.iter().map(|&p| ProcId(p)))))
    };
    [
        Symbol::Req(ReqKind::Read, ProcId(0)),
        Symbol::Req(ReqKind::Write, ProcId(1)),
        Symbol::Req(ReqKind::Upgrade, ProcId(2)),
        Symbol::Req(ReqKind::Upgrade, ProcId(3)),
        Symbol::Req(ReqKind::Write, ProcId(3)),
        vec(&[0, 1]),
        vec(&[2]),
        vec(&[1, 2, 3]),
    ]
}

/// Eight distinct depth-`depth` windows over `alphabet`, each paired
/// with a full register holding it. Every register is primed with a
/// different number of leading symbols, so the ring's oldest slot sits
/// at a different offset and the window straddles the wrap.
fn slab_windows(alphabet: &[Symbol; 8], depth: usize) -> Vec<(Vec<Symbol>, History)> {
    (0..8usize)
        .map(|i| {
            // `37` is odd, so `i ↦ 37·i + 11` is injective mod 8^depth.
            let mut n = (37 * i + 11) % 8usize.pow(depth as u32);
            let window: Vec<Symbol> = (0..depth)
                .map(|_| {
                    let sym = alphabet[n % 8];
                    n /= 8;
                    sym
                })
                .collect();
            let mut history = History::new(depth);
            for k in 0..i {
                history.push(alphabet[k % 8]);
            }
            for &sym in &window {
                history.push(sym);
            }
            (window, history)
        })
        .collect()
}

/// Replays `ops` on a `PatternTable` and on a `HashMap` from window to
/// `(prediction, SWI bit)`, checking every observable after each step.
/// Returns how many prunes removed an entry other than the most
/// recently stored one, which is the slab's record-move path.
fn replay_slab_ops(depth: usize, ops: &[(u8, usize, usize)]) -> usize {
    let mut sets = ReaderSetInterner::new();
    let alphabet = slab_alphabet(&mut sets);
    let windows = slab_windows(&alphabet, depth);
    let mut table = PatternTable::new();
    let mut model: HashMap<Vec<Symbol>, (Symbol, bool)> = HashMap::new();
    // The model's entries in storage order: appended on insert,
    // swap-removed on removal, as the slab keeps its records.
    let mut order: Vec<Vec<Symbol>> = Vec::new();
    let mut moves = 0;
    for (step, &(op, w, b)) in ops.iter().enumerate() {
        let (window, history) = &windows[w % windows.len()];
        let successor = if b % 3 == 0 {
            Symbol::Req(ReqKind::Write, ProcId(b % 4))
        } else {
            let bits = (b % 15 + 1) as u64;
            Symbol::ReadVec(sets.intern(ReaderSet::from_bits(bits)))
        };
        let mut learn = |model: &mut HashMap<Vec<Symbol>, (Symbol, bool)>| {
            if let Some(entry) = model.get_mut(window) {
                Some(std::mem::replace(&mut entry.0, successor))
            } else {
                model.insert(window.clone(), (successor, false));
                order.push(window.clone());
                None
            }
        };
        match op % 4 {
            0 => {
                table.learn(history, successor);
                learn(&mut model);
            }
            1 => {
                let got = table.predict_and_learn(history, &successor);
                assert_eq!(got, learn(&mut model), "step {step}: predict_and_learn");
            }
            2 => {
                let marked = model.get_mut(window).map(|e| e.1 = true).is_some();
                assert_eq!(
                    table.set_swi_premature(history.key()),
                    marked,
                    "step {step}: set_swi_premature"
                );
            }
            _ => {
                let reader = ProcId(b % 4);
                let expected = match model.get(window) {
                    Some(&(Symbol::ReadVec(v), _)) if sets.resolve(v).contains(reader) => {
                        let mut left = sets.resolve(v);
                        left.remove(reader);
                        if left.is_empty() {
                            model.remove(window);
                            let at = order.iter().position(|o| o == window).unwrap();
                            if at + 1 != order.len() {
                                moves += 1;
                            }
                            order.swap_remove(at);
                        } else {
                            model.get_mut(window).unwrap().0 = Symbol::ReadVec(sets.intern(left));
                        }
                        true
                    }
                    _ => false,
                };
                assert_eq!(
                    table.prune_reader(&mut sets, history.key(), reader),
                    expected,
                    "step {step}: prune_reader"
                );
            }
        }
        assert_eq!(table.len(), model.len(), "step {step}: len");
        for (window, history) in &windows {
            let want = model.get(window).copied();
            assert_eq!(table.predict(history), want.map(|e| e.0), "step {step}");
            assert_eq!(
                table.peek(history),
                want.map(|(prediction, swi_premature)| PatternEntry {
                    prediction,
                    swi_premature
                }),
                "step {step}"
            );
            let suppressed = want.is_some_and(|e| e.1);
            assert_eq!(table.swi_suppressed(history), suppressed, "step {step}");
            assert_eq!(table.swi_suppressed_key(history.key()), suppressed);
        }
    }
    moves
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pattern_table_matches_window_keyed_model(
        ops in proptest::collection::vec((0u8..4, 0usize..8, 0usize..16), 1..200),
    ) {
        for depth in [1, 2, 4] {
            replay_slab_ops(depth, &ops);
        }
    }
}

#[test]
fn pattern_table_prune_moves_the_last_record() {
    // Store three read-vector entries, then prune the first one empty:
    // the third record moves into its place and must stay reachable.
    let ops = [
        (0, 0, 1),
        (0, 1, 2),
        (0, 2, 4),
        (3, 0, 1),
        (1, 2, 5),
        (3, 1, 1),
    ];
    for depth in [1, 2, 4] {
        assert!(replay_slab_ops(depth, &ops) >= 1, "depth {depth}");
    }
}

// ---------------------------------------------------------------------
// Analytic model
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn analytic_speedup_well_behaved(
        c in 0.0f64..=1.0,
        f in 0.0f64..=1.0,
        p in 0.0f64..=1.0,
        rtl in 1.0f64..16.0,
        n in 0.1f64..8.0,
    ) {
        let m = specdsm::analytic::ModelParams { f, p, rtl, n };
        let s = m.speedup(c);
        prop_assert!(s.is_finite());
        prop_assert!(s > 0.0);
        // No speculation or no communication ⇒ no change.
        if f == 0.0 || c == 0.0 {
            prop_assert!((s - 1.0).abs() < 1e-9);
        }
        // Speedup can never exceed rtl (all remote turned local).
        prop_assert!(s <= rtl + 1e-9);
    }
}

// ---------------------------------------------------------------------
// Protocol fuzz: random barrier-synchronized programs stay coherent
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct FuzzWorkload {
    ops: Vec<Vec<Op>>,
}

impl Workload for FuzzWorkload {
    fn name(&self) -> &str {
        "fuzz"
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

fn arb_fuzz(nprocs: usize, blocks: u64) -> impl Strategy<Value = FuzzWorkload> {
    let op = (0u8..4, 0..blocks, 1u64..200).prop_map(move |(k, b, c)| match k {
        0 => Op::Read(BlockAddr(b)),
        1 => Op::Write(BlockAddr(b)),
        _ => Op::Compute(c),
    });
    let phase = proptest::collection::vec(op, 0..12);
    let proc_prog = proptest::collection::vec(phase, 1..6);
    proptest::collection::vec(proc_prog, nprocs..=nprocs).prop_map(|procs| {
        // Equalize phase counts with barriers so the program terminates.
        let phases = procs.iter().map(Vec::len).max().unwrap_or(1);
        let ops = procs
            .into_iter()
            .map(|prog| {
                let mut v = Vec::new();
                for i in 0..phases {
                    if let Some(phase) = prog.get(i) {
                        v.extend(phase.iter().copied());
                    }
                    v.push(Op::Barrier);
                }
                v
            })
            .collect();
        FuzzWorkload { ops }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_programs_run_coherently_under_all_policies(w in arb_fuzz(4, 6)) {
        // System::run asserts full directory/cache coherence at
        // quiescence, and the runtime auditor checks every delivery on
        // the way; any protocol bug the random program exposes panics
        // here.
        for policy in SpecPolicy::ALL {
            let cfg = SystemConfig {
                machine: MachineConfig::with_nodes(4),
                policy,
                max_cycles: Some(20_000_000),
                audit: true,
                ..SystemConfig::default()
            };
            let stats = System::new(cfg, &w).expect("valid").run();
            prop_assert!(stats.exec_cycles > 0);
            // Each copy sent is dropped, verified, found unused, or
            // none of these; never two.
            let s = stats.spec;
            prop_assert!(
                s.verified + s.total_unused() + s.dropped <= s.total_sent(),
                "{}: speculation accounting out of balance: {:?}",
                policy,
                s
            );
        }
    }

    #[test]
    fn random_programs_identical_across_policy_for_access_counts(w in arb_fuzz(4, 5)) {
        let counts: Vec<u64> = SpecPolicy::ALL
            .iter()
            .map(|&policy| {
                let cfg = SystemConfig {
                    machine: MachineConfig::with_nodes(4),
                    policy,
                    max_cycles: Some(20_000_000),
                    ..SystemConfig::default()
                };
                let s = System::new(cfg, &w).expect("valid").run();
                s.per_proc.iter().map(|p| p.reads + p.writes).sum()
            })
            .collect();
        prop_assert_eq!(counts[0], counts[1]);
        prop_assert_eq!(counts[0], counts[2]);
    }

    #[test]
    fn page_mapping_round_trips(node in 0usize..16, index in 0u64..1000) {
        let m = MachineConfig::paper_machine();
        let addr = m.page_on(NodeId(node), index);
        prop_assert_eq!(m.home_of(addr), NodeId(node));
    }
}

// ---------------------------------------------------------------------
// Table-backed speculation store vs the naive map model
// ---------------------------------------------------------------------

/// The externally observable result of one speculation-store operation,
/// for diffing the table-backed store against the map model step by step.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SpecEffect {
    Observed(Observation),
    Predicted(Option<(ReaderSet, SpecTicket)>),
    /// Feedback on an unused copy through the block's latest
    /// prediction ticket: whether the prune changed an entry, `None`
    /// if the block has no ticket yet.
    Pruned(Option<bool>),
    /// `(swi allowed, current-context ticket)`.
    SwiProbe(bool, Option<SpecTicket>),
    /// Feedback through a *stale* ticket: `(prune changed an entry,
    /// swi allowed afterwards)`.
    StaleFeedback(bool, bool),
    Noop,
}

/// Replays one random operation sequence through any [`SpecOps`] store,
/// recording every observable effect plus the final accuracy stats,
/// pattern-entry count and active-block count. Running it for the arena
/// and the map model and diffing the outputs is the whole property.
fn replay_spec_ops<V: SpecOps>(
    ops: &[(u8, usize, usize)],
) -> (Vec<SpecEffect>, specdsm::core::PredictorStats, u64, u64) {
    let m = MachineConfig::paper_machine();
    let mut store = V::build(1, &m);
    // Blocks spanning three homes, including two that share home 0 (and
    // therefore one home's table).
    let blocks = [
        m.page_on(NodeId(0), 0),
        m.page_on(NodeId(0), 0).offset(1),
        m.page_on(NodeId(1), 0),
        m.page_on(NodeId(3), 2).offset(5),
    ];
    // Tickets handed out earlier — including ones whose entry has since
    // been pruned away, so stale feedback (the documented
    // `mark_swi_premature`-after-evict no-op) is exercised.
    let mut pool: Vec<(BlockAddr, SpecTicket)> = Vec::new();
    let mut effects = Vec::new();
    for &(kind, bi, pi) in ops {
        let block = blocks[bi % blocks.len()];
        let slot = store.resolve(block);
        let proc = ProcId(pi);
        let effect = match kind % 7 {
            0 => SpecEffect::Observed(store.observe(slot, block, DirMsg::read(proc))),
            1 => SpecEffect::Observed(store.observe(slot, block, DirMsg::write(proc))),
            2 => SpecEffect::Observed(store.observe(slot, block, DirMsg::upgrade(proc))),
            3 => {
                let pred = store.predicted_readers(slot, block);
                if let Some((_, ticket)) = pred {
                    pool.push((block, ticket));
                }
                SpecEffect::Predicted(pred)
            }
            4 => {
                // Verification feedback, as the engine applies it when a
                // copy comes home unused: prune the reader under the
                // ticket the block's latest prediction handed out.
                let latest = pool.iter().rev().find(|(b, _)| *b == block);
                SpecEffect::Pruned(
                    latest.map(|&(_, ticket)| store.prune_reader(slot, block, ticket, proc)),
                )
            }
            5 => {
                let allowed = store.swi_allowed(slot, block);
                let ticket = store.swi_ticket(slot, block);
                if let Some(t) = ticket {
                    pool.push((block, t));
                    store.mark_swi_premature(slot, block, t);
                }
                SpecEffect::SwiProbe(allowed, ticket)
            }
            _ => {
                if pool.is_empty() {
                    SpecEffect::Noop
                } else {
                    let (b, ticket) = pool[pi % pool.len()];
                    let s = store.resolve(b);
                    let pruned = store.prune_reader(s, b, ticket, proc);
                    store.mark_swi_premature(s, b, ticket);
                    SpecEffect::StaleFeedback(pruned, store.swi_allowed(s, b))
                }
            }
        };
        effects.push(effect);
    }
    (
        effects,
        store.predictor_stats(),
        store.entries(),
        store.blocks(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arena_spec_store_matches_map_model_under_random_interleavings(
        ops in proptest::collection::vec((0u8..7, 0usize..4, 0usize..6), 1..250),
    ) {
        let (arena_fx, arena_stats, arena_entries, arena_blocks) = replay_spec_ops::<Vmsp>(&ops);
        let (map_fx, map_stats, map_entries, map_blocks) = replay_spec_ops::<MapModel>(&ops);
        for (i, (a, m)) in arena_fx.iter().zip(&map_fx).enumerate() {
            prop_assert_eq!(a, m, "step {} of {:?}", i, ops);
        }
        prop_assert_eq!(arena_stats, map_stats);
        prop_assert_eq!(arena_entries, map_entries);
        prop_assert_eq!(arena_blocks, map_blocks);
    }
}

#[test]
fn mark_swi_premature_after_evict_is_a_noop_in_both_stores() {
    // The documented PR 1 drift: suppression state lives in the pattern
    // entry, so feedback arriving after the entry was pruned away must
    // change nothing — in the arena exactly as in the map model.
    fn scenario<V: SpecOps>() -> (bool, u64) {
        let m = MachineConfig::paper_machine();
        let mut store = V::build(1, &m);
        let b = m.page_on(NodeId(2), 0);
        let slot = store.resolve(b);
        for _ in 0..5 {
            store.observe(slot, b, DirMsg::upgrade(ProcId(3)));
            store.observe(slot, b, DirMsg::read(ProcId(1)));
            store.observe(slot, b, DirMsg::read(ProcId(2)));
        }
        store.observe(slot, b, DirMsg::upgrade(ProcId(3)));
        let (readers, ticket) = store.predicted_readers(slot, b).expect("trained");
        // Prune every predicted reader: the vector entry is evicted.
        for r in readers.iter() {
            assert!(store.prune_reader(slot, b, ticket, r));
        }
        assert!(store.predicted_readers(slot, b).is_none(), "entry evicted");
        // Late SWI feedback through the stale ticket: must be a no-op.
        store.mark_swi_premature(slot, b, ticket);
        (store.swi_allowed(slot, b), store.entries())
    }
    let arena = scenario::<Vmsp>();
    let map = scenario::<MapModel>();
    assert_eq!(arena, map);
    assert!(arena.0, "no entry, so nothing is suppressed");
}

#[test]
fn map_store_matches_vmsp_on_a_training_run() {
    /// Trains one block through a producer/consumer pattern, recording
    /// every observation, then reports the trained store's prediction,
    /// accuracy counters, pattern entries and tracked blocks.
    #[allow(clippy::type_complexity)]
    fn train<V: SpecOps>() -> (
        Vec<Observation>,
        Option<(ReaderSet, SpecTicket)>,
        specdsm::core::PredictorStats,
        u64,
        u64,
    ) {
        let machine = MachineConfig::paper_machine();
        let mut store = V::build(1, &machine);
        let b = machine.page_on(NodeId(4), 0);
        let mut seen = Vec::new();
        for _ in 0..6 {
            for msg in [
                DirMsg::upgrade(ProcId(3)),
                DirMsg::read(ProcId(1)),
                DirMsg::read(ProcId(2)),
            ] {
                let slot = store.resolve(b);
                seen.push(store.observe(slot, b, msg));
            }
        }
        let slot = store.resolve(b);
        store.observe(slot, b, DirMsg::upgrade(ProcId(3)));
        (
            seen,
            store.predicted_readers(slot, b),
            store.predictor_stats(),
            store.entries(),
            store.blocks(),
        )
    }
    assert_eq!(train::<Vmsp>(), train::<MapModel>());
}

// ---------------------------------------------------------------------
// KeyedQueue vs a sorted reference model, under fault-shaped schedules
// ---------------------------------------------------------------------

use specdsm::sim::{KeyedQueue, SchedKey};

proptest! {
    /// Drives a [`KeyedQueue`] with the access shape fault injection
    /// produces — duplicated payloads under fresh keys, extra-delayed
    /// arrivals, heavy `(sched, src)` key collisions, schedules in the
    /// past after the cursor advanced — in phases separated by drains of
    /// an arbitrary number of pops, and checks every observation against
    /// a sorted-set reference model.
    #[test]
    fn keyed_queue_matches_model_under_fault_shaped_schedules(
        phases in proptest::collection::vec(
            (
                proptest::collection::vec(
                    // (cycle, key.sched, key.src, duplicate?, extra delay)
                    (0u64..5000, 0u64..60, 0u32..4, any::<bool>(), 1u64..300),
                    0..40,
                ),
                0usize..80, // pops that end the phase
            ),
            1..6,
        ),
    ) {
        let mut q: KeyedQueue<u64> = KeyedQueue::new();
        // Reference model: the queue must pop exactly the first element
        // of this set (ordered by `(cycle, key)`; keys are unique).
        let mut model: std::collections::BTreeSet<(u64, (u64, u32, u64), u64)> =
            std::collections::BTreeSet::new();
        let mut seq = 0u64;
        let mut payload = 0u64;
        let mut scheduled = 0u64;
        let pop_and_check = |q: &mut KeyedQueue<u64>,
                                 model: &mut std::collections::BTreeSet<(u64, (u64, u32, u64), u64)>|
         -> bool {
            match (q.pop(), model.pop_first()) {
                (None, None) => false,
                (Some((at, got)), Some(expect)) => {
                    assert_eq!((at.raw(), got), (expect.0, expect.2), "pop order");
                    true
                }
                (got, expect) => panic!("queue popped {got:?}, model {expect:?}"),
            }
        };
        for (entries, pops) in phases {
            for (at, sched, src, dup, extra) in entries {
                q.schedule(Cycle(at), SchedKey { sched, src, seq }, payload);
                model.insert((at, (sched, src, seq), payload));
                seq += 1;
                scheduled += 1;
                if dup {
                    // A network duplicate: same payload, delayed, under
                    // a fresh key — exactly what `transmit` emits.
                    q.schedule(Cycle(at + extra), SchedKey { sched, src, seq }, payload);
                    model.insert((at + extra, (sched, src, seq), payload));
                    seq += 1;
                    scheduled += 1;
                }
                payload += 1;
            }
            prop_assert_eq!(q.len(), model.len());
            for _ in 0..pops {
                if !pop_and_check(&mut q, &mut model) {
                    break;
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
        // Final full drain: everything left pops in model order.
        while pop_and_check(&mut q, &mut model) {}
        prop_assert!(model.is_empty(), "events left in the model: {:?}", model);
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.scheduled_total(), scheduled);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Drives a [`KeyedQueue`] in the event loop's own shape — pop one
    /// event, schedule 0–3 successors 1–3000 cycles later (past the
    /// 2048-cycle wheel horizon) — for more than ten wheel rotations,
    /// so slab slots are freed and reused across rotations and bucket
    /// lists empty and refill, and checks every pop against a
    /// sorted-set reference model. With `coarse` the delays are
    /// multiples of 100 cycles, so many successors share a bucket, as
    /// a wide fan-out's deliveries do. With `merge_keys` the successors
    /// carry earlier send cycles and mixed sources, out of key order,
    /// so bucket lists also take mid-list inserts.
    #[test]
    fn keyed_queue_matches_model_in_the_event_loop_shape(
        seed in any::<u64>(),
        start in 1u64..64,
        coarse in any::<bool>(),
        merge_keys in any::<bool>(),
    ) {
        const ROTATIONS_CYCLES: u64 = 12 * 2048;
        let mut rng = specdsm::sim::Xorshift64Star::new(seed);
        let mut q: KeyedQueue<u64> = KeyedQueue::new();
        let mut model: std::collections::BTreeSet<(u64, (u64, u32, u64), u64)> =
            std::collections::BTreeSet::new();
        let mut seq = 0u64;
        for at in 0..start {
            q.schedule(Cycle(at), SchedKey { sched: 0, src: 0, seq }, seq);
            model.insert((at, (0, 0, seq), seq));
            seq += 1;
        }
        let mut last = 0;
        while let Some((at, got)) = q.pop() {
            let expect = model.pop_first().expect("queue popped an event the model does not have");
            prop_assert_eq!((at.raw(), got), (expect.0, expect.2), "pop order");
            prop_assert!(at.raw() >= last, "time went backwards");
            last = at.raw();
            if at.raw() < ROTATIONS_CYCLES {
                // At least one successor when nothing else is pending,
                // so the run lasts the full span.
                let fewest = u64::from(q.is_empty());
                let successors = rng.range(fewest, 4).min(512 - q.len() as u64);
                for _ in 0..successors {
                    let when = if coarse {
                        at.raw() + 100 * rng.range(1, 31)
                    } else {
                        at.raw() + rng.range(1, 3001)
                    };
                    let (sched, src) = if merge_keys {
                        (at.raw().saturating_sub(rng.range(0, 64)), rng.range(0, 4) as u32)
                    } else {
                        (at.raw(), 0)
                    };
                    q.schedule(Cycle(when), SchedKey { sched, src, seq }, seq);
                    model.insert((when, (sched, src, seq), seq));
                    seq += 1;
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
        prop_assert!(model.is_empty(), "events left in the model: {:?}", model);
        prop_assert!(last >= ROTATIONS_CYCLES - 2048, "ran {last} cycles");
        prop_assert_eq!(q.scheduled_total(), seq);
    }
}
