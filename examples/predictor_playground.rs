//! Feed a hand-built directory message stream — the exact
//! producer/consumer example of the paper's Figures 2–4 — to all three
//! predictors and watch what each one learns.
//!
//! ```sh
//! cargo run --example predictor_playground
//! ```

use specdsm::prelude::*;

fn main() {
    let block = BlockAddr(0x100);
    let (p1, p2, p3) = (ProcId(1), ProcId(2), ProcId(3));

    // The paper's running example: P3 writes, P1 and P2 read, with the
    // protocol acknowledgements interleaved (Figure 2). Every other
    // iteration the two invalidation acks swap arrival order — the race
    // the paper blames for Cosmos's perturbation.
    let phase = |flip: bool| {
        let (a1, a2) = if flip { (p2, p1) } else { (p1, p2) };
        vec![
            DirMsg::upgrade(p3),
            DirMsg::ack_inv(a1),
            DirMsg::ack_inv(a2),
            DirMsg::read(p1),
            DirMsg::read(p2),
            DirMsg::writeback(p3),
        ]
    };

    let mut predictors: Vec<Predictor> =
        PredictorKind::ALL.iter().map(|k| k.build(1, 16)).collect();

    for iter in 0..40 {
        for msg in phase(iter % 2 == 1) {
            for p in &mut predictors {
                p.observe(block, msg);
            }
        }
    }

    println!("producer/consumer with re-ordered acks, history depth 1:");
    println!(
        "{:<8} {:>9} {:>9} {:>10} {:>12} {:>12}",
        "", "accuracy", "coverage", "pte/block", "bytes/block", "messages"
    );
    for p in &predictors {
        let s = p.stats();
        let st = p.storage();
        println!(
            "{:<8} {:>8.1}% {:>8.1}% {:>10.1} {:>12.2} {:>12}",
            p.kind().to_string(),
            100.0 * s.accuracy(),
            100.0 * s.coverage(),
            st.pte_per_block(),
            st.bytes_per_block(),
            s.seen,
        );
    }
    println!();
    println!("what to notice (paper §3):");
    println!(" * Cosmos predicts acks too — the swapped acks thrash its tables;");
    println!(" * MSP filters acks and recovers the request stream exactly;");
    println!(" * VMSP folds both reads into one vector and needs the fewest entries.");
}
