//! Predictor storage accounting (paper Table 4).

use std::fmt;

use crate::predictor::PredictorKind;

/// The bit-level cost model of one predictor configuration.
///
/// Reproduces the paper's Table 4 formulas. For a 16-processor machine
/// (4-bit processor ids) at history depth 1:
///
/// * Cosmos: 3-bit message type + 4-bit id = 7 bits per symbol;
///   history 7 bits, pattern entry 14 bits → `(7 + 14·pte)/8` bytes.
/// * MSP: 2-bit request type + 4-bit id = 6 bits per symbol;
///   `(6 + 12·pte)/8` bytes.
/// * VMSP: 18-bit history entry (2-bit type + 16-bit vector); a pattern
///   entry holds at most one vector (a read vector is always followed by
///   a write or upgrade), so 18 + 6 bits → `(18 + 24·pte)/8` bytes.
///
/// # Example
///
/// ```
/// use specdsm_core::{PredictorKind, StorageModel};
///
/// let cosmos = StorageModel { kind: PredictorKind::Cosmos, depth: 1, num_procs: 16 };
/// assert_eq!(cosmos.history_bits(), 7);
/// assert_eq!(cosmos.pte_bits(), 14);
/// // Five entries: (7 + 14*5)/8 ≈ 9.6 bytes, Table 4's ~10 for appbt.
/// assert!((cosmos.bytes_per_block(5.0) - 9.625).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageModel {
    /// Which predictor design.
    pub kind: PredictorKind,
    /// History depth.
    pub depth: usize,
    /// Number of processors (sets the id width and the vector width).
    pub num_procs: usize,
}

impl StorageModel {
    /// Bits to encode a processor id: `ceil(log2(num_procs))`, at
    /// least 1. Paper: "all predictors use 4 bits to encode the
    /// processor ids" (16 processors).
    #[must_use]
    pub fn proc_bits(&self) -> u64 {
        let n = self.num_procs.max(2) as u64;
        64 - (n - 1).leading_zeros() as u64
    }

    /// Bits per history symbol.
    #[must_use]
    pub fn symbol_bits(&self) -> u64 {
        match self.kind {
            // 3-bit type (3 requests + 2 acks) + proc id.
            PredictorKind::Cosmos => 3 + self.proc_bits(),
            // 2-bit type (3 requests) + proc id.
            PredictorKind::Msp => 2 + self.proc_bits(),
            // 2-bit type + n-bit reader vector (a history entry must be
            // able to hold a vector).
            PredictorKind::Vmsp => 2 + self.num_procs as u64,
        }
    }

    /// Bits of the per-block history register: `depth` symbols.
    #[must_use]
    pub fn history_bits(&self) -> u64 {
        self.depth as u64 * self.symbol_bits()
    }

    /// Bits per pattern-table entry (key sequence + prediction).
    #[must_use]
    pub fn pte_bits(&self) -> u64 {
        match self.kind {
            PredictorKind::Cosmos | PredictorKind::Msp => {
                // Key: `depth` symbols; prediction: one symbol.
                (self.depth as u64 + 1) * self.symbol_bits()
            }
            PredictorKind::Vmsp => {
                // Vectors and writes alternate, so of the key + the
                // prediction at most `depth` slots hold a vector; the
                // remaining slot is a plain request (paper: 18 + 6 bits
                // at depth 1).
                let req = 2 + self.proc_bits();
                self.depth as u64 * self.symbol_bits() + req
            }
        }
    }

    /// Bytes of predictor state for a block with `pte` pattern-table
    /// entries: history register + entries.
    #[must_use]
    pub fn bytes_per_block(&self, pte: f64) -> f64 {
        (self.history_bits() as f64 + self.pte_bits() as f64 * pte) / 8.0
    }

    /// Bytes one pattern-table entry actually occupies in *this
    /// reproduction's* keyed software layout (as opposed to the
    /// paper's hardware bit model above): the 64-bit `HistoryKey`
    /// index, the owning-window box (`depth` symbols plus the
    /// fat-pointer header) kept for collision detection, and the
    /// prediction entry itself.
    #[must_use]
    pub fn sw_entry_bytes(&self) -> u64 {
        let key = std::mem::size_of::<crate::HistoryKey>() as u64;
        let window_box = 16 + self.depth as u64 * std::mem::size_of::<crate::Symbol>() as u64;
        let entry = std::mem::size_of::<crate::PatternEntry>() as u64;
        key + window_box + entry
    }

    /// Bytes one per-block history register occupies in the software
    /// layout: the ring buffer of `depth` symbols plus the rolling-key
    /// and ring bookkeeping (key, head, depth, base power).
    #[must_use]
    pub fn sw_history_bytes(&self) -> u64 {
        let ring = self.depth as u64 * std::mem::size_of::<crate::Symbol>() as u64;
        let bookkeeping = 4 * 8; // key + head + depth + B^depth
        ring + bookkeeping
    }
}

/// Measured storage of a live predictor: how many blocks have allocated
/// state and how many pattern entries exist in total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageReport {
    /// The cost model (kind, depth, processor count).
    pub model: StorageModel,
    /// Blocks with *active* predictor state (ever observed or touched
    /// by speculation feedback).
    pub blocks: u64,
    /// Storage slots actually committed by the backing store. For the
    /// map-backed predictors this equals `blocks`; the VMSP's dense
    /// per-home arenas commit whole spans up to the highest slot
    /// touched, so `slots >= blocks` and the difference is the price
    /// of slot addressing.
    pub slots: u64,
    /// Total pattern-table entries across blocks.
    pub entries: u64,
    /// Bytes of **spilled** reader-set state the predictor retains
    /// beyond the fixed-size records counted above: the hash-cons
    /// arena's canonical copies (one per distinct wide pattern) plus
    /// any live per-block open-vector spills. Always zero on machines
    /// of ≤ 64 processors, whose sets are inline.
    pub spill_bytes: u64,
    /// Distinct spilled reader-set patterns resident in the interner
    /// arena (the dedup denominator).
    pub spill_unique: u64,
    /// Retained references to spilled sets the interner served (dedup
    /// hits included) — each one a wide-set copy the pre-interning
    /// layout would have heap-allocated separately.
    pub spill_refs: u64,
}

impl StorageReport {
    /// Average pattern-table entries per allocated block (Table 4
    /// "pte" columns). Zero when no blocks are allocated.
    #[must_use]
    pub fn pte_per_block(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.entries as f64 / self.blocks as f64
        }
    }

    /// Average bytes of predictor state per allocated block (Table 4
    /// "ovh" column).
    #[must_use]
    pub fn bytes_per_block(&self) -> f64 {
        self.model.bytes_per_block(self.pte_per_block())
    }

    /// Total bytes of live predictor state in the reproduction's keyed
    /// software layout (ring-buffer registers + keyed entries). This
    /// is the number to watch for host-memory budgeting; the paper's
    /// hardware bit model stays in [`StorageReport::bytes_per_block`].
    ///
    /// Charged per **committed slot**, not per active block: a dense
    /// arena pays for every record in its committed span whether the
    /// protocol ever touched it or not, and honest accounting must say
    /// so (for the map-backed predictors `slots == blocks` and nothing
    /// changes).
    ///
    /// Spilled reader-set words ([`StorageReport::spill_bytes`]) are
    /// included: on >64-processor machines the per-record formulas
    /// only cover the inline set headers, and omitting the heap words
    /// (as this method did before interning) undercounts exactly the
    /// machines the wide-set economics argument is about.
    #[must_use]
    pub fn sw_bytes_total(&self) -> u64 {
        self.slots * self.model.sw_history_bytes()
            + self.entries * self.model.sw_entry_bytes()
            + self.spill_bytes
    }

    /// How many retained wide-set copies each canonical arena pattern
    /// absorbs: `spill_refs / spill_unique`. `1.0` means interning
    /// saved nothing (every spilled set was unique); `1.0` is also
    /// reported for inline-only machines, where there is nothing to
    /// dedup. The pre-interning layout effectively ran at ratio 1 by
    /// construction, paying one allocation per reference.
    #[must_use]
    pub fn dedup_ratio(&self) -> f64 {
        if self.spill_unique == 0 {
            1.0
        } else {
            self.spill_refs as f64 / self.spill_unique as f64
        }
    }
}

impl fmt::Display for StorageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} d={}: {:.1} pte/block, {:.1} bytes/block",
            self.model.kind,
            self.model.depth,
            self.pte_per_block(),
            self.bytes_per_block()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(kind: PredictorKind, depth: usize) -> StorageModel {
        StorageModel {
            kind,
            depth,
            num_procs: 16,
        }
    }

    #[test]
    fn paper_bit_widths_at_16_procs() {
        // "All predictors use 4 bits to encode the processor ids."
        assert_eq!(model(PredictorKind::Cosmos, 1).proc_bits(), 4);
        // "Cosmos uses 3 bits to encode the message type resulting in 7
        // bits for a history table entry and 14 bits per pte."
        assert_eq!(model(PredictorKind::Cosmos, 1).history_bits(), 7);
        assert_eq!(model(PredictorKind::Cosmos, 1).pte_bits(), 14);
        // "MSP's overhead is (6 + 12 pte)/8 bytes."
        assert_eq!(model(PredictorKind::Msp, 1).history_bits(), 6);
        assert_eq!(model(PredictorKind::Msp, 1).pte_bits(), 12);
        // "VMSP requires 18 bits for the history table entry but only
        // 18 + 6 bits for a pte."
        assert_eq!(model(PredictorKind::Vmsp, 1).history_bits(), 18);
        assert_eq!(model(PredictorKind::Vmsp, 1).pte_bits(), 24);
    }

    #[test]
    fn paper_byte_formulas() {
        // Cosmos (7 + 14 pte)/8, MSP (6 + 12 pte)/8, VMSP (18 + 24 pte)/8.
        for pte in [1.0, 2.0, 5.0, 11.0] {
            let c = model(PredictorKind::Cosmos, 1).bytes_per_block(pte);
            assert!((c - (7.0 + 14.0 * pte) / 8.0).abs() < 1e-12);
            let m = model(PredictorKind::Msp, 1).bytes_per_block(pte);
            assert!((m - (6.0 + 12.0 * pte) / 8.0).abs() < 1e-12);
            let v = model(PredictorKind::Vmsp, 1).bytes_per_block(pte);
            assert!((v - (18.0 + 24.0 * pte) / 8.0).abs() < 1e-12);
        }
    }

    #[test]
    fn vmsp_break_even_point() {
        // §3.1: VMSP's encoding is more compact only when the number of
        // readers exceeds (2+n)/(2+log n): at 16 procs, vectors beat
        // per-read entries at 3+ readers.
        let msp_sym = model(PredictorKind::Msp, 1).symbol_bits() as f64;
        let vmsp_vec = model(PredictorKind::Vmsp, 1).symbol_bits() as f64;
        let break_even = vmsp_vec / msp_sym;
        assert!(break_even > 2.0 && break_even <= 3.0, "{break_even}");
    }

    /// A report with no spilled state (the ≤64-processor case).
    fn inline_report(model: StorageModel, blocks: u64, slots: u64, entries: u64) -> StorageReport {
        StorageReport {
            model,
            blocks,
            slots,
            entries,
            spill_bytes: 0,
            spill_unique: 0,
            spill_refs: 0,
        }
    }

    #[test]
    fn report_averages() {
        let rep = inline_report(model(PredictorKind::Msp, 1), 4, 4, 12);
        assert_eq!(rep.pte_per_block(), 3.0);
        assert!((rep.bytes_per_block() - (6.0 + 12.0 * 3.0) / 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_zero() {
        let rep = inline_report(model(PredictorKind::Vmsp, 1), 0, 0, 0);
        assert_eq!(rep.pte_per_block(), 0.0);
        assert_eq!(rep.sw_bytes_total(), 0);
        assert_eq!(rep.dedup_ratio(), 1.0, "nothing to dedup reads as 1");
    }

    #[test]
    fn proc_bits_scales() {
        let mut m = model(PredictorKind::Msp, 1);
        m.num_procs = 2;
        assert_eq!(m.proc_bits(), 1);
        m.num_procs = 8;
        assert_eq!(m.proc_bits(), 3);
        m.num_procs = 64;
        assert_eq!(m.proc_bits(), 6);
    }

    #[test]
    fn deeper_history_costs_more() {
        for kind in PredictorKind::ALL {
            let d1 = model(kind, 1);
            let d4 = model(kind, 4);
            assert!(d4.history_bits() > d1.history_bits());
            assert!(d4.pte_bits() > d1.pte_bits());
        }
    }

    #[test]
    fn software_layout_accounting() {
        let m = model(PredictorKind::Msp, 2);
        // Key (8) + window box header (16) + 2 symbols + entry.
        let sym = std::mem::size_of::<crate::Symbol>() as u64;
        let entry = std::mem::size_of::<crate::PatternEntry>() as u64;
        assert_eq!(m.sw_entry_bytes(), 8 + 16 + 2 * sym + entry);
        assert_eq!(m.sw_history_bytes(), 2 * sym + 32);

        let rep = inline_report(m, 3, 3, 7);
        assert_eq!(
            rep.sw_bytes_total(),
            3 * m.sw_history_bytes() + 7 * m.sw_entry_bytes()
        );
        // The software layout is strictly fatter than the paper's
        // hardware bit budget — that is the price of the O(1) map.
        assert!(rep.sw_bytes_total() as f64 > rep.bytes_per_block() * 3.0);
    }

    #[test]
    fn spill_bytes_join_the_total_and_dedup_ratio_reads_out() {
        // The wide-machine accounting bug this report used to have:
        // spilled reader-set words never reached `sw_bytes_total`.
        let m = StorageModel {
            kind: PredictorKind::Vmsp,
            depth: 1,
            num_procs: 256,
        };
        let inline_only = inline_report(m, 3, 3, 7);
        let spilled = StorageReport {
            spill_bytes: 960,
            spill_unique: 5,
            spill_refs: 40,
            ..inline_only
        };
        assert_eq!(
            spilled.sw_bytes_total(),
            inline_only.sw_bytes_total() + 960,
            "spill bytes must be charged on top of the record formulas"
        );
        assert!((spilled.dedup_ratio() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn display_nonempty() {
        let rep = inline_report(model(PredictorKind::Cosmos, 1), 1, 1, 5);
        assert!(rep.to_string().contains("Cosmos"));
    }
}
