//! One function per paper table/figure.

use specdsm_analytic::Figure6Panel;
use specdsm_core::PredictorKind;
use specdsm_protocol::SpecPolicy;
use specdsm_workloads::AppId;

use crate::lab::Lab;

/// Figure 6: the analytic model's four panels.
#[must_use]
pub fn fig6(steps: usize) -> Vec<Figure6Panel> {
    specdsm_analytic::figure6(steps)
}

/// One application row of Figure 7: prediction accuracy at depth 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Application.
    pub app: AppId,
    /// Cosmos / MSP / VMSP accuracies, in [0, 1].
    pub accuracy: [f64; 3],
}

/// Figure 7: base predictor accuracy comparison (history depth 1).
pub fn fig7(lab: &mut Lab) -> Vec<Fig7Row> {
    AppId::ALL
        .iter()
        .map(|&app| {
            let accuracy = PredictorKind::ALL.map(|kind| lab.eval(app, kind, 1).stats.accuracy());
            Fig7Row { app, accuracy }
        })
        .collect()
}

/// One application row of Figure 8: accuracy at depths 1, 2, 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Row {
    /// Application.
    pub app: AppId,
    /// `accuracy[predictor][depth_index]` for depths `[1, 2, 4]`,
    /// predictors in [`PredictorKind::ALL`] order.
    pub accuracy: [[f64; 3]; 3],
}

/// Figure 8: predictor accuracy with varying history depth.
pub fn fig8(lab: &mut Lab) -> Vec<Fig8Row> {
    AppId::ALL
        .iter()
        .map(|&app| {
            let accuracy = PredictorKind::ALL
                .map(|kind| [1usize, 2, 4].map(|d| lab.eval(app, kind, d).stats.accuracy()));
            Fig8Row { app, accuracy }
        })
        .collect()
}

/// One application row of Table 3: fraction of messages predicted (and
/// correctly predicted) at depth 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Application.
    pub app: AppId,
    /// Per predictor: `(coverage, correct_fraction)`, both in [0, 1].
    pub predicted: [(f64, f64); 3],
}

/// Table 3: learning speed (messages predicted and correctly predicted).
pub fn table3(lab: &mut Lab) -> Vec<Table3Row> {
    AppId::ALL
        .iter()
        .map(|&app| {
            let predicted = PredictorKind::ALL.map(|kind| {
                let eval = lab.eval(app, kind, 1);
                (eval.stats.coverage(), eval.stats.correct_fraction())
            });
            Table3Row { app, predicted }
        })
        .collect()
}

/// One application row of Table 4: storage overhead.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Application.
    pub app: AppId,
    /// Per predictor: `(pte at d=1, pte at d=4, bytes/block at d=1)`.
    pub storage: [(f64, f64, f64); 3],
}

/// Table 4: pattern-table entries per block and bytes per block.
pub fn table4(lab: &mut Lab) -> Vec<Table4Row> {
    AppId::ALL
        .iter()
        .map(|&app| {
            let storage = PredictorKind::ALL.map(|kind| {
                let d1 = lab.eval(app, kind, 1).storage;
                let d4 = lab.eval(app, kind, 4).storage;
                (d1.pte_per_block(), d4.pte_per_block(), d1.bytes_per_block())
            });
            Table4Row { app, storage }
        })
        .collect()
}

/// One application row of Figure 9: normalized execution time split
/// into computation (incl. synchronization) and request waiting.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Row {
    /// Application.
    pub app: AppId,
    /// Per system (Base, FR, SWI): `(comp%, request%)` of Base-DSM
    /// execution time; the bar height is their sum.
    pub bars: [(f64, f64); 3],
}

/// Figure 9: execution time of the three systems, normalized to
/// Base-DSM, broken into computation and request-wait components.
pub fn fig9(lab: &mut Lab) -> Vec<Fig9Row> {
    AppId::ALL
        .iter()
        .map(|&app| {
            let base_exec = lab.run(app, SpecPolicy::Base).exec_cycles as f64;
            let bars = SpecPolicy::ALL.map(|policy| {
                let run = lab.run(app, policy);
                let total = run.exec_cycles as f64 / base_exec;
                let request = run.avg_mem_wait() / base_exec;
                ((total - request) * 100.0, request * 100.0)
            });
            Fig9Row { app, bars }
        })
        .collect()
}

/// One application row of Table 5: request counts and speculation
/// frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Row {
    /// Application.
    pub app: AppId,
    /// Base-DSM read requests (demand reads at the directories).
    pub base_reads: u64,
    /// Base-DSM write + upgrade requests.
    pub base_writes: u64,
    /// FR-DSM: `(fr_sent, fr_miss)` as fractions of base reads.
    pub fr_dsm: (f64, f64),
    /// SWI-DSM: `(fr_sent, fr_miss, swi_sent, swi_miss)` as fractions
    /// of base reads.
    pub swi_dsm_reads: (f64, f64, f64, f64),
    /// SWI-DSM: `(inval_sent, inval_premature)` as fractions of base
    /// writes.
    pub swi_dsm_invals: (f64, f64),
}

/// Table 5: frequency of requests, speculations, and misspeculations.
pub fn table5(lab: &mut Lab) -> Vec<Table5Row> {
    AppId::ALL
        .iter()
        .map(|&app| {
            let base = lab.run(app, SpecPolicy::Base);
            let base_reads = base.dir_reads.max(1);
            let base_writes = (base.dir_writes + base.dir_upgrades).max(1);
            let (base_reads_raw, base_writes_raw) =
                (base.dir_reads, base.dir_writes + base.dir_upgrades);
            let frac_r = |x: u64| x as f64 / base_reads as f64;
            let frac_w = |x: u64| x as f64 / base_writes as f64;
            let fr = lab.run(app, SpecPolicy::FirstRead).spec;
            let swi = lab.run(app, SpecPolicy::SwiFr).spec;
            Table5Row {
                app,
                base_reads: base_reads_raw,
                base_writes: base_writes_raw,
                fr_dsm: (frac_r(fr.fr_sent), frac_r(fr.fr_unused)),
                swi_dsm_reads: (
                    frac_r(swi.fr_sent),
                    frac_r(swi.fr_unused),
                    frac_r(swi.swi_sent),
                    frac_r(swi.swi_unused),
                ),
                swi_dsm_invals: (frac_w(swi.swi_inval_sent), frac_w(swi.swi_inval_premature)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn fig6_has_four_panels() {
        assert_eq!(fig6(10).len(), 4);
    }

    #[test]
    fn quick_predictor_experiments_cover_all_apps() {
        let mut lab = Lab::new(Scale::Quick);
        let rows = fig7(&mut lab);
        assert_eq!(rows.len(), 7);
        for row in &rows {
            for a in row.accuracy {
                assert!((0.0..=1.0).contains(&a), "{}: {a}", row.app);
            }
        }
        // Table 3 invariants: correct fraction <= coverage.
        for row in table3(&mut lab) {
            for (cov, correct) in row.predicted {
                assert!(correct <= cov + 1e-12);
            }
        }
        // Table 4 invariants: all storage figures are populated. (At
        // quick scale, d=4 can legitimately hold *fewer* entries than
        // d=1: per-block streams are so short that the deeper history
        // register barely warms up.)
        for row in table4(&mut lab) {
            for (d1, d4, bytes) in row.storage {
                assert!(d1 > 0.0);
                assert!(d4 >= 0.0);
                assert!(bytes > 0.0);
            }
        }
    }

    #[test]
    fn quick_fig9_bars_are_sane() {
        let mut lab = Lab::new(Scale::Quick);
        let rows = fig9(&mut lab);
        assert_eq!(rows.len(), 7);
        for row in &rows {
            let (comp, req) = row.bars[0];
            // Base-DSM bar is exactly 100%.
            assert!(
                (comp + req - 100.0).abs() < 1e-6,
                "{}: {comp}+{req}",
                row.app
            );
        }
    }
}
