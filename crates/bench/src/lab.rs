//! Shared experiment state: cached runs and trace replays per
//! application.

use std::collections::HashMap;

use specdsm_core::{evaluate_trace, DirectoryTrace, PredictorKind, TraceEval};
use specdsm_protocol::{RunStats, SpecPolicy, System, SystemConfig};
use specdsm_types::MachineConfig;
use specdsm_workloads::{AppId, Scale};

/// Caches per-application simulation runs so that the predictor
/// experiments (Figures 7–8, Tables 3–4), the speculation experiments
/// (Figure 9, Table 5) and the ablation share them. The Base-DSM run
/// records the directory trace the predictor experiments replay, so
/// each app simulates once per system, and each replay of that trace
/// through one predictor at one depth runs once.
pub struct Lab {
    machine: MachineConfig,
    scale: Scale,
    runs: HashMap<(AppId, SpecPolicy), RunStats>,
    evals: HashMap<(AppId, PredictorKind, usize), TraceEval>,
}

impl Lab {
    /// Creates a lab on the paper's 16-node machine at the given input
    /// scale.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        Lab {
            machine: MachineConfig::paper_machine(),
            scale,
            runs: HashMap::new(),
            evals: HashMap::new(),
        }
    }

    /// The machine all experiments run on.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The input scale in effect.
    #[must_use]
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The Base-DSM directory message trace for `app` (simulating the
    /// Base run on first use).
    pub fn trace(&mut self, app: AppId) -> &DirectoryTrace {
        self.run(app, SpecPolicy::Base)
            .trace
            .as_ref()
            .expect("Base runs record their trace")
    }

    /// The replay of `app`'s Base-DSM trace through a `kind` predictor
    /// of history depth `depth` (replaying on first use).
    pub fn eval(&mut self, app: AppId, kind: PredictorKind, depth: usize) -> TraceEval {
        if let Some(eval) = self.evals.get(&(app, kind, depth)) {
            return *eval;
        }
        let num_procs = self.machine.num_nodes;
        let eval = evaluate_trace(self.trace(app), kind, depth, num_procs);
        self.evals.insert((app, kind, depth), eval);
        eval
    }

    /// The full run of `app` under `policy` (simulating on first use).
    /// Base runs also record the directory trace.
    pub fn run(&mut self, app: AppId, policy: SpecPolicy) -> &RunStats {
        if !self.runs.contains_key(&(app, policy)) {
            let workload = app
                .build(&self.machine, self.scale)
                .expect("every suite app builds on the paper machine");
            let cfg = SystemConfig {
                machine: self.machine.clone(),
                policy,
                record_trace: policy == SpecPolicy::Base,
                ..SystemConfig::default()
            };
            let stats = System::new(cfg, workload.as_ref())
                .expect("suite workloads match the paper machine")
                .run();
            self.runs.insert((app, policy), stats);
        }
        &self.runs[&(app, policy)]
    }
}

impl std::fmt::Debug for Lab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lab")
            .field("scale", &self.scale)
            .field("cached_runs", &self.runs.len())
            .field("cached_evals", &self.evals.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_cached() {
        let mut lab = Lab::new(Scale::Quick);
        let n1 = lab.trace(AppId::Tomcatv).total_messages();
        let n2 = lab.trace(AppId::Tomcatv).total_messages();
        assert_eq!(n1, n2);
        assert!(n1 > 0);
    }

    #[test]
    fn trace_recording_only_observes() {
        // `trace` and `run(app, Base)` share one traced run, so recording
        // must leave every other field as an untraced run has it.
        // `RunStats` has no `PartialEq`; its `Debug` form shows every field.
        let mut lab = Lab::new(Scale::Quick);
        for app in [AppId::Em3d, AppId::Barnes, AppId::Ocean] {
            let mut traced = lab.run(app, SpecPolicy::Base).clone();
            assert!(traced.trace.take().is_some(), "{app}: Base runs trace");
            let workload = app.build(lab.machine(), lab.scale()).unwrap();
            let cfg = SystemConfig {
                machine: lab.machine().clone(),
                ..SystemConfig::default()
            };
            let untraced = System::new(cfg, workload.as_ref()).unwrap().run();
            assert_eq!(format!("{traced:?}"), format!("{untraced:?}"), "{app}");
        }
    }

    #[test]
    fn eval_is_cached_and_matches_a_fresh_replay() {
        let mut lab = Lab::new(Scale::Quick);
        let first = lab.eval(AppId::Em3d, PredictorKind::Vmsp, 2);
        assert_eq!(lab.evals.len(), 1);
        assert_eq!(lab.eval(AppId::Em3d, PredictorKind::Vmsp, 2), first);
        assert_eq!(lab.evals.len(), 1, "a second call replays nothing");
        let fresh = evaluate_trace(lab.trace(AppId::Em3d), PredictorKind::Vmsp, 2, 16);
        assert_eq!(first, fresh);
    }

    /// The invariants of Figures 7–8 and Tables 3–4, on every app:
    /// accuracies lie in [0, 1], the correctly predicted fraction is at
    /// most the coverage, and the depth-1 storage figures are populated.
    /// (At quick scale, d=4 can legitimately hold *fewer* entries than
    /// d=1: per-block streams are so short that the deeper history
    /// register barely warms up.)
    #[test]
    fn quick_predictor_experiments_cover_all_apps() {
        let mut lab = Lab::new(Scale::Quick);
        for app in AppId::ALL {
            for kind in PredictorKind::ALL {
                for depth in [1, 2, 4] {
                    let a = lab.eval(app, kind, depth).stats.accuracy();
                    assert!((0.0..=1.0).contains(&a), "{app} {kind:?} d={depth}: {a}");
                }
                let d1 = lab.eval(app, kind, 1);
                let (cov, correct) = (d1.stats.coverage(), d1.stats.correct_fraction());
                assert!(correct <= cov + 1e-12, "{app} {kind:?}: {correct} > {cov}");
                assert!(d1.storage.pte_per_block() > 0.0, "{app} {kind:?}");
                assert!(d1.storage.bytes_per_block() > 0.0, "{app} {kind:?}");
            }
        }
    }

    /// Figure 9 splits each run's execution time, as a share of Base's,
    /// into computation and request waiting: Base's bar is exactly 100%,
    /// and no system waits on requests longer than it runs.
    #[test]
    fn quick_fig9_bars_are_sane() {
        let mut lab = Lab::new(Scale::Quick);
        for app in AppId::ALL {
            let base_exec = lab.run(app, SpecPolicy::Base).exec_cycles as f64;
            for policy in SpecPolicy::ALL {
                let run = lab.run(app, policy);
                let total = run.exec_cycles as f64 / base_exec;
                let request = run.avg_mem_wait() / base_exec;
                let (comp, req) = ((total - request) * 100.0, request * 100.0);
                assert!(comp >= 0.0 && req >= 0.0, "{app} {policy}: {comp}+{req}");
                if policy == SpecPolicy::Base {
                    assert!((comp + req - 100.0).abs() < 1e-6, "{app}: {comp}+{req}");
                }
            }
        }
    }

    #[test]
    fn runs_complete_for_all_policies() {
        let mut lab = Lab::new(Scale::Quick);
        for policy in SpecPolicy::ALL {
            let stats = lab.run(AppId::Em3d, policy);
            assert!(stats.exec_cycles > 0);
        }
    }
}
