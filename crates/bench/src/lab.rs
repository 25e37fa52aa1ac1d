//! Shared experiment state: cached runs and traces per application.

use std::collections::HashMap;

use specdsm_core::DirectoryTrace;
use specdsm_protocol::{RunStats, SpecPolicy, System, SystemConfig};
use specdsm_types::MachineConfig;
use specdsm_workloads::{AppId, Scale};

/// Caches per-application simulation artifacts so that the predictor
/// experiments (Figures 7–8, Tables 3–4) reuse one Base-DSM trace run
/// and the speculation experiments (Figure 9, Table 5) reuse the three
/// system runs.
pub struct Lab {
    machine: MachineConfig,
    scale: Scale,
    traces: HashMap<AppId, DirectoryTrace>,
    runs: HashMap<(AppId, SpecPolicy), RunStats>,
}

impl Lab {
    /// Creates a lab on the paper's 16-node machine at the given input
    /// scale.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        Lab {
            machine: MachineConfig::paper_machine(),
            scale,
            traces: HashMap::new(),
            runs: HashMap::new(),
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

    /// The Base-DSM directory message trace for `app` (simulating it on
    /// first use).
    pub fn trace(&mut self, app: AppId) -> &DirectoryTrace {
        if !self.traces.contains_key(&app) {
            let workload = app.build(&self.machine, self.scale);
            let cfg = SystemConfig {
                machine: self.machine.clone(),
                policy: SpecPolicy::Base,
                record_trace: true,
                ..SystemConfig::default()
            };
            let stats = System::new(cfg, workload.as_ref())
                .expect("suite workloads match the paper machine")
                .run();
            self.traces
                .insert(app, stats.trace.expect("trace recording was enabled"));
        }
        &self.traces[&app]
    }

    /// The full run of `app` under `policy` (simulating on first use).
    pub fn run(&mut self, app: AppId, policy: SpecPolicy) -> &RunStats {
        if !self.runs.contains_key(&(app, policy)) {
            let workload = app.build(&self.machine, self.scale);
            let cfg = SystemConfig {
                machine: self.machine.clone(),
                policy,
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
            .field("cached_traces", &self.traces.len())
            .field("cached_runs", &self.runs.len())
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
    fn runs_complete_for_all_policies() {
        let mut lab = Lab::new(Scale::Quick);
        for policy in SpecPolicy::ALL {
            let stats = lab.run(AppId::Em3d, policy);
            assert!(stats.exec_cycles > 0);
        }
    }
}
