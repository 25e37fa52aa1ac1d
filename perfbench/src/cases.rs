//! The four workloads: which applications run on which machine under
//! which policies, every input built from the workload seed.

use specdsm_protocol::{SpecPolicy, SystemConfig};
use specdsm_types::{MachineConfig, Workload};
use specdsm_workloads::{
    fault_plan, Appbt, AppbtParams, Barnes, BarnesParams, Em3d, Em3dParams, Moldyn, MoldynParams,
    Ocean, OceanParams, Scale, Tomcatv, TomcatvParams, Unstructured, UnstructuredParams,
    WideSharing,
};

/// A benchmark workload (a set of inputs and the operations run on them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// The 7-app suite on the paper's 16-node machine under Base, FR and SWI+FR.
    Paper16,
    /// Offline replay of each app's Base-DSM directory trace through
    /// Cosmos, MSP and VMSP at depths 1, 2 and 4.
    Predictors,
    /// The quick-scale suite plus `WideSharing` on 256 nodes, Base and SWI+FR.
    Wide256,
    /// Three apps on 16 nodes with a seeded fault plan and the auditor on.
    Faulty16,
}

impl Bench {
    pub const ALL: [Bench; 4] = [
        Bench::Paper16,
        Bench::Predictors,
        Bench::Wide256,
        Bench::Faulty16,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Bench::Paper16 => "paper16",
            Bench::Predictors => "predictors",
            Bench::Wide256 => "wide256",
            Bench::Faulty16 => "faulty16",
        }
    }

    pub fn parse(s: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == s)
    }
}

/// Input size: `Full` is what the benchmark measures; `Tiny` is the
/// quick-scale variant the self-test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The simulated applications of one workload, with everything needed
/// to build them and the configurations they run under.
#[derive(Debug, Clone)]
pub struct Suite {
    pub machine: MachineConfig,
    apps: Vec<App>,
    scale: Scale,
    seed: u64,
    wide: Option<(usize, usize)>,
    /// Policies the workload's timed pass runs (empty for `predictors`,
    /// whose timed work is trace replay).
    pub policies: Vec<SpecPolicy>,
    faulty: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum App {
    Appbt,
    Barnes,
    Em3d,
    Moldyn,
    Ocean,
    Tomcatv,
    Unstructured,
}

const ALL_APPS: [App; 7] = [
    App::Appbt,
    App::Barnes,
    App::Em3d,
    App::Moldyn,
    App::Ocean,
    App::Tomcatv,
    App::Unstructured,
];

/// SplitMix64 finalizer: spreads one workload seed over many inputs.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

macro_rules! seeded {
    ($machine:expr, $scale:expr, $seed:expr, $W:ident, $P:ident) => {
        Box::new($W::new(
            $machine.clone(),
            $P {
                seed: $seed,
                ..match $scale {
                    Scale::Quick => $P::quick(),
                    _ => $P::default_scale(),
                }
            },
        ))
    };
}

impl Suite {
    /// The simulations `bench` is built from. `predictors` simulates
    /// the paper16 apps to record its traces.
    pub fn of(bench: Bench, size: Size, seed: u64) -> Suite {
        let tiny = size == Size::Tiny;
        let scale = if tiny { Scale::Quick } else { Scale::Default };
        let m16 = MachineConfig::paper_machine();
        match bench {
            Bench::Paper16 | Bench::Predictors => Suite {
                machine: m16,
                apps: ALL_APPS.to_vec(),
                scale,
                seed,
                wide: None,
                policies: if bench == Bench::Paper16 {
                    SpecPolicy::ALL.to_vec()
                } else {
                    Vec::new()
                },
                faulty: false,
            },
            Bench::Wide256 => Suite {
                machine: MachineConfig::with_nodes(if tiny { 64 } else { 256 }),
                apps: ALL_APPS.to_vec(),
                scale: Scale::Quick,
                seed,
                wide: Some(if tiny { (8, 4) } else { (64, 16) }),
                policies: vec![SpecPolicy::Base, SpecPolicy::SwiFr],
                faulty: false,
            },
            Bench::Faulty16 => Suite {
                machine: m16,
                apps: vec![App::Em3d, App::Ocean, App::Moldyn],
                scale,
                seed,
                wide: None,
                policies: vec![SpecPolicy::Base, SpecPolicy::SwiFr],
                faulty: true,
            },
        }
    }

    /// Number of simulated applications (`WideSharing` included).
    pub fn len(&self) -> usize {
        self.apps.len() + usize::from(self.wide.is_some())
    }

    /// Builds every application's workload from the seed: the inputs.
    pub fn build(&self) -> Vec<Box<dyn Workload>> {
        let (m, scale) = (&self.machine, self.scale);
        let mut out: Vec<Box<dyn Workload>> = self
            .apps
            .iter()
            .enumerate()
            .map(|(i, app)| -> Box<dyn Workload> {
                let seed = mix(self.seed, i as u64);
                match app {
                    App::Appbt => seeded!(m, scale, seed, Appbt, AppbtParams),
                    App::Barnes => seeded!(m, scale, seed, Barnes, BarnesParams),
                    App::Em3d => seeded!(m, scale, seed, Em3d, Em3dParams),
                    App::Moldyn => seeded!(m, scale, seed, Moldyn, MoldynParams),
                    App::Ocean => seeded!(m, scale, seed, Ocean, OceanParams),
                    App::Tomcatv => seeded!(m, scale, seed, Tomcatv, TomcatvParams),
                    App::Unstructured => {
                        seeded!(m, scale, seed, Unstructured, UnstructuredParams)
                    }
                }
            })
            .collect();
        if let Some((blocks, iters)) = self.wide {
            let mut wide = WideSharing::new(m.clone(), blocks, iters);
            wide.seed = mix(self.seed, 100);
            out.push(Box::new(wide));
        }
        out
    }

    /// The configuration one simulation of this suite runs under: the
    /// sequential engine (one thread), plus the seeded fault plan and
    /// the auditor on `faulty16`.
    pub fn config(&self, policy: SpecPolicy) -> SystemConfig {
        SystemConfig {
            machine: self.machine.clone(),
            policy,
            faults: self.faulty.then(|| fault_plan(mix(self.seed, 200))),
            audit: self.faulty,
            ..SystemConfig::default()
        }
    }

    /// The same applications without faults or auditing.
    pub fn reliable(&self) -> Suite {
        Suite {
            faulty: false,
            ..self.clone()
        }
    }
}

/// Short label of a policy, as used in metric and span names.
pub fn policy_tag(policy: SpecPolicy) -> &'static str {
    match policy {
        SpecPolicy::Base => "base",
        SpecPolicy::FirstRead => "fr",
        SpecPolicy::SwiFr => "swi",
    }
}
