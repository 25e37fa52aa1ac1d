//! The full application suite (paper Table 2).

use std::error::Error;
use std::fmt;

use specdsm_types::{FaultPlan, MachineConfig, Workload};

use crate::apps::appbt::{Appbt, AppbtParams};
use crate::apps::barnes::{Barnes, BarnesParams};
use crate::apps::em3d::{Em3d, Em3dParams};
use crate::apps::moldyn::{Moldyn, MoldynParams};
use crate::apps::ocean::{Ocean, OceanParams};
use crate::apps::tomcatv::{Tomcatv, TomcatvParams};
use crate::apps::unstructured::{Unstructured, UnstructuredParams};

/// The seven applications, in the paper's presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    /// NAS appbt (gaussian elimination over a cube).
    Appbt,
    /// SPLASH-2 Barnes-Hut.
    Barnes,
    /// Split-C em3d.
    Em3d,
    /// CHARMM-like molecular dynamics.
    Moldyn,
    /// SPLASH-2 ocean.
    Ocean,
    /// SPEC tomcatv.
    Tomcatv,
    /// CFD on an unstructured mesh.
    Unstructured,
}

impl AppId {
    /// All applications in Table 2 order.
    pub const ALL: [AppId; 7] = [
        AppId::Appbt,
        AppId::Barnes,
        AppId::Em3d,
        AppId::Moldyn,
        AppId::Ocean,
        AppId::Tomcatv,
        AppId::Unstructured,
    ];

    /// Builds the workload at the given scale for `machine`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::NonSquareGrid`] for appbt on a machine
    /// whose node count is not a perfect square (its subcube grid needs
    /// one); the other six apps build on any machine.
    pub fn build(
        self,
        machine: &MachineConfig,
        scale: Scale,
    ) -> Result<Box<dyn Workload>, WorkloadError> {
        let nodes = machine.num_nodes;
        if self == AppId::Appbt && nodes.isqrt().pow(2) != nodes {
            return Err(WorkloadError::NonSquareGrid { nodes });
        }
        Ok(match self {
            AppId::Appbt => Box::new(Appbt::new(
                machine.clone(),
                match scale {
                    Scale::Paper => AppbtParams::paper(),
                    Scale::Default => AppbtParams::default_scale(),
                    Scale::Quick => AppbtParams::quick(),
                },
            )),
            AppId::Barnes => Box::new(Barnes::new(
                machine.clone(),
                match scale {
                    Scale::Paper => BarnesParams::paper(),
                    Scale::Default => BarnesParams::default_scale(),
                    Scale::Quick => BarnesParams::quick(),
                },
            )),
            AppId::Em3d => Box::new(Em3d::new(
                machine.clone(),
                match scale {
                    Scale::Paper => Em3dParams::paper(),
                    Scale::Default => Em3dParams::default_scale(),
                    Scale::Quick => Em3dParams::quick(),
                },
            )),
            AppId::Moldyn => Box::new(Moldyn::new(
                machine.clone(),
                match scale {
                    Scale::Paper => MoldynParams::paper(),
                    Scale::Default => MoldynParams::default_scale(),
                    Scale::Quick => MoldynParams::quick(),
                },
            )),
            AppId::Ocean => Box::new(Ocean::new(
                machine.clone(),
                match scale {
                    Scale::Paper => OceanParams::paper(),
                    Scale::Default => OceanParams::default_scale(),
                    Scale::Quick => OceanParams::quick(),
                },
            )),
            AppId::Tomcatv => Box::new(Tomcatv::new(
                machine.clone(),
                match scale {
                    Scale::Paper => TomcatvParams::paper(),
                    Scale::Default => TomcatvParams::default_scale(),
                    Scale::Quick => TomcatvParams::quick(),
                },
            )),
            AppId::Unstructured => Box::new(Unstructured::new(
                machine.clone(),
                match scale {
                    Scale::Paper => UnstructuredParams::paper(),
                    Scale::Default => UnstructuredParams::default_scale(),
                    Scale::Quick => UnstructuredParams::quick(),
                },
            )),
        })
    }

    /// The paper's Table 2 input description.
    #[must_use]
    pub fn paper_input(self) -> &'static str {
        match self {
            AppId::Appbt => "12x12x12 cubes, 40 iterations",
            AppId::Barnes => "4K particles, 21 iterations",
            AppId::Em3d => "76800 nodes, 15% remote, 50 iterations",
            AppId::Moldyn => "2048 particles, 60 iterations",
            AppId::Ocean => "130x130 array, 12 iterations",
            AppId::Tomcatv => "128x128 array, 50 iterations",
            AppId::Unstructured => "mesh.2K, 50 iterations",
        }
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AppId::Appbt => "appbt",
            AppId::Barnes => "barnes",
            AppId::Em3d => "em3d",
            AppId::Moldyn => "moldyn",
            AppId::Ocean => "ocean",
            AppId::Tomcatv => "tomcatv",
            AppId::Unstructured => "unstructured",
        };
        f.write_str(s)
    }
}

/// Why a suite application cannot be built for a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WorkloadError {
    /// appbt's subcube grid needs a perfect-square node count.
    NonSquareGrid {
        /// The machine's node count.
        nodes: usize,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::NonSquareGrid { nodes } => {
                write!(f, "appbt needs a square processor grid, not {nodes} nodes")
            }
        }
    }
}

impl Error for WorkloadError {}

/// Input scale for the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// The paper's Table 2 inputs.
    Paper,
    /// Scaled-down inputs preserving the sharing patterns (faster; the
    /// default for the repro harness).
    Default,
    /// Tiny inputs for unit/integration tests.
    Quick,
}

impl std::str::FromStr for Scale {
    type Err = String;

    /// Parses `quick`, `default` or `paper`; anything else is an error
    /// naming the value and the accepted ones.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "quick" => Ok(Scale::Quick),
            "default" => Ok(Scale::Default),
            "paper" => Ok(Scale::Paper),
            other => Err(format!("unknown scale '{other}' (quick|default|paper)")),
        }
    }
}

/// Builds all seven workloads at the given scale.
///
/// # Errors
///
/// Returns the first app's [`WorkloadError`], in Table 2 order.
///
/// # Example
///
/// ```
/// use specdsm_types::MachineConfig;
/// use specdsm_workloads::{suite, Scale};
///
/// let machine = MachineConfig::paper_machine();
/// let apps = suite(&machine, Scale::Quick)?;
/// assert_eq!(apps.len(), 7);
/// assert_eq!(apps[2].name(), "em3d");
/// # Ok::<(), specdsm_workloads::WorkloadError>(())
/// ```
pub fn suite(
    machine: &MachineConfig,
    scale: Scale,
) -> Result<Vec<Box<dyn Workload>>, WorkloadError> {
    AppId::ALL
        .iter()
        .map(|app| app.build(machine, scale))
        .collect()
}

/// The suite-standard fault plan: light loss, duplication, and jittered
/// delay plus one slow node — strong enough that every suite run sees
/// retries, mild enough that the applications' sharing patterns (and
/// thus the predictor's behavior) stay recognizable.
///
/// Like [`Jitter`](crate::Jitter), every decision derived from the plan
/// is a pure function of `(seed, src, dst, seq, attempt)`, so Base, FR,
/// and SWI runs face the identical fault schedule.
#[must_use]
pub fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::light(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdsm_types::Op;

    #[test]
    fn scale_parses_its_three_names() {
        assert_eq!("quick".parse(), Ok(Scale::Quick));
        assert_eq!("default".parse(), Ok(Scale::Default));
        assert_eq!("paper".parse(), Ok(Scale::Paper));
        let err = "huge".parse::<Scale>().unwrap_err();
        assert_eq!(err, "unknown scale 'huge' (quick|default|paper)");
    }

    #[test]
    fn suite_has_seven_apps_in_order() {
        let machine = MachineConfig::paper_machine();
        let apps = suite(&machine, Scale::Quick).unwrap();
        let names: Vec<&str> = apps.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec![
                "appbt",
                "barnes",
                "em3d",
                "moldyn",
                "ocean",
                "tomcatv",
                "unstructured"
            ]
        );
    }

    #[test]
    fn every_app_builds_all_scales() {
        let machine = MachineConfig::paper_machine();
        for app in AppId::ALL {
            for scale in [Scale::Default, Scale::Quick] {
                let w = app.build(&machine, scale).unwrap();
                assert_eq!(w.num_procs(), 16);
                let streams = w.build_streams();
                assert_eq!(streams.len(), 16);
            }
        }
    }

    #[test]
    fn every_app_scales_to_64_and_256_processors() {
        // The paper's evaluation stops at 16 nodes; the suite itself is
        // machine-parameterized and must generate valid per-processor
        // streams at wide machine sizes (64 = the former ReaderSet
        // ceiling, 256 = well past it).
        for nodes in [64usize, 256] {
            let machine = MachineConfig::with_nodes(nodes);
            machine.validate().expect("wide machine is valid");
            for app in AppId::ALL {
                let w = app.build(&machine, Scale::Quick).unwrap();
                assert_eq!(w.num_procs(), nodes, "{app}@{nodes}");
                let streams = w.build_streams();
                assert_eq!(streams.len(), nodes, "{app}@{nodes}");
                // Every stream is non-empty and in-range.
                for (p, s) in streams.into_iter().enumerate() {
                    let mut n = 0usize;
                    for op in s {
                        n += 1;
                        if let Op::Read(b) | Op::Write(b) = op {
                            assert!(
                                machine.home_of(b).0 < nodes,
                                "{app}@{nodes} P{p}: block outside machine"
                            );
                        }
                    }
                    assert!(n > 0, "{app}@{nodes} P{p}: empty stream");
                }
            }
        }
    }

    #[test]
    fn quick_streams_are_finite_and_nonempty() {
        let machine = MachineConfig::paper_machine();
        for app in AppId::ALL {
            let w = app.build(&machine, Scale::Quick).unwrap();
            for (p, s) in w.build_streams().into_iter().enumerate() {
                let count = s.count();
                assert!(count > 0, "{app} proc {p} has an empty stream");
                assert!(count < 1_000_000, "{app} proc {p} quick stream too large");
            }
        }
    }

    #[test]
    fn appbt_alone_needs_a_square_machine() {
        for nodes in [2usize, 3, 5, 6, 7] {
            let machine = MachineConfig::with_nodes(nodes);
            for app in AppId::ALL {
                let built = app.build(&machine, Scale::Quick);
                if app == AppId::Appbt {
                    let err = built.err().expect("appbt rejects the machine");
                    assert_eq!(err, WorkloadError::NonSquareGrid { nodes });
                    assert!(err.to_string().contains(&nodes.to_string()), "{err}");
                } else {
                    let w = built.unwrap_or_else(|e| panic!("{app}@{nodes}: {e}"));
                    assert_eq!(w.num_procs(), nodes, "{app}@{nodes}");
                }
            }
            assert_eq!(
                suite(&machine, Scale::Quick).err(),
                Some(WorkloadError::NonSquareGrid { nodes })
            );
        }
    }

    #[test]
    fn suite_fault_plan_is_valid_and_active() {
        let plan = fault_plan(7);
        plan.validate().expect("suite plan validates");
        assert!(!plan.is_noop(), "suite plan actually injects faults");
        assert_eq!(plan, fault_plan(7), "pure function of the seed");
        assert_ne!(plan, fault_plan(8), "seed enters the schedule");
    }

    #[test]
    fn display_and_inputs() {
        for app in AppId::ALL {
            assert!(!app.to_string().is_empty());
            assert!(app.paper_input().contains("iterations"));
        }
    }
}
