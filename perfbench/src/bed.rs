//! The untraced end-to-end measurement of one workload.
//!
//! A run prepares its inputs once, then repeats the workload's timed pass
//! until `--seconds` have passed, and reports medians over the passes.

use std::time::{Duration, Instant};

use specdsm_core::{DirectoryTrace, PredictorKind, TraceEval};
use specdsm_protocol::{SpecPolicy, SystemConfig};

use crate::calib;
use crate::cases::{Bench, Size, Suite};
use crate::check::{self, Issued, Tally};
use crate::pass::{self, Run, DEPTHS};
use crate::report::{median, Metric};
use crate::trace::{ratio, Tracer};

/// Passes every run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Set-ups timed before the passes; `setup_s` is their median. A set-up
/// takes a few milliseconds at most, so it is sampled many times, and
/// every workload is sampled the same way, `predictors` (whose timed pass
/// needs no set-up) included.
const SETUP_SAMPLES: usize = 51;

/// One workload, prepared: its inputs' expected accesses and, for
/// `predictors`, the recorded traces.
pub struct Bed {
    bench: Bench,
    pub suite: Suite,
    issued: Vec<Issued>,
    traces: Vec<DirectoryTrace>,
    /// `predictors` only: the runs made while preparing.
    prep_runs: Vec<Run>,
}

/// What one timed pass did.
pub struct Pass {
    pub wall_s: f64,
    pub items: u64,
    /// Mean over the pass's operations of the heap high-water mark above
    /// the heap live when the operation started, in MiB.
    pub heap_mb: f64,
    pub runs: Vec<Run>,
    pub evals: Vec<TraceEval>,
}

/// Counts the reads and writes in each application's streams.
pub fn oracle(suite: &Suite) -> Vec<Issued> {
    suite
        .build()
        .iter()
        .map(|w| check::issued(w.as_ref()).0)
        .collect()
}

/// `bytes` summed over `ops` operations, as a mean in MiB.
fn mib(bytes: u64, ops: usize) -> f64 {
    ratio(bytes as f64, ops as f64) / (1024.0 * 1024.0)
}

impl Bed {
    pub fn new(bench: Bench, size: Size, seed: u64, tally: &mut Tally) -> Bed {
        let suite = Suite::of(bench, size, seed);
        let issued = oracle(&suite);
        let mut bed = Bed {
            bench,
            suite,
            issued,
            traces: Vec::new(),
            prep_runs: Vec::new(),
        };
        if bench == Bench::Predictors {
            // Record each app's Base-DSM trace, and run SWI+FR for
            // `swi_speedup`. Neither simulation is timed.
            let mut off = Tracer::new(false);
            let sims = pass::run(bed.set_up(&mut off), &mut off);
            let mut runs = pass::check_sims(sims, &bed.issued, &mut None, tally);
            bed.traces = runs
                .iter_mut()
                .filter_map(|(_, _, s)| s.trace.take())
                .collect();
            bed.prep_runs = runs;
        }
        bed
    }

    /// Builds the inputs and `System`s the workload simulates: its pass's,
    /// or for `predictors` the trace-recording Base and the SWI+FR runs.
    fn set_up(&self, tracer: &mut Tracer) -> pass::Setup {
        if self.bench == Bench::Predictors {
            let policies = [SpecPolicy::Base, SpecPolicy::SwiFr];
            let record = |c: &mut SystemConfig| c.record_trace = c.policy == SpecPolicy::Base;
            pass::setup(&self.suite, &policies, &record, tracer)
        } else {
            pass::setup(&self.suite, &self.suite.policies, &|_| {}, tracer)
        }
    }

    /// One timed pass — the suite's simulations, or every trace replay —
    /// with its outputs checked against the first pass's. The tracer
    /// records spans when it is enabled.
    pub fn checked_pass(
        &self,
        tracer: &mut Tracer,
        reference: &mut Option<Vec<String>>,
        tally: &mut Tally,
    ) -> Pass {
        if self.bench == Bench::Predictors {
            let nprocs = self.suite.machine.num_nodes;
            let replays = pass::replay(&self.traces, &PredictorKind::ALL, &DEPTHS, nprocs, tracer);
            pass::check_replays(&replays.evals, reference, tally);
            Pass {
                wall_s: replays.secs,
                items: replays.msgs,
                heap_mb: mib(replays.heap, replays.evals.len()),
                runs: Vec::new(),
                evals: replays.evals,
            }
        } else {
            let sims = pass::run(self.set_up(tracer), tracer);
            Pass {
                wall_s: sims.run_s,
                items: sims.events,
                heap_mb: mib(sims.heap, sims.sims.len()),
                runs: pass::check_sims(sims, &self.issued, reference, tally),
                evals: Vec::new(),
            }
        }
    }

    /// The end-to-end metrics, from passes repeated for `seconds`.
    pub fn measure(&self, seconds: u64, tally: &mut Tally) -> Vec<Metric> {
        let mut off = Tracer::new(false);
        let mut reference = None;
        // Every host time is scaled to the reference host speed by the
        // calibration kernel run just before and just after it.
        let before_setups = calib::kernel();
        let setups: Vec<f64> = (0..SETUP_SAMPLES)
            .map(|_| self.set_up(&mut off).setup_s)
            .collect();
        let mut kernel = calib::kernel();
        let setup_scale = calib::scale(before_setups, kernel);
        let mut walls = Vec::new();
        let mut raw = Vec::new();
        let mut first: Option<Pass> = None;
        let start = Instant::now();
        while walls.len() < MIN_PASSES || start.elapsed() < Duration::from_secs(seconds) {
            let pass = self.checked_pass(&mut off, &mut reference, tally);
            let before = kernel;
            kernel = calib::kernel();
            walls.push(pass.wall_s * calib::scale(before, kernel));
            raw.push(pass.wall_s);
            first.get_or_insert(pass);
        }
        let first = first.expect("at least one pass");
        let wall = median(&walls);
        eprintln!(
            "perfbench: {} {} passes, wall median {wall:.4} s at reference speed, {:.4} s raw",
            self.bench.name(),
            walls.len(),
            median(&raw)
        );
        let (accuracy, speedup) = if self.bench == Bench::Predictors {
            let vmsp_d1 = first
                .evals
                .iter()
                .filter(|e| e.kind == PredictorKind::Vmsp && e.depth == 1)
                .fold((0, 0), |(c, p), e| {
                    (c + e.stats.correct, p + e.stats.predicted)
                });
            (
                ratio(vmsp_d1.0 as f64, vmsp_d1.1 as f64),
                pass::swi_speedup(&self.prep_runs),
            )
        } else {
            (
                pass::online_accuracy(&first.runs),
                pass::swi_speedup(&first.runs),
            )
        };
        vec![
            Metric::new("wall_s", wall, "s"),
            Metric::new("setup_s", median(&setups) * setup_scale, "s"),
            Metric::new("mean_peak_heap_mb", first.heap_mb, "MiB"),
            Metric::new("mitems_per_s", ratio(first.items as f64, wall) / 1e6, "M/s"),
            Metric::new("vmsp_accuracy", accuracy, "ratio"),
            Metric::new("swi_speedup", speedup, "ratio"),
        ]
    }
}
