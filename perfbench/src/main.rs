//! Seeded end-to-end and per-layer benchmark of the specdsm simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper16 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run, and
//! `--trace 1` the per-layer metrics of a traced run. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/README.md` for the workloads,
//! the metrics, and the layer map.

mod bed;
mod calib;
mod cases;
mod check;
mod heap;
mod layers;
mod pass;
mod report;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use cases::{Bench, Size};
use check::Tally;

struct Args {
    bench: Bench,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
}

const USAGE: &str = "usage: perfbench --workload <paper16|predictors|wide256|faulty16> \
--seed <n> --seconds <n> --trace <0|1> [--size <full|tiny>]";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut bench, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = Size::Full;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                bench =
                    Some(Bench::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            "--size" => match value.as_str() {
                "full" => size = Size::Full,
                "tiny" => size = Size::Tiny,
                _ => return Err(format!("--size takes full or tiny, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        bench: bench.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let metrics = if args.trace {
        let spans = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.jsonl", args.bench.name(), args.seed));
        layers::measure(
            args.bench,
            args.size,
            args.seed,
            args.seconds,
            &spans,
            &mut tally,
        )
    } else {
        bed::Bed::new(args.bench, args.size, args.seed, &mut tally)
            .measure(args.seconds, &mut tally)
    };
    // Every simulation runs on the sequential engine in this thread.
    let threads = report::threads();
    if threads != 1 {
        eprintln!("perfbench: expected one thread, found {threads}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = tally.failed == 0 && threads == 1 && finite;
    println!(
        "{}",
        report::json(correct, tally.attempted, tally.failed, &metrics)
    );
    ExitCode::SUCCESS
}
