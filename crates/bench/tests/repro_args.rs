//! `repro` rejects a bad command line, or an output directory it cannot
//! create, before it simulates anything; and at quick scale it prints
//! exactly the files pinned in `tests/fixtures/repro/`.

use std::path::Path;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

/// Each bad command line exits with status 2, names the problem and
/// prints the usage on stderr, and renders nothing on stdout. An
/// unknown option followed by a value must not be read as two
/// experiment names.
#[test]
fn bad_arguments_fail_before_any_experiment_runs() {
    for (args, message) in [
        (&["fig7", "fig10"][..], "unknown experiment 'fig10'"),
        (&["--jobs", "4"], "unknown option '--jobs'"),
        (&["config", "-j"], "unknown option '-j'"),
        (&["--engine", "windowed"], "unknown option '--engine'"),
        (&["fig7", "--scale", "huge"], "unknown scale 'huge'"),
        (&["--scale"], "--scale needs a value"),
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} rendered output");
    }
}

#[test]
fn valid_arguments_run() {
    let out = repro(&["config", "--scale", "quick"]);
    assert!(out.status.success(), "{out:?}");
    assert!(!out.stdout.is_empty());
}

/// The pinned quick-scale output, one file per experiment. Relative to
/// the package directory, where cargo runs the test, so a test binary
/// that cargo reuses from another checkout still reads this one's files.
const FIXTURES: &str = "../../tests/fixtures/repro";

/// The one command that regenerates the fixtures after a deliberate
/// change of model output.
const REGENERATE: &str = "cargo run --release -p specdsm-bench --bin repro -- \
                          all detail ablation --scale quick --out tests/fixtures/repro";

/// Every experiment `repro --help` names, in the order `repro all` and
/// then the named-only experiments run.
fn experiments() -> Vec<String> {
    let out = repro(&["--help"]);
    assert!(out.status.success(), "{out:?}");
    let usage = String::from_utf8(out.stdout).expect("utf-8 usage");
    let list = usage
        .strip_prefix("usage: repro [")
        .and_then(|rest| rest.split_once(" ...]"))
        .unwrap_or_else(|| panic!("unexpected usage: {usage}"))
        .0;
    list.split('|')
        .filter(|name| *name != "all")
        .map(String::from)
        .collect()
}

/// The experiments with a file in `dir`, sorted.
fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let stem = path.file_stem().expect("file name").to_string_lossy();
            stem.into_owned()
        })
        .collect();
    names.sort();
    names
}

/// The usage names every experiment `repro` accepts, and each has a
/// pinned output file.
#[test]
fn help_names_every_experiment() {
    let mut named = experiments();
    named.sort();
    assert_eq!(
        named,
        files_in(Path::new(FIXTURES)),
        "experiments vs {FIXTURES}"
    );
}

/// Every experiment's quick-scale output is pinned byte for byte: `all`
/// expands in place beside the named experiments, each runs once, its
/// `--out` file equals its fixture, and stdout is those files in run
/// order, each followed by a newline.
#[test]
fn quick_scale_output_matches_the_fixtures() {
    let names = experiments();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_quick");
    let _ = std::fs::remove_dir_all(&dir);
    let mut args = vec!["all"];
    args.extend(names.iter().map(String::as_str));
    args.extend([
        "--scale",
        "quick",
        "--out",
        dir.to_str().expect("utf-8 path"),
    ]);
    let out = repro(&args);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        files_in(&dir),
        files_in(Path::new(FIXTURES)),
        "files written vs {FIXTURES}"
    );

    let mut want_stdout = String::new();
    for name in &names {
        let read = |dir: &Path| {
            let path = dir.join(format!("{name}.txt"));
            std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
        };
        let (got, want) = (read(&dir), read(Path::new(FIXTURES)));
        if got != want {
            let diff = got
                .lines()
                .zip(want.lines())
                .enumerate()
                .find(|(_, (g, w))| g != w)
                .map_or("its length".to_string(), |(i, (g, w))| {
                    format!("line {}:\n  expected: {w}\n  actual:   {g}", i + 1)
                });
            panic!(
                "repro's {name}.txt differs from tests/fixtures/repro/{name}.txt at {diff}\n\
                 If the change is deliberate, regenerate the fixtures with\n  {REGENERATE}"
            );
        }
        want_stdout.push_str(&want);
        want_stdout.push('\n');
    }
    assert!(
        String::from_utf8_lossy(&out.stdout) == want_stdout,
        "stdout is not the fixtures in run order ({names:?}); regenerate with\n  {REGENERATE}"
    );
}

/// An `--out` path that exists as a file cannot become the output
/// directory: `repro` names it, exits with status 1 and renders nothing.
#[test]
fn unusable_out_directory_fails_before_any_experiment_runs() {
    let file = env!("CARGO_BIN_EXE_repro");
    let out = repro(&["config", "--out", file]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("cannot create {file}:")),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "rendered output");
}

/// An experiment file that cannot be written is reported the same way.
#[test]
fn unwritable_experiment_file_exits_with_status_1() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_unwritable");
    // A directory where `config.txt` should go makes the write fail.
    std::fs::create_dir_all(dir.join("config.txt")).expect("create blocking directory");
    let out = repro(&["config", "--out", dir.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write "), "{stderr}");
    assert!(stderr.contains("config.txt:"), "{stderr}");
}
