//! `repro` rejects a bad command line, or an output directory it cannot
//! create, before it simulates anything.

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

/// `all` expands in place: the experiments named beside it still run,
/// and each of the twelve section headers appears exactly once.
#[test]
fn all_keeps_the_extra_experiments() {
    let out = repro(&["all", "detail", "ablation", "--scale", "quick"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let headers: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("== ") && l.ends_with(" =="))
        .collect();
    assert_eq!(headers.len(), 12, "{headers:#?}");
    for h in &headers {
        assert_eq!(headers.iter().filter(|x| *x == h).count(), 1, "{h}");
    }
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
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_unwritable");
    // A directory where `config.txt` should go makes the write fail.
    std::fs::create_dir_all(dir.join("config.txt")).expect("create blocking directory");
    let out = repro(&["config", "--out", dir.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write "), "{stderr}");
    assert!(stderr.contains("config.txt:"), "{stderr}");
}
