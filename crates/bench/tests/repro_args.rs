//! `repro` rejects a bad command line before it simulates anything.

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
        (&["--engine", "parallel"], "unknown engine 'parallel'"),
        (&["fig7", "--scale", "huge"], "unknown scale 'huge'"),
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
    let out = repro(&["config", "--engine", "windowed", "--scale", "quick"]);
    assert!(out.status.success(), "{out:?}");
    assert!(!out.stdout.is_empty());
}
