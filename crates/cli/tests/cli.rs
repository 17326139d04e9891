//! End-to-end tests of the `codesign` binary: real process spawns, real
//! stdout/stderr, real exit codes.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_codesign")).args(args).output().expect("binary spawns")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn list_names_the_zoo() {
    let o = run(&["list"]);
    assert!(o.status.success());
    let out = stdout(&o);
    for name in ["AlexNet", "SqueezeNet v1.0", "1.0-SqNxt-23v5", "SqueezeDet trunk"] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
}

#[test]
fn simulate_reports_the_four_metrics() {
    let o = run(&["simulate", "squeezenet-v1.1"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    for field in ["cycles:", "time:", "energy:", "utilization:"] {
        assert!(out.contains(field), "missing {field}");
    }
}

#[test]
fn compare_prints_a_table2_row() {
    let o = run(&["compare", "mobilenet"]);
    assert!(o.status.success());
    let out = stdout(&o);
    assert!(out.contains("vs OS") && out.contains("vs WS"));
}

#[test]
fn schedule_lists_every_layer() {
    let o = run(&["schedule", "tiny-darknet"]);
    assert!(o.status.success());
    let out = stdout(&o);
    assert!(out.contains("conv1") && out.contains("total:"));
    // 21 layers + header + total.
    assert!(out.lines().count() >= 23, "{}", out.lines().count());
}

#[test]
fn wave_emits_vcd() {
    let o = run(&["wave", "squeezenet-v1.1", "conv1"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.starts_with("$date"));
    assert!(out.contains("$enddefinitions $end"));
}

#[test]
fn compile_replays_exactly() {
    let o = run(&["compile", "sqnxt-23v5"]);
    assert!(o.status.success());
    let out = stdout(&o);
    assert!(out.contains("mode"));
    assert!(out.contains("cycles replayed"));
}

#[test]
fn model_files_load() {
    let dir = std::env::temp_dir();
    let path = dir.join("cli_test_model.net");
    std::fs::write(&path, "network cli-test 3x32x32\nconv c1 8 3 s2 p1\ngap g\nfc f 10\n")
        .expect("temp file writes");
    let o = run(&["simulate", path.to_str().expect("utf-8 temp path")]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("cli-test"));
}

#[test]
fn errors_are_clean_and_nonzero() {
    let cases: &[&[&str]] = &[
        &["simulate", "no-such-network"],
        &["explode", "x"],
        &["simulate", "alexnet", "--array", "9999"],
        &["wave", "alexnet"],
        &["simulate"],
        &["faultinject"],
        &["simulate", "squeezenet-v1.0", "--cores", "2", "--batch", "4"],
        &["compare", "tiny-darknet", "--batch", "4"],
    ];
    for args in cases {
        let o = run(args);
        assert_eq!(o.status.code(), Some(1), "{args:?} is a usage error");
        assert!(!stderr(&o).is_empty(), "{args:?} should explain itself");
    }
}

#[test]
fn rejected_workloads_exit_2() {
    // A syntactically valid .net whose conv kernel exceeds its input
    // plane: parses fine, fails pre-flight validation.
    let dir = std::env::temp_dir();
    let path = dir.join("cli_test_rejected.net");
    std::fs::write(&path, "network rejected 3x4x4\nconv c1 8 11 s1 p0\n")
        .expect("temp file writes");
    let o = run(&["simulate", path.to_str().expect("utf-8 temp path")]);
    assert_eq!(o.status.code(), Some(2), "{}", stderr(&o));
    let err = stderr(&o);
    assert!(err.contains("c1"), "error should name the layer: {err}");

    // Usage errors stay exit 1, distinct from workload rejection.
    let o = run(&["simulate", "no-such-network"]);
    assert_eq!(o.status.code(), Some(1), "{}", stderr(&o));
}

#[test]
fn sweep_completes_with_partial_results() {
    let o = run(&["sweep", "tiny-darknet", "--jobs", "2"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("best energy-delay"));
}

#[test]
fn help_prints_usage() {
    let o = run(&["--help"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("usage: codesign"));
}

#[test]
fn overrides_change_the_outcome() {
    let base = stdout(&run(&["simulate", "squeezenet-v1.1"]));
    let small = stdout(&run(&["simulate", "squeezenet-v1.1", "--array", "8"]));
    let cyc = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("cycles:"))
            .and_then(|l| l.split_whitespace().nth(1).map(str::to_owned))
            .expect("cycles line")
    };
    assert_ne!(cyc(&base), cyc(&small));
}
