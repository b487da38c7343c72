//! Drives the built binary the way the driver does, in `--quick` mode.

use std::path::PathBuf;
use std::process::{Command, Output};

use serde::Value;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gadget-benchmark"))
        .args(args)
        .output()
        .expect("spawn gadget-benchmark")
}

/// The result object on the last line of standard output.
fn result_of(output: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

fn metric_names(result: &Value) -> Vec<String> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, _)| name.clone())
        .collect()
}

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Some(Value::Array(items)) = doc.get(section) else {
        panic!("no {section}");
    };
    items
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

fn scratch_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{}-{name}", std::process::id()))
}

#[test]
fn every_workload_prints_every_end_to_end_metric_and_is_correct() {
    for workload in declared("workloads") {
        let output = bench(&[
            "--workload",
            &workload,
            "--seed",
            "7",
            "--seconds",
            "0.2",
            "--trace",
            "0",
            "--quick",
        ]);
        assert!(output.status.success(), "{workload}: {output:?}");
        let result = result_of(&output);
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{workload}"
        );
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
        assert_eq!(metric_names(&result), declared("end_to_end"), "{workload}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("NOT comparable"), "quick runs are labelled");
    }
}

#[test]
fn a_traced_run_prints_every_per_layer_metric() {
    let output = bench(&[
        "--workload",
        "replay-hol-lsm-spill",
        "--seed",
        "7",
        "--seconds",
        "0.2",
        "--trace",
        "1",
        "--quick",
    ]);
    assert!(output.status.success(), "{output:?}");
    let result = result_of(&output);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(metric_names(&result), declared("per_layer"));
}

#[test]
fn a_store_that_loses_writes_fails_the_run() {
    // The quick TCP workload issues fewer than a thousand writes, so
    // the one-in-a-thousand fault never fires there.
    for workload in ["replay-incr-lsm", "online-stack-mem"] {
        let output = bench(&[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.2",
            "--trace",
            "0",
            "--quick",
            "--inject",
            "loss",
        ]);
        assert_eq!(output.status.code(), Some(1), "{workload}: {output:?}");
        let result = result_of(&output);
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(false)),
            "{workload}"
        );
        let failed = result.get("failed").and_then(Value::as_u64).unwrap();
        let attempted = result.get("attempted").and_then(Value::as_u64).unwrap();
        assert!(
            failed > 0 && failed < attempted,
            "{workload}: failed {failed}"
        );
    }
}

#[test]
fn a_restart_that_forgets_acknowledged_writes_fails_the_run() {
    for workload in ["replay-incr-lsm", "replay-hol-lsm-spill"] {
        let run = |inject: &[&str]| {
            let mut args = vec![
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "0.2",
                "--trace",
                "0",
                "--quick",
            ];
            args.extend_from_slice(inject);
            bench(&args)
        };
        // The read-back compares something: the model holds live keys.
        let clean = run(&[]);
        let stdout = String::from_utf8_lossy(&clean.stdout).into_owned();
        let note = stdout
            .lines()
            .find(|l| l.starts_with("# state check"))
            .expect("state check note");
        assert!(!note.contains("(0 of "), "{note}");

        // The directory is emptied before `LsmStore::open`: every live
        // key of the model is gone, and only the reopen check can tell.
        let wiped = run(&["--inject", "wipe"]);
        assert_eq!(wiped.status.code(), Some(1), "{workload}: {wiped:?}");
        let result = result_of(&wiped);
        assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
        assert!(result.get("failed").and_then(Value::as_u64).unwrap() > 0);
    }
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    let counts = |seed: &str| {
        let output = bench(&[
            "--workload",
            "replay-incr-lsm",
            "--seed",
            seed,
            "--seconds",
            "0.1",
            "--trace",
            "0",
            "--quick",
        ]);
        assert!(output.status.success());
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        stdout
            .lines()
            .find(|l| l.starts_with("# input"))
            .expect("input line")
            .to_string()
    };
    assert_eq!(counts("11"), counts("11"));
    assert_ne!(counts("11"), counts("12"));
}

#[test]
fn two_quick_sets_load_and_agree_runs_over_them() {
    let (a, b) = (scratch_file("a.json"), scratch_file("b.json"));
    for path in [&a, &b] {
        let output = bench(&[
            "--quick",
            "--seconds",
            "0.1",
            "--runs",
            "2",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(output.status.success(), "{output:?}");
    }
    let output = bench(&["agree", a.to_str().unwrap(), b.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Quick numbers are too noisy to demand agreement; the comparison
    // must cover every workload x end-to-end metric cell and end in a
    // verdict either way.
    assert!(
        matches!(output.status.code(), Some(0) | Some(1)),
        "{output:?}"
    );
    let cells = declared("workloads").len() * declared("end_to_end").len();
    let verdicts = stdout
        .lines()
        .filter(|l| l.contains("agree") || l.contains("EXCEEDS") || l.contains("unresolved"))
        .count();
    assert_eq!(verdicts, cells, "{stdout}");

    // A full set does not compare with a quick one.
    let full = scratch_file("full.json");
    let text = std::fs::read_to_string(&a).unwrap();
    std::fs::write(&full, text.replace("\"quick\"", "\"full\"")).unwrap();
    let output = bench(&["agree", a.to_str().unwrap(), full.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    assert!(output.stdout.is_empty());
    for path in [a, b, full] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--frobnicate"],
        &["--traced"],
        &["--inject", "loss"],
        &["--workload", "tcp-incr-mem", "--quick", "--inject", "wipe"],
        &["--workload", "tcp-incr-mem", "--runs", "2"],
        &["--workload", "tcp-incr-mem", "--out", "set.json"],
        &["agree", "only-one.json"],
    ] {
        let output = bench(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
