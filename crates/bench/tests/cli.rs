//! Command-line contract of the `bench` and `repro` binaries: a bad flag,
//! value, scenario or experiment exits 2 with a message before any work
//! runs or any file is written.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh, empty working directory, so a run that wrongly writes its
/// default report would leave a file behind.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aiacc_bench_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(bin: &str, args: &[&str], dir: &PathBuf) -> Output {
    Command::new(bin).args(args).current_dir(dir).output().expect("binary runs")
}

fn assert_usage_error(bin: &str, args: &[&str], expect: &str) {
    let dir = scratch_dir(&args.join("_").replace(['-', ' '], ""));
    let out = run(bin, args, &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(expect), "{args:?}: stderr lacks {expect:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed output");
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "{args:?} wrote {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

const BENCH: &str = env!("CARGO_BIN_EXE_bench");
const REPRO: &str = env!("CARGO_BIN_EXE_repro");

#[test]
fn bench_rejects_bad_command_lines() {
    for (args, expect) in [
        (&["chaos", "--quick", "--jobz", "2"][..], "unknown flag --jobz"),
        (&["chaos", "--jobs", "x"], "--jobs needs a positive integer, got x"),
        (&["chaos", "--quick", "--out"], "--out needs a value"),
        (&["chaos", "--wall-budget", "5"], "unknown flag --wall-budget"),
        (&["scale", "--wall-budget", "soon"], "--wall-budget needs positive seconds"),
        (&["parallel", "--quick"], "unknown flag --quick"),
        (&["chaos", "stream"], "unexpected argument stream"),
        (&["nosuch"], "unknown scenario nosuch"),
        (&[], "missing scenario"),
    ] {
        assert_usage_error(BENCH, args, expect);
    }
}

#[test]
fn repro_rejects_bad_command_lines() {
    for (args, expect) in [
        (&["table1", "fig99"][..], "unknown experiment fig99"),
        (&["table1", "--quik"], "unknown flag --quik"),
        (&["table1", "--jobs", "0"], "--jobs needs a positive integer, got 0"),
        (&["table1", "--out"], "--out needs a value"),
    ] {
        assert_usage_error(REPRO, args, expect);
    }
}

#[test]
fn repro_runs_a_named_experiment() {
    let dir = scratch_dir("repro_ok");
    let out = run(REPRO, &["table1", "--out", "tables"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("tables/table1.tsv").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
