//! The `aiacc-sim` binary rejects malformed input with a message and exit
//! code 2, never a panic.

use aiacc::sched::{JobSpec, Workload};
use aiacc::trainer::EngineKind;
use std::path::PathBuf;
use std::process::Command;

/// A unique temp path per test (tests run in parallel in one process).
fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("aiacc_cli_{}_{}", std::process::id(), name))
}

/// Runs `aiacc-sim schedule --load` on a one-job trace and returns the exit
/// code and stderr.
fn schedule_load(name: &str, job: JobSpec) -> (Option<i32>, String) {
    let path = tmp_path(name);
    std::fs::write(&path, Workload { jobs: vec![job] }.to_tsv()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_aiacc-sim"))
        .args(["schedule", "--policy", "packed", "--load"])
        .arg(&path)
        .output()
        .expect("run aiacc-sim");
    std::fs::remove_file(&path).ok();
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn job(id: usize, gpus: usize) -> JobSpec {
    JobSpec {
        id,
        arrival_secs: 0.0,
        model: "tiny_cnn".to_string(),
        gpus,
        engine: EngineKind::aiacc_default(),
        iterations: 2,
        seed: 1,
    }
}

#[test]
fn schedule_load_rejects_an_oversized_gang() {
    let (code, stderr) = schedule_load("gang.tsv", job(0, 9999));
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("job 0 requests 9999 of 32 GPUs"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn schedule_load_rejects_non_dense_job_ids() {
    let (code, stderr) = schedule_load("ids.tsv", job(5, 4));
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("workload job ids must be dense and ordered: jobs[0].id = 5"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
