//! Worker-level chaos for the distributed sweep fabric, driving the real
//! `repro` binary end to end.
//!
//! The invariant mirrors the store-level chaos suite, one level up:
//!
//! > A sharded sweep either completes with a final CSV **bit-identical**
//! > to a single-process sweep, or fails with a **typed error** — it is
//! > never silently short, whatever happens to the workers.
//!
//! Faults are injected with `MBU_CHAOS_WORKER=<index>:<spec>`: the
//! supervisor arms the spec on that worker's first spawn only, so
//! replacements run clean and every fault is recoverable.

use mbu_bench::Experiments;
use mbu_cpu::HwComponent;
use mbu_workloads::Workload;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

mod common;
use common::tmpdir;

const RUNS: usize = 6;
const WORKLOAD: Workload = Workload::Qsort;

/// The single-process reference: the same campaigns run in-process, saved
/// through the same store, read back as bytes. Computed once; campaigns
/// are deterministic, so every sharded sweep must reproduce these bytes.
fn reference() -> &'static str {
    static REFERENCE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    REFERENCE.get_or_init(compute_reference)
}

fn compute_reference() -> String {
    let e = Experiments {
        runs: RUNS,
        workloads: vec![WORKLOAD],
        ..Experiments::default()
    };
    let dir = tmpdir("reference");
    let path = dir.join("measured.csv");
    let mut store = mbu_bench::ResultStore::new();
    for c in HwComponent::ALL {
        let report = e.run_sweep(&[c], &mut store, None).unwrap();
        assert!(
            report.failed.is_empty(),
            "reference sweep failed: {:?}",
            report.failed
        );
    }
    store.save(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    text
}

/// Runs `repro sweep` with 3 workers and the given chaos target plus any
/// extra env, returning (success, stderr, final CSV bytes if written).
fn run_sweep(
    dir: &Path,
    chaos: Option<&str>,
    extra_env: &[(&str, &str)],
) -> (bool, String, Option<String>) {
    let out = dir.join("measured.csv");
    let shards = dir.join("shards");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.arg("sweep")
        .arg("--workers")
        .arg("3")
        .arg("--out")
        .arg(&out)
        .arg("--shards")
        .arg(&shards)
        .env_remove("MBU_CHAOS_WORKER")
        .env("MBU_RUNS", RUNS.to_string())
        .env("MBU_WORKLOADS", WORKLOAD.name());
    if let Some(spec) = chaos {
        cmd.env("MBU_CHAOS_WORKER", spec);
    }
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    let output = cmd.output().expect("repro sweep spawns");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    let csv = std::fs::read_to_string(&out).ok();
    (output.status.success(), stderr, csv)
}

/// The acceptance test: a 3-worker sharded sweep with one worker
/// SIGKILLed mid-unit completes — the unit is retried on a replacement —
/// and the merged store is byte-identical to the single-process sweep.
#[test]
fn killed_worker_retries_and_merge_is_bit_identical() {
    let want = reference();
    let dir = tmpdir("kill");
    let (ok, stderr, csv) = run_sweep(&dir, Some("1:kill-mid-unit:2"), &[]);
    assert!(ok, "sweep failed:\n{stderr}");
    assert!(
        stderr.contains("worker-lost"),
        "the crash must surface as a typed worker-lost anomaly:\n{stderr}"
    );
    assert_eq!(
        csv.as_deref(),
        Some(want),
        "merged store differs from the single-process sweep"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hung worker (alive, heartbeats muted, unit frozen) is detected by
/// stall supervision, killed, and its unit re-run — same bit-identical
/// outcome.
#[test]
fn hung_worker_is_reclaimed_by_stall_detection() {
    let want = reference();
    let dir = tmpdir("hang");
    let (ok, stderr, csv) = run_sweep(&dir, Some("0:hang-mid-unit:2"), &[("MBU_STALL_SECS", "2")]);
    assert!(ok, "sweep failed:\n{stderr}");
    assert!(
        stderr.contains("worker-stall"),
        "the hang must surface as a typed worker-stall anomaly:\n{stderr}"
    );
    assert_eq!(csv.as_deref(), Some(want));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker emitting garbage instead of protocol frames is dropped with a
/// typed anomaly; its rows never reach the merge as anything but valid
/// checksummed shard entries.
#[test]
fn garbage_frames_drop_the_worker_not_the_results() {
    let want = reference();
    let dir = tmpdir("garbage");
    let (ok, stderr, csv) = run_sweep(&dir, Some("2:garbage-frames"), &[]);
    assert!(ok, "sweep failed:\n{stderr}");
    assert!(
        stderr.contains("protocol-garbage"),
        "garbage must surface as a typed protocol-garbage anomaly:\n{stderr}"
    );
    assert_eq!(csv.as_deref(), Some(want));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Supervisor crash-consistency: SIGKILL the supervisor mid-sweep, then
/// re-run. The final store either never existed (the crash preceded the
/// merge) or is already complete; the resume merges the surviving shard
/// rows without re-running them and finishes bit-identical. Never
/// silently short.
#[test]
fn supervisor_crash_resumes_without_losing_completed_runs() {
    let want = reference();
    let dir = tmpdir("resume");
    let out = dir.join("measured.csv");
    let shards = dir.join("shards");
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("sweep")
        .arg("--workers")
        .arg("3")
        .arg("--out")
        .arg(&out)
        .arg("--shards")
        .arg(&shards)
        .env_remove("MBU_CHAOS_WORKER")
        .env("MBU_RUNS", RUNS.to_string())
        .env("MBU_WORKLOADS", WORKLOAD.name())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("repro sweep spawns");
    // Kill as soon as at least one completed unit is durably sharded.
    let deadline = Instant::now() + Duration::from_secs(60);
    let some_rows = loop {
        if let Ok(entries) = std::fs::read_dir(&shards) {
            if entries
                .flatten()
                .any(|e| e.metadata().map(|m| m.len() > 0).unwrap_or(false))
            {
                break true;
            }
        }
        if child.try_wait().expect("try_wait").is_some() || Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let _ = child.kill();
    let _ = child.wait();
    assert!(
        some_rows,
        "no shard rows appeared before the sweep finished"
    );
    match std::fs::read_to_string(&out) {
        // The final store is written once, at the end: a mid-sweep crash
        // must leave either nothing or the complete result.
        Err(_) => {}
        Ok(text) => assert_eq!(text.as_str(), want, "a partial final store was written"),
    }
    let (ok, stderr, csv) = run_sweep(&dir, None, &[]);
    assert!(ok, "resume failed:\n{stderr}");
    assert_eq!(
        csv.as_deref(),
        Some(want),
        "resumed sweep differs from the single-process sweep"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Invalid fabric and sweep env vars are rejected with a typed error
/// naming the variable — never a silent fallback to defaults.
#[test]
fn invalid_env_is_a_typed_error_not_a_silent_fallback() {
    for (var, value) in [
        ("MBU_WORKERS", "banana"),
        ("MBU_WORKERS", "0"),
        ("MBU_THREADS", "many"),
        ("MBU_RUNS", "-3"),
        ("MBU_STALL_SECS", "soon"),
        ("MBU_UNIT_RETRIES", "0"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("sweep")
            .env_remove("MBU_CHAOS_WORKER")
            .env("MBU_RUNS", "2")
            .env(var, value)
            .output()
            .expect("repro spawns");
        assert!(!output.status.success(), "{var}={value} must be rejected");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(var), "error must name {var}:\n{stderr}");
    }
}
