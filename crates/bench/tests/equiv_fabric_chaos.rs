//! Worker-level chaos for *distributed exhaustive* sweeps, driving the
//! real `repro` binary end to end — the class-range mirror of the
//! `fabric_chaos` suite:
//!
//! > A class-range sharded sweep either completes with a merged
//! > `exhaustive.csv` **bit-identical** to single-process
//! > `repro exhaustive`, or fails with a **typed error** — it is never
//! > silently short, whatever happens to the workers.
//!
//! A full exhaustive campaign cannot be shrunk the way `MBU_RUNS` shrinks
//! a sampled sweep — the live-class census is a property of the workload
//! and structure (DTLB/stringsearch, the smallest, is ~545 k class sims)
//! — so this suite is `#[ignore]`d release-scale, like the wide
//! equivalence differential:
//!
//! ```text
//! cargo test -p mbu-bench --release --test equiv_fabric_chaos -- --ignored
//! ```
//!
//! The CI `equiv` job exercises the same invariant more cheaply by
//! diffing a 3-worker chaos-kill sweep against the single-process
//! reference it already computes.

use std::path::Path;
use std::process::Command;

mod common;
use common::tmpdir;

const WORKLOAD: &str = "stringsearch";
const COMPONENT: &str = "dtlb";

/// Runs `repro exhaustive` (distributed when `workers > 0`) and returns
/// (success, stderr, merged exhaustive.csv bytes if written).
fn run_exhaustive(
    dir: &Path,
    workers: usize,
    chaos: Option<&str>,
    extra_env: &[(&str, &str)],
) -> (bool, String, Option<String>) {
    let out = dir.join("measured.csv");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.arg("exhaustive")
        .arg("--components")
        .arg(COMPONENT)
        .arg("--out")
        .arg(&out);
    if workers > 0 {
        cmd.arg("--workers").arg(workers.to_string());
    }
    cmd.env_remove("MBU_CHAOS_WORKER")
        .env("MBU_WORKLOADS", WORKLOAD);
    if let Some(spec) = chaos {
        cmd.env("MBU_CHAOS_WORKER", spec);
    }
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    let output = cmd.output().expect("repro exhaustive spawns");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    let csv = std::fs::read_to_string(dir.join("exhaustive.csv")).ok();
    (output.status.success(), stderr, csv)
}

/// The single-process reference, computed once: deterministic class
/// outcomes mean every sharded variant must reproduce these bytes.
fn reference() -> &'static str {
    static REFERENCE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    REFERENCE.get_or_init(|| {
        let dir = tmpdir("reference");
        let (ok, stderr, csv) = run_exhaustive(&dir, 0, None, &[]);
        assert!(ok, "single-process reference failed:\n{stderr}");
        let text = csv.expect("reference exhaustive.csv");
        let _ = std::fs::remove_dir_all(&dir);
        text
    })
}

/// SIGKILL, hang, and protocol garbage mid-class-range: each fault
/// surfaces as its typed anomaly, the unit is recovered on another
/// worker, and the merged store is byte-identical to the single-process
/// exhaustive sweep.
#[test]
#[ignore = "release-scale: cargo test -p mbu-bench --release --test equiv_fabric_chaos -- --ignored"]
fn chaos_workers_mid_class_range_merge_bit_identical() {
    type Case = (
        &'static str,
        &'static str,
        &'static str,
        &'static [(&'static str, &'static str)],
    );
    let want = reference();
    let cases: [Case; 3] = [
        ("kill", "1:kill-mid-unit:3", "worker-lost", &[]),
        (
            "hang",
            "0:hang-mid-unit:3",
            "worker-stall",
            &[("MBU_STALL_SECS", "5")],
        ),
        ("garbage", "2:garbage-frames", "protocol-garbage", &[]),
    ];
    for (tag, spec, needle, extra_env) in cases {
        let dir = tmpdir(tag);
        let (ok, stderr, csv) = run_exhaustive(&dir, 3, Some(spec), extra_env);
        assert!(ok, "{tag}: distributed exhaustive sweep failed:\n{stderr}");
        assert!(
            stderr.contains(needle),
            "{tag}: the fault must surface as a typed {needle} anomaly:\n{stderr}"
        );
        assert_eq!(
            csv.as_deref(),
            Some(want),
            "{tag}: merged exhaustive store differs from single-process"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
