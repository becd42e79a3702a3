//! Chaos tests: the fault injector injected with faults of its own.
//!
//! Every test asserts the sweep-level integrity invariant:
//!
//! > A sweep either completes with results **bit-identical** to an
//! > unfaulted sweep, or fails with a **typed error** — and a subsequent
//! > resume reproduces the unfaulted results exactly.
//!
//! "Bit-identical" is literal: stores and checkpoint files are compared as
//! exact strings (`ResultStore::to_csv` uses shortest-roundtrip float
//! formatting, so serialization is canonical).

use mbu_bench::chaos::{flip_file_bit, truncate_file};
use mbu_bench::store::quarantine_path;
use mbu_bench::{
    ChaosIo, ChaosPlan, Experiments, RealIo, ResultStore, RetryPolicy, RowDefect, StoreError,
    SweepControl,
};
use mbu_cpu::HwComponent;
use mbu_gefin::integrity::GoldenFingerprint;
use mbu_workloads::Workload;
use std::time::{Duration, Instant};

mod common;
use common::tmpdir;

const COMPONENT: HwComponent = HwComponent::RegFile;
const WORKLOAD: Workload = Workload::Stringsearch;

/// Fast retry policy so chaos tests don't sleep through real backoff.
const FAST_RETRY: RetryPolicy = RetryPolicy {
    attempts: 3,
    base_delay: Duration::from_millis(1),
};

fn tiny() -> Experiments {
    Experiments {
        runs: 8,
        workloads: vec![WORKLOAD],
        ..Experiments::default()
    }
}

/// The unfaulted reference: (in-memory store CSV, checkpoint file text).
/// Campaigns are deterministic, so every healthy or healed sweep must
/// reproduce exactly these bytes.
fn reference(e: &Experiments) -> (String, String) {
    let dir = tmpdir("reference");
    let path = dir.join("sweep.csv");
    let mut store = ResultStore::new();
    let report = e.run_sweep(&[COMPONENT], &mut store, Some(&path)).unwrap();
    assert!(report.is_clean());
    assert_eq!(report.executed, 3);
    let file = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (store.to_csv(), file)
}

#[test]
fn transient_append_failures_retry_to_bit_identical_results() {
    let e = tiny();
    let (ref_csv, ref_file) = reference(&e);
    let dir = tmpdir("transient");
    let path = dir.join("sweep.csv");
    // Appends 0 and 2 fail; their retries (new call indices) succeed.
    let chaos = ChaosIo::new(&RealIo, ChaosPlan::failing([0, 2]));
    let control = SweepControl {
        io: &chaos,
        retry: FAST_RETRY,
        ..SweepControl::default()
    };
    let mut store = ResultStore::new();
    let report = e
        .run_sweep_with(&[COMPONENT], &mut store, Some(&path), &control)
        .unwrap();
    assert!(report.is_clean());
    assert_eq!(report.executed, 3);
    assert_eq!(
        chaos.append_calls(),
        5,
        "3 campaign appends plus 2 retried failures"
    );
    assert_eq!(store.to_csv(), ref_csv, "store is bit-identical");
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        ref_file,
        "checkpoint file is bit-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_appends_do_not_corrupt_results() {
    let e = tiny();
    let (ref_csv, ref_file) = reference(&e);
    let dir = tmpdir("stall");
    let path = dir.join("sweep.csv");
    let chaos = ChaosIo::new(
        &RealIo,
        ChaosPlan {
            stall: Some(Duration::from_millis(2)),
            ..ChaosPlan::default()
        },
    );
    let control = SweepControl {
        io: &chaos,
        ..SweepControl::default()
    };
    let mut store = ResultStore::new();
    let report = e
        .run_sweep_with(&[COMPONENT], &mut store, Some(&path), &control)
        .unwrap();
    assert!(report.is_clean());
    assert_eq!(store.to_csv(), ref_csv);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), ref_file);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistent_append_failure_is_typed_and_resume_reproduces_exactly() {
    let e = tiny();
    let (ref_csv, ref_file) = reference(&e);
    let dir = tmpdir("dead-disk");
    let path = dir.join("sweep.csv");
    // The disk dies after the first campaign is checkpointed.
    let chaos = ChaosIo::new(
        &RealIo,
        ChaosPlan {
            fail_appends_from: Some(1),
            ..ChaosPlan::default()
        },
    );
    let control = SweepControl {
        io: &chaos,
        retry: RetryPolicy::NONE,
        ..SweepControl::default()
    };
    let mut lost = ResultStore::new();
    let err = e
        .run_sweep_with(&[COMPONENT], &mut lost, Some(&path), &control)
        .unwrap_err();
    assert!(
        matches!(err, StoreError::Io(_)),
        "typed, not a panic: {err}"
    );

    // Simulate the process dying with it: reload from disk, heal, resume.
    let (mut store, audit) = ResultStore::recover(&path).unwrap();
    assert!(audit.quarantined.is_empty(), "nothing torn, just missing");
    assert_eq!(store.len(), 1, "exactly the checkpointed campaign survives");
    chaos.set_plan(ChaosPlan::none());
    let report = e
        .run_sweep_with(&[COMPONENT], &mut store, Some(&path), &control)
        .unwrap();
    assert_eq!(report.executed, 2, "the two lost campaigns re-run");
    assert_eq!(report.skipped_existing, 1);
    assert_eq!(report.stale_rerun, 0, "the surviving fingerprint matches");
    assert_eq!(store.to_csv(), ref_csv, "resume reproduces the store");
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        ref_file,
        "resume reproduces the checkpoint file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_append_is_quarantined_on_recover_and_resume_is_exact() {
    let e = tiny();
    let (ref_csv, ref_file) = reference(&e);
    let dir = tmpdir("torn");
    let path = dir.join("sweep.csv");
    // The second campaign's row tears 12 bytes in — a crash mid-write.
    let chaos = ChaosIo::new(
        &RealIo,
        ChaosPlan {
            torn_append: Some((1, 12)),
            ..ChaosPlan::default()
        },
    );
    let control = SweepControl {
        io: &chaos,
        retry: RetryPolicy::NONE,
        ..SweepControl::default()
    };
    let err = e
        .run_sweep_with(&[COMPONENT], &mut ResultStore::new(), Some(&path), &control)
        .unwrap_err();
    assert!(matches!(err, StoreError::Io(_)), "typed: {err}");

    // Recovery quarantines the torn tail and rewrites a clean file.
    let (mut store, audit) = ResultStore::recover(&path).unwrap();
    assert_eq!(store.len(), 1);
    assert_eq!(audit.quarantined.len(), 1);
    assert!(
        matches!(audit.quarantined[0].defect, RowDefect::Syntax { .. }),
        "a torn row is a syntax defect: {:?}",
        audit.quarantined[0].defect
    );
    let sidecar = quarantine_path(&path);
    assert!(sidecar.exists(), "defect preserved in the sidecar");
    ResultStore::load(&path).expect("rewritten file is strictly clean");

    chaos.set_plan(ChaosPlan::none());
    let report = e
        .run_sweep_with(&[COMPONENT], &mut store, Some(&path), &control)
        .unwrap();
    assert_eq!(report.executed, 2);
    assert_eq!(report.skipped_existing, 1);
    assert_eq!(store.to_csv(), ref_csv);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), ref_file);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_checkpoint_resumes_to_identical_results() {
    let e = tiny();
    let (ref_csv, ref_file) = reference(&e);
    let dir = tmpdir("truncate");
    let path = dir.join("sweep.csv");
    let mut store = ResultStore::new();
    e.run_sweep(&[COMPONENT], &mut store, Some(&path)).unwrap();
    // Tear the tail off: half the last row is gone.
    let len = std::fs::metadata(&path).unwrap().len();
    truncate_file(&path, len - 30).unwrap();

    let (mut store, audit) = ResultStore::recover(&path).unwrap();
    assert_eq!(store.len(), 2);
    assert_eq!(audit.quarantined.len(), 1);
    let report = e.run_sweep(&[COMPONENT], &mut store, Some(&path)).unwrap();
    assert_eq!(report.executed, 1, "only the torn campaign re-runs");
    assert_eq!(report.skipped_existing, 2);
    assert_eq!(store.to_csv(), ref_csv);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), ref_file);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_bit_is_caught_by_crc_and_rerun_to_identical_results() {
    let e = tiny();
    let (ref_csv, ref_file) = reference(&e);
    let dir = tmpdir("bitflip");
    let path = dir.join("sweep.csv");
    let mut store = ResultStore::new();
    e.run_sweep(&[COMPONENT], &mut store, Some(&path)).unwrap();
    // Flip one bit inside the last data row — silent at-rest corruption.
    let text = std::fs::read_to_string(&path).unwrap();
    let offset = text.rfind("stringsearch").unwrap();
    flip_file_bit(&path, offset as u64, 0).unwrap();

    // The audit sees it without modifying anything.
    let audit_table = e.verify_store(&path).unwrap().to_csv();
    assert!(
        audit_table.contains("defective rows,1"),
        "verify-store reports the defect: {audit_table}"
    );

    // Recovery quarantines exactly the flipped row, as a CRC mismatch.
    let (mut store, audit) = ResultStore::recover(&path).unwrap();
    assert_eq!(store.len(), 2);
    assert_eq!(audit.quarantined.len(), 1);
    assert!(
        matches!(audit.quarantined[0].defect, RowDefect::CrcMismatch { .. }),
        "a flipped bit is a CRC mismatch: {:?}",
        audit.quarantined[0].defect
    );
    let report = e.run_sweep(&[COMPONENT], &mut store, Some(&path)).unwrap();
    assert_eq!(report.executed, 1);
    assert_eq!(store.to_csv(), ref_csv, "values are never silently wrong");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), ref_file);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forged_fingerprint_forces_rerun_but_legacy_rows_are_kept() {
    let e = tiny();
    let (c, w) = (COMPONENT, WORKLOAD);
    let mut truth = ResultStore::new();
    e.run_sweep(&[c], &mut truth, None).unwrap();
    let true_fp = truth.fingerprint(c, w, 1).expect("sweeps stamp rows");

    // A checkpoint whose 2-bit row was measured under *different* binaries
    // (forged fingerprint) and whose 3-bit row predates fingerprints.
    let mut tampered = ResultStore::new();
    tampered.insert_with_fingerprint(truth.get(c, w, 1).unwrap().clone(), Some(true_fp));
    tampered.insert_with_fingerprint(
        truth.get(c, w, 2).unwrap().clone(),
        Some(GoldenFingerprint(0xDEAD_BEEF_DEAD_BEEF)),
    );
    tampered.insert_with_fingerprint(truth.get(c, w, 3).unwrap().clone(), None);

    let report = e.run_sweep(&[c], &mut tampered, None).unwrap();
    assert_eq!(report.stale_rerun, 1, "the forged row is re-run");
    assert_eq!(report.executed, 1);
    assert_eq!(report.skipped_existing, 2);
    assert_eq!(
        report.legacy_unverified, 1,
        "the legacy row is kept, flagged"
    );
    assert_eq!(
        tampered.get(c, w, 2).unwrap(),
        truth.get(c, w, 2).unwrap(),
        "the re-run reproduces the true result"
    );
    assert_eq!(
        tampered.fingerprint(c, w, 2),
        Some(true_fp),
        "the re-run is stamped with the real fingerprint"
    );
    assert_eq!(
        tampered.fingerprint(c, w, 3),
        None,
        "legacy stays unstamped"
    );
}

#[test]
fn expired_deadline_stops_cleanly_and_resume_completes() {
    let e = tiny();
    let (ref_csv, ref_file) = reference(&e);
    let dir = tmpdir("deadline");
    let path = dir.join("sweep.csv");
    let control = SweepControl {
        deadline: Some(Instant::now()),
        ..SweepControl::default()
    };
    let mut store = ResultStore::new();
    let report = e
        .run_sweep_with(&[COMPONENT], &mut store, Some(&path), &control)
        .unwrap();
    assert!(report.deadline_expired, "graceful stop, not a kill");
    assert!(report.is_clean());
    assert_eq!(report.executed, 0);
    assert!(store.is_empty());
    // A later sweep without the deadline picks up and completes exactly.
    let report = e.run_sweep(&[COMPONENT], &mut store, Some(&path)).unwrap();
    assert!(!report.deadline_expired);
    assert_eq!(report.executed, 3);
    assert_eq!(store.to_csv(), ref_csv);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), ref_file);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adaptive_sweep_reports_margins_and_resumes_deterministically() {
    let e = Experiments {
        adaptive: Some(mbu_gefin::campaign::AdaptiveSpec {
            target_margin: 0.25,
            min_runs: 8,
            batch: 8,
            ..mbu_gefin::campaign::AdaptiveSpec::paper()
        }),
        ..tiny()
    };
    let dir = tmpdir("adaptive");
    let path = dir.join("sweep.csv");
    let mut store = ResultStore::new();
    let first = e.run_sweep(&[COMPONENT], &mut store, Some(&path)).unwrap();
    assert!(first.is_clean());
    assert_eq!(first.margins.len(), 3, "every campaign reports its margin");
    let worst = first.worst_margin().unwrap();
    assert!(worst > 0.0 && worst <= 1.0, "worst margin sane: {worst}");
    // Margins survive the checkpoint: a resumed sweep re-reports them from
    // disk without executing anything.
    let (mut reloaded, audit) = ResultStore::recover(&path).unwrap();
    assert!(audit.quarantined.is_empty());
    let second = e
        .run_sweep(&[COMPONENT], &mut reloaded, Some(&path))
        .unwrap();
    assert_eq!(second.executed, 0);
    assert_eq!(second.margins, first.margins, "margins roundtrip the CSV");
    assert_eq!(reloaded.to_csv(), store.to_csv());
    let _ = std::fs::remove_dir_all(&dir);
}
