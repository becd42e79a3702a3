//! Differential validation of the sweep-wide golden-artifact cache: a sweep
//! that builds each workload's golden output and snapshot store once and
//! shares them across campaigns must produce *bit-identical* campaign
//! results — and byte-identical v2 checkpoint rows — to campaigns that
//! each re-run their own golden execution. The cache may only change
//! wall-clock, never results, under any thread count.

use mbu_bench::{Experiments, RealIo, ResultStore};
use mbu_cpu::{CoreConfig, HwComponent};
use mbu_gefin::campaign::{Campaign, CampaignConfig};
use mbu_gefin::error::CampaignError;
use mbu_gefin::{golden_fingerprint, SnapshotSpec};
use mbu_workloads::Workload;

mod common;

const COMPONENTS: [HwComponent; 3] = [HwComponent::RegFile, HwComponent::L2, HwComponent::DTlb];

fn sweeper(threads: usize) -> Experiments {
    Experiments {
        runs: 6,
        threads,
        workloads: vec![Workload::Stringsearch],
        use_snapshots: true,
        ..Experiments::default()
    }
}

/// Three components × three cardinalities over one shared workload, with
/// snapshots enabled: the sweep (one golden + recording run in total) and
/// a bypass that runs every campaign through `Campaign::try_run` (one
/// golden + recording pair per campaign) and checkpoints it row by row
/// classify every run identically and write byte-identical checkpoint
/// files.
#[test]
fn cached_sweep_is_bit_identical_to_bypass_sweep() {
    let e = sweeper(0);
    let w = Workload::Stringsearch;
    let dir = common::tmpdir("gcache");
    let on_path = dir.join("cache_on.csv");
    let off_path = dir.join("cache_off.csv");

    let mut on_store = ResultStore::new();
    let on_report = e
        .run_sweep(&COMPONENTS, &mut on_store, Some(&on_path))
        .unwrap();
    assert_eq!(on_report.executed, 9, "3 components x 3 cardinalities");
    assert!(on_report.is_clean());

    // The bypass: private golden runs, rows stamped with the fingerprint
    // of yet another independent golden run.
    let fp = Some(golden_fingerprint(e.core, w).unwrap());
    let mut off_store = ResultStore::new();
    for &c in &COMPONENTS {
        for faults in 1..=3 {
            let r = e.try_campaign(c, w, faults).unwrap();
            ResultStore::append_row_with(&RealIo, &off_path, &r, fp).unwrap();
            off_store.insert_with_fingerprint(r, fp);
        }
    }

    for &c in &COMPONENTS {
        for faults in 1..=3 {
            let a = on_store.get(c, w, faults).unwrap();
            let b = off_store.get(c, w, faults).unwrap();
            assert_eq!(a, b, "{c}/{faults}-bit: campaign results diverged");
            assert_eq!(a.anomalies, b.anomalies, "{c}/{faults}-bit: anomaly logs");
        }
    }
    assert_eq!(
        on_store.to_csv(),
        off_store.to_csv(),
        "in-memory checkpoint serialization must not depend on the cache"
    );
    assert_eq!(
        std::fs::read(&on_path).unwrap(),
        std::fs::read(&off_path).unwrap(),
        "on-disk checkpoint files must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cached sweep is deterministic under any worker-thread count: one
/// worker and four workers produce byte-identical checkpoint rows.
#[test]
fn cached_sweep_is_identical_across_thread_counts() {
    let mut one_store = ResultStore::new();
    sweeper(1)
        .run_sweep(&COMPONENTS, &mut one_store, None)
        .unwrap();
    let mut four_store = ResultStore::new();
    sweeper(4)
        .run_sweep(&COMPONENTS, &mut four_store, None)
        .unwrap();
    assert_eq!(
        one_store.to_csv(),
        four_store.to_csv(),
        "thread count must not leak into cached-sweep results"
    );
}

/// A single campaign given pre-built artifacts classifies identically to
/// one that runs its own golden execution.
#[test]
fn campaign_with_artifacts_matches_private_golden_run() {
    let base = CampaignConfig::new(Workload::Qsort, HwComponent::DTlb, 2)
        .runs(8)
        .seed(0xA11)
        .collect_details(true)
        .use_snapshots(true);
    let campaign = Campaign::new(base);
    let artifacts = campaign.build_artifacts().unwrap();
    let private = campaign.try_run().unwrap();
    let shared = campaign.try_run_with_artifacts(Some(&artifacts)).unwrap();
    assert_eq!(
        private, shared,
        "artifact-fed campaign must be bit-identical"
    );
}

/// Artifacts built for a different core, program or snapshot spec are
/// rejected with `ArtifactMismatch` instead of silently misclassifying.
#[test]
fn mismatched_artifacts_are_rejected() {
    let base = CampaignConfig::new(Workload::Sha, HwComponent::RegFile, 1).runs(4);
    let artifacts = Campaign::new(base.clone()).build_artifacts().unwrap();

    // Wrong program: artifacts carry Sha's golden run, campaign is Qsort.
    let other =
        Campaign::new(CampaignConfig::new(Workload::Qsort, HwComponent::RegFile, 1).runs(4));
    assert!(matches!(
        other.try_run_with_artifacts(Some(&artifacts)),
        Err(CampaignError::ArtifactMismatch { .. })
    ));

    // Missing store: the campaign wants snapshots, the artifacts have none.
    let snapping = Campaign::new(base.clone().use_snapshots(true));
    assert!(matches!(
        snapping.try_run_with_artifacts(Some(&artifacts)),
        Err(CampaignError::ArtifactMismatch { .. })
    ));

    // Wrong spec: store recorded under the default spec, campaign wants a
    // custom interval.
    let snap_artifacts = Campaign::new(base.clone().use_snapshots(true))
        .build_artifacts()
        .unwrap();
    let respecced = Campaign::new(
        base.clone()
            .use_snapshots(true)
            .snapshot_spec(SnapshotSpec {
                interval: Some(512),
                mem_cap_bytes: None,
            }),
    );
    assert!(matches!(
        respecced.try_run_with_artifacts(Some(&snap_artifacts)),
        Err(CampaignError::ArtifactMismatch { .. })
    ));

    // Wrong core: same workload, different microarchitecture.
    let mut recored = base;
    recored.core = CoreConfig::in_order_a9();
    assert!(matches!(
        Campaign::new(recored).try_run_with_artifacts(Some(&artifacts)),
        Err(CampaignError::ArtifactMismatch { .. })
    ));
}
