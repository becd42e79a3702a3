//! Differential validation of the snapshot fast path: campaigns with
//! checkpoint/restore fast-forward injection enabled must produce
//! *bit-identical* classifications — and byte-identical checkpoint CSV
//! rows — to plain full simulation. Snapshots may only change wall-clock,
//! never results, including when composed with the liveness oracle and
//! adaptive sampling.

use mbu_bench::{Experiments, ResultStore};
use mbu_cpu::HwComponent;
use mbu_gefin::campaign::{AdaptiveSpec, Campaign, CampaignConfig};
use mbu_gefin::{golden_fingerprint, SnapshotSpec};
use mbu_workloads::Workload;

const WORKLOADS: [Workload; 3] = [Workload::Stringsearch, Workload::Sha, Workload::Qsort];

/// Seeded sweep over (component × workload × cardinality): with and without
/// snapshots the counts, per-run details, and anomaly logs are identical,
/// and across the sweep the fast path both restores checkpoints and
/// classifies a nonzero number of runs `Masked` early.
#[test]
fn snapshot_fast_path_is_bit_identical_across_components_and_workloads() {
    let mut total_restores = 0u64;
    let mut total_early = 0u64;
    let mut total_runs = 0u64;
    for component in HwComponent::ALL {
        for (w, &workload) in WORKLOADS.iter().enumerate() {
            for faults in [1usize, 2] {
                let base = CampaignConfig::new(workload, component, faults)
                    .runs(6)
                    .seed(0x5AB0 + w as u64)
                    .collect_details(true);
                let plain = Campaign::new(base.clone()).run();
                let fast = Campaign::new(base.use_snapshots(true)).run();
                assert_eq!(
                    plain.counts, fast.counts,
                    "{component}/{workload}/{faults}-bit: counts diverged"
                );
                assert_eq!(
                    plain.details, fast.details,
                    "{component}/{workload}/{faults}-bit: per-run details diverged"
                );
                assert_eq!(plain.anomalies, fast.anomalies);
                assert!(
                    plain.snapshot_stats.is_none(),
                    "plain path records no store"
                );
                let stats = fast.snapshot_stats.expect("fast path records a store");
                total_restores += stats.restores;
                total_early += stats.early_masked;
                total_runs += fast.counts.total();
            }
        }
    }
    assert!(
        total_restores > 0,
        "no run fast-forwarded from a checkpoint across {total_runs} runs"
    );
    assert!(
        total_early > 0,
        "no run reconverged early across {total_runs} runs"
    );
    assert!(total_early <= total_runs);
}

/// The on-disk checkpoint rows — classification counts, cycle counts,
/// margin, CRC, and golden-run fingerprint columns — serialize
/// byte-identically whether the campaigns ran plain or fast-forwarded.
#[test]
fn checkpoint_csv_rows_are_byte_identical() {
    let mut plain_store = ResultStore::new();
    let mut fast_store = ResultStore::new();
    let e = Experiments {
        runs: 8,
        workloads: WORKLOADS.to_vec(),
        use_snapshots: false,
        ..Experiments::default()
    };
    for &workload in &WORKLOADS {
        let fp = golden_fingerprint(e.core, workload).ok();
        for component in [HwComponent::RegFile, HwComponent::L2] {
            let plain = e.campaign(component, workload, 2);
            let mut snap = e.clone();
            snap.use_snapshots = true;
            let fast = snap.campaign(component, workload, 2);
            plain_store.insert_with_fingerprint(plain, fp);
            fast_store.insert_with_fingerprint(fast, fp);
        }
    }
    assert_eq!(
        plain_store.to_csv(),
        fast_store.to_csv(),
        "checkpoint CSV must not depend on the snapshot fast path"
    );
}

/// Composition: snapshots + liveness oracle + adaptive sampling together
/// still classify bit-identically to the oracle + adaptive baseline, and
/// the two prefilters don't starve each other.
#[test]
fn snapshots_compose_with_oracle_and_adaptive_sampling() {
    let adaptive = Some(AdaptiveSpec {
        target_margin: 0.20,
        min_runs: 8,
        batch: 8,
        ..AdaptiveSpec::paper()
    });
    for &workload in &[Workload::Stringsearch, Workload::Qsort] {
        let base = CampaignConfig::new(workload, HwComponent::L2, 2)
            .runs(24)
            .seed(0xC0DE)
            .collect_details(true)
            .use_liveness_oracle(true)
            .adaptive(adaptive);
        let reference = Campaign::new(base.clone()).run();
        let composed = Campaign::new(base.use_snapshots(true).snapshot_spec(SnapshotSpec {
            interval: Some(512),
            mem_cap_bytes: None,
        }))
        .run();
        assert_eq!(reference.counts, composed.counts, "{workload}: counts");
        assert_eq!(reference.details, composed.details, "{workload}: details");
        assert_eq!(reference.anomalies, composed.anomalies);
        assert_eq!(
            reference.achieved_margin, composed.achieved_margin,
            "{workload}: adaptive stopping must not depend on snapshots"
        );
        assert_eq!(
            reference.oracle_skips, composed.oracle_skips,
            "{workload}: oracle decisions must not depend on snapshots"
        );
    }
}
