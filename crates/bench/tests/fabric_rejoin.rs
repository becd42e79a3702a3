//! TCP worker session resume, end to end against the real `repro` binary.
//!
//! The invariant: a remote worker that dies in the persisted-but-unacked
//! window and then reconnects under its old `--id` **rejoins** the pool —
//! the supervisor re-adopts its shard store, retires the already-persisted
//! unit from the replayed rows instead of re-running it, and the merged
//! CSV stays byte-identical to a single-process sweep.

use mbu_bench::{Experiments, FabricConfig, ResultStore, Supervisor, WorkerPool};
use mbu_cpu::HwComponent;
use mbu_workloads::Workload;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

mod common;
use common::tmpdir;

const RUNS: usize = 6;
const WORKLOAD: Workload = Workload::Qsort;
const COMPONENTS: [HwComponent; 2] = [HwComponent::L1D, HwComponent::RegFile];

fn experiments() -> Experiments {
    Experiments {
        runs: RUNS,
        workloads: vec![WORKLOAD],
        ..Experiments::default()
    }
}

/// Single-process reference bytes for the same two components.
fn reference() -> String {
    let e = experiments();
    let dir = tmpdir("reference");
    let path = dir.join("measured.csv");
    let mut store = ResultStore::new();
    for &c in &COMPONENTS {
        let report = e.run_sweep(&[c], &mut store, None).unwrap();
        assert!(report.failed.is_empty(), "reference: {:?}", report.failed);
    }
    store.save(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    text
}

/// Spawns `repro worker --connect` with a stable worker id; `fault` arms
/// `MBU_CHAOS_FAULT` on that process only.
fn spawn_worker(addr: &str, shard: &PathBuf, id: &str, fault: Option<&str>) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.arg("worker")
        .arg("--connect")
        .arg(addr)
        .arg("--shard")
        .arg(shard)
        .arg("--id")
        .arg(id)
        .env_remove("MBU_CHAOS_WORKER")
        .env_remove("MBU_CHAOS_FAULT")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(spec) = fault {
        cmd.env("MBU_CHAOS_FAULT", spec);
    }
    cmd.spawn().expect("worker spawns")
}

/// Worker `beta` persists its first unit, dies before acking it, and
/// reconnects clean under the same id and shard path. The supervisor must
/// count a rejoin, recover the persisted unit from the replayed shard
/// rows, log a `worker-rejoined` anomaly, and still merge bit-identically.
#[test]
fn reconnecting_worker_rejoins_and_replays_persisted_unit() {
    let want = reference();
    let dir = tmpdir("rejoin");
    let shard_dir = dir.join("shards");
    std::fs::create_dir_all(&shard_dir).unwrap();
    let out_csv = dir.join("measured.csv");
    let shard_a = shard_dir.join("alpha.csv");
    let shard_b = shard_dir.join("beta.csv");

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();

    // A long retry backoff keeps beta's requeued unit parked in `pending`
    // (not re-dispatched to alpha) while beta restarts and replays it.
    let sup = std::thread::spawn({
        let shard_dir = shard_dir.clone();
        let out_csv = out_csv.clone();
        move || {
            let e = experiments();
            let config = FabricConfig {
                workers: 2,
                retry_backoff: Duration::from_secs(10),
                ..FabricConfig::default()
            };
            Supervisor::run(
                &e,
                &COMPONENTS,
                &config,
                &shard_dir,
                &out_csv,
                WorkerPool::Tcp(listener),
            )
        }
    });

    let mut alpha = spawn_worker(&addr, &shard_a, "alpha", None);
    // Beta persists one unit, then exits without acking it.
    let mut beta = spawn_worker(&addr, &shard_b, "beta", Some("die-after-persist:1"));
    let status = beta.wait().expect("beta exits");
    assert!(!status.success(), "beta must die after persisting");

    // Reconnect beta clean: same id, same shard store.
    let mut beta2 = spawn_worker(&addr, &shard_b, "beta", None);

    let (store, report) = sup.join().expect("supervisor thread").expect("sweep ok");
    let _ = alpha.wait();
    let _ = beta2.wait();

    assert_eq!(report.workers_lost, 1, "beta's death must be counted");
    assert_eq!(report.workers_rejoined, 1, "beta must rejoin, not respawn");
    assert!(
        report.units_recovered >= 1,
        "the persisted-but-unacked unit must be recovered from beta's shard"
    );
    assert!(
        report
            .anomalies
            .entries()
            .iter()
            .any(|a| a.to_string().contains("worker-rejoined")),
        "rejoin must be logged as a typed anomaly: {:?}",
        report.anomalies
    );
    assert!(report.is_clean(), "merge must be complete");
    assert_eq!(store.len(), 6, "2 components x 3 cardinalities");
    let got = std::fs::read_to_string(&out_csv).unwrap();
    assert_eq!(
        got, want,
        "merged store differs from the single-process sweep"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
