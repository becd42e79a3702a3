//! Snapshot fast-path benches: checkpoint recording cost, single-run
//! fast-forward vs from-zero simulation, and the campaign-level off/on
//! pairs behind `repro snapbench` / `BENCH_snapshot.json`.

use mbu_bench::tinybench;
use mbu_cpu::{CoreConfig, HwComponent, RunEnd, Simulator};
use mbu_gefin::campaign::{Campaign, CampaignConfig};
use mbu_gefin::{SnapshotSpec, SnapshotStore};
use mbu_sram::{Restorable, Snapshot};
use mbu_workloads::Workload;

fn golden_cycles(core: CoreConfig, w: Workload) -> u64 {
    let r = Simulator::new(core, &w.program()).run(u64::MAX / 8);
    assert_eq!(r.end, RunEnd::Exited { code: 0 });
    r.cycles
}

/// Cost of recording a full golden-run snapshot store (the one-off price
/// every fast-forwarded campaign pays up front).
fn bench_store_recording() {
    let mut group = tinybench::group("snapshot_store");
    group.sample_size(10);
    let core = CoreConfig::cortex_a9_like();
    let w = Workload::Stringsearch;
    let t_ff = golden_cycles(core, w);
    let program = w.program();
    group.bench_function("record_golden/auto_interval", |b| {
        b.iter(|| SnapshotStore::record_golden(core, &program, t_ff, SnapshotSpec::default()));
    });
    group.bench_function("capture_one_snapshot", |b| {
        let mut sim = Simulator::new(core, &program);
        sim.run_until_cycle(t_ff / 2);
        b.iter(|| sim.snapshot());
    });
    group.finish();
}

/// A single mid-run state materialization: restore from the nearest
/// checkpoint vs re-simulating the whole prefix from cycle 0.
fn bench_fast_forward_vs_prefix() {
    let mut group = tinybench::group("fast_forward");
    group.sample_size(10);
    let core = CoreConfig::cortex_a9_like();
    let w = Workload::Stringsearch;
    let t_ff = golden_cycles(core, w);
    let program = w.program();
    let store = SnapshotStore::record_golden(core, &program, t_ff, SnapshotSpec::default());
    let target = t_ff / 2;
    group.bench_function("simulate_prefix_from_zero", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(core, &program);
            sim.run_until_cycle(target);
            sim.cycle()
        });
    });
    group.bench_function("restore_nearest_checkpoint", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(core, &program);
            sim.restore(store.nearest_at_or_before(target));
            sim.run_until_cycle(target);
            sim.cycle()
        });
    });
    group.finish();
}

/// Campaign wall-clock with snapshots off vs on — the pairs `repro
/// snapbench` reports in `BENCH_snapshot.json` — with a classification
/// cross-check so a speedup can never come from classifying differently.
fn bench_campaign_off_vs_on() {
    let mut group = tinybench::group("snapshot_campaign");
    group.sample_size(10);
    let config = |component: HwComponent, on: bool| {
        CampaignConfig::new(Workload::Stringsearch, component, 2)
            .runs(32)
            .seed(23)
            .threads(1)
            .use_snapshots(on)
    };
    for component in [HwComponent::L2, HwComponent::RegFile] {
        for (name, on) in [("snapshots_off", false), ("snapshots_on", true)] {
            group.bench_function(&format!("{}/{name}", component.name()), |b| {
                b.iter(|| Campaign::new(config(component, on)).run());
            });
        }
        let plain = Campaign::new(config(component, false)).run();
        let fast = Campaign::new(config(component, true)).run();
        assert_eq!(
            plain.counts, fast.counts,
            "snapshots must not change classifications"
        );
        let stats = fast.snapshot_stats.expect("fast path records a store");
        eprintln!(
            "{}: {} restores, {}/{} early-masked, {} checkpoints ({} bytes) at {}-cycle interval",
            component.name(),
            stats.restores,
            stats.early_masked,
            fast.counts.total(),
            stats.snapshots,
            stats.retained_bytes,
            stats.interval,
        );
    }
    group.finish();
}

fn main() {
    bench_store_recording();
    bench_fast_forward_vs_prefix();
    bench_campaign_off_vs_on();
}
