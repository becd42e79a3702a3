//! Fault-injection benches: mask-generation throughput, per-run injection
//! cost per component, and the cluster-size ablation called out in
//! DESIGN.md (2×2 vs 3×3 vs 4×4 windows).

use mbu_bench::tinybench;
use mbu_cpu::HwComponent;
use mbu_gefin::campaign::{Campaign, CampaignConfig};
use mbu_gefin::mask::{ClusterSpec, MaskGenerator};
use mbu_sram::Geometry;
use mbu_workloads::Workload;

fn bench_mask_generation() {
    let mut group = tinybench::group("mask_generation");
    let geometry = Geometry::new(256, 256); // an L1-like array
    group.throughput_elements(1);
    for faults in 1..=3usize {
        group.bench_function(&format!("cardinality/{faults}"), |b| {
            let mut gen = MaskGenerator::seeded(1, ClusterSpec::DEFAULT);
            b.iter(|| gen.generate(geometry, faults));
        });
    }
    group.finish();
}

fn bench_injection_runs_per_component() {
    let mut group = tinybench::group("campaign_per_component");
    group.sample_size(10);
    for component in HwComponent::ALL {
        group.bench_function(&format!("runs8/{}", component.name()), |b| {
            b.iter(|| {
                Campaign::new(
                    CampaignConfig::new(Workload::Stringsearch, component, 2)
                        .runs(8)
                        .seed(3)
                        .threads(1),
                )
                .run()
            });
        });
    }
    group.finish();
}

/// Ablation: how the cluster window size changes campaign results/cost.
/// The paper fixes 3×3 (quadruple-and-larger rates are ~0); this measures
/// the alternative windows.
fn bench_cluster_size_ablation() {
    let mut group = tinybench::group("cluster_size_ablation");
    group.sample_size(10);
    for (name, cluster) in [
        ("2x2", ClusterSpec::new(2, 2)),
        ("3x3", ClusterSpec::new(3, 3)),
        ("4x4", ClusterSpec::new(4, 4)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                Campaign::new(
                    CampaignConfig::new(Workload::Stringsearch, HwComponent::DTlb, 3)
                        .runs(8)
                        .seed(9)
                        .threads(1)
                        .cluster(cluster),
                )
                .run()
            });
        });
    }
    group.finish();
}

/// Tentpole speedup measurement: the same campaign with and without the
/// provably-masked liveness oracle. Reports wall-clock for both paths plus
/// the skip rate, and cross-checks that the classifications are identical.
fn bench_liveness_oracle_fast_path() {
    let mut group = tinybench::group("liveness_oracle");
    group.sample_size(10);
    let config = |on: bool| {
        CampaignConfig::new(Workload::Stringsearch, HwComponent::L2, 1)
            .runs(32)
            .seed(17)
            .threads(1)
            .use_liveness_oracle(on)
    };
    for (name, on) in [("oracle_off", false), ("oracle_on", true)] {
        group.bench_function(name, |b| {
            b.iter(|| Campaign::new(config(on)).run());
        });
    }
    group.finish();
    // One timed pair outside the harness for the headline numbers.
    let t0 = std::time::Instant::now();
    let plain = Campaign::new(config(false)).run();
    let plain_wall = t0.elapsed();
    let t1 = std::time::Instant::now();
    let fast = Campaign::new(config(true)).run();
    let fast_wall = t1.elapsed();
    assert_eq!(
        plain.counts, fast.counts,
        "oracle must not change classifications"
    );
    eprintln!(
        "liveness oracle: skipped {}/{} runs ({:.0}%), wall {:?} -> {:?} ({:.2}x)",
        fast.oracle_skips,
        fast.counts.total(),
        100.0 * fast.oracle_skips as f64 / fast.counts.total() as f64,
        plain_wall,
        fast_wall,
        plain_wall.as_secs_f64() / fast_wall.as_secs_f64().max(1e-9),
    );
}

fn main() {
    bench_mask_generation();
    bench_injection_runs_per_component();
    bench_cluster_size_ablation();
    bench_liveness_oracle_fast_path();
}
