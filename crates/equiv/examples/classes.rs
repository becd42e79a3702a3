//! Prints the fault-equivalence class census for the small structures —
//! the tractability data behind the exhaustive campaign mode's defaults —
//! and checks each partition's live index against its coverage report.
//!
//! ```text
//! cargo run --release -p mbu-equiv --example classes
//! ```

use mbu_ace::capture_component_segments;
use mbu_cpu::{CoreConfig, HwComponent};
use mbu_equiv::Partition;
use mbu_workloads::Workload;

fn main() {
    let components = [HwComponent::ITlb, HwComponent::DTlb, HwComponent::RegFile];
    let workloads = [
        Workload::Crc32,
        Workload::Qsort,
        Workload::Sha,
        Workload::Stringsearch,
    ];
    println!(
        "{:<14} {:<9} {:>9} {:>9} {:>8} {:>8} {:>11} {:>7}",
        "workload", "component", "pop", "classes", "live", "dead", "live_mass", "live%"
    );
    for wl in workloads {
        for comp in components {
            let (residency, _) =
                capture_component_segments(CoreConfig::default(), &wl.program(), comp)
                    .expect("golden capture");
            let p = Partition::from_residency(&residency).expect("segments");
            let cov = p.coverage();
            assert!(cov.exact(), "partition must be exact");
            let live = p.live_index();
            assert_eq!(live.len() as u64, cov.live_classes, "live index length");
            assert_eq!(live.total_weight(), cov.live_weight, "live index weight");
            println!(
                "{:<14} {:<9} {:>9} {:>9} {:>8} {:>8} {:>11} {:>6.2}%",
                wl.name(),
                format!("{comp:?}"),
                cov.population,
                cov.classes,
                cov.live_classes,
                cov.dead_classes,
                cov.live_weight,
                100.0 * cov.live_fraction(),
            );
        }
    }
}
