//! End-to-end capture tests: fault-free observation of a real workload
//! produces sane residency, occupancy and oracle behaviour, and the probe
//! hooks never perturb the simulated run itself.

use mbu_ace::{capture, dead_at, AceStructure};
use mbu_cpu::{CoreConfig, HwComponent, Simulator};
use mbu_sram::BitCoord;
use mbu_workloads::Workload;

#[test]
fn capture_matches_unprobed_run_and_reports_liveness() {
    let core = CoreConfig::cortex_a9_like();
    let program = Workload::Stringsearch.program();

    // The probe hooks must not change the simulation: same cycle count and
    // output as an unprobed run.
    let plain = Simulator::new(core, &program).run(u64::MAX / 8);
    let map = capture(core, &program).expect("fault-free capture");
    assert_eq!(
        map.total_cycles, plain.cycles,
        "probes must not perturb timing"
    );
    assert_eq!(map.instructions, plain.instructions);

    // Every structure was recorded; the actively-exercised ones saw events
    // and have nonzero but sub-unity analytical AVF.
    assert_eq!(map.structures.len(), AceStructure::ALL.len());
    for s in [
        AceStructure::RegFile,
        AceStructure::L1iData,
        AceStructure::Itlb,
    ] {
        let r = &map.structures[&s];
        assert!(r.events > 0, "{s} saw no events");
        let avf = r.analytical_avf();
        assert!(
            avf > 0.0 && avf < 1.0,
            "{s} analytical AVF {avf} out of range"
        );
    }

    // Occupancy was sampled every cycle with a plausible series.
    assert_eq!(map.occupancy.samples, map.total_cycles);
    assert!(map.occupancy.mean_rob > 0.0);
    assert!(map.occupancy.max_rob <= core.rob_entries as usize);
    assert!(map.occupancy.max_iq <= core.iq_entries as usize);
    assert!(!map.occupancy.series.is_empty());
}

#[test]
fn oracle_dead_bits_exist_and_skip_conservatively() {
    let core = CoreConfig::cortex_a9_like();
    let program = Workload::Qsort.program();
    let total = Simulator::new(core, &program).run(u64::MAX / 8).cycles;

    // Ask about the whole L2 surface mid-run in one pass: a scaled 8 KB L2
    // under a tiny workload must have plenty of dead bits, and not every
    // bit dead.
    let g = Simulator::new(core, &program).component_geometry(HwComponent::L2);
    let mid = total / 2;
    let mut queries: Vec<(u64, BitCoord)> = (0..g.rows())
        .flat_map(|row| {
            (0..g.cols())
                .step_by(8)
                .map(move |col| (mid, BitCoord::new(row, col)))
        })
        .collect();
    let surface = queries.len();
    // Past the end of the observed run nothing is provable.
    queries.push((total, BitCoord::new(0, 0)));
    queries.push((total + 1, BitCoord::new(0, 0)));
    let answers = dead_at(core, &program, HwComponent::L2, &queries).expect("fault-free pass");
    assert_eq!(answers.len(), queries.len(), "one answer per query");
    let dead = answers[..surface].iter().filter(|&&d| d).count();
    assert!(dead > 0, "no provably-dead L2 bits at mid-run");
    assert!(dead < surface, "oracle claims the whole L2 is dead");
    assert_eq!(answers[surface..], [false, false]);
}
