//! Differential validation of the liveness-oracle fast path: campaigns with
//! the oracle on must produce *bit-identical* classifications to campaigns
//! with it off — the oracle may only change wall-clock, never results — and
//! a bit the oracle's pass proves dead must never change program output when
//! flipped.

use mbu_ace::dead_at;
use mbu_cpu::{CoreConfig, HwComponent, RunEnd, Simulator};
use mbu_gefin::campaign::{Campaign, CampaignConfig};
use mbu_gefin::rng::Rng64;
use mbu_sram::BitCoord;
use mbu_workloads::Workload;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Seeded sweep over (component × workload × cardinality 1–3), all of a
/// workload's campaigns sharing one golden artifacts as a sweep does: with
/// the oracle on and off the counts, per-run details and anomaly logs are
/// identical, and across the sweep the oracle skips a nonzero number of
/// runs.
#[test]
fn oracle_prefilter_is_bit_identical_across_components_and_workloads() {
    let workloads = [Workload::Stringsearch, Workload::Sha, Workload::Qsort];
    let runs = 6;
    let mut total_skips = 0u64;
    let mut total_runs = 0u64;
    for (w, &workload) in workloads.iter().enumerate() {
        let config = |component, faults| {
            CampaignConfig::new(workload, component, faults)
                .runs(runs)
                .seed(0xACE0 + w as u64)
                .collect_details(true)
        };
        let artifacts = Campaign::new(config(HwComponent::L1D, 1))
            .build_artifacts()
            .expect("golden run");
        for component in HwComponent::ALL {
            for faults in 1..=3 {
                let base = config(component, faults);
                let plain = Campaign::new(base.clone().use_liveness_oracle(false))
                    .try_run_range(0..runs, &artifacts)
                    .expect("reference campaign");
                let fast = Campaign::new(base.use_liveness_oracle(true))
                    .try_run_range(0..runs, &artifacts)
                    .expect("oracle campaign");
                assert_eq!(
                    plain.counts, fast.counts,
                    "{component}/{workload}/{faults}-bit: counts diverged"
                );
                assert_eq!(
                    plain.details, fast.details,
                    "{component}/{workload}/{faults}-bit: per-run details diverged"
                );
                assert_eq!(plain.anomalies, fast.anomalies);
                assert_eq!(plain.oracle_skips, 0, "oracle off must never skip");
                total_skips += fast.oracle_skips;
                total_runs += fast.counts.total();
            }
        }
    }
    assert!(
        total_skips > 0,
        "oracle never skipped any of {total_runs} runs across the sweep"
    );
    assert!(total_skips < total_runs, "oracle cannot skip everything");
}

struct DeadBitFixture {
    core: CoreConfig,
    /// Random L2 (cycle, bit) queries that one `dead_at` pass proved dead.
    dead: Vec<(u64, BitCoord)>,
    golden_output: Vec<u8>,
    golden_cycles: u64,
}

fn fixture() -> &'static DeadBitFixture {
    static FIX: OnceLock<DeadBitFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let core = CoreConfig::cortex_a9_like();
        let program = Workload::Stringsearch.program();
        let golden = Simulator::new(core, &program).run(u64::MAX / 8);
        assert!(matches!(golden.end, RunEnd::Exited { code: 0 }));
        let g = core.component_geometry(HwComponent::L2);
        let mut rng = Rng64::seed_from_u64(0xDEAD_B175);
        let queries: Vec<(u64, BitCoord)> = (0..512)
            .map(|_| {
                let at = rng.gen_range(0..golden.cycles);
                let coord = BitCoord::new(rng.gen_range(0..g.rows()), rng.gen_range(0..g.cols()));
                (at, coord)
            })
            .collect();
        let verdicts = dead_at(core, &program, HwComponent::L2, &queries).expect("fault-free pass");
        let dead: Vec<(u64, BitCoord)> = queries
            .into_iter()
            .zip(verdicts)
            .filter_map(|(query, dead)| dead.then_some(query))
            .collect();
        assert!(!dead.is_empty(), "no random L2 bit is provably dead");
        DeadBitFixture {
            core,
            dead,
            golden_output: golden.output,
            golden_cycles: golden.cycles,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any bit `dead_at` calls dead at a random injection cycle really is
    /// masked: flipping it leaves output, exit code, and cycle count of the
    /// simulated run bit-identical to the golden run.
    #[test]
    fn provably_dead_flips_never_change_output(pick in any::<prop::sample::Index>()) {
        let fix = fixture();
        let (at, coord) = fix.dead[pick.index(fix.dead.len())];
        let program = Workload::Stringsearch.program();
        let mut sim = Simulator::new(fix.core, &program);
        prop_assert!(sim.run_until_cycle(at).is_none());
        sim.inject_flips(HwComponent::L2, &[coord]);
        let end = sim.run_until_cycle(fix.golden_cycles * 4);
        prop_assert_eq!(end, Some(RunEnd::Exited { code: 0 }));
        prop_assert_eq!(sim.output(), &fix.golden_output[..]);
        prop_assert_eq!(sim.cycle(), fix.golden_cycles, "dead flip must not perturb timing");
    }
}
