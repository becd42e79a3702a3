//! Differential validation of the fault-equivalence engine: a class
//! representative must be interchangeable with *every* member of its
//! class, and the class-range shard primitive must be bit-identical for
//! any thread count, representative seed, and snapshots on or off. The
//! weight-multiplied exhaustive result is sound exactly as far as these
//! invariances hold, so the suite checks them directly against
//! brute-force enumeration.
//!
//! The non-ignored tests run on restricted class windows so they stay
//! debug-friendly; the `#[ignore]`d test widens the windows and sweeps
//! ITLB + PRF across three workloads for the release-mode CI equiv job
//! (`cargo test -p mbu-bench --release --test equiv_differential -- --ignored`).
//!
//! The suite also pins the stratified sampler's run-count economics on the
//! big arrays against the paper's uniform 2 000-run protocol.

use mbu_cpu::HwComponent;
use mbu_gefin::campaign::{Campaign, CampaignConfig};
use mbu_gefin::stats::{error_margin, Z_99};
use mbu_gefin::{ClassOutcome, ExhaustivePlan, ExhaustiveSpec, StratifiedSpec};
use mbu_workloads::Workload;

fn plan(
    workload: Workload,
    component: HwComponent,
    spec: ExhaustiveSpec,
    threads: usize,
    snapshots: bool,
) -> ExhaustivePlan {
    let cfg = CampaignConfig::new(workload, component, 1)
        .threads(threads)
        .use_snapshots(snapshots);
    ExhaustivePlan::try_new(cfg, spec).expect("partition must compile")
}

/// What class-member invariance promises is shared: the classification and
/// the run length, per class (the injected member cycle is free to differ).
fn shared(outcomes: &[ClassOutcome]) -> Vec<(u64, u64, mbu_gefin::FaultEffect, u64)> {
    outcomes
        .iter()
        .map(|o| (o.class_id, o.weight, o.effect, o.cycles))
        .collect()
}

/// Class windows spread across the live order: the head, the middle, and
/// the tail each see different liveness patterns (cold start, steady
/// state, drain).
fn windows(live: usize, len: usize) -> Vec<std::ops::Range<usize>> {
    let mut ws = Vec::new();
    ws.push(0..len.min(live));
    if live > 2 * len {
        ws.push(live / 2..(live / 2 + len).min(live));
        ws.push(live - len..live);
    }
    ws
}

/// The shard primitive is bit-identical across thread counts, rep seeds
/// (midpoint vs spread picks), and the snapshot fast path — the exact
/// invariances the distributed exhaustive sweep and the weight-multiply
/// rely on.
#[test]
fn class_outcomes_invariant_to_threads_rep_seed_and_snapshots() {
    let w = Workload::Stringsearch;
    for component in [HwComponent::ITlb, HwComponent::DTlb, HwComponent::RegFile] {
        let base = plan(w, component, ExhaustiveSpec::default(), 1, false);
        // One golden build amortized over every plain-path window; the
        // snapshot variant records its own store below.
        let artifacts = Campaign::new(CampaignConfig::new(w, component, 1))
            .build_artifacts()
            .expect("golden artifacts");
        let variants = [
            // More workers, same everything else.
            plan(w, component, ExhaustiveSpec::default(), 2, false),
            // Spread representative picks instead of midpoints, with the
            // snapshot alignment off so the seed alone moves the pick.
            plan(
                w,
                component,
                ExhaustiveSpec {
                    rep_seed: 0xDEAD_BEEF,
                    snap_align: false,
                    ..ExhaustiveSpec::default()
                },
                1,
                false,
            ),
            // Snapshot fast-forward on (and snap-aligned picks with it).
            plan(w, component, ExhaustiveSpec::default(), 2, true),
        ];
        let snap_artifacts =
            Campaign::new(CampaignConfig::new(w, component, 1).use_snapshots(true))
                .build_artifacts()
                .expect("snapshot-recording artifacts");
        for range in windows(base.live_classes(), 48) {
            let reference = shared(
                &base
                    .run_class_range(range.clone(), Some(&artifacts))
                    .expect("reference window"),
            );
            for (v, variant) in variants.iter().enumerate() {
                let shared_artifacts = if v == 2 { &snap_artifacts } else { &artifacts };
                let got = shared(
                    &variant
                        .run_class_range(range.clone(), Some(shared_artifacts))
                        .expect("variant window"),
                );
                assert_eq!(
                    reference, got,
                    "{component}/{w}: variant {v} diverged on classes {range:?}"
                );
            }
        }
    }
}

/// Brute force vs representative: enumerate *every* member cycle of
/// small classes and the boundary members of a wide class; each must
/// classify identically (effect and run length) to the representative
/// the exhaustive campaign actually simulates.
#[test]
fn every_member_of_a_class_matches_its_representative() {
    let w = Workload::Stringsearch;
    for component in [HwComponent::ITlb, HwComponent::RegFile] {
        let p = plan(w, component, ExhaustiveSpec::default(), 1, false);
        let cfg = CampaignConfig::new(w, component, 1);
        let artifacts = Campaign::new(cfg)
            .build_artifacts()
            .expect("golden artifacts");
        let mut enumerated = 0usize;
        let mut wide: Option<usize> = None;
        for i in 0..p.live_classes() {
            let class = p.live_class(i);
            if class.weight() > 6 {
                wide.get_or_insert(i);
                continue;
            }
            if enumerated == 5 {
                continue;
            }
            enumerated += 1;
            let rep = p
                .run_class_range(i..i + 1, Some(&artifacts))
                .expect("representative")[0];
            for cycle in class.start..=class.end {
                let member = p
                    .probe_member(&class, cycle, Some(&artifacts))
                    .expect("member probe");
                assert_eq!(
                    (member.effect, member.cycles),
                    (rep.effect, rep.cycles),
                    "{component}/{w}: class {} member {cycle} diverged from \
                     representative at {}",
                    class.id,
                    rep.inject_cycle
                );
            }
        }
        assert!(enumerated > 0, "{component}/{w}: no small class found");
        // A wide class can't be enumerated cheaply, but its interval
        // boundaries are where an off-by-one in segment capture would
        // show: pin both ends against the representative.
        let i = wide.expect("a wide class exists");
        let class = p.live_class(i);
        let rep = p
            .run_class_range(i..i + 1, Some(&artifacts))
            .expect("representative")[0];
        for cycle in [class.start, class.end] {
            let member = p
                .probe_member(&class, cycle, Some(&artifacts))
                .expect("boundary probe");
            assert_eq!(
                (member.effect, member.cycles),
                (rep.effect, rep.cycles),
                "{component}/{w}: class {} boundary member {cycle} diverged",
                class.id
            );
        }
    }
}

/// Run-count economics of the class-weighted stratified sampler: under the
/// paper's stopping rule, each big array reaches a whole-population margin
/// no worse than the paper's uniform 2 000-run protocol would over the
/// same fault population (finite-population margin at worst-case p = 0.5,
/// 99 % confidence), with at least 5× fewer distinct simulations. The
/// margin is computed, not re-run: the formula is what sizes the uniform
/// campaign in the first place.
#[test]
fn stratified_big_arrays_beat_uniform_2000_run_margin_with_5x_fewer_sims() {
    const BASELINE_RUNS: u64 = 2000;
    let w = Workload::Stringsearch;
    for component in [HwComponent::L1D, HwComponent::L1I, HwComponent::L2] {
        let r = plan(w, component, ExhaustiveSpec::default(), 0, true)
            .run_stratified(StratifiedSpec::paper(), None)
            .expect("stratified campaign");
        let population = r.coverage.population;
        let baseline = error_margin(population, BASELINE_RUNS.min(population), Z_99, 0.5)
            .expect("baseline margin over a nonempty population");
        let achieved = r.campaign.achieved_margin.expect("stratified margin");
        assert!(
            r.draws >= StratifiedSpec::paper().min_draws,
            "{component}/{w}: {} draws is under the paper spec's floor",
            r.draws
        );
        assert!(
            achieved <= baseline,
            "{component}/{w}: margin {achieved} misses the uniform baseline {baseline}"
        );
        assert!(
            r.simulated * 5 <= BASELINE_RUNS,
            "{component}/{w}: {} distinct simulations is not 5x fewer than {BASELINE_RUNS}",
            r.simulated
        );
    }
}

/// Release-scale sweep for the CI equiv job: ITLB + PRF across three
/// workloads, 1 000-class windows at the head/middle/tail of the live
/// order, engine variants (threads, rep seed, snapshots) bit-identical
/// throughout, and full member enumeration of the small classes in each
/// head window.
#[test]
#[ignore = "release-scale: cargo test -p mbu-bench --release --test equiv_differential -- --ignored"]
fn itlb_and_prf_windows_bit_identical_across_three_workloads() {
    // Qsort and sha partitions on these structures exceed the default
    // 4M-class cap (which is what `repro exhaustive` would refuse); the
    // differential is about member invariance, so lift the policy knob.
    let uncapped = ExhaustiveSpec {
        max_classes: u64::MAX,
        ..ExhaustiveSpec::default()
    };
    for workload in [Workload::Stringsearch, Workload::Qsort, Workload::Sha] {
        for component in [HwComponent::ITlb, HwComponent::RegFile] {
            let base = plan(workload, component, uncapped, 0, false);
            let variant = plan(
                workload,
                component,
                ExhaustiveSpec {
                    rep_seed: 0xDEAD_BEEF,
                    snap_align: false,
                    ..uncapped
                },
                3,
                true,
            );
            let cfg = CampaignConfig::new(workload, component, 1);
            let artifacts = Campaign::new(cfg)
                .build_artifacts()
                .expect("golden artifacts");
            let snap_artifacts =
                Campaign::new(CampaignConfig::new(workload, component, 1).use_snapshots(true))
                    .build_artifacts()
                    .expect("snapshot-recording artifacts");
            for range in windows(base.live_classes(), 1000) {
                let reference = base
                    .run_class_range(range.clone(), Some(&artifacts))
                    .expect("reference window");
                let got = variant
                    .run_class_range(range.clone(), Some(&snap_artifacts))
                    .expect("variant window");
                assert_eq!(
                    shared(&reference),
                    shared(&got),
                    "{component}/{workload}: engines diverged on classes {range:?}"
                );
            }
            // Brute-force the head window's small classes end to end.
            let head = windows(base.live_classes(), 1000).remove(0);
            let reps = base
                .run_class_range(head.clone(), Some(&artifacts))
                .expect("head window");
            let mut enumerated = 0usize;
            for (i, rep) in head.clone().zip(&reps) {
                let class = base.live_class(i);
                assert_eq!(class.id, rep.class_id, "live order is dense and sorted");
                if class.weight() > 8 || enumerated == 20 {
                    continue;
                }
                enumerated += 1;
                for cycle in class.start..=class.end {
                    let member = base
                        .probe_member(&class, cycle, Some(&artifacts))
                        .expect("member probe");
                    assert_eq!(
                        (member.effect, member.cycles),
                        (rep.effect, rep.cycles),
                        "{component}/{workload}: class {} member {cycle} diverged",
                        class.id
                    );
                }
            }
            assert!(
                enumerated > 0,
                "{component}/{workload}: no enumerable class in the head window"
            );
        }
    }
}
