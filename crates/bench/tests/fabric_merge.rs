//! Property tests for the distributed-sweep merge: whatever a fleet of
//! unreliable workers leaves in the shard stores — permuted rows,
//! duplicated retries, re-split overlaps, stale fingerprints — the
//! merge is idempotent, order-independent, and never invents or alters
//! coverage. A deterministic engine means any exact cover of `0..runs`
//! must splice to the same campaign result, bit for bit.

use mbu_bench::fabric::merge_rows;
use mbu_bench::store::{ShardExhaustive, ShardStratified};
use mbu_bench::{Experiments, FaultSource, ShardRow, SweepPlan};
use mbu_cpu::HwComponent;
use mbu_gefin::campaign::UnitSpec;
use mbu_gefin::classify::ClassCounts;
use mbu_gefin::integrity::GoldenFingerprint;
use mbu_workloads::Workload;
use proptest::prelude::*;
use std::collections::BTreeMap;

const FP: GoldenFingerprint = GoldenFingerprint(0xFEED_FACE_CAFE_F00D);
const STALE_FP: GoldenFingerprint = GoldenFingerprint(0xDEAD_DEAD_DEAD_DEAD);
const CYCLES: u64 = 123_456;
const INSTRUCTIONS: u64 = 98_765;

fn exp(runs: usize) -> Experiments {
    Experiments {
        runs,
        workloads: vec![Workload::Sha],
        ..Experiments::default()
    }
}

fn key() -> (HwComponent, Workload, usize) {
    (HwComponent::L1D, Workload::Sha, 1)
}

/// The plan of a one-campaign sweep of [`key`] drawn from `source`, whose
/// unit space holds `units` units.
fn plan(source: FaultSource, units: usize) -> SweepPlan {
    SweepPlan::from([(key(), (source, units))])
}

/// The plan of the sampled sweep over [`key`].
fn sampled(exp: &Experiments) -> SweepPlan {
    plan(FaultSource::Sampled, exp.runs)
}

/// The synthetic per-run classification: what a deterministic engine
/// would produce for run `i`. Any range's counts are the sum over its
/// runs, so *every* consistent cover of `0..runs` sums identically.
fn run_class(i: usize) -> ClassCounts {
    let mut c = ClassCounts::new();
    match i % 7 {
        0..=3 => c.masked += 1,
        4 => c.sdc += 1,
        5 => c.crash += 1,
        _ => c.timeout += 1,
    }
    c
}

fn range_counts(start: usize, end: usize) -> ClassCounts {
    let mut total = ClassCounts::new();
    for i in start..end {
        let c = run_class(i);
        total.masked += c.masked;
        total.sdc += c.sdc;
        total.crash += c.crash;
        total.timeout += c.timeout;
        total.assert_ += c.assert_;
    }
    total
}

fn row(exp: &Experiments, start: usize, end: usize, fingerprint: GoldenFingerprint) -> ShardRow {
    let (component, workload, faults) = key();
    ShardRow {
        unit: UnitSpec {
            component,
            workload,
            faults,
            start,
            end,
        },
        seed: exp.seed,
        counts: range_counts(start, end),
        fault_free_cycles: CYCLES,
        fault_free_instructions: INSTRUCTIONS,
        fingerprint,
        exhaustive: None,
    }
}

/// Synthetic class weight for live class `i` — varied so different covers
/// only reconcile if the weighted sums are computed range-exactly.
fn class_weight(i: usize) -> u64 {
    (i % 5) as u64 + 1
}

/// Dead (pruned) population mass of the synthetic exhaustive campaign.
const PRUNED: u64 = 1000;

/// The whole synthetic fault population: live mass + dead mass.
fn ex_population(classes: usize) -> u64 {
    (0..classes).map(class_weight).sum::<u64>() + PRUNED
}

/// One exhaustive shard row covering live classes `start..end`: per-class
/// outcomes from the same deterministic engine, weighted by class weight.
fn ex_row(exp: &Experiments, start: usize, end: usize, classes: usize) -> ShardRow {
    let mut weighted = ClassCounts::new();
    for i in start..end {
        let c = run_class(i);
        weighted.masked += c.masked * class_weight(i);
        weighted.sdc += c.sdc * class_weight(i);
        weighted.crash += c.crash * class_weight(i);
        weighted.timeout += c.timeout * class_weight(i);
        weighted.assert_ += c.assert_ * class_weight(i);
    }
    let mut r = row(exp, start, end, FP);
    r.exhaustive = Some(ShardExhaustive {
        weighted,
        weight_total: ex_population(classes),
        pruned: PRUNED,
        stratified: None,
    });
    r
}

/// An exact exhaustive cover of `0..classes` from sorted cut points.
fn ex_cover(exp: &Experiments, classes: usize, cuts: &[usize]) -> Vec<ShardRow> {
    let mut points: Vec<usize> = cuts.to_vec();
    points.push(0);
    points.push(classes);
    points.sort_unstable();
    points.dedup();
    points
        .windows(2)
        .map(|w| ex_row(exp, w[0], w[1], classes))
        .collect()
}

fn expected() -> BTreeMap<Workload, GoldenFingerprint> {
    let mut m = BTreeMap::new();
    m.insert(Workload::Sha, FP);
    m
}

/// An exact cover of `0..runs` from sorted cut points.
fn cover(exp: &Experiments, cuts: &[usize]) -> Vec<ShardRow> {
    let mut bounds = vec![0];
    bounds.extend(cuts.iter().copied());
    bounds.push(exp.runs);
    bounds.sort_unstable();
    bounds.dedup();
    bounds
        .windows(2)
        .filter(|w| w[0] < w[1])
        .map(|w| row(exp, w[0], w[1], FP))
        .collect()
}

/// Deterministic in-place shuffle from a seed (the shim has no shuffle
/// strategy; order-independence is the property under test, so the
/// permutation itself need not shrink well).
fn shuffle<T>(rows: &mut [T], mut seed: u64) {
    for i in (1..rows.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        rows.swap(i, (seed >> 33) as usize % (i + 1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Merging any permutation of any exact cover — with retries
    /// (duplicate rows) and a unit also run split in two (a row plus its
    /// two halves, as a resumed sweep with another worker count can leave)
    /// layered on top — produces the same complete campaign as the
    /// whole-range single row, and merging the merge's input again changes
    /// nothing.
    #[test]
    fn merge_is_order_independent_and_idempotent(
        runs in 4usize..48,
        raw_cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..6),
        dup in any::<prop::sample::Index>(),
        split in any::<prop::sample::Index>(),
        perm in any::<u64>(),
    ) {
        let e = exp(runs);
        let cuts: Vec<usize> = raw_cuts.iter().map(|c| 1 + c.index(runs - 1)).collect();
        let mut rows = cover(&e, &cuts);
        // A retry re-executed one unit verbatim.
        rows.push(rows[dup.index(rows.len())].clone());
        // One unit was also run split in two: its full row *and* both
        // halves exist.
        let victim = rows[split.index(rows.len())].unit;
        if victim.len() >= 2 {
            let mid = victim.start + victim.len() / 2;
            rows.push(row(&e, victim.start, mid, FP));
            rows.push(row(&e, mid, victim.end, FP));
        }
        shuffle(&mut rows, perm);

        let reference = merge_rows(&e, &sampled(&e), &[row(&e, 0, runs, FP)], &expected());
        let (store, report) = merge_rows(&e, &sampled(&e), &rows, &expected());
        prop_assert!(report.is_complete(), "gaps from an exact cover: {:?}", report.gaps);
        prop_assert_eq!(report.campaigns_merged, 1);
        prop_assert_eq!(report.stale_dropped, 0);
        prop_assert_eq!(
            store.to_csv(),
            reference.0.to_csv(),
            "cover {:?} merged differently from the whole-range row",
            cuts
        );

        // Idempotence: a second merge of the same shard rows (as after a
        // supervisor crash + restart) is bit-identical.
        let (again, report_again) = merge_rows(&e, &sampled(&e), &rows, &expected());
        prop_assert_eq!(again.to_csv(), store.to_csv());
        prop_assert_eq!(report_again, report);

        // Order-independence of the *report*, not just the store: the
        // same rows in a different order account identically.
        let mut reshuffled = rows.clone();
        shuffle(&mut reshuffled, perm.wrapping_add(1));
        let (other, other_report) = merge_rows(&e, &sampled(&e), &reshuffled, &expected());
        prop_assert_eq!(other.to_csv(), store.to_csv());
        prop_assert_eq!(other_report, report);
    }

    /// Rows stamped with a stale golden-run fingerprint or a foreign seed
    /// are never merged: their ranges stay gaps (the re-run plan), and
    /// they can never displace fresh rows covering the same range.
    #[test]
    fn stale_rows_are_rerun_not_merged(
        runs in 4usize..48,
        cut in any::<prop::sample::Index>(),
        wrong_seed in any::<bool>(),
        perm in any::<u64>(),
    ) {
        let e = exp(runs);
        let mid = 1 + cut.index(runs - 1);
        // Fresh head, stale tail: only the head may merge.
        let mut tail = row(&e, mid, runs, STALE_FP);
        if wrong_seed {
            tail.fingerprint = FP;
            tail.seed = e.seed ^ 0x5A5A;
        }
        let mut rows = vec![row(&e, 0, mid, FP), tail];
        shuffle(&mut rows, perm);
        let (store, report) = merge_rows(&e, &sampled(&e), &rows, &expected());
        prop_assert_eq!(store.len(), 0, "partial campaign must not merge");
        prop_assert_eq!(report.stale_dropped, 1);
        prop_assert_eq!(report.campaigns_merged, 0);
        prop_assert_eq!(
            report.gaps,
            vec![UnitSpec { start: mid, end: runs, ..rows[0].unit }],
            "the stale range, exactly, is the resume plan"
        );

        // A stale row covering the *whole* campaign alongside a fresh
        // exact cover changes nothing.
        let mut rows = cover(&e, &[mid]);
        rows.push(row(&e, 0, runs, STALE_FP));
        shuffle(&mut rows, perm.wrapping_add(7));
        let reference = merge_rows(&e, &sampled(&e), &[row(&e, 0, runs, FP)], &expected());
        let (store, report) = merge_rows(&e, &sampled(&e), &rows, &expected());
        prop_assert_eq!(report.stale_dropped, 1);
        prop_assert!(report.is_complete());
        prop_assert_eq!(store.to_csv(), reference.0.to_csv());
    }

    /// Shard-store round-trip composes with the merge: writing rows to
    /// CSV, reading them back, and merging equals merging the originals.
    #[test]
    fn merge_survives_store_round_trip(
        runs in 4usize..32,
        raw_cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..4),
        perm in any::<u64>(),
    ) {
        let e = exp(runs);
        let cuts: Vec<usize> = raw_cuts.iter().map(|c| 1 + c.index(runs - 1)).collect();
        let mut rows = cover(&e, &cuts);
        shuffle(&mut rows, perm);
        let mut shard = mbu_bench::ShardStore::new();
        for r in &rows {
            shard.push(r.clone());
        }
        let (reloaded, audit) = mbu_bench::ShardStore::from_csv_lossy(&shard.to_csv())
            .expect("round-trip parses");
        prop_assert!(audit.quarantined.is_empty());
        let (direct, _) = merge_rows(&e, &sampled(&e), &rows, &expected());
        let (via_csv, _) = merge_rows(&e, &sampled(&e), reloaded.rows(), &expected());
        prop_assert_eq!(via_csv.to_csv(), direct.to_csv());
    }

    /// Exhaustive-flavor merge: any exact cover of the live-class space
    /// splices to the same weighted, margin-0, meta-annotated campaign as
    /// the whole-range row, independent of row order.
    #[test]
    fn exhaustive_cover_merges_weighted_and_annotated(
        classes in 4usize..40,
        raw_cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..5),
        perm in any::<u64>(),
    ) {
        let e = exp(classes);
        let cuts: Vec<usize> = raw_cuts.iter().map(|c| 1 + c.index(classes - 1)).collect();
        let mut rows = ex_cover(&e, classes, &cuts);
        shuffle(&mut rows, perm);
        let totals = plan(FaultSource::Exhaustive, classes);
        let reference = merge_rows(
            &e, &totals, &[ex_row(&e, 0, classes, classes)], &expected(),
        );
        let (store, report) = merge_rows(&e, &totals, &rows, &expected());
        prop_assert!(report.is_complete(), "gaps from an exact cover: {:?}", report.gaps);
        prop_assert_eq!(report.campaigns_merged, 1);
        prop_assert_eq!(store.to_csv(), reference.0.to_csv());
        let (c, w, f) = key();
        let merged = store.get(c, w, f).expect("merged campaign");
        // Weighted cover + pruned dead mass == the whole population,
        // margin exactly 0, meta carried through.
        prop_assert_eq!(merged.achieved_margin, Some(0.0));
        prop_assert_eq!(merged.counts.total(), ex_population(classes));
        let meta = store.exhaustive_meta(c, w, f).expect("annotation survives merge");
        prop_assert_eq!(meta.classes, classes as u64);
        prop_assert_eq!(meta.weight, ex_population(classes));
    }

    /// Class rows disagreeing on the population are conflicts, never
    /// merged: the whole campaign becomes a gap so it re-runs cleanly.
    #[test]
    fn disagreeing_exhaustive_rows_conflict(
        classes in 4usize..40,
        cut in any::<prop::sample::Index>(),
        perm in any::<u64>(),
    ) {
        let e = exp(classes);
        let mid = 1 + cut.index(classes - 1);
        let mut tail = ex_row(&e, mid, classes, classes);
        tail.exhaustive.as_mut().unwrap().weight_total += 1;
        let mut rows = vec![ex_row(&e, 0, mid, classes), tail];
        shuffle(&mut rows, perm);
        let (store, report) =
            merge_rows(&e, &plan(FaultSource::Exhaustive, classes), &rows, &expected());
        prop_assert_eq!(store.len(), 0, "conflicting populations must not merge");
        prop_assert_eq!(report.campaigns_merged, 0);
        prop_assert!(report.conflicts_dropped > 0);
        prop_assert_eq!(
            report.gaps,
            vec![UnitSpec { start: 0, end: classes, ..rows[0].unit }],
            "the whole campaign is the re-run plan"
        );
    }

    /// One shard directory shared by every kind of sweep: a sampled
    /// sweep's run-range rows, an exhaustive sweep's class-range rows and
    /// a stratified row, all for the same `(component, workload, 1)` key
    /// and mixed in any order, merge under each sweep's plan exactly as
    /// that sweep's rows alone. The other sweeps' rows belong to other
    /// campaigns: they raise no conflict, leave no gap and count nowhere.
    #[test]
    fn mixed_flavour_rows_merge_as_each_sweeps_rows_alone(
        runs in 4usize..48,
        classes in 4usize..40,
        run_cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..5),
        class_cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..5),
        perm in any::<u64>(),
    ) {
        let e = exp(runs);
        let cuts = |raw: &[prop::sample::Index], n: usize| -> Vec<usize> {
            raw.iter().map(|c| 1 + c.index(n - 1)).collect()
        };
        let run_rows = cover(&e, &cuts(&run_cuts, runs));
        let class_rows = ex_cover(&e, classes, &cuts(&class_cuts, classes));
        let mut strat_row = row(&e, 0, 1, FP);
        strat_row.counts = range_counts(0, 1);
        strat_row.exhaustive = Some(ShardExhaustive {
            weighted: ClassCounts { masked: 60, sdc: 40, ..ClassCounts::new() },
            weight_total: 100 + PRUNED,
            pruned: PRUNED,
            stratified: Some(ShardStratified {
                margin_bits: 0.025_f64.to_bits(),
                simulated: 37,
            }),
        });
        let mut mixed: Vec<ShardRow> = run_rows
            .iter()
            .chain(&class_rows)
            .cloned()
            .chain([strat_row.clone()])
            .collect();
        shuffle(&mut mixed, perm);
        let sweeps = [
            (sampled(&e), run_rows),
            (plan(FaultSource::Exhaustive, classes), class_rows),
            (plan(FaultSource::Stratified, 1), vec![strat_row]),
        ];
        for (sweep, alone) in &sweeps {
            let (reference, reference_report) = merge_rows(&e, sweep, alone, &expected());
            let (store, report) = merge_rows(&e, sweep, &mixed, &expected());
            prop_assert!(report.is_complete(), "gaps: {:?}", report.gaps);
            prop_assert_eq!(report.conflicts_dropped, 0);
            prop_assert_eq!(report.campaigns_merged, 1);
            prop_assert_eq!(store.to_csv(), reference.to_csv());
            prop_assert_eq!(report, reference_report);
        }
    }
}
