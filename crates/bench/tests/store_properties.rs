//! Property tests for checkpoint-store corruption: whatever happens to the
//! bytes — truncation, bit flips, interleaved garbage — loading never
//! panics, never invents rows, and never returns wrong values. Corruption
//! is either quarantined (the lossy loaders) or a typed [`StoreError`].
//!
//! Every property runs over both framed stores, which share one framing
//! layer. The corruption properties load a seeded result store and a
//! seeded worker shard store (whose rows are also what a worker sends its
//! supervisor); the roundtrip property puts arbitrary values in both.

use mbu_bench::store::{ShardExhaustive, ShardStratified};
use mbu_bench::{LoadAudit, ResultStore, ShardRow, ShardStore, StoreError};
use mbu_cpu::HwComponent;
use mbu_gefin::campaign::{AnomalyLog, CampaignResult, UnitSpec};
use mbu_gefin::classify::ClassCounts;
use mbu_gefin::integrity::GoldenFingerprint;
use mbu_workloads::Workload;
use proptest::prelude::*;

/// A fixed nine-campaign store mixing stamped/unstamped fingerprints and
/// present/absent margins, so corruption can land on every field kind.
fn seeded_store() -> ResultStore {
    let mut s = ResultStore::new();
    let combos = [
        (HwComponent::L1D, Workload::Sha),
        (HwComponent::RegFile, Workload::Qsort),
        (HwComponent::DTlb, Workload::Stringsearch),
    ];
    for (i, (c, w)) in combos.into_iter().enumerate() {
        for faults in 1..=3usize {
            let r = CampaignResult {
                component: c,
                workload: w,
                faults,
                counts: ClassCounts {
                    masked: 900 + (i * 37 + faults) as u64,
                    sdc: 40 + i as u64,
                    crash: 30,
                    timeout: 5,
                    assert_: 2,
                },
                fault_free_cycles: 10_000 + i as u64 * 777,
                fault_free_instructions: 9_000 + faults as u64,
                details: None,
                anomalies: AnomalyLog::new(),
                oracle_skips: 0,
                snapshot_stats: None,
                achieved_margin: match faults {
                    2 => None,
                    _ => Some(0.021 + 0.001 * faults as f64),
                },
            };
            let fp = match faults {
                3 => None,
                _ => Some(GoldenFingerprint(
                    0x1234_5678_9ABC_DEF0 ^ ((i as u64) << 8) ^ faults as u64,
                )),
            };
            s.insert_with_fingerprint(r, fp);
        }
    }
    s
}

/// A run-range row of a sha campaign, three quarters of its runs masked.
fn shard_row(component: HwComponent, faults: usize, (start, end): (usize, usize)) -> ShardRow {
    let n = (end - start) as u64;
    ShardRow {
        unit: UnitSpec {
            component,
            workload: Workload::Sha,
            faults,
            start,
            end,
        },
        seed: 0x6EF1_2019,
        counts: ClassCounts {
            masked: n - n / 4,
            sdc: n / 4,
            ..ClassCounts::new()
        },
        fault_free_cycles: 10_000 + end as u64,
        fault_free_instructions: 9_000,
        fingerprint: GoldenFingerprint(0x1234_5678_9ABC_DEF0 ^ faults as u64),
        exhaustive: None,
    }
}

/// A fixed shard store holding run-range, class-range and stratified rows.
fn seeded_shards() -> ShardStore {
    use HwComponent::{DTlb, L1D, L2};
    let class = |mut row: ShardRow, masked, weight_total, pruned, stratified| {
        row.exhaustive = Some(ShardExhaustive {
            weighted: ClassCounts {
                masked,
                sdc: 40,
                crash: 3,
                ..ClassCounts::new()
            },
            weight_total,
            pruned,
            stratified,
        });
        row
    };
    let strat = Some(ShardStratified {
        margin_bits: 0.0271_f64.to_bits(),
        simulated: 321,
    });
    let mut s = ShardStore::new();
    s.push(shard_row(L1D, 2, (0, 40)));
    s.push(shard_row(L1D, 2, (40, 150)));
    for range in [(0, 64), (64, 100)] {
        s.push(class(shard_row(DTlb, 1, range), 400, 5_000, 1_000, None));
    }
    s.push(class(shard_row(L2, 1, (0, 1)), 3_000, 10_000, 6_000, strat));
    s
}

/// One loaded row, by value: a result row with its fingerprint, or a
/// shard row (which carries its own).
#[derive(Debug, PartialEq)]
enum Row {
    Result(CampaignResult, Option<GoldenFingerprint>),
    Shard(ShardRow),
}

/// A result store's rows and fingerprints, by value, in key order.
fn result_rows(s: &ResultStore) -> Vec<Row> {
    s.iter()
        .map(|r| Row::Result(r.clone(), s.fingerprint(r.component, r.workload, r.faults)))
        .collect()
}

/// A shard store's rows, by value, in file order.
fn shard_rows(s: &ShardStore) -> Vec<Row> {
    s.rows().iter().cloned().map(Row::Shard).collect()
}

type Lossy = fn(&str) -> Result<(Vec<Row>, LoadAudit), StoreError>;
type Strict = fn(&str) -> Result<Vec<Row>, StoreError>;

/// A seeded store as the properties see it: its CSV, the rows it was
/// built from, its lossy loader and, where the store has one, its strict
/// loader — both returning the loaded rows by value.
struct Subject {
    csv: String,
    rows: Vec<Row>,
    lossy: Lossy,
    strict: Option<Strict>,
}

fn subjects() -> [Subject; 2] {
    let (results, shards) = (seeded_store(), seeded_shards());
    [
        Subject {
            csv: results.to_csv(),
            rows: result_rows(&results),
            lossy: |csv| ResultStore::from_csv_lossy(csv).map(|(s, a)| (result_rows(&s), a)),
            strict: Some(|csv| ResultStore::from_csv(csv).map(|s| result_rows(&s))),
        },
        Subject {
            csv: shards.to_csv(),
            rows: shard_rows(&shards),
            lossy: |csv| ShardStore::from_csv_lossy(csv).map(|(s, a)| (shard_rows(&s), a)),
            strict: None,
        },
    ]
}

/// Every loaded row must equal one of `original`'s rows: same key,
/// counts, margin and fingerprint. Corruption may *lose* rows, never
/// alter them.
fn assert_subset(loaded: &[Row], original: &[Row]) -> Result<(), proptest::TestCaseError> {
    for row in loaded {
        prop_assert!(
            original.contains(row),
            "row loaded with wrong values: {row:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn truncation_loads_a_prefix_or_fails_typed(cut in any::<prop::sample::Index>()) {
        for s in subjects() {
            let cut = cut.index(s.csv.len() + 1);
            match (s.lossy)(&s.csv[..cut]) {
                // A torn version line means nothing can be trusted; that
                // must surface as the typed refusal, never as guessed rows.
                Err(e) => prop_assert!(
                    matches!(e, StoreError::UnsupportedVersion { .. }),
                    "unexpected error kind: {e}"
                ),
                Ok((loaded, audit)) => {
                    prop_assert!(loaded.len() <= s.rows.len());
                    prop_assert!(
                        audit.quarantined.len() <= 1,
                        "truncation tears at most the final row: {:?}",
                        audit.quarantined
                    );
                    assert_subset(&loaded, &s.rows)?;
                    if cut >= s.csv.len() {
                        prop_assert_eq!(loaded, s.rows);
                    }
                }
            }
        }
    }

    #[test]
    fn single_bit_flips_never_load_wrong_values(
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        for s in subjects() {
            let mut bytes = s.csv.clone().into_bytes();
            let i = pos.index(bytes.len());
            bytes[i] ^= 1 << bit;
            // A non-UTF-8 flip cannot even reach the parser.
            let Ok(flipped) = String::from_utf8(bytes) else {
                continue;
            };
            match (s.lossy)(&flipped) {
                Err(e) => prop_assert!(
                    matches!(e, StoreError::UnsupportedVersion { .. }),
                    "unexpected error kind: {e}"
                ),
                // The flipped row is either quarantined (CRC / syntax) or
                // the flip landed in the version/header framing — in every
                // case no surviving row may differ from the original.
                Ok((loaded, _audit)) => assert_subset(&loaded, &s.rows)?,
            }
            // The strict loader agrees: typed error or unaltered values.
            if let Some(Ok(loaded)) = s.strict.map(|strict| strict(&flipped)) {
                assert_subset(&loaded, &s.rows)?;
            }
        }
    }

    #[test]
    fn garbage_lines_are_quarantined_with_survivors_intact(
        garbage in prop::collection::vec(
            (
                any::<prop::sample::Index>(),
                prop_oneof![
                    Just("!!! not a row at all"),
                    Just("l1d,sha,not,a,valid,row"),
                    // Well-formed bodies, forged checksums.
                    Just("l1d,sha,1,90,5,3,1,1,12345,6789,0.02,0123456789abcdef,00000000"),
                    Just("l1d,sha,1,0,4,3,1,1,1,1,0,100,50,0123456789abcdef,00000000"),
                    Just(",,,,"),
                    Just("l1d,sha,1,90"),
                ],
            ),
            1..4,
        ),
    ) {
        for s in subjects() {
            let mut corrupted: Vec<String> = s.csv.lines().map(str::to_string).collect();
            for (pos, junk) in &garbage {
                // Only past the version + header framing (lines 0 and 1).
                let at = 2 + pos.index(corrupted.len() - 1);
                corrupted.insert(at, (*junk).to_string());
            }
            let corrupted = corrupted.join("\n");
            let (loaded, audit) = (s.lossy)(&corrupted).unwrap();
            prop_assert_eq!(audit.quarantined.len(), garbage.len());
            prop_assert_eq!(audit.rows_loaded, s.rows.len());
            prop_assert_eq!(
                loaded,
                s.rows,
                "survivors reload bit-identically around the garbage"
            );
            // The strict loader refuses the same file with a typed error.
            if let Some(strict) = s.strict.map(|strict| strict(&corrupted)) {
                prop_assert!(
                    matches!(
                        strict,
                        Err(StoreError::Syntax { .. } | StoreError::CrcMismatch { .. })
                    ),
                    "strict load must fail typed: {strict:?}"
                );
            }
        }
    }

    #[test]
    fn arbitrary_stores_roundtrip_bit_identically(
        counts in (0u64..1_000_000, 0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000),
        meta in (1usize..=3, 1u64..10_000_000, 1u64..10_000_000),
        margin in prop_oneof![
            Just(Option::<f64>::None),
            (0.0f64..=1.0).prop_map(Some),
        ],
        fp in prop_oneof![
            Just(Option::<u64>::None),
            any::<u64>().prop_map(Some),
        ],
    ) {
        let (masked, sdc, crash, timeout, assert_) = counts;
        let (faults, cycles, instructions) = meta;
        let mut store = ResultStore::new();
        store.insert_with_fingerprint(
            CampaignResult {
                component: HwComponent::L2,
                workload: Workload::Sha,
                faults,
                counts: ClassCounts { masked, sdc, crash, timeout, assert_ },
                fault_free_cycles: cycles,
                fault_free_instructions: instructions,
                details: None,
                anomalies: AnomalyLog::new(),
                oracle_skips: 0,
                achieved_margin: margin,
                snapshot_stats: None,
            },
            fp.map(GoldenFingerprint),
        );
        let csv = store.to_csv();
        let reloaded = match ResultStore::from_csv(&csv) {
            Ok(s) => s,
            Err(e) => return Err(TestCaseError::Fail(format!("reload failed: {e}"))),
        };
        prop_assert_eq!(reloaded.to_csv(), csv, "canonical serialization");
        assert_subset(&result_rows(&reloaded), &result_rows(&store))?;
        prop_assert_eq!(reloaded.len(), 1);
        // Every shard row flavor carrying the same values is decoded from
        // its line, as loaded or received, to exactly itself.
        for mut row in seeded_shards().rows().iter().cloned() {
            (row.fault_free_cycles, row.fault_free_instructions) = (cycles, instructions);
            row.fingerprint = GoldenFingerprint(fp.unwrap_or_default());
            let strat = row.exhaustive.as_mut().and_then(|ex| ex.stratified.as_mut());
            if let (Some(s), Some(margin)) = (strat, margin) {
                s.margin_bits = margin.to_bits();
            }
            prop_assert_eq!(ShardRow::from_line(&row.to_line()), Ok(row));
        }
    }
}
