//! Distributed-sweep fabric: the shard planner, the worker execution loop,
//! and the crash-consistent shard merge.
//!
//! A sweep decomposes into [`UnitSpec`] work units — contiguous run-ranges
//! of (component × workload × cardinality) campaigns. Per-run seeds derive
//! from the campaign seed and the absolute run index alone
//! ([`mbu_gefin::campaign::derive_run_seed`]), so the class counts of any
//! disjoint cover of `0..runs` sum to exactly the full campaign's counts,
//! and the campaign's error margin is a pure function of the summed counts
//! ([`campaign_margin`]). That is the whole trick: workers execute ranges
//! independently and persist [`ShardRow`]s; [`merge_rows`] splices ranges
//! back into campaigns and lands on a [`ResultStore`] *byte-identical* to a
//! single-process sweep.
//!
//! Equivalence-class campaigns shard the same way, but a unit's range
//! indexes *live classes* of the deterministic [`ExhaustivePlan`] instead
//! of runs: each class is simulated once regardless of which worker owns
//! it, so any disjoint cover of `0..live_classes` reproduces the
//! single-process exhaustive sweep exactly, outcome for outcome. Such
//! rows carry a [`ShardExhaustive`] annotation (class-weighted counts,
//! campaign-wide population and pruned mass); stratified big-array
//! campaigns ride as one whole-campaign unit annotated with
//! [`ShardStratified`]. The flavor-aware merge reconciles annotations
//! across rows — disagreeing totals or mixed flavors are conflicts — and
//! re-derives the exhaustive store entry (weighted counts, margin,
//! metadata) bit-identically to `repro exhaustive` in one process.
//!
//! The merge trusts nothing:
//!
//! * rows ride in checksummed shard CSVs; torn/corrupt rows were already
//!   quarantined by [`ShardStore::recover_with`];
//! * a row whose seed or golden-run fingerprint does not match the current
//!   sweep is *stale* — dropped and re-run, never merged;
//! * duplicated work (retry after a lost worker, work-stealing overlap) is
//!   deduplicated by greedy exact-adjacency splicing: at each point only a
//!   row starting exactly at the covered frontier extends the cover;
//!   fully-covered duplicates and misaligned overlaps are dropped and
//!   counted;
//! * rows that should be identical but disagree (same range, different
//!   counts — engine nondeterminism or undetected corruption) are dropped
//!   as *conflicts*, leaving a gap that forces a re-run;
//! * whatever remains uncovered is reported as precise gap units, so a
//!   resumed sweep re-runs exactly the missing runs and nothing else.

use crate::chaos::WorkerChaos;
use crate::io::{RealIo, StoreIo};
use crate::protocol::{read_frame, write_frame, EquivSpec, ProtocolError, ToSupervisor, ToWorker};
use crate::store::{
    Key, ResultStore, ShardExhaustive, ShardLoadAudit, ShardRow, ShardStore, ShardStratified,
    StoreError,
};
use crate::Experiments;
use mbu_cpu::HwComponent;
use mbu_gefin::campaign::{campaign_margin, Campaign, UnitSpec};
use mbu_gefin::classify::ClassCounts;
use mbu_gefin::error::CampaignError;
use mbu_gefin::exhaustive::{ExhaustivePlan, ExhaustiveSpec};
use mbu_gefin::integrity::{golden_fingerprint, GoldenFingerprint};
use mbu_gefin::stats::Z_99;
use mbu_gefin::GoldenArtifacts;
use mbu_workloads::Workload;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Every campaign key of a sweep over `components`, in the same order the
/// single-process driver visits them (cardinalities `1..=max_cardinality`,
/// mirrored from [`Experiments::run_sweep`]).
pub fn campaign_keys(exp: &Experiments, components: &[HwComponent]) -> Vec<Key> {
    let mut keys = Vec::new();
    for &component in components {
        for &workload in &exp.workloads {
            for faults in exp.cardinalities() {
                keys.push((component, workload, faults));
            }
        }
    }
    keys
}

/// Splits the run-range `[start, end)` of one campaign into units of at
/// most `unit_runs` runs (`0` = no splitting). Adaptive campaigns are
/// never split — early stopping depends on the global run order — so
/// callers pass `unit_runs = 0` for them.
pub fn split_range(key: Key, start: usize, end: usize, unit_runs: usize) -> Vec<UnitSpec> {
    let (component, workload, faults) = key;
    let step = if unit_runs == 0 {
        end.saturating_sub(start).max(1)
    } else {
        unit_runs
    };
    let mut units = Vec::new();
    let mut at = start;
    while at < end {
        let stop = (at + step).min(end);
        units.push(UnitSpec {
            component,
            workload,
            faults,
            start: at,
            end: stop,
        });
        at = stop;
    }
    units
}

/// Plans a full sweep as work units: every campaign of
/// [`campaign_keys`], each split into run-ranges of at most `unit_runs`
/// runs (`0`, or an adaptive sweep, = one whole-campaign unit each).
pub fn plan_units(
    exp: &Experiments,
    components: &[HwComponent],
    unit_runs: usize,
) -> Vec<UnitSpec> {
    let split = if exp.adaptive.is_some() { 0 } else { unit_runs };
    campaign_keys(exp, components)
        .into_iter()
        .flat_map(|key| split_range(key, 0, exp.runs, split))
        .collect()
}

/// What [`merge_rows`] did, campaign by campaign and row by row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergeReport {
    /// Campaigns fully covered and merged into the result store.
    pub campaigns_merged: usize,
    /// Rows whose counts entered a merged campaign.
    pub rows_merged: usize,
    /// Exact re-executions of already-covered ranges (retry or steal
    /// overlap), dropped.
    pub duplicates_dropped: usize,
    /// Rows overlapping the covered frontier without aligning to it;
    /// counts cannot be spliced mid-range, so they are dropped.
    pub overlaps_dropped: usize,
    /// Rows from a different seed or a stale golden-run fingerprint —
    /// their runs are re-run, never merged.
    pub stale_dropped: usize,
    /// Rows that contradict an equally-valid sibling (same range,
    /// different counts or golden counters): engine nondeterminism or
    /// undetected corruption. Dropped; their range re-runs.
    pub conflicts_dropped: usize,
    /// Precisely the uncovered run-ranges — the resume plan. Empty iff
    /// every plannable campaign merged.
    pub gaps: Vec<UnitSpec>,
}

impl MergeReport {
    /// Whether every campaign merged with nothing left to re-run.
    pub fn is_complete(&self) -> bool {
        self.gaps.is_empty()
    }
}

fn add_counts(into: &mut ClassCounts, from: &ClassCounts) {
    into.masked += from.masked;
    into.sdc += from.sdc;
    into.crash += from.crash;
    into.timeout += from.timeout;
    into.assert_ += from.assert_;
}

/// A deterministic total order on rows of one campaign: by range start,
/// then *longer ranges first* (a straggler's full-range row beats the
/// stolen tail's sub-ranges), then by payload so ties never depend on
/// input order.
fn row_order(a: &ShardRow, b: &ShardRow) -> std::cmp::Ordering {
    (a.unit.start, std::cmp::Reverse(a.unit.end))
        .cmp(&(b.unit.start, std::cmp::Reverse(b.unit.end)))
        .then_with(|| {
            let payload = |r: &ShardRow| {
                (
                    r.counts.masked,
                    r.counts.sdc,
                    r.counts.crash,
                    r.counts.timeout,
                    r.counts.assert_,
                    r.fault_free_cycles,
                    r.fault_free_instructions,
                    r.exhaustive.map(|ex| {
                        (
                            ex.weighted.masked,
                            ex.weighted.sdc,
                            ex.weighted.crash,
                            ex.weighted.timeout,
                            ex.weighted.assert_,
                            ex.weight_total,
                            ex.pruned,
                            ex.stratified.map(|s| (s.margin_bits, s.simulated)),
                        )
                    }),
                )
            };
            payload(a).cmp(&payload(b))
        })
}

/// Merges shard rows into a [`ResultStore`], campaign by campaign over
/// `campaigns`. Input row order never matters: rows are canonically
/// sorted per campaign before splicing, so the merge is idempotent and
/// order-independent (the property tests hold it to that).
///
/// `expected` maps each workload to the golden-run fingerprint of the
/// *current* build/configuration; rows stamped differently are stale.
/// Campaigns whose workload has no entry (their golden run failed) are
/// skipped entirely — they cannot be run, so they are not gaps either.
pub fn merge_rows(
    exp: &Experiments,
    campaigns: &[Key],
    rows: &[ShardRow],
    expected: &BTreeMap<Workload, GoldenFingerprint>,
) -> (ResultStore, MergeReport) {
    let with_totals: Vec<(Key, usize)> = campaigns.iter().map(|&k| (k, exp.runs)).collect();
    merge_rows_with_totals(exp, &with_totals, rows, expected)
}

/// [`merge_rows`] with an explicit per-campaign unit total — the shape
/// exhaustive sweeps need, where each campaign's unit space is its own
/// live-class count rather than the sweep-wide `runs`. The merge is
/// flavor-aware: a campaign whose rows carry [`ShardExhaustive`] columns
/// finalizes by summing the *weighted* counts, crediting the pruned dead
/// mass as `Masked` once, and stamping the result with margin 0 and an
/// [`crate::store::ExhaustiveMeta`] annotation; rows that disagree on the
/// population or mix flavors are conflicts, never merged.
pub fn merge_rows_with_totals(
    exp: &Experiments,
    campaigns: &[(Key, usize)],
    rows: &[ShardRow],
    expected: &BTreeMap<Workload, GoldenFingerprint>,
) -> (ResultStore, MergeReport) {
    let mut report = MergeReport::default();
    let mut by_campaign: BTreeMap<Key, Vec<ShardRow>> = BTreeMap::new();
    let totals: BTreeMap<Key, usize> = campaigns.iter().copied().collect();
    for row in rows {
        let key = row.unit.campaign_key();
        let Some(&total) = totals.get(&key) else {
            // A row for a campaign outside this sweep (e.g. a narrower
            // resume) is simply not merged — not an error, not a gap.
            continue;
        };
        let fresh = row.seed == exp.seed
            && expected.get(&row.unit.workload) == Some(&row.fingerprint)
            && row.unit.end <= total;
        if !fresh {
            report.stale_dropped += 1;
            continue;
        }
        by_campaign.entry(key).or_default().push(row.clone());
    }
    let mut store = ResultStore::new();
    for &(key, total) in campaigns {
        let (component, workload, faults) = key;
        let Some(&fingerprint) = expected.get(&workload) else {
            continue;
        };
        let mut rows = by_campaign.remove(&key).unwrap_or_default();
        rows.sort_by(row_order);
        let before = rows.len();
        rows.dedup();
        report.duplicates_dropped += before - rows.len();
        // One flavor per campaign: exhaustive iff every row agrees on the
        // annotation's campaign-wide constants. A mixed set cannot be
        // spliced into either kind of result.
        let exhaustive = rows.first().and_then(|r| r.exhaustive).and_then(|first| {
            rows.iter()
                .all(|r| {
                    r.exhaustive.is_some_and(|ex| {
                        (ex.weight_total, ex.pruned, ex.stratified)
                            == (first.weight_total, first.pruned, first.stratified)
                    })
                })
                .then_some(first)
        });
        let mixed = rows.iter().any(|r| r.exhaustive.is_some()) && exhaustive.is_none();
        if mixed {
            report.conflicts_dropped += rows.len();
            report.gaps.push(UnitSpec {
                component,
                workload,
                faults,
                start: 0,
                end: total,
            });
            continue;
        }
        // Greedy exact-adjacency splice: only a row starting exactly at
        // the covered frontier extends the cover.
        let mut covered = 0usize;
        let mut counts = ClassCounts::new();
        let mut weighted = ClassCounts::new();
        let mut golden: Option<(u64, u64)> = None;
        let mut merged_rows = 0usize;
        let mut gaps: Vec<(usize, usize)> = Vec::new();
        let adaptive = exp.adaptive.is_some() && exhaustive.is_none();
        for row in &rows {
            if adaptive && covered > 0 {
                // Adaptive campaigns are one row; a deterministic engine
                // re-runs them to the identical stopping point, so a
                // differing second row is a conflict, an identical one a
                // duplicate (caught by dedup above).
                report.conflicts_dropped += 1;
                continue;
            }
            if row.unit.end <= covered {
                report.duplicates_dropped += 1;
                continue;
            }
            if row.unit.start < covered {
                report.overlaps_dropped += 1;
                continue;
            }
            if row.unit.start > covered {
                if adaptive {
                    // Split adaptive rows cannot exist legitimately.
                    report.overlaps_dropped += 1;
                    continue;
                }
                gaps.push((covered, row.unit.start));
            }
            if let Some(g) = golden {
                if g != (row.fault_free_cycles, row.fault_free_instructions) {
                    report.conflicts_dropped += 1;
                    continue;
                }
            }
            if rows.iter().any(|other| {
                other.unit == row.unit
                    && (other.counts != row.counts || other.exhaustive != row.exhaustive)
            }) {
                // Same range, different classifications: neither copy can
                // be trusted. Leave the range uncovered so it re-runs.
                report.conflicts_dropped += 1;
                continue;
            }
            golden = Some((row.fault_free_cycles, row.fault_free_instructions));
            add_counts(&mut counts, &row.counts);
            if let Some(ex) = &row.exhaustive {
                add_counts(&mut weighted, &ex.weighted);
            }
            covered = row.unit.end;
            merged_rows += 1;
        }
        // An adaptive campaign is complete at its own stopping point; a
        // fixed or exhaustive campaign only at its full unit count.
        let complete = if adaptive {
            merged_rows == 1
        } else {
            covered == total && gaps.is_empty()
        };
        // An exhaustive cover must also reconcile exactly with the
        // population: live mass + dead mass == bits × cycles.
        let reconciled = exhaustive
            .is_none_or(|ex| weighted.total().checked_add(ex.pruned) == Some(ex.weight_total));
        if !complete || !reconciled {
            if !reconciled {
                report.conflicts_dropped += merged_rows;
                gaps = vec![(0, total)];
            } else {
                if covered < total && !adaptive {
                    gaps.push((covered, total));
                }
                if adaptive || gaps.is_empty() {
                    gaps = vec![(0, total)];
                }
            }
            for (start, end) in gaps {
                report.gaps.push(UnitSpec {
                    component,
                    workload,
                    faults,
                    start,
                    end,
                });
            }
            continue;
        }
        let (cycles, instructions) = golden.expect("complete cover has at least one row");
        let result = match exhaustive {
            Some(ex) => {
                // Full class cover: weighted outcomes plus the pruned dead
                // mass, credited Masked once. Margin is exactly 0 — every
                // fault site of the population is classified — except for
                // whole-campaign stratified rows, which carry the sampler's
                // achieved margin through bit-exactly.
                let mut final_counts = weighted;
                final_counts.record_weighted(mbu_gefin::FaultEffect::Masked, ex.pruned);
                mbu_gefin::campaign::CampaignResult {
                    workload,
                    component,
                    faults,
                    counts: final_counts,
                    fault_free_cycles: cycles,
                    fault_free_instructions: instructions,
                    details: None,
                    anomalies: mbu_gefin::campaign::AnomalyLog::new(),
                    oracle_skips: 0,
                    achieved_margin: Some(ex.stratified.map_or(0.0, |s| s.margin())),
                    snapshot_stats: None,
                }
            }
            None => {
                let z = exp.adaptive.as_ref().map(|a| a.z).unwrap_or(Z_99);
                mbu_gefin::campaign::CampaignResult {
                    workload,
                    component,
                    faults,
                    counts,
                    fault_free_cycles: cycles,
                    fault_free_instructions: instructions,
                    details: None,
                    anomalies: mbu_gefin::campaign::AnomalyLog::new(),
                    oracle_skips: 0,
                    achieved_margin: campaign_margin(component, &counts, cycles, z).ok(),
                    snapshot_stats: None,
                }
            }
        };
        match exhaustive {
            Some(ex) => store.insert_exhaustive(
                result,
                crate::store::ExhaustiveMeta {
                    // Exhaustive campaigns shard over live classes, so the
                    // unit total *is* the simulated-class census; stratified
                    // rows are one synthetic unit and carry theirs along.
                    classes: ex.stratified.map_or(total as u64, |s| s.simulated),
                    weight: ex.weight_total,
                },
                Some(fingerprint),
            ),
            None => store.insert_with_fingerprint(result, Some(fingerprint)),
        }
        report.campaigns_merged += 1;
        report.rows_merged += merged_rows;
    }
    (store, report)
}

/// The shard files of `dir`, sorted by name for determinism: every
/// regular `*.csv` file (quarantine sidecars and other extensions are
/// skipped).
///
/// # Errors
///
/// Propagates directory-read errors; a missing directory yields an empty
/// list (a fresh sweep has no shards yet).
pub fn shard_files(dir: &Path) -> Result<Vec<PathBuf>, std::io::Error> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "csv"))
        .collect();
    files.sort();
    Ok(files)
}

/// What [`load_shard_dir`] found: every intact row across the directory,
/// plus the per-file recovery audit.
pub type ShardDirLoad = (Vec<ShardRow>, Vec<(PathBuf, ShardLoadAudit)>);

/// Loads every shard store of `dir` crash-safely (defective rows
/// quarantined to sidecars, files rewritten clean) and concatenates their
/// rows. A shard file that is not a shard store at all (wrong version
/// line) is skipped with its audit reporting zero rows — its worker wrote
/// garbage, and the merge's gap detection re-runs whatever it covered.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn load_shard_dir(io: &dyn StoreIo, dir: &Path) -> Result<ShardDirLoad, StoreError> {
    let mut rows = Vec::new();
    let mut audits = Vec::new();
    for path in shard_files(dir)? {
        match ShardStore::recover_with(io, &path) {
            Ok((store, audit)) => {
                rows.extend(store.rows().iter().cloned());
                audits.push((path, audit));
            }
            Err(StoreError::UnsupportedVersion { found }) => {
                audits.push((
                    path,
                    ShardLoadAudit {
                        rows_loaded: 0,
                        quarantined: vec![crate::store::QuarantinedRow {
                            line: 1,
                            raw: found,
                            defect: crate::store::RowDefect::Syntax {
                                message: "not a shard store (bad version line)".into(),
                            },
                        }],
                    },
                ));
            }
            Err(e) => return Err(e),
        }
    }
    Ok((rows, audits))
}

/// One shard file's pre-merge audit (the `repro verify-store --shards`
/// view): CRC results from loading plus per-row fingerprint freshness
/// against the current build.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardAudit {
    /// The shard file.
    pub path: PathBuf,
    /// Intact rows.
    pub rows: usize,
    /// Rows failing CRC or syntax checks.
    pub quarantined: usize,
    /// Intact rows whose seed and golden-run fingerprint match the
    /// current configuration.
    pub fresh: usize,
    /// Intact rows that would be dropped as stale at merge.
    pub stale: usize,
    /// Intact rows carrying class-range (exhaustive or stratified)
    /// annotations.
    pub exhaustive: usize,
    /// Campaigns inside this shard whose class-range annotations fail
    /// reconciliation: rows mixing run-range and class-range flavors,
    /// disagreeing on the campaign-wide population or pruned mass, class
    /// weights exceeding the campaign's live mass, or stratified rows not
    /// covering it exactly. The merge would reject these, so they count
    /// as defects.
    pub weight_defects: usize,
}

/// Audits every shard store of `dir` *read-only* (no sidecars written, no
/// rewrites): per-file CRC and fingerprint status against the current
/// build's golden runs.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn audit_shard_dir(exp: &Experiments, dir: &Path) -> Result<Vec<ShardAudit>, StoreError> {
    let mut expected: BTreeMap<Workload, Option<GoldenFingerprint>> = BTreeMap::new();
    let mut audits = Vec::new();
    for path in shard_files(dir)? {
        let text = RealIo.read_to_string(&path)?;
        let (store, load) = match ShardStore::from_csv_lossy(&text) {
            Ok(pair) => pair,
            Err(StoreError::UnsupportedVersion { .. }) => {
                audits.push(ShardAudit {
                    path,
                    rows: 0,
                    quarantined: 1,
                    fresh: 0,
                    stale: 0,
                    exhaustive: 0,
                    weight_defects: 0,
                });
                continue;
            }
            Err(e) => return Err(e),
        };
        let mut audit = ShardAudit {
            path,
            rows: load.rows_loaded,
            quarantined: load.quarantined.len(),
            fresh: 0,
            stale: 0,
            exhaustive: 0,
            weight_defects: 0,
        };
        for row in store.rows() {
            let current = expected
                .entry(row.unit.workload)
                .or_insert_with(|| golden_fingerprint(exp.core, row.unit.workload).ok());
            let fresh = row.seed == exp.seed && current.as_ref() == Some(&row.fingerprint);
            if fresh {
                audit.fresh += 1;
            } else {
                audit.stale += 1;
            }
        }
        reconcile_exhaustive(store.rows(), &mut audit);
        audits.push(audit);
    }
    Ok(audits)
}

/// Class-range reconciliation for one shard store: within every campaign,
/// annotated rows must agree on the campaign-wide population and pruned
/// mass, never mix with run-range rows, and their per-class weights must
/// fit inside the campaign's live mass (a stratified annotation covers it
/// exactly; exhaustive ranges, possibly partial in this shard, at most).
fn reconcile_exhaustive(rows: &[ShardRow], audit: &mut ShardAudit) {
    let mut groups: BTreeMap<(HwComponent, Workload), Vec<&ShardRow>> = BTreeMap::new();
    for row in rows {
        groups
            .entry((row.unit.component, row.unit.workload))
            .or_default()
            .push(row);
    }
    for campaign in groups.values() {
        let annotated: Vec<_> = campaign
            .iter()
            .filter_map(|r| r.exhaustive.as_ref())
            .collect();
        if annotated.is_empty() {
            continue;
        }
        audit.exhaustive += annotated.len();
        let first = annotated[0];
        let agree = annotated.len() == campaign.len()
            && annotated.iter().all(|ex| {
                ex.weight_total == first.weight_total
                    && ex.pruned == first.pruned
                    && ex.stratified.is_some() == first.stratified.is_some()
            });
        let live = first.weight_total.saturating_sub(first.pruned);
        let covered = if first.stratified.is_some() {
            annotated.iter().all(|ex| ex.weighted.total() == live)
        } else {
            annotated.iter().map(|ex| ex.weighted.total()).sum::<u64>() <= live
        };
        if !agree || !covered {
            audit.weight_defects += 1;
        }
    }
}

/// Rebuilds an [`Experiments`] from the wire [`crate::protocol::ExpSpec`]
/// for one workload — the worker-side mirror of the supervisor's
/// configuration. The core configuration is the shared default; drift is
/// caught by fingerprint verification at merge.
pub fn spec_experiments(spec: &crate::protocol::ExpSpec, workload: Workload) -> Experiments {
    Experiments {
        runs: spec.runs,
        seed: spec.seed,
        threads: spec.threads,
        workloads: vec![workload],
        adaptive: spec.adaptive,
        use_snapshots: spec.use_snapshots,
        snapshot_interval: spec.snapshot_interval,
        snapshot_mem_mb: spec.snapshot_mem_mb,
        ..Experiments::default()
    }
}

/// The in-flight unit a worker's heartbeat reports: (unit id,
/// runs-started counter), shared with the control loop.
type Pulse = Mutex<Option<(u64, Arc<AtomicUsize>)>>;

type ArtifactKey = (Workload, bool, Option<u64>, Option<u64>);
type ArtifactCache = BTreeMap<ArtifactKey, Result<Arc<GoldenArtifacts>, CampaignError>>;

/// One compiled [`ExhaustivePlan`] per (campaign, snapshot knobs, equiv
/// spec) per worker process: the golden + liveness capture and the
/// partition are paid once, then every class-range unit of the campaign
/// reuses them.
type PlanKey = (
    HwComponent,
    Workload,
    ExhaustiveSpec,
    bool,
    Option<u64>,
    Option<u64>,
);
type PlanCache = BTreeMap<PlanKey, Result<Arc<ExhaustivePlan>, CampaignError>>;

/// Executes one assigned unit and returns the shard row to persist plus
/// the campaign's anomaly count.
fn run_unit(
    exp: &Experiments,
    unit: &UnitSpec,
    equiv: Option<&EquivSpec>,
    artifacts: &mut ArtifactCache,
    plans: &mut PlanCache,
    chaos: &Arc<WorkerChaos>,
    progress: &Arc<AtomicUsize>,
) -> Result<(ShardRow, usize), CampaignError> {
    if let Some(eq) = equiv {
        return run_equiv_unit(exp, unit, eq, artifacts, plans, chaos, progress);
    }
    let chaos = Arc::clone(chaos);
    let started = Arc::clone(progress);
    let cfg = exp
        .campaign_config(unit.component, unit.workload, unit.faults)
        .with_run_hook(move |_| {
            chaos.on_run();
            started.fetch_add(1, Ordering::Relaxed);
        });
    let campaign = Campaign::try_new(cfg)?;
    let key = (
        unit.workload,
        exp.use_snapshots,
        exp.snapshot_interval,
        exp.snapshot_mem_mb,
    );
    let shared = artifacts
        .entry(key)
        .or_insert_with(|| campaign.build_artifacts().map(Arc::new))
        .clone()?;
    let result = campaign.try_run_range_with_artifacts(unit.range(), Some(&shared))?;
    let fingerprint = exp.artifact_fingerprint(&shared);
    // An adaptive campaign may stop early; the row covers exactly the
    // runs that were classified.
    let executed = result.counts.total() as usize;
    let row = ShardRow {
        unit: UnitSpec {
            end: unit.start + executed,
            ..*unit
        },
        seed: exp.seed,
        counts: result.counts,
        fault_free_cycles: result.fault_free_cycles,
        fault_free_instructions: result.fault_free_instructions,
        fingerprint,
        exhaustive: None,
    };
    Ok((row, result.anomalies.len()))
}

/// Executes one equivalence-class unit: a class-index range of an
/// exhaustive campaign, or (when the spec carries a stratified sampler)
/// the whole campaign as one `[0, 1)` unit.
///
/// The compiled [`ExhaustivePlan`] — golden run, liveness capture,
/// partition — is cached per worker process, so every unit of a campaign
/// after the first pays only its own class simulations. Golden artifacts
/// are cached unconditionally (the row needs `instructions()` and the
/// snapshot store drives locality scheduling).
fn run_equiv_unit(
    exp: &Experiments,
    unit: &UnitSpec,
    eq: &EquivSpec,
    artifacts: &mut ArtifactCache,
    plans: &mut PlanCache,
    chaos: &Arc<WorkerChaos>,
    progress: &Arc<AtomicUsize>,
) -> Result<(ShardRow, usize), CampaignError> {
    let plan_key = (
        unit.component,
        unit.workload,
        eq.exhaustive,
        exp.use_snapshots,
        exp.snapshot_interval,
        exp.snapshot_mem_mb,
    );
    let plan = plans
        .entry(plan_key)
        .or_insert_with(|| {
            let chaos = Arc::clone(chaos);
            let started = Arc::clone(progress);
            let cfg = exp
                .equiv_config(unit.component, unit.workload)
                .with_run_hook(move |_| {
                    chaos.on_run();
                    started.fetch_add(1, Ordering::Relaxed);
                });
            ExhaustivePlan::try_new(cfg, eq.exhaustive).map(Arc::new)
        })
        .clone()?;
    let artifact_key = (
        unit.workload,
        exp.use_snapshots,
        exp.snapshot_interval,
        exp.snapshot_mem_mb,
    );
    let shared = artifacts
        .entry(artifact_key)
        .or_insert_with(|| {
            Campaign::try_new(exp.equiv_config(unit.component, unit.workload))
                .and_then(|c| c.build_artifacts())
                .map(Arc::new)
        })
        .clone()?;
    let cov = plan.coverage();
    let fingerprint = exp.artifact_fingerprint(&shared);
    let row = match eq.stratified {
        None => {
            let outcomes = plan.run_class_range(unit.range(), Some(&shared))?;
            let mut counts = ClassCounts::new();
            let mut weighted = ClassCounts::new();
            for o in &outcomes {
                counts.record(o.effect);
                weighted.record_weighted(o.effect, o.weight);
            }
            ShardRow {
                unit: *unit,
                seed: exp.seed,
                counts,
                fault_free_cycles: plan.partition().total_cycles(),
                fault_free_instructions: shared.instructions(),
                fingerprint,
                exhaustive: Some(ShardExhaustive {
                    weighted,
                    weight_total: cov.population,
                    pruned: cov.dead_weight,
                    stratified: None,
                }),
            }
        }
        Some(spec) => {
            let r = plan.run_stratified(spec, Some(&shared))?;
            // The dead stratum is re-credited at merge from `pruned`;
            // the row's weighted counts carry only the scaled live mass.
            let mut weighted = r.campaign.counts;
            weighted.masked -= cov.dead_weight;
            let mut counts = ClassCounts::new();
            counts.record_weighted(mbu_gefin::classify::FaultEffect::Masked, 1);
            ShardRow {
                unit: UnitSpec {
                    start: 0,
                    end: 1,
                    ..*unit
                },
                seed: exp.seed,
                counts,
                fault_free_cycles: r.campaign.fault_free_cycles,
                fault_free_instructions: r.campaign.fault_free_instructions,
                fingerprint,
                exhaustive: Some(ShardExhaustive {
                    weighted,
                    weight_total: cov.population,
                    pruned: cov.dead_weight,
                    stratified: Some(ShardStratified {
                        margin_bits: r.campaign.achieved_margin.unwrap_or(0.0).to_bits(),
                        simulated: r.simulated,
                    }),
                }),
            }
        }
    };
    Ok((row, 0))
}

/// The worker process's control loop: announce, then execute assignments
/// until shutdown (or the supervisor disappears), persisting every
/// completed unit to `shard_path` *before* reporting it done — the
/// durability point the crash-consistent merge relies on.
///
/// `heartbeat` is the liveness-report interval. Chaos faults
/// ([`WorkerChaos::from_env`]) fire inside this loop when armed.
///
/// `worker_id` is the stable session-resume identity: when set, it rides
/// in the `Hello`, and any rows already in `shard_path` are replayed as
/// `Recovered` right after — work that was persisted durably but possibly
/// never acknowledged before a crash or dropped connection. A supervisor
/// that requeued those units retires them instead of re-running; anything
/// stale is dropped at merge, so the replay is always safe.
///
/// # Errors
///
/// Returns a [`ProtocolError`] on a malformed instruction stream or a
/// failed shard write ([`ProtocolError::Io`]). A cleanly closed control
/// stream is a normal exit, not an error — an orphaned worker dies
/// quietly.
pub fn run_worker<R, W>(
    mut input: R,
    output: W,
    shard_path: &Path,
    heartbeat: Duration,
    worker_id: Option<String>,
) -> Result<(), ProtocolError>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let chaos = Arc::new(WorkerChaos::from_env());
    let out = Arc::new(Mutex::new(output));
    let send = |msg: &ToSupervisor| -> std::io::Result<()> {
        let mut w = out.lock().unwrap_or_else(|e| e.into_inner());
        write_frame(&mut *w, &msg.to_json())
    };
    send(&ToSupervisor::Hello {
        pid: std::process::id(),
        worker_id: worker_id.clone(),
    })?;
    if worker_id.is_some() && shard_path.exists() {
        if let Ok((store, _)) = ShardStore::recover_with(&RealIo, shard_path) {
            for row in store.rows() {
                send(&ToSupervisor::Recovered { row: row.clone() })?;
            }
        }
    }
    let pulse: Arc<Pulse> = Arc::new(Mutex::new(None));
    // Dropping `stop` when the control loop exits wakes the heartbeat at
    // once instead of after its current interval.
    let (stop, stopped) = mpsc::channel::<()>();
    let hb_handle = {
        let pulse = Arc::clone(&pulse);
        let out = Arc::clone(&out);
        let chaos = Arc::clone(&chaos);
        std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(heartbeat) {
                if chaos.heartbeat_muted() {
                    continue;
                }
                let snapshot = pulse.lock().unwrap_or_else(|e| e.into_inner()).clone();
                if let Some((unit_id, progress)) = snapshot {
                    let msg = ToSupervisor::Heartbeat {
                        unit_id,
                        done: progress.load(Ordering::Relaxed),
                    };
                    let mut w = out.lock().unwrap_or_else(|e| e.into_inner());
                    // A send failure means the supervisor is gone; the
                    // control loop will notice on its next read.
                    let _ = write_frame(&mut *w, &msg.to_json());
                }
            }
        })
    };
    let mut artifacts: ArtifactCache = BTreeMap::new();
    let mut plans: PlanCache = BTreeMap::new();
    // One worker-lifetime progress counter, reset per assignment: cached
    // exhaustive plans bake the counter into their run hook, so it must
    // outlive any single unit.
    let progress = Arc::new(AtomicUsize::new(0));
    let mut garbage_sent = false;
    let outcome = loop {
        let msg = match read_frame(&mut input) {
            Ok(v) => match ToWorker::from_json(&v) {
                Ok(msg) => msg,
                Err(e) => break Err(e),
            },
            Err(ProtocolError::Eof) => break Ok(()),
            Err(e) => break Err(e),
        };
        match msg {
            ToWorker::Shutdown => break Ok(()),
            ToWorker::Assign { unit_id, unit, exp } => {
                if chaos.garbage_frames() && !garbage_sent {
                    garbage_sent = true;
                    let mut w = out.lock().unwrap_or_else(|e| e.into_inner());
                    let _ = w.write_all(b"\x00!! chaos: garbage frame, not a length line !!\n");
                    let _ = w.flush();
                }
                let e = spec_experiments(&exp, unit.workload);
                progress.store(0, Ordering::Relaxed);
                *pulse.lock().unwrap_or_else(|e| e.into_inner()) =
                    Some((unit_id, Arc::clone(&progress)));
                let outcome = run_unit(
                    &e,
                    &unit,
                    exp.equiv.as_ref(),
                    &mut artifacts,
                    &mut plans,
                    &chaos,
                    &progress,
                );
                *pulse.lock().unwrap_or_else(|e| e.into_inner()) = None;
                match outcome {
                    Ok((row, anomalies)) => {
                        // Durability before acknowledgement: the row is in
                        // the shard file (synced) before `done` is sent.
                        if let Err(e) = ShardStore::append_row_with(&RealIo, shard_path, &row) {
                            break Err(match e {
                                StoreError::Io(io) => ProtocolError::Io(io),
                                other => {
                                    ProtocolError::Frame(format!("shard append failed: {other}"))
                                }
                            });
                        }
                        // The durable-but-unacknowledged window: the row is
                        // on disk, the supervisor has not heard about it.
                        chaos.on_unit_persisted();
                        if send(&ToSupervisor::Done {
                            unit_id,
                            row,
                            anomalies,
                        })
                        .is_err()
                        {
                            break Ok(());
                        }
                        chaos.on_unit_acked();
                    }
                    Err(err) => {
                        if send(&ToSupervisor::Fail {
                            unit_id,
                            error: err.to_string(),
                        })
                        .is_err()
                        {
                            break Ok(());
                        }
                    }
                }
            }
        }
    };
    drop(stop);
    let _ = hb_handle.join();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp(runs: usize) -> Experiments {
        Experiments {
            runs,
            workloads: vec![Workload::Sha, Workload::Crc32],
            ..Experiments::default()
        }
    }

    #[test]
    fn planner_covers_every_campaign_exactly() {
        let e = exp(100);
        let components = [HwComponent::L1D, HwComponent::RegFile];
        let units = plan_units(&e, &components, 30);
        // 2 components × 2 workloads × 3 cardinalities × ceil(100/30) units.
        assert_eq!(units.len(), 2 * 2 * 3 * 4);
        let mut by_key: BTreeMap<Key, Vec<&UnitSpec>> = BTreeMap::new();
        for u in &units {
            by_key.entry(u.campaign_key()).or_default().push(u);
        }
        assert_eq!(by_key.len(), 12);
        for units in by_key.values() {
            let mut covered = 0;
            for u in units {
                assert_eq!(u.start, covered, "exact adjacency, no gaps");
                covered = u.end;
            }
            assert_eq!(covered, 100, "full coverage");
        }
    }

    #[test]
    fn planner_never_splits_adaptive_campaigns() {
        let mut e = exp(100);
        e.adaptive = Some(mbu_gefin::campaign::AdaptiveSpec::paper());
        let units = plan_units(&e, &[HwComponent::L1D], 10);
        assert_eq!(units.len(), 2 * 3, "one whole unit per campaign");
        assert!(units.iter().all(|u| u.start == 0 && u.end == 100));
    }

    #[test]
    fn split_range_handles_edges() {
        let key = (HwComponent::L2, Workload::Sha, 2);
        assert_eq!(split_range(key, 5, 5, 10), vec![]);
        let whole = split_range(key, 0, 7, 0);
        assert_eq!(whole.len(), 1);
        assert_eq!((whole[0].start, whole[0].end), (0, 7));
        let tail = split_range(key, 95, 100, 30);
        assert_eq!(tail.len(), 1);
        assert_eq!((tail[0].start, tail[0].end), (95, 100));
    }

    fn row(key: Key, start: usize, end: usize, fp: u64) -> ShardRow {
        ShardRow {
            unit: UnitSpec {
                component: key.0,
                workload: key.1,
                faults: key.2,
                start,
                end,
            },
            seed: Experiments::default().seed,
            counts: ClassCounts {
                masked: (end - start) as u64,
                ..ClassCounts::new()
            },
            fault_free_cycles: 5000,
            fault_free_instructions: 2500,
            fingerprint: GoldenFingerprint(fp),
            exhaustive: None,
        }
    }

    fn expected_for(e: &Experiments, fp: u64) -> BTreeMap<Workload, GoldenFingerprint> {
        e.workloads
            .iter()
            .map(|&w| (w, GoldenFingerprint(fp)))
            .collect()
    }

    #[test]
    fn shard_audit_reconciles_class_range_annotations() {
        fn ex_row(
            key: Key,
            start: usize,
            end: usize,
            weighted: u64,
            total: u64,
            pruned: u64,
            stratified: Option<ShardStratified>,
        ) -> ShardRow {
            let mut r = row(key, start, end, 7);
            r.exhaustive = Some(ShardExhaustive {
                weighted: ClassCounts {
                    masked: weighted,
                    ..ClassCounts::new()
                },
                weight_total: total,
                pruned,
                stratified,
            });
            r
        }
        fn defects(rows: &[ShardRow]) -> (usize, usize) {
            let mut audit = ShardAudit {
                path: PathBuf::new(),
                rows: rows.len(),
                quarantined: 0,
                fresh: 0,
                stale: 0,
                exhaustive: 0,
                weight_defects: 0,
            };
            reconcile_exhaustive(rows, &mut audit);
            (audit.exhaustive, audit.weight_defects)
        }
        let key = (HwComponent::ITlb, Workload::Sha, 1);
        // Two class ranges inside the live mass (150 total, 30 pruned).
        let clean = [
            ex_row(key, 0, 5, 60, 150, 30, None),
            ex_row(key, 5, 9, 40, 150, 30, None),
        ];
        assert_eq!(defects(&clean), (2, 0));
        // Run-range rows alone are not the audit's business.
        assert_eq!(defects(&[row(key, 0, 10, 7)]), (0, 0));
        // Rows of one campaign disagreeing on the pruned mass.
        let disagree = [
            ex_row(key, 0, 5, 60, 150, 30, None),
            ex_row(key, 5, 9, 40, 150, 31, None),
        ];
        assert_eq!(defects(&disagree), (2, 1));
        // Class weights exceeding the campaign's live mass.
        let over = [
            ex_row(key, 0, 5, 100, 150, 30, None),
            ex_row(key, 5, 9, 100, 150, 30, None),
        ];
        assert_eq!(defects(&over), (2, 1));
        // Run-range and class-range flavors mixed in one campaign.
        let mixed = [row(key, 0, 5, 7), ex_row(key, 5, 9, 40, 150, 30, None)];
        assert_eq!(defects(&mixed), (1, 1));
        // A stratified annotation covers the live mass exactly — or not.
        let strat = Some(ShardStratified {
            margin_bits: 0.05_f64.to_bits(),
            simulated: 200,
        });
        assert_eq!(defects(&[ex_row(key, 0, 1, 120, 150, 30, strat)]), (1, 0));
        assert_eq!(defects(&[ex_row(key, 0, 1, 90, 150, 30, strat)]), (1, 1));
        // Independent campaigns reconcile independently.
        let other = (HwComponent::DTlb, Workload::Crc32, 1);
        let two = [
            ex_row(key, 0, 9, 120, 150, 30, None),
            ex_row(other, 0, 4, 999, 150, 30, None),
        ];
        assert_eq!(defects(&two), (2, 1));
    }

    #[test]
    fn merge_splices_exact_cover_and_reports_gaps() {
        let e = exp(100);
        let key = (HwComponent::L1D, Workload::Sha, 1);
        let expected = expected_for(&e, 7);
        // Complete cover out of order, with a duplicate and an overlap.
        let rows = vec![
            row(key, 50, 100, 7),
            row(key, 0, 50, 7),
            row(key, 0, 50, 7),  // duplicate (dedup'd structurally)
            row(key, 25, 75, 7), // misaligned overlap
            row(key, 10, 20, 7), // fully covered later
        ];
        let (store, report) = merge_rows(&e, &[key], &rows, &expected);
        assert_eq!(report.campaigns_merged, 1);
        assert!(report.gaps.is_empty());
        let r = store.get(key.0, key.1, key.2).expect("merged");
        assert_eq!(r.counts.total(), 100);
        assert!(r.achieved_margin.is_some());
        // Now a gap: only the tail is present.
        let (store2, report2) = merge_rows(&e, &[key], &[row(key, 60, 100, 7)], &expected);
        assert_eq!(store2.len(), 0);
        assert_eq!(report2.gaps.len(), 1);
        assert_eq!((report2.gaps[0].start, report2.gaps[0].end), (0, 60));
    }

    #[test]
    fn merge_drops_stale_rows_as_rerun_not_merged() {
        let e = exp(100);
        let key = (HwComponent::L1D, Workload::Sha, 1);
        let expected = expected_for(&e, 7);
        // Stale fingerprint on the head; fresh tail.
        let rows = vec![row(key, 0, 50, 999), row(key, 50, 100, 7)];
        let (store, report) = merge_rows(&e, &[key], &rows, &expected);
        assert_eq!(store.len(), 0, "stale row must not merge");
        assert_eq!(report.stale_dropped, 1);
        assert_eq!(report.gaps.len(), 1);
        assert_eq!(
            (report.gaps[0].start, report.gaps[0].end),
            (0, 50),
            "exactly the stale range re-runs"
        );
        // A wrong-seed row is equally stale.
        let mut alien = row(key, 0, 100, 7);
        alien.seed ^= 1;
        let (store, report) = merge_rows(&e, &[key], &[alien], &expected);
        assert_eq!(store.len(), 0);
        assert_eq!(report.stale_dropped, 1);
    }

    #[test]
    fn merge_conflicting_rows_leave_a_gap() {
        let e = exp(100);
        let key = (HwComponent::L1D, Workload::Sha, 1);
        let expected = expected_for(&e, 7);
        let mut twisted = row(key, 0, 50, 7);
        twisted.counts.masked -= 1;
        twisted.counts.sdc += 1;
        let rows = vec![row(key, 0, 50, 7), twisted, row(key, 50, 100, 7)];
        let (store, report) = merge_rows(&e, &[key], &rows, &expected);
        assert_eq!(store.len(), 0, "conflicting evidence must not merge");
        assert!(report.conflicts_dropped >= 1);
        assert_eq!(report.gaps.len(), 1);
        assert_eq!((report.gaps[0].start, report.gaps[0].end), (0, 50));
    }

    #[test]
    fn merge_skips_unplannable_workloads() {
        let e = exp(100);
        let key = (HwComponent::L1D, Workload::Sha, 1);
        // No expected fingerprint for Sha at all.
        let expected = BTreeMap::new();
        let (store, report) = merge_rows(&e, &[key], &[row(key, 0, 100, 7)], &expected);
        assert_eq!(store.len(), 0);
        assert!(report.gaps.is_empty(), "unplannable is not a gap");
        assert_eq!(report.stale_dropped, 1);
    }
}
