//! Distributed-sweep fabric: the shard merge, the shard audit and the
//! worker execution loop.
//!
//! A sweep decomposes into [`UnitSpec`] work units — contiguous ranges of
//! one campaign's unit space, which its [`FaultSource`] sizes and splits:
//! runs for sampled campaigns, live classes of the deterministic
//! [`mbu_gefin::exhaustive::ExhaustivePlan`] for exhaustive ones, and one
//! whole-campaign unit for the stratified sampler. Per-run seeds derive
//! from the campaign seed and the absolute run index alone (see
//! [`mbu_gefin::campaign::UnitSpec`]), and each class is simulated
//! once whichever worker owns it, so the counts of any disjoint cover of
//! the unit space sum to exactly the single-process campaign's, and the
//! margin is a pure function of the summed counts. That is the whole
//! trick: workers execute ranges independently and persist [`ShardRow`]s;
//! [`merge_rows`] splices ranges back into campaigns and lands on a
//! [`ResultStore`] *byte-identical* to a single-process sweep.
//!
//! A row's flavour (run range, class range or stratified) must match its
//! campaign's planned source. A row of the other kind of sweep for the
//! same key is not part of this sweep's campaign and is skipped, so
//! sampled and class sweeps can share one shard directory.
//!
//! The merge trusts nothing:
//!
//! * rows ride in checksummed shard CSVs; torn/corrupt rows were already
//!   quarantined by [`ShardStore::recover_with`];
//! * a row whose seed or golden-run fingerprint does not match the current
//!   sweep is *stale* — dropped and re-run, never merged;
//! * duplicated work (a retried unit whose first attempt also persisted, or
//!   a resumed sweep whose units were split for another worker count) is
//!   deduplicated by greedy exact-adjacency splicing: at each point only a
//!   row starting exactly at the covered frontier extends the cover;
//!   fully-covered duplicates and misaligned overlaps are dropped and
//!   counted;
//! * rows that should be identical but disagree (same range, different
//!   counts, or class rows claiming different populations — engine
//!   nondeterminism or undetected corruption) are dropped as *conflicts*,
//!   leaving a gap that forces a re-run;
//! * whatever remains uncovered is reported as precise gap units, so a
//!   resumed sweep re-runs exactly the missing units and nothing else.

use crate::chaos::WorkerChaos;
use crate::io::{RealIo, StoreIo};
use crate::protocol::{read_frame, write_frame, ProtocolError, ToSupervisor, ToWorker};
use crate::source::{run_unit, FaultSource, RunHook, UnitCache};
use crate::store::{
    Key, ResultStore, ShardExhaustive, ShardLoadAudit, ShardRow, ShardStore, StoreError,
};
use crate::Experiments;
use mbu_gefin::campaign::UnitSpec;
use mbu_gefin::integrity::{golden_fingerprint, GoldenFingerprint};
use mbu_workloads::Workload;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A planned sweep: each campaign's fault source and the size of its unit
/// space, by campaign key.
pub type SweepPlan = BTreeMap<Key, (FaultSource, usize)>;

/// Splits the range `[start, end)` of one campaign into units of at most
/// `unit` units (`0` = no splitting).
pub fn split_range(key: Key, start: usize, end: usize, unit: usize) -> Vec<UnitSpec> {
    let (component, workload, faults) = key;
    let step = if unit == 0 {
        end.saturating_sub(start).max(1)
    } else {
        unit
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

/// What [`merge_rows`] did, campaign by campaign and row by row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergeReport {
    /// Campaigns fully covered and merged into the result store.
    pub campaigns_merged: usize,
    /// Rows whose counts entered a merged campaign.
    pub rows_merged: usize,
    /// Exact re-executions of already-covered ranges (a retried unit or a
    /// resumed sweep's re-split gap), dropped.
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

/// A deterministic total order on rows of one campaign: by range start,
/// then *longer ranges first* (a full-range row beats sub-ranges of the
/// same runs, such as a resumed sweep's re-split gap), then by payload so
/// ties never depend on input order.
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
/// `plan`. Input row order never matters: rows are canonically sorted per
/// campaign before splicing, so the merge is idempotent and
/// order-independent (the property tests hold it to that).
///
/// A row enters its campaign only if it has the flavour of the planned
/// [`FaultSource`]; rows of campaigns outside the plan, or of the other
/// kind of sweep for a planned key, are not merged — not an error, not a
/// gap. A class campaign's rows must also agree on its population and
/// pruned mass, and its cover must reconcile with them exactly.
///
/// `expected` maps each workload to the golden-run fingerprint of the
/// *current* build/configuration; rows stamped differently are stale.
/// Campaigns whose workload has no entry (their golden run failed) are
/// skipped entirely — they cannot be run, so they are not gaps either.
pub fn merge_rows(
    exp: &Experiments,
    plan: &SweepPlan,
    rows: &[ShardRow],
    expected: &BTreeMap<Workload, GoldenFingerprint>,
) -> (ResultStore, MergeReport) {
    let mut report = MergeReport::default();
    let mut by_campaign: BTreeMap<Key, Vec<ShardRow>> = BTreeMap::new();
    for row in rows {
        let key = row.unit.campaign_key();
        let Some(&(_, total)) = plan
            .get(&key)
            .filter(|(source, _)| *source == FaultSource::of_row(row))
        else {
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
    for (&key, &(source, total)) in plan {
        let (component, workload, faults) = key;
        let Some(&fingerprint) = expected.get(&workload) else {
            continue;
        };
        let whole = UnitSpec::whole(component, workload, faults, total);
        let mut rows = by_campaign.remove(&key).unwrap_or_default();
        rows.sort_by(row_order);
        let before = rows.len();
        rows.dedup();
        report.duplicates_dropped += before - rows.len();
        // A class campaign's rows carry its campaign-wide constants; rows
        // claiming different ones cannot be spliced into one result.
        let constants = |r: &ShardRow| r.exhaustive.map(|ex| (ex.weight_total, ex.pruned));
        if rows
            .windows(2)
            .any(|w| constants(&w[0]) != constants(&w[1]))
        {
            report.conflicts_dropped += rows.len();
            report.gaps.push(whole);
            continue;
        }
        // Greedy exact-adjacency splice: only a row starting exactly at
        // the covered frontier extends the cover, which sums every
        // spliced row into one spanning `0..covered`.
        let mut cover: Option<ShardRow> = None;
        let mut merged_rows = 0usize;
        let mut gaps: Vec<(usize, usize)> = Vec::new();
        let adaptive = source == FaultSource::Sampled && exp.adaptive.is_some();
        for row in &rows {
            let covered = cover.as_ref().map_or(0, |c| c.unit.end);
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
            if cover.as_ref().is_some_and(|c| {
                (c.fault_free_cycles, c.fault_free_instructions)
                    != (row.fault_free_cycles, row.fault_free_instructions)
            }) {
                report.conflicts_dropped += 1;
                continue;
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
            match &mut cover {
                None => cover = Some(row.clone()),
                Some(c) => {
                    c.counts.merge(&row.counts);
                    if let (Some(sum), Some(ex)) = (&mut c.exhaustive, &row.exhaustive) {
                        sum.weighted.merge(&ex.weighted);
                    }
                    c.unit.end = row.unit.end;
                }
            }
            merged_rows += 1;
        }
        let covered = cover.as_ref().map_or(0, |c| c.unit.end);
        // An adaptive campaign is complete at its own stopping point; any
        // other only at its full unit count.
        let complete = if adaptive {
            merged_rows == 1
        } else {
            covered == total && gaps.is_empty()
        };
        // A class cover must also reconcile exactly with the population:
        // live mass + dead mass == bits × cycles.
        let reconciled = cover
            .as_ref()
            .and_then(|c| c.exhaustive)
            .is_none_or(|ex| ex.weighted.total().checked_add(ex.pruned) == Some(ex.weight_total));
        let Some(cover) = cover.filter(|_| complete && reconciled) else {
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
            report
                .gaps
                .extend(gaps.into_iter().map(|(start, end)| UnitSpec {
                    start,
                    end,
                    ..whole
                }));
            continue;
        };
        let (result, meta) = source.finish(exp, &cover);
        store.insert_flavored(result, Some(fingerprint), meta);
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
    /// Class campaigns (one key, one flavour) inside this shard whose
    /// annotations fail reconciliation: rows disagreeing on the
    /// campaign-wide population or pruned mass, class weights exceeding
    /// the campaign's live mass, or a stratified row not covering it
    /// exactly. The merge would reject these, so they count as defects.
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

/// Class-range reconciliation for one shard store, per campaign key and
/// flavour (run-range rows are not its business): rows of one class
/// campaign must agree on its population and pruned mass, and their class
/// weights must fit inside its live mass — a stratified row covers it
/// exactly, exhaustive ranges (possibly partial in this shard) at most.
fn reconcile_exhaustive(rows: &[ShardRow], audit: &mut ShardAudit) {
    let mut groups: BTreeMap<(Key, FaultSource), Vec<ShardExhaustive>> = BTreeMap::new();
    for row in rows {
        if let Some(ex) = row.exhaustive {
            groups
                .entry((row.unit.campaign_key(), FaultSource::of_row(row)))
                .or_default()
                .push(ex);
        }
    }
    for ((_, source), annotated) in &groups {
        audit.exhaustive += annotated.len();
        let first = annotated[0];
        let agree = annotated
            .iter()
            .all(|ex| (ex.weight_total, ex.pruned) == (first.weight_total, first.pruned));
        let live = first.weight_total.saturating_sub(first.pruned);
        let covered = if *source == FaultSource::Stratified {
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
    let mut cache = UnitCache::default();
    // One worker-lifetime progress counter, reset per assignment: cached
    // exhaustive plans bake the run hook into their configuration, so it
    // must outlive any single unit.
    let progress = Arc::new(AtomicUsize::new(0));
    let hook: RunHook = {
        let chaos = Arc::clone(&chaos);
        let progress = Arc::clone(&progress);
        Arc::new(move |_| {
            chaos.on_run();
            progress.fetch_add(1, Ordering::Relaxed);
        })
    };
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
                let outcome = run_unit(&e, &unit, exp.equiv.as_ref(), &mut cache, &hook);
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
    use crate::store::ShardStratified;
    use crate::supervisor::FabricConfig;
    use mbu_cpu::HwComponent;
    use mbu_gefin::classify::ClassCounts;

    fn exp(runs: usize) -> Experiments {
        Experiments {
            runs,
            workloads: vec![Workload::Sha, Workload::Crc32],
            ..Experiments::default()
        }
    }

    /// The units of every campaign of a sampled sweep over `components`,
    /// split by the planner's rule for `workers` workers.
    fn plan_sampled(e: &Experiments, components: &[HwComponent], workers: usize) -> Vec<UnitSpec> {
        let config = FabricConfig {
            workers,
            ..FabricConfig::default()
        };
        e.sampled_campaigns(components)
            .into_iter()
            .flat_map(|(key, source)| source.split(e, &config, key, 0..e.runs))
            .collect()
    }

    fn sampled_plan(e: &Experiments, key: Key) -> SweepPlan {
        SweepPlan::from([(key, (FaultSource::Sampled, e.runs))])
    }

    #[test]
    fn planner_covers_every_campaign_exactly() {
        let e = exp(100);
        let components = [HwComponent::L1D, HwComponent::RegFile];
        let units = plan_sampled(&e, &components, 1);
        // 2 components × 2 workloads × 3 cardinalities × 100/(4 × 1 worker)
        // = 4 units of 25 runs.
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
        let units = plan_sampled(&e, &[HwComponent::L1D], 4);
        assert_eq!(units.len(), 2 * 3, "one whole unit per campaign");
        assert!(units.iter().all(|u| u.start == 0 && u.end == 100));
    }

    #[test]
    fn a_resumed_gap_splits_by_its_own_length() {
        // A resumed campaign's missing range spreads over the workers like
        // a fresh campaign does, however large the campaign around it.
        let e = exp(100);
        let config = FabricConfig {
            workers: 3,
            ..FabricConfig::default()
        };
        let key = (HwComponent::DTlb, Workload::Sha, 1);
        let units = FaultSource::Exhaustive.split(&e, &config, key, 90_000..110_000);
        // 20 000 classes / (4 × 3 workers) = 1 667 per unit.
        assert_eq!(units.len(), 12);
        let mut covered = 90_000;
        for u in &units {
            assert_eq!(u.start, covered, "exact adjacency, no gaps");
            covered = u.end;
        }
        assert_eq!(covered, 110_000);
        // The stratified sampler never splits.
        let whole = FaultSource::Stratified.split(&e, &config, key, 0..1);
        assert_eq!(whole.len(), 1);
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
        // A run-range row beside class-range rows of the same key belongs
        // to the other kind of sweep, not to the class campaign.
        let mixed = [row(key, 0, 5, 7), ex_row(key, 5, 9, 40, 150, 30, None)];
        assert_eq!(defects(&mixed), (1, 0));
        let sampled_two = (key.0, key.1, 2);
        let shared = [
            clean[0].clone(),
            row(sampled_two, 0, 10, 7),
            clean[1].clone(),
        ];
        assert_eq!(defects(&shared), (2, 0));
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
        let (store, report) = merge_rows(&e, &sampled_plan(&e, key), &rows, &expected);
        assert_eq!(report.campaigns_merged, 1);
        assert!(report.gaps.is_empty());
        let r = store.get(key.0, key.1, key.2).expect("merged");
        assert_eq!(r.counts.total(), 100);
        assert!(r.achieved_margin.is_some());
        // Now a gap: only the tail is present.
        let (store2, report2) = merge_rows(
            &e,
            &sampled_plan(&e, key),
            &[row(key, 60, 100, 7)],
            &expected,
        );
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
        let (store, report) = merge_rows(&e, &sampled_plan(&e, key), &rows, &expected);
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
        let (store, report) = merge_rows(&e, &sampled_plan(&e, key), &[alien], &expected);
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
        let (store, report) = merge_rows(&e, &sampled_plan(&e, key), &rows, &expected);
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
        let (store, report) = merge_rows(
            &e,
            &sampled_plan(&e, key),
            &[row(key, 0, 100, 7)],
            &expected,
        );
        assert_eq!(store.len(), 0);
        assert!(report.gaps.is_empty(), "unplannable is not a gap");
        assert_eq!(report.stale_dropped, 1);
    }
}
