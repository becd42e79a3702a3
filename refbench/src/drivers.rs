//! The three workloads, one pass at a time.
//!
//! A pass is one complete campaign from nothing: set-up (program assembly,
//! snapshot recording, plan compile or worker spawn), every injection, and
//! the result store. A run repeats identical passes for its measuring time,
//! so every per-pass count is deterministic for a seed and every pass must
//! reproduce the first one's results exactly. A set-up probe repeats only a
//! pass's set-up, so a run can sample set-up time more often than it can
//! afford whole passes.

use crate::layers;
use crate::procfs;
use crate::trace;
use mbu_bench::supervisor::{FabricConfig, SweepOptions};
use mbu_bench::{Experiments, FabricEvent, RealIo, RetryIo, RetryPolicy};
use mbu_cpu::{CoreConfig, HwComponent, RunEnd};
use mbu_gefin::exhaustive::{ExhaustivePlan, ExhaustiveSpec};
use mbu_gefin::integrity::{config_digest, fnv1a64};
use mbu_gefin::{
    AnomalyKind, CampaignConfig, CampaignResult, GoldenArtifacts, GoldenFingerprint, SnapshotSpec,
};
use mbu_workloads::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The seed whose result digests are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// The sampled matrix's programs, in store-key order so appended and
/// merged CSVs list campaigns identically.
pub const PROGRAMS: [Workload; 3] = [Workload::Qsort, Workload::Sha, Workload::Stringsearch];

/// Fault cardinalities of the sampled matrix.
pub const CARDINALITIES: Range<usize> = 1..4;

/// Simulation threads of the in-process workloads (the 2 cores `nproc`
/// reports); the fabric runs as many single-threaded workers instead.
pub const THREADS: usize = 2;

/// The exhaustive slice: on stringsearch, per component, `SLICES` evenly
/// spaced runs of consecutive live classes of the given length.
pub const EXHAUSTIVE_PROGRAM: Workload = Workload::Stringsearch;
/// Slice length per exhaustive component.
pub const EXHAUSTIVE_SLICE: [(HwComponent, usize); 3] = [
    (HwComponent::ITlb, 80),
    (HwComponent::DTlb, 80),
    (HwComponent::RegFile, 240),
];
/// Evenly spaced slices per exhaustive component.
pub const SLICES: usize = 8;

/// Set-up samples a run takes at least: one per pass, the rest from
/// set-up probes.
pub const SETUP_SAMPLES: usize = 24;

/// Class-count digest of the sampled matrix at [`DEFAULT_SEED`] (shared by
/// `fabric`, which must merge to the same counts).
pub const PINNED_SAMPLED: u64 = 0xac55_c85a_d20d_9e2f;
/// Class-outcome digest of the exhaustive slice at [`DEFAULT_SEED`].
pub const PINNED_EXHAUSTIVE: u64 = 0xbce2_0a5b_c44f_d93d;
/// Digest of the exhaustive slice's outcomes without the injected member
/// cycle, pinned for every seed: the seed only picks class members, and
/// class-member invariance makes effect and run length member-independent.
pub const PINNED_EXHAUSTIVE_ANY_SEED: u64 = 0x15ed_761d_6579_cc4a;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's protocol in one process.
    Sampled,
    /// Equivalence-class simulation slices.
    Exhaustive,
    /// The sampled matrix over the worker fabric.
    Fabric,
}

impl Kind {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::Sampled, Kind::Exhaustive, Kind::Fabric];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Sampled => "sampled",
            Kind::Exhaustive => "exhaustive",
            Kind::Fabric => "fabric",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The pinned result digest, checked at [`DEFAULT_SEED`].
    pub fn pinned_digest(self) -> u64 {
        match self {
            Kind::Sampled | Kind::Fabric => PINNED_SAMPLED,
            Kind::Exhaustive => PINNED_EXHAUSTIVE,
        }
    }
}

/// Per-pass counts: deterministic for a seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Injections (sampled runs or class simulations) classified.
    pub runs: u64,
    /// Snapshot checkpoints recorded.
    pub checkpoints: u64,
    /// Retained snapshot bytes.
    pub retained_bytes: u64,
    /// Runs fast-forwarded from a checkpoint.
    pub restores: u64,
    /// Runs classified `Masked` early by a reconvergence check.
    pub early_masked: u64,
    /// Runs the liveness oracle classified without simulation.
    pub oracle_skips: u64,
    /// Live equivalence classes of the compiled plans.
    pub live_classes: u64,
    /// Dead (pruned) population of the compiled plans.
    pub dead_weight: u64,
    /// Fault-space population of the compiled plans.
    pub population: u64,
    /// Store appends.
    pub appends: u64,
    /// Bytes of the final result store.
    pub store_bytes: u64,
    /// Fabric units planned.
    pub units: u64,
}

/// What the fabric's event stream and report showed in one pass.
#[derive(Debug, Clone, Default)]
pub struct FabricStats {
    /// Call until every worker said hello.
    pub ready_s: f64,
    /// Gaps between one worker's consecutive completed units.
    pub unit_gaps_s: Vec<f64>,
    /// Last completed unit until the merge finished.
    pub merge_s: f64,
    /// Retries scheduled.
    pub retries: u64,
    /// Straggler tails stolen.
    pub steals: u64,
    /// Workers lost.
    pub workers_lost: u64,
    /// CPU seconds of supervisor and workers over wall × workers.
    pub cpu_util: f64,
    /// Peak resident memory of any worker, MiB.
    pub worker_rss_mb: f64,
    /// Bytes of the shard stores (retried or stolen units add rows).
    pub shard_bytes: u64,
}

/// One pass's outcome.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall time until the first injection could start.
    pub setup_s: f64,
    /// Wall time of each step after set-up, in the same order on every
    /// pass: a campaign with its store append (`sampled`), a class slice
    /// (`exhaustive`), or the supervised sweep after every worker said
    /// hello (`fabric`).
    pub steps_s: Vec<f64>,
    /// Injections attempted.
    pub attempted: u64,
    /// Injections lost to an error or a failed check.
    pub failed: u64,
    /// Digest of the class counts / class outcomes, checked against the
    /// pinned value at [`DEFAULT_SEED`].
    pub digest: u64,
    /// `exhaustive`: the outcome digest without injected member cycles,
    /// checked against [`PINNED_EXHAUSTIVE_ANY_SEED`] at every seed.
    pub seed_free_digest: Option<u64>,
    /// The full results as text (the result CSV, or one line per class
    /// outcome): every pass must reproduce the first exactly.
    pub output: String,
    /// Deterministic counts.
    pub counts: Counts,
    /// Fabric observations (`fabric` only).
    pub fabric: Option<FabricStats>,
}

/// A program's fault-free run, checked against the program's reference
/// output once per run: what every pass's artifacts must reproduce.
struct Reference {
    output: Vec<u8>,
    cycles: u64,
}

/// One workload bound to a seed and a scratch directory.
pub struct Bench {
    /// The workload.
    pub kind: Kind,
    /// The input seed.
    pub seed: u64,
    /// Injection runs per sampled campaign: the sweep default
    /// (`Experiments::default().runs`).
    pub runs: usize,
    /// Fault-free cycles of the workload's programs, summed.
    pub golden_cycles: u64,
    dir: PathBuf,
    core: CoreConfig,
    references: BTreeMap<Workload, Result<Reference, String>>,
}

/// The golden state of one program, as set-up produces it.
struct Golden {
    artifacts: GoldenArtifacts,
    fingerprint: GoldenFingerprint,
}

/// An exhaustive component's compiled plan and its slice length.
type PlanSlot = (HwComponent, usize, Result<ExhaustivePlan, String>);

fn class_line(out: &mut String, r: &CampaignResult) {
    let c = r.counts;
    let _ = writeln!(
        out,
        "{},{},{},{},{},{},{},{}",
        mbu_bench::store::component_slug(r.component),
        r.workload.name(),
        r.faults,
        c.masked,
        c.sdc,
        c.crash,
        c.timeout,
        c.assert_
    );
}

fn sampled_matrix() -> impl Iterator<Item = (HwComponent, Workload, usize)> {
    HwComponent::ALL.into_iter().flat_map(|c| {
        PROGRAMS
            .into_iter()
            .flat_map(move |w| CARDINALITIES.map(move |f| (c, w, f)))
    })
}

/// `SLICES` evenly spaced ranges of `len` consecutive positions in
/// `0..n` (clipped at `n`; empty ones dropped).
pub fn slices(n: usize, len: usize) -> Vec<Range<usize>> {
    (0..SLICES)
        .map(|i| {
            let start = i * n / SLICES;
            start..(start + len).min(n)
        })
        .filter(|r| !r.is_empty())
        .collect()
}

impl Bench {
    /// Binds `kind` to `seed`, with scratch files under `dir`, and runs
    /// each of the workload's programs fault-free once, checking its
    /// output against the program's reference output.
    pub fn new(kind: Kind, seed: u64, dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let core = CoreConfig::cortex_a9_like();
        let programs: &[Workload] = match kind {
            Kind::Exhaustive => &[EXHAUSTIVE_PROGRAM],
            Kind::Sampled | Kind::Fabric => &PROGRAMS,
        };
        let mut golden_cycles = 0;
        let mut references = BTreeMap::new();
        for &w in programs {
            let program = layers::program(w);
            let run = layers::golden_run(core, &program, w);
            let reference = if run.end != (RunEnd::Exited { code: 0 }) {
                Err(format!("{w}: golden run ended {:?}", run.end))
            } else if run.output != w.reference_output() {
                Err(format!("{w}: golden output differs from the reference"))
            } else {
                golden_cycles += run.cycles;
                Ok(Reference {
                    output: run.output,
                    cycles: run.cycles,
                })
            };
            references.insert(w, reference);
        }
        Ok(Self {
            kind,
            seed,
            runs: Experiments::default().runs,
            golden_cycles,
            dir: dir.to_path_buf(),
            core,
            references,
        })
    }

    /// Runs pass `k`, calling `between` before each campaign or class slice
    /// of an in-process pass (a `fabric` pass is one call and never does).
    pub fn pass(&self, k: usize, between: &mut dyn FnMut()) -> Pass {
        match self.kind {
            Kind::Sampled => self.sampled_pass(k, between),
            Kind::Exhaustive => self.exhaustive_pass(between),
            Kind::Fabric => self.fabric_pass(k),
        }
    }

    /// Repeats only the set-up of a pass and returns its wall time:
    /// everything before the first injection could start.
    ///
    /// # Errors
    ///
    /// The set-up failed.
    pub fn setup_probe(&self) -> Result<f64, String> {
        let t0 = Instant::now();
        let mut counts = Counts::default();
        let error = match self.kind {
            Kind::Sampled => {
                let golden = self.sampled_setup(&mut counts);
                let setup_s = t0.elapsed().as_secs_f64();
                let error = golden.into_values().find_map(Result::err);
                error.map_or(Ok(setup_s), Err)
            }
            Kind::Exhaustive => {
                let (golden, plans) = self.exhaustive_setup(&mut counts);
                let setup_s = t0.elapsed().as_secs_f64();
                let error = golden
                    .err()
                    .or_else(|| plans.into_iter().find_map(|(_, _, p)| p.err()));
                error.map_or(Ok(setup_s), Err)
            }
            Kind::Fabric => self.fabric_probe(),
        };
        error.map_err(|e| format!("set-up probe: {e}"))
    }

    /// The in-process sampled matrix's result CSV for this seed: the
    /// reference the `fabric` merge must equal. Calls `between` before each
    /// campaign.
    pub fn sampled_reference(&self, between: &mut dyn FnMut()) -> Pass {
        self.sampled_pass(usize::MAX, between)
    }

    fn experiments(&self, threads: usize) -> Experiments {
        Experiments {
            runs: self.runs,
            seed: self.seed,
            threads,
            workloads: PROGRAMS.to_vec(),
            core: self.core,
            use_snapshots: true,
            max_cardinality: CARDINALITIES.end - 1,
            ..Experiments::default()
        }
    }

    fn fabric_config(&self) -> FabricConfig {
        FabricConfig {
            workers: THREADS,
            ..FabricConfig::default()
        }
    }

    /// Assembles `w` and records its artifacts, which must reproduce the
    /// run's fault-free reference.
    fn golden(&self, w: Workload, counts: &mut Counts) -> Result<Golden, String> {
        let reference = match self.references.get(&w) {
            Some(Ok(r)) => r,
            Some(Err(e)) => return Err(e.clone()),
            None => return Err(format!("{w}: no fault-free reference run")),
        };
        let program = layers::program(w);
        let artifacts = layers::build_artifacts(self.core, &program, SnapshotSpec::default(), w)
            .map_err(|end| format!("{w}: artifact golden run ended {end:?}"))?;
        if artifacts.exit_code() != 0
            || artifacts.output() != reference.output.as_slice()
            || artifacts.cycles() != reference.cycles
        {
            return Err(format!("{w}: artifacts disagree with the fault-free run"));
        }
        if let Some(store) = artifacts.snapshot_store() {
            counts.checkpoints += store.len() as u64;
            counts.retained_bytes += store.retained_bytes();
        }
        Ok(Golden {
            fingerprint: GoldenFingerprint::digest(
                artifacts.output(),
                artifacts.exit_code(),
                artifacts.cycles(),
                artifacts.instructions(),
                config_digest(&self.core),
            ),
            artifacts,
        })
    }

    /// Injections of one campaign lost to a failed check.
    fn campaign_losses(&self, r: &CampaignResult) -> u64 {
        let wall_clock = r
            .anomalies
            .entries()
            .iter()
            .filter(|a| a.kind == AnomalyKind::WallClock)
            .count() as u64;
        if r.counts.total() != self.runs as u64 {
            self.runs as u64
        } else {
            wall_clock
        }
    }

    fn sampled_setup(&self, counts: &mut Counts) -> BTreeMap<Workload, Result<Golden, String>> {
        PROGRAMS
            .into_iter()
            .map(|w| (w, self.golden(w, counts)))
            .collect()
    }

    fn sampled_pass(&self, k: usize, between: &mut dyn FnMut()) -> Pass {
        let exp = self.experiments(THREADS);
        let runs = self.runs as u64;
        let t0 = Instant::now();
        let mut pass = Pass::default();
        let golden = self.sampled_setup(&mut pass.counts);
        pass.setup_s = t0.elapsed().as_secs_f64();
        for e in golden.values().filter_map(|g| g.as_ref().err()) {
            eprintln!("refbench: {e}");
        }
        let csv = self.dir.join(format!("sampled-{k}.csv"));
        let _ = std::fs::remove_file(&csv);
        let io = RetryIo::new(&RealIo, RetryPolicy::DEFAULT);
        let mut classes = String::new();
        for (c, w, f) in sampled_matrix() {
            between();
            let step = Instant::now();
            pass.attempted += runs;
            let Some(Ok(g)) = golden.get(&w) else {
                pass.failed += runs;
                let _ = writeln!(classes, "{c},{w},{f},missing");
                pass.steps_s.push(step.elapsed().as_secs_f64());
                continue;
            };
            match layers::campaign(&exp, c, w, f, &g.artifacts) {
                Ok(r) => {
                    let mut lost = self.campaign_losses(&r);
                    match layers::append_row(&io, &csv, &r, g.fingerprint) {
                        Ok(()) => pass.counts.appends += 1,
                        Err(e) => {
                            eprintln!("refbench: append {c}/{w}/{f}: {e}");
                            lost = runs;
                        }
                    }
                    pass.failed += lost;
                    pass.counts.runs += r.counts.total();
                    pass.counts.oracle_skips += r.oracle_skips;
                    if let Some(s) = r.snapshot_stats {
                        pass.counts.restores += s.restores;
                        pass.counts.early_masked += s.early_masked;
                    }
                    class_line(&mut classes, &r);
                }
                Err(e) => {
                    eprintln!("refbench: campaign {c}/{w}/{f}: {e}");
                    pass.failed += runs;
                    let _ = writeln!(classes, "{c},{w},{f},error");
                }
            }
            pass.steps_s.push(step.elapsed().as_secs_f64());
        }
        pass.digest = fnv1a64(classes.as_bytes());
        pass.output = std::fs::read_to_string(&csv).unwrap_or_default();
        pass.counts.store_bytes = pass.output.len() as u64;
        let _ = std::fs::remove_file(&csv);
        pass
    }

    /// The single-bit campaign configuration of an exhaustive plan.
    fn equiv_config(&self, component: HwComponent) -> CampaignConfig {
        let mut cfg = CampaignConfig::new(EXHAUSTIVE_PROGRAM, component, 1)
            .runs(self.runs)
            .seed(self.seed)
            .threads(THREADS)
            .use_snapshots(true)
            .snapshot_spec(SnapshotSpec::default());
        cfg.core = self.core;
        cfg
    }

    fn exhaustive_setup(&self, counts: &mut Counts) -> (Result<Golden, String>, Vec<PlanSlot>) {
        let golden = self.golden(EXHAUSTIVE_PROGRAM, counts);
        let spec = ExhaustiveSpec {
            rep_seed: self.seed,
            ..ExhaustiveSpec::default()
        };
        let plans = EXHAUSTIVE_SLICE
            .iter()
            .map(|&(c, len)| {
                let plan =
                    layers::compile_plan(self.equiv_config(c), spec).map_err(|e| e.to_string());
                (c, len, plan)
            })
            .collect();
        (golden, plans)
    }

    fn exhaustive_pass(&self, between: &mut dyn FnMut()) -> Pass {
        let t0 = Instant::now();
        let mut pass = Pass::default();
        let (golden, plans) = self.exhaustive_setup(&mut pass.counts);
        pass.setup_s = t0.elapsed().as_secs_f64();
        let mut outcomes = String::new();
        let mut seed_free = String::new();
        for (c, len, plan) in &plans {
            let (plan, golden) = match (plan, &golden) {
                (Ok(p), Ok(g)) => (p, g),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("refbench: exhaustive {c}: {e}");
                    let lost = (*len * SLICES) as u64;
                    pass.attempted += lost;
                    pass.failed += lost;
                    let _ = writeln!(outcomes, "{c},error");
                    continue;
                }
            };
            let cov = plan.coverage();
            pass.counts.live_classes += plan.live_classes() as u64;
            pass.counts.dead_weight += cov.dead_weight;
            pass.counts.population += cov.population;
            for range in slices(plan.live_classes(), *len) {
                between();
                let step = Instant::now();
                let n = range.len() as u64;
                pass.attempted += n;
                match layers::class_range(plan, range.clone(), &golden.artifacts) {
                    Ok(outs) => {
                        let ordered = outs.windows(2).all(|p| p[0].class_id < p[1].class_id);
                        let weighted = outs.iter().all(|o| o.weight > 0);
                        if outs.len() as u64 != n || !ordered || !weighted {
                            eprintln!("refbench: exhaustive {c} {range:?}: malformed outcomes");
                            pass.failed += n;
                        }
                        pass.counts.runs += outs.len() as u64;
                        for o in &outs {
                            let _ = writeln!(
                                outcomes,
                                "{c},{},{},{},{:?},{}",
                                o.class_id, o.inject_cycle, o.weight, o.effect, o.cycles
                            );
                            let _ = writeln!(
                                seed_free,
                                "{c},{},{},{:?},{}",
                                o.class_id, o.weight, o.effect, o.cycles
                            );
                        }
                    }
                    Err(e) => {
                        eprintln!("refbench: exhaustive {c} {range:?}: {e}");
                        pass.failed += n;
                        let _ = writeln!(outcomes, "{c},{range:?},error");
                    }
                }
                pass.steps_s.push(step.elapsed().as_secs_f64());
            }
        }
        pass.digest = fnv1a64(outcomes.as_bytes());
        pass.seed_free_digest = Some(fnv1a64(seed_free.as_bytes()));
        pass.output = outcomes;
        pass
    }

    /// Starts a fabric sweep of the pass's matrix and cancels it once every
    /// worker said hello; returns the time from the call until then.
    fn fabric_probe(&self) -> Result<f64, String> {
        let exp = self.experiments(1);
        let config = self.fabric_config();
        let probe_dir = self.dir.join("probe");
        let _ = std::fs::remove_dir_all(&probe_dir);
        let cancel = Arc::new(AtomicBool::new(false));
        let ready = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let (cancel, ready) = (Arc::clone(&cancel), Arc::clone(&ready));
            let workers = config.workers;
            Box::new(move |ev: &FabricEvent| {
                if let FabricEvent::WorkerReady { .. } = ev {
                    let mut ready = ready.lock().unwrap_or_else(|e| e.into_inner());
                    ready.push(Instant::now());
                    if ready.len() == workers {
                        cancel.store(true, Ordering::Relaxed);
                    }
                }
            })
        };
        let t0 = Instant::now();
        let result = layers::fabric_sweep(
            &exp,
            &config,
            &probe_dir.join("shards"),
            &probe_dir.join("merged.csv"),
            SweepOptions {
                on_event: Some(sink),
                cancel: Some(cancel),
            },
        );
        let _ = std::fs::remove_dir_all(&probe_dir);
        let ready = std::mem::take(&mut *ready.lock().unwrap_or_else(|e| e.into_inner()));
        result.map_err(|e| format!("fabric: {e}"))?;
        match ready.iter().max() {
            Some(last) if ready.len() == config.workers => {
                Ok(last.saturating_duration_since(t0).as_secs_f64())
            }
            _ => Err(format!(
                "fabric: {} of {} workers said hello",
                ready.len(),
                config.workers
            )),
        }
    }

    fn fabric_pass(&self, k: usize) -> Pass {
        let exp = self.experiments(1);
        let config = self.fabric_config();
        let runs = self.runs as u64;
        let pass_dir = self.dir.join(format!("fabric-{k}"));
        let _ = std::fs::remove_dir_all(&pass_dir);
        let shard_dir = pass_dir.join("shards");
        let out_csv = pass_dir.join("merged.csv");
        let log = Arc::new(Mutex::new(EventLog::default()));
        let sink = {
            let log = Arc::clone(&log);
            Box::new(move |ev: &FabricEvent| {
                log.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .observe(ev, Instant::now());
            })
        };
        let cpu0 = procfs::cpu_times_s();
        let t0 = Instant::now();
        let result = layers::fabric_sweep(
            &exp,
            &config,
            &shard_dir,
            &out_csv,
            SweepOptions {
                on_event: Some(sink),
                cancel: None,
            },
        );
        let t1 = Instant::now();
        let cpu1 = procfs::cpu_times_s();
        let sweep_span = trace::last_id();
        let log = std::mem::take(&mut *log.lock().unwrap_or_else(|e| e.into_inner()));
        let mut pass = Pass::default();
        let mut stats = log.stats(t0, t1);
        if let (Some((a0, c0)), Some((a1, c1))) = (cpu0, cpu1) {
            let wall = (t1 - t0).as_secs_f64();
            stats.cpu_util = (a1 + c1 - a0 - c0) / (wall * config.workers as f64);
        }
        log.record_phases(sweep_span, t0);
        pass.setup_s = stats.ready_s;
        pass.steps_s = vec![(t1 - t0).as_secs_f64() - stats.ready_s];
        let mut classes = String::new();
        match result {
            Ok((store, report)) => {
                stats.retries = report.retries as u64;
                stats.steals = report.steals as u64;
                stats.workers_lost = report.workers_lost as u64;
                pass.counts.units = report.units_planned as u64;
                for (unit, why) in &report.quarantined {
                    eprintln!("refbench: fabric quarantined {unit}: {why}");
                }
                for (c, w, f) in sampled_matrix() {
                    pass.attempted += runs;
                    match store.get(c, w, f) {
                        Some(r) => {
                            pass.failed += self.campaign_losses(r);
                            pass.counts.runs += r.counts.total();
                            class_line(&mut classes, r);
                        }
                        None => {
                            pass.failed += runs;
                            let _ = writeln!(classes, "{c},{w},{f},missing");
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("refbench: fabric sweep: {e}");
                let all = (HwComponent::ALL.len() * PROGRAMS.len() * CARDINALITIES.len()) as u64;
                pass.attempted = all * runs;
                pass.failed = pass.attempted;
            }
        }
        pass.digest = fnv1a64(classes.as_bytes());
        pass.output = std::fs::read_to_string(&out_csv).unwrap_or_default();
        pass.counts.store_bytes = pass.output.len() as u64;
        stats.shard_bytes = std::fs::read_dir(&shard_dir)
            .map(|dir| {
                dir.filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        pass.fabric = Some(stats);
        let _ = std::fs::remove_dir_all(&pass_dir);
        pass
    }
}

/// Timestamps of one supervised sweep's events.
#[derive(Debug, Default)]
struct EventLog {
    ready: Vec<Instant>,
    /// Per worker slot, the completion times of its units.
    done: BTreeMap<usize, Vec<Instant>>,
    merged: Option<Instant>,
    pids: Vec<u32>,
    worker_rss_mb: f64,
}

impl EventLog {
    fn observe(&mut self, ev: &FabricEvent, at: Instant) {
        match ev {
            FabricEvent::WorkerReady { pid, .. } => {
                self.ready.push(at);
                self.pids.push(*pid);
            }
            FabricEvent::UnitDone { worker, .. } => {
                self.done.entry(*worker).or_default().push(at);
                // Workers exit before the merge; sample their peaks while
                // they are alive.
                for &pid in &self.pids {
                    if let Some(mb) = procfs::peak_rss_mb(Some(pid)) {
                        self.worker_rss_mb = self.worker_rss_mb.max(mb);
                    }
                }
            }
            FabricEvent::Merged { .. } => self.merged = Some(at),
            _ => {}
        }
    }

    fn last_ready(&self) -> Option<Instant> {
        self.ready.iter().max().copied()
    }

    fn last_done(&self) -> Option<Instant> {
        self.done.values().flatten().max().copied()
    }

    fn stats(&self, t0: Instant, t1: Instant) -> FabricStats {
        let secs = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64();
        let unit_gaps_s = self
            .done
            .values()
            .flat_map(|times| times.windows(2).map(|w| secs(w[0], w[1])))
            .collect();
        FabricStats {
            ready_s: secs(t0, self.last_ready().unwrap_or(t1)),
            unit_gaps_s,
            merge_s: match (self.last_done(), self.merged) {
                (Some(d), Some(m)) => secs(d, m),
                _ => 0.0,
            },
            worker_rss_mb: self.worker_rss_mb,
            ..FabricStats::default()
        }
    }

    /// Records the sweep's phases (worker start-up, units, merge) as child
    /// spans of the sweep call, so its self time is what the phases leave.
    fn record_phases(&self, parent: Option<usize>, t0: Instant) {
        let (Some(parent), Some(ready)) = (parent, self.last_ready()) else {
            return;
        };
        trace::record("fabric.ready", Some(parent), t0, ready);
        if let Some(done) = self.last_done() {
            trace::record("fabric.units", Some(parent), ready, done);
            if let Some(merged) = self.merged {
                trace::record("fabric.merge", Some(parent), done, merged);
            }
        }
    }
}
