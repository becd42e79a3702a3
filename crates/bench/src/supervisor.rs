//! The distributed-sweep supervisor: spawns `repro worker` processes over
//! stdio pipes, assigns [`UnitSpec`] work units, and treats every worker as
//! unreliable.
//!
//! Fault model and responses:
//!
//! * **Lost worker** (process exit, broken pipe) — the in-flight unit is
//!   retried on a surviving worker with bounded backoff, ahead of every
//!   planned unit once the backoff has passed, so it does not become the
//!   sweep's tail; a replacement process is spawned. Logged as a
//!   [`AnomalyKind::WorkerLost`] anomaly so degraded sweeps are auditable.
//! * **Stalled worker** (no message for [`FabricConfig::stall_timeout`]) —
//!   killed and treated as lost ([`AnomalyKind::WorkerStall`]). A hung
//!   worker stops heartbeating, so this is the reclaim path for freezes.
//! * **Garbage frames** (undecodable protocol data) — the worker is
//!   dropped ([`AnomalyKind::ProtocolGarbage`]); its unit retries.
//! * **Unit deadline** ([`FabricConfig::unit_deadline`]) — a unit running
//!   past its wall-clock budget is reclaimed ([`AnomalyKind::WallClock`]).
//! * **Deterministic failure** — a unit that *fails* (typed campaign
//!   error) on two distinct workers, or exhausts
//!   [`FabricConfig::max_attempts`], is quarantined
//!   ([`AnomalyKind::UnitQuarantined`]): the sweep completes degraded
//!   rather than aborting or retrying forever.
//!
//! Load balance comes from unit size alone ([`FabricConfig::unit_size`]:
//! about four units per worker). Nothing is run speculatively, so a unit's
//! work is only ever repeated when a worker is lost or a unit fails.
//!
//! A sweep is a list of `(campaign key, FaultSource)` pairs. Each
//! campaign's source sizes and splits its unit space (runs, live classes
//! or the one stratified unit), tells the worker how to run a unit, and
//! names the one shard-row flavour the merge accepts for it — so sampled
//! and class sweeps share one planner, one worker executor, one merge and
//! one shard directory.
//!
//! Durability is delegated: workers persist every completed unit to their
//! own checksummed shard store *before* acknowledging it, and the final
//! [`merge_rows`] (plus the pre-flight merge on startup) reads those
//! files, so a supervisor crash loses no completed runs — re-running the
//! same sweep resumes from the shard directory and produces a final store
//! byte-identical to a single-process sweep.

use crate::experiments::{env_value, parse_env, ConfigError};
use crate::fabric::{load_shard_dir, merge_rows, MergeReport, SweepPlan};
use crate::io::RealIo;
use crate::protocol::{
    read_frame, unit_to_json, write_frame, ExpSpec, Json, ProtocolError, ToSupervisor, ToWorker,
};
use crate::source::{FaultSource, UnitSpace};
use crate::store::{Key, ResultStore, StoreError};
use crate::Experiments;
use mbu_cpu::HwComponent;
use mbu_gefin::campaign::{Anomaly, AnomalyKind, AnomalyLog, UnitSpec};
use mbu_gefin::error::CampaignError;
use mbu_gefin::integrity::{golden_fingerprint, GoldenFingerprint};
use mbu_workloads::Workload;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Supervisor knobs, env-configurable (`MBU_WORKERS`, `MBU_HEARTBEAT_MS`,
/// `MBU_STALL_SECS`, `MBU_UNIT_DEADLINE_SECS`, `MBU_UNIT_RETRIES`,
/// `MBU_DISK_WATERMARK_MB`, `MBU_BREAKER_TRIP`, `MBU_BREAKER_COOLDOWN_MS`,
/// `MBU_RETRY_BUDGET`).
#[derive(Debug, Clone, PartialEq)]
pub struct FabricConfig {
    /// Worker processes (`MBU_WORKERS`, default 2, must be ≥ 1); they also
    /// size the planned units ([`FabricConfig::unit_size`]).
    pub workers: usize,
    /// Worker heartbeat interval (`MBU_HEARTBEAT_MS`, default 100 ms).
    pub heartbeat: Duration,
    /// Silence window after which a busy worker is declared stalled and
    /// its unit reclaimed (`MBU_STALL_SECS`, default 30 s).
    pub stall_timeout: Duration,
    /// Per-unit wall-clock deadline (`MBU_UNIT_DEADLINE_SECS`, default
    /// none).
    pub unit_deadline: Option<Duration>,
    /// Attempts per unit before quarantine (`MBU_UNIT_RETRIES`, default 3,
    /// must be ≥ 1).
    pub max_attempts: usize,
    /// Base retry backoff, doubled per attempt (default 200 ms).
    pub retry_backoff: Duration,
    /// Free-disk watermark in MiB under the shard directory
    /// (`MBU_DISK_WATERMARK_MB`, default none). Below it, the supervisor
    /// pauses assigning new units — pending work queues, shard appends
    /// stop — and logs a typed `disk-pressure` anomaly instead of running
    /// into raw ENOSPC; assignment resumes when space recovers.
    pub disk_watermark_mb: Option<u64>,
    /// Consecutive worker losses (no unit completing in between) that open
    /// the respawn circuit breaker (`MBU_BREAKER_TRIP`, default 3, must be
    /// ≥ 1). An open breaker holds replacement spawns for the cooldown
    /// instead of hot-looping respawns of a worker that dies on arrival.
    pub breaker_trip: usize,
    /// How long the respawn breaker stays open once tripped
    /// (`MBU_BREAKER_COOLDOWN_MS`, default 2000 ms).
    pub breaker_cooldown: Duration,
    /// Total retries a sweep may schedule before failing with the typed
    /// [`FabricError::RetryBudgetExhausted`] (`MBU_RETRY_BUDGET`, default
    /// none = unbounded). Shard rows stay durable; the sweep is resumable.
    pub retry_budget: Option<usize>,
    /// Print scheduling decisions to stderr.
    pub verbose: bool,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            heartbeat: Duration::from_millis(100),
            stall_timeout: Duration::from_secs(30),
            unit_deadline: None,
            max_attempts: 3,
            retry_backoff: Duration::from_millis(200),
            disk_watermark_mb: None,
            breaker_trip: 3,
            breaker_cooldown: Duration::from_millis(2000),
            retry_budget: None,
            verbose: false,
        }
    }
}

impl FabricConfig {
    /// Builds from the environment, rejecting invalid values with a typed
    /// [`ConfigError`] — a sweep fabric silently running with the wrong
    /// worker count is exactly the misconfiguration this forbids.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending variable.
    pub fn from_env() -> Result<Self, ConfigError> {
        let mut c = Self::default();
        if let Some(v) = env_value("MBU_WORKERS")? {
            c.workers = parse_env("MBU_WORKERS", &v, "must be a positive integer")?;
            if c.workers == 0 {
                return Err(ConfigError::Invalid {
                    var: "MBU_WORKERS",
                    value: v,
                    expected: "must be a positive integer",
                });
            }
        }
        if let Some(v) = env_value("MBU_HEARTBEAT_MS")? {
            c.heartbeat =
                Duration::from_millis(parse_env("MBU_HEARTBEAT_MS", &v, "must be an integer")?);
        }
        if let Some(v) = env_value("MBU_STALL_SECS")? {
            c.stall_timeout =
                Duration::from_secs(parse_env("MBU_STALL_SECS", &v, "must be an integer")?);
        }
        if let Some(v) = env_value("MBU_UNIT_DEADLINE_SECS")? {
            c.unit_deadline = Some(Duration::from_secs(parse_env(
                "MBU_UNIT_DEADLINE_SECS",
                &v,
                "must be an integer",
            )?));
        }
        if let Some(v) = env_value("MBU_UNIT_RETRIES")? {
            c.max_attempts = parse_env("MBU_UNIT_RETRIES", &v, "must be a positive integer")?;
            if c.max_attempts == 0 {
                return Err(ConfigError::Invalid {
                    var: "MBU_UNIT_RETRIES",
                    value: v,
                    expected: "must be a positive integer",
                });
            }
        }
        if let Some(v) = env_value("MBU_DISK_WATERMARK_MB")? {
            c.disk_watermark_mb = Some(parse_env(
                "MBU_DISK_WATERMARK_MB",
                &v,
                "must be an integer (MiB)",
            )?);
        }
        if let Some(v) = env_value("MBU_BREAKER_TRIP")? {
            c.breaker_trip = parse_env("MBU_BREAKER_TRIP", &v, "must be a positive integer")?;
            if c.breaker_trip == 0 {
                return Err(ConfigError::Invalid {
                    var: "MBU_BREAKER_TRIP",
                    value: v,
                    expected: "must be a positive integer",
                });
            }
        }
        if let Some(v) = env_value("MBU_BREAKER_COOLDOWN_MS")? {
            c.breaker_cooldown = Duration::from_millis(parse_env(
                "MBU_BREAKER_COOLDOWN_MS",
                &v,
                "must be an integer",
            )?);
        }
        if let Some(v) = env_value("MBU_RETRY_BUDGET")? {
            c.retry_budget = Some(parse_env("MBU_RETRY_BUDGET", &v, "must be an integer")?);
        }
        Ok(c)
    }

    /// The planned unit size for a gap of `n` runs or live classes (a
    /// fresh campaign is one gap over its whole unit space): about four
    /// units per worker, so an idle worker finds more work while a slow
    /// unit finishes, but never under 8 or over the gap.
    pub fn unit_size(&self, n: usize) -> usize {
        n.div_ceil(self.workers * 4).max(8).min(n.max(1))
    }
}

/// Why a distributed sweep could not run to completion.
#[derive(Debug)]
pub enum FabricError {
    /// A store read/write failed.
    Store(StoreError),
    /// Spawning or talking to worker processes failed at the OS level.
    Io(std::io::Error),
    /// Every worker died and none could be (re)spawned, with work still
    /// pending.
    WorkersExhausted {
        /// Units never completed.
        pending: usize,
    },
    /// The sweep spent its whole retry budget ([`FabricConfig::retry_budget`])
    /// and another retry was needed. The shard directory keeps every durable
    /// row, so the sweep is resumable once the underlying instability is
    /// fixed.
    RetryBudgetExhausted {
        /// The configured budget that was spent.
        budget: usize,
        /// The last per-unit error that asked for one retry too many.
        last_error: String,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Store(e) => write!(f, "shard store: {e}"),
            FabricError::Io(e) => write!(f, "worker I/O: {e}"),
            FabricError::WorkersExhausted { pending } => write!(
                f,
                "all workers lost and none respawnable with {pending} unit(s) still pending"
            ),
            FabricError::RetryBudgetExhausted { budget, last_error } => write!(
                f,
                "retry budget of {budget} exhausted (last error: {last_error}); \
                 durable shard rows are kept and the sweep is resumable"
            ),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<StoreError> for FabricError {
    fn from(e: StoreError) -> Self {
        FabricError::Store(e)
    }
}

impl From<std::io::Error> for FabricError {
    fn from(e: std::io::Error) -> Self {
        FabricError::Io(e)
    }
}

/// A live progress event from a running supervised sweep — the
/// subscription seam the HTTP service's event streams are fed from.
/// Every event also has a stable JSON form ([`FabricEvent::to_json`]).
#[derive(Debug, Clone)]
pub enum FabricEvent {
    /// Planning finished; the sweep is about to start.
    Planned {
        /// Units planned this invocation (after resume skipping).
        units: usize,
        /// Campaigns in the sweep.
        campaigns: usize,
    },
    /// A worker said hello and is eligible for assignments.
    WorkerReady {
        /// Worker slot index.
        slot: usize,
        /// The worker's OS process id.
        pid: u32,
    },
    /// A worker was declared dead (crash, stall, protocol garbage).
    WorkerLost {
        /// Worker slot index.
        slot: usize,
        /// Human-readable cause.
        detail: String,
    },
    /// A unit completed and its row is durable.
    UnitDone {
        /// The completed unit.
        unit: UnitSpec,
        /// Worker slot that ran it.
        worker: usize,
        /// Runs the unit classified.
        runs: u64,
        /// Anomalies the campaign logged.
        anomalies: usize,
        /// Units completed so far.
        completed: usize,
        /// Units planned this invocation.
        planned: usize,
    },
    /// A unit failed with a typed campaign error and will retry or
    /// quarantine.
    UnitFailed {
        /// The failed unit.
        unit: UnitSpec,
        /// Worker slot it failed on.
        worker: usize,
        /// Display form of the error.
        error: String,
    },
    /// A unit was abandoned after deterministic failure or attempt
    /// exhaustion.
    Quarantined {
        /// The abandoned unit.
        unit: UnitSpec,
        /// Why it was given up on.
        why: String,
    },
    /// Free disk under the shard directory crossed the configured
    /// watermark (`paused == true`: assignment paused) or recovered above
    /// it (`paused == false`: assignment resumed).
    DiskPressure {
        /// Free space measured, in MiB.
        free_mb: u64,
        /// The configured watermark, in MiB.
        watermark_mb: u64,
        /// Whether unit assignment is paused as of this event.
        paused: bool,
    },
    /// Cancellation was requested; the sweep is draining in-flight units
    /// and will merge partial results.
    Cancelled,
    /// The final merge ran.
    Merged {
        /// Campaigns in the merged store.
        campaigns: usize,
        /// Uncovered run-ranges left (the resume plan).
        gaps: usize,
        /// The worst achieved error margin across merged campaigns.
        worst_margin: Option<f64>,
    },
}

impl FabricEvent {
    /// The event's kind discriminator, kebab-case.
    pub fn kind(&self) -> &'static str {
        match self {
            FabricEvent::Planned { .. } => "planned",
            FabricEvent::WorkerReady { .. } => "worker-ready",
            FabricEvent::WorkerLost { .. } => "worker-lost",
            FabricEvent::UnitDone { .. } => "unit-done",
            FabricEvent::UnitFailed { .. } => "unit-failed",
            FabricEvent::Quarantined { .. } => "quarantined",
            FabricEvent::DiskPressure { .. } => "disk-pressure",
            FabricEvent::Cancelled => "cancelled",
            FabricEvent::Merged { .. } => "merged",
        }
    }

    /// The event's payload as a JSON object (kind included).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("kind".into(), Json::str(self.kind()))];
        match self {
            FabricEvent::Planned { units, campaigns } => {
                fields.push(("units".into(), Json::usize(*units)));
                fields.push(("campaigns".into(), Json::usize(*campaigns)));
            }
            FabricEvent::WorkerReady { slot, pid } => {
                fields.push(("slot".into(), Json::usize(*slot)));
                fields.push(("pid".into(), Json::u64(*pid as u64)));
            }
            FabricEvent::WorkerLost { slot, detail } => {
                fields.push(("slot".into(), Json::usize(*slot)));
                fields.push(("detail".into(), Json::str(detail)));
            }
            FabricEvent::UnitDone {
                unit,
                worker,
                runs,
                anomalies,
                completed,
                planned,
            } => {
                fields.push(("unit".into(), unit_to_json(unit)));
                fields.push(("worker".into(), Json::usize(*worker)));
                fields.push(("runs".into(), Json::u64(*runs)));
                fields.push(("anomalies".into(), Json::usize(*anomalies)));
                fields.push(("completed".into(), Json::usize(*completed)));
                fields.push(("planned".into(), Json::usize(*planned)));
            }
            FabricEvent::UnitFailed {
                unit,
                worker,
                error,
            } => {
                fields.push(("unit".into(), unit_to_json(unit)));
                fields.push(("worker".into(), Json::usize(*worker)));
                fields.push(("error".into(), Json::str(error)));
            }
            FabricEvent::Quarantined { unit, why } => {
                fields.push(("unit".into(), unit_to_json(unit)));
                fields.push(("why".into(), Json::str(why)));
            }
            FabricEvent::DiskPressure {
                free_mb,
                watermark_mb,
                paused,
            } => {
                fields.push(("free_mb".into(), Json::u64(*free_mb)));
                fields.push(("watermark_mb".into(), Json::u64(*watermark_mb)));
                fields.push(("paused".into(), Json::Bool(*paused)));
            }
            FabricEvent::Cancelled => {}
            FabricEvent::Merged {
                campaigns,
                gaps,
                worst_margin,
            } => {
                fields.push(("campaigns".into(), Json::usize(*campaigns)));
                fields.push(("gaps".into(), Json::usize(*gaps)));
                fields.push((
                    "worst_margin".into(),
                    match worst_margin {
                        Some(m) => Json::f64(*m),
                        None => Json::Null,
                    },
                ));
            }
        }
        Json::Obj(fields)
    }
}

/// A boxed [`FabricEvent`] observer.
pub type EventSink = Box<dyn FnMut(&FabricEvent) + Send>;

/// Observer and control hooks for a supervised sweep
/// ([`Supervisor::run_with`]): an event sink fed from inside the
/// scheduler loop, and a cooperative cancellation flag checked every tick.
#[derive(Default)]
pub struct SweepOptions {
    /// Called synchronously for every [`FabricEvent`].
    pub on_event: Option<EventSink>,
    /// When set to `true`, the sweep stops dispatching, drains in-flight
    /// units, and merges what it has — the shard directory stays
    /// resumable.
    pub cancel: Option<Arc<AtomicBool>>,
}

/// What a supervised sweep did, end to end.
#[derive(Debug, Default)]
pub struct FabricReport {
    /// Units planned this invocation (after resume skipping).
    pub units_planned: usize,
    /// Units that completed (including retries).
    pub units_completed: usize,
    /// Retries scheduled (worker loss, stall, deadline, typed failure).
    pub retries: usize,
    /// Always 0: no unit is split or run speculatively. Kept only because
    /// the reference benchmark still reports it as `fabric.steals`.
    pub steals: usize,
    /// Worker processes spawned (including replacements).
    pub workers_spawned: usize,
    /// Workers lost to crashes, stalls or protocol garbage.
    pub workers_lost: usize,
    /// Whether the sweep was cancelled before finishing (partial results
    /// merged; shard dir resumable).
    pub cancelled: bool,
    /// Units abandoned after deterministic failure on ≥ 2 workers or
    /// attempt exhaustion, with the last error text.
    pub quarantined: Vec<(UnitSpec, String)>,
    /// Campaigns skipped because the final store already held fresh rows.
    pub skipped_existing: usize,
    /// Campaigns whose stored fingerprint was stale (re-run).
    pub stale_rerun: usize,
    /// Workloads whose golden run failed (their campaigns cannot run).
    pub failed_workloads: Vec<(Workload, CampaignError)>,
    /// The final merge accounting.
    pub merge: MergeReport,
    /// Fabric-level anomalies (worker loss, stalls, quarantines …).
    pub anomalies: AnomalyLog,
}

impl FabricReport {
    /// Whether every planned unit completed and merged.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.merge.is_complete()
    }
}

/// How the supervisor acquires workers: it spawns `repro worker` child
/// processes over stdio pipes and respawns replacements for lost ones.
/// There is no other way, so this one-variant enum stays only because the
/// reference benchmark passes it to [`Supervisor::run_with`].
pub enum WorkerPool {
    /// Spawn local worker processes.
    Spawn,
}

/// One spawned worker process and its control stream.
struct Slot {
    child: Child,
    stdin: BufWriter<ChildStdin>,
    /// Hello received; eligible for assignments.
    ready: bool,
    alive: bool,
    /// The in-flight unit id, if busy.
    busy: Option<u64>,
    /// Last message of any kind (stall detection).
    last_seen: Instant,
}

impl Slot {
    fn send(&mut self, msg: &ToWorker) -> std::io::Result<()> {
        write_frame(&mut self.stdin, &msg.to_json())
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[derive(Debug, Clone)]
struct UnitState {
    spec: UnitSpec,
    attempts: usize,
    /// Distinct workers this unit *failed* (typed error) on.
    failed_on: BTreeSet<usize>,
    eligible_at: Instant,
    last_error: String,
}

impl UnitState {
    /// A unit never attempted, eligible from `eligible_at`.
    fn new(spec: UnitSpec, eligible_at: Instant) -> Self {
        Self {
            spec,
            attempts: 0,
            failed_on: BTreeSet::new(),
            eligible_at,
            last_error: String::new(),
        }
    }
}

struct Flight {
    state: UnitState,
    worker: usize,
    started: Instant,
}

/// The supervisor: plans, schedules, merges.
pub struct Supervisor<'a> {
    exp: &'a Experiments,
    config: &'a FabricConfig,
    /// Every planned campaign's source and unit-space size.
    plan: SweepPlan,
    shard_dir: PathBuf,
    expected: BTreeMap<Workload, GoldenFingerprint>,
    slots: Vec<Slot>,
    events: mpsc::Receiver<(usize, Result<ToSupervisor, ProtocolError>)>,
    events_tx: mpsc::Sender<(usize, Result<ToSupervisor, ProtocolError>)>,
    pending: Vec<UnitState>,
    in_flight: BTreeMap<u64, Flight>,
    next_unit_id: u64,
    report: FabricReport,
    /// The chaos targets parsed from `MBU_CHAOS_WORKER`, each armed once.
    chaos_targets: Vec<(usize, String)>,
    /// Event sink and cancellation flag.
    opts: SweepOptions,
    /// Replacement spawns owed for lost workers; paid down from the
    /// scheduler tick while the circuit breaker is closed.
    respawn_deficit: usize,
    /// Worker losses since the last completed unit; reaching
    /// [`FabricConfig::breaker_trip`] opens the breaker.
    consecutive_losses: usize,
    /// While set, the respawn breaker is open: replacements wait until
    /// this instant instead of hot-looping a worker that dies on arrival.
    breaker_open_until: Option<Instant>,
    /// Whether the disk-space governor has paused unit assignment.
    disk_paused: bool,
    /// Last free-disk probe (throttles the `df` subprocess to ~2/s).
    last_disk_probe: Option<Instant>,
}

fn spawn_reader(
    index: usize,
    reader: ChildStdout,
    tx: mpsc::Sender<(usize, Result<ToSupervisor, ProtocolError>)>,
) {
    std::thread::spawn(move || {
        let mut reader = BufReader::new(reader);
        loop {
            let item = read_frame(&mut reader).and_then(|v| ToSupervisor::from_json(&v));
            let stop = item.is_err();
            if tx.send((index, item)).is_err() || stop {
                // After any framing error the stream cannot be resynced;
                // the scheduler drops the worker.
                break;
            }
        }
    });
}

impl<'a> Supervisor<'a> {
    /// Plans a sampled sweep over `components` and runs it to completion
    /// on spawned workers, returning the merged accounting. The merged
    /// final store is saved to `out_csv` atomically.
    ///
    /// # Errors
    ///
    /// [`FabricError`] on store I/O failures, unspawnable workers, or a
    /// fully-exhausted pool with work remaining. Campaign-level failures
    /// never abort the sweep — they quarantine.
    pub fn run(
        exp: &'a Experiments,
        components: &[HwComponent],
        config: &'a FabricConfig,
        shard_dir: &Path,
        out_csv: &Path,
        pool: WorkerPool,
    ) -> Result<(ResultStore, FabricReport), FabricError> {
        Self::run_with(
            exp,
            components,
            config,
            shard_dir,
            out_csv,
            pool,
            SweepOptions::default(),
        )
    }

    /// [`Supervisor::run`] with observer and control hooks: a live
    /// [`FabricEvent`] sink and a cooperative cancellation flag.
    ///
    /// # Errors
    ///
    /// As [`Supervisor::run`].
    pub fn run_with(
        exp: &'a Experiments,
        components: &[HwComponent],
        config: &'a FabricConfig,
        shard_dir: &Path,
        out_csv: &Path,
        pool: WorkerPool,
        opts: SweepOptions,
    ) -> Result<(ResultStore, FabricReport), FabricError> {
        let campaigns = exp.sampled_campaigns(components);
        Self::run_campaigns(exp, &campaigns, config, shard_dir, out_csv, pool, opts)
    }

    /// Plans and runs a distributed sweep of `campaigns`, each drawn from
    /// its [`FaultSource`]: sampled campaigns shard by run range,
    /// exhaustive ones by live-class range (dead classes credited `Masked`
    /// at merge), stratified ones dispatch as one whole-campaign sampler
    /// unit. The merged store is byte-identical to the in-process
    /// [`Experiments::run_campaigns`] over the same list.
    ///
    /// On cancellation the sweep drains in-flight units (their rows become
    /// durable), merges the partial coverage, and returns with
    /// `report.cancelled == true` — the shard directory resumes exactly
    /// where it stopped.
    ///
    /// # Errors
    ///
    /// As [`Supervisor::run`]. Campaigns that cannot be planned (an
    /// exhaustive plan that does not compile) are quarantined, not fatal.
    pub fn run_campaigns(
        exp: &'a Experiments,
        campaigns: &[(Key, FaultSource)],
        config: &'a FabricConfig,
        shard_dir: &Path,
        out_csv: &Path,
        pool: WorkerPool,
        opts: SweepOptions,
    ) -> Result<(ResultStore, FabricReport), FabricError> {
        let WorkerPool::Spawn = pool;
        std::fs::create_dir_all(shard_dir)?;
        let mut sup = Supervisor::new(exp, config, shard_dir, opts);
        // Golden fingerprints per workload: the freshness reference for
        // resume skipping, shard-row validation and the final merge.
        for &w in &exp.workloads {
            match golden_fingerprint(exp.core, w) {
                Ok(fp) => {
                    sup.expected.insert(w, fp);
                }
                Err(e) => sup.report.failed_workloads.push((w, e)),
            }
        }
        let mut existing = sup.load_existing(out_csv)?;
        sup.plan(campaigns, &mut existing)?;
        if sup.config.verbose {
            eprintln!(
                "fabric: {} unit(s) planned across {} campaign(s), {} worker(s)",
                sup.report.units_planned,
                campaigns.len(),
                config.workers,
            );
        }
        sup.emit(FabricEvent::Planned {
            units: sup.report.units_planned,
            campaigns: campaigns.len(),
        });
        if sup.cancel_requested() {
            // Cancelled before any dispatch: merge whatever the shard
            // directory already holds and return.
            sup.report.cancelled = true;
            sup.emit(FabricEvent::Cancelled);
        } else if !sup.pending.is_empty() {
            for _ in 0..config.workers {
                sup.spawn_worker()?;
            }
            sup.schedule()?;
            sup.shutdown_workers();
        }
        sup.finish(existing, out_csv)
    }

    /// A supervisor with nothing planned, no workers and no golden
    /// fingerprints yet.
    fn new(
        exp: &'a Experiments,
        config: &'a FabricConfig,
        shard_dir: &Path,
        opts: SweepOptions,
    ) -> Self {
        let (events_tx, events) = mpsc::channel();
        Supervisor {
            exp,
            config,
            plan: SweepPlan::new(),
            shard_dir: shard_dir.to_path_buf(),
            expected: BTreeMap::new(),
            slots: Vec::new(),
            events,
            events_tx,
            pending: Vec::new(),
            in_flight: BTreeMap::new(),
            next_unit_id: 0,
            report: FabricReport::default(),
            chaos_targets: crate::chaos::WorkerChaos::targets_from_env(),
            opts,
            respawn_deficit: 0,
            consecutive_losses: 0,
            breaker_open_until: None,
            disk_paused: false,
            last_disk_probe: None,
        }
    }

    fn emit(&mut self, ev: FabricEvent) {
        if let Some(f) = self.opts.on_event.as_mut() {
            f(&ev);
        }
    }

    fn cancel_requested(&self) -> bool {
        self.opts
            .cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// Loads the final store, keeping only rows whose fingerprint matches
    /// the current build (stale rows re-run).
    fn load_existing(&mut self, out_csv: &Path) -> Result<ResultStore, FabricError> {
        let (disk, _audit) = ResultStore::recover(out_csv)?;
        let mut fresh = ResultStore::new();
        for r in disk.iter() {
            let stored = disk.fingerprint(r.component, r.workload, r.faults);
            if stored.is_some() && stored == self.expected.get(&r.workload).copied() {
                // Class rows keep their coverage metadata on resume.
                let meta = disk.exhaustive_meta(r.component, r.workload, r.faults);
                fresh.insert_flavored(r.clone(), stored, meta);
                self.report.skipped_existing += 1;
            } else {
                self.report.stale_rerun += 1;
            }
        }
        Ok(fresh)
    }

    /// Plans pending units: every campaign not already in the final store
    /// gets its unit space sized by its source, minus whatever complete
    /// coverage the shard directory already holds (supervisor-crash
    /// resume), and each gap is split by its source into units.
    fn plan(
        &mut self,
        campaigns: &[(Key, FaultSource)],
        existing: &mut ResultStore,
    ) -> Result<(), FabricError> {
        for &(key, source) in campaigns {
            let (component, w, faults) = key;
            if existing.contains(component, w, faults) || !self.expected.contains_key(&w) {
                continue;
            }
            match source.unit_space(self.exp, key) {
                Ok(UnitSpace::Units(total)) => {
                    self.plan.insert(key, (source, total));
                }
                // Every class is provably dead: resolved supervisor-side,
                // so the merge never sees a zero-row cover.
                Ok(UnitSpace::Resolved(result, meta)) => {
                    existing.insert_flavored(*result, self.expected.get(&w).copied(), Some(meta));
                }
                Err(e) => self.quarantine_campaign(key, &e.to_string()),
            }
        }
        let rows = load_shard_dir(&RealIo, &self.shard_dir)?;
        let (_pre, pre_report) = merge_rows(self.exp, &self.plan, &rows, &self.expected);
        let now = Instant::now();
        for gap in &pre_report.gaps {
            let key = gap.campaign_key();
            let (source, _) = self.plan[&key];
            for spec in source.split(self.exp, self.config, key, gap.range()) {
                self.pending.push(UnitState::new(spec, now));
            }
        }
        // Deterministic dispatch order.
        self.pending
            .sort_by_key(|u| (u.spec.campaign_key(), u.spec.start));
        self.report.units_planned = self.pending.len();
        Ok(())
    }

    /// Quarantines a whole campaign at planning time (an exhaustive plan
    /// that does not compile) as its zero-length unit — the same
    /// accounting path units that fail at execution time take.
    fn quarantine_campaign(&mut self, key: Key, why: &str) {
        let (component, workload, faults) = key;
        let spec = UnitSpec {
            component,
            workload,
            faults,
            start: 0,
            end: 0,
        };
        self.report.anomalies.record(Anomaly {
            run_index: 0,
            run_seed: self.exp.seed,
            kind: AnomalyKind::UnitQuarantined,
            message: format!("{spec} quarantined at planning: {why}"),
        });
        if self.config.verbose {
            eprintln!("fabric: quarantined {spec} at planning: {why}");
        }
        self.emit(FabricEvent::Quarantined {
            unit: spec,
            why: why.to_string(),
        });
        self.report.quarantined.push((spec, why.to_string()));
    }

    /// The wire instruction for a unit of the planned campaign `key`.
    fn exp_spec(&self, key: Key) -> ExpSpec {
        let (source, _) = self.plan[&key];
        ExpSpec {
            runs: self.exp.runs,
            seed: self.exp.seed,
            threads: self.exp.threads,
            adaptive: self.exp.adaptive,
            equiv: source.wire(self.exp),
        }
    }

    fn shard_path(&self, slot: usize) -> PathBuf {
        self.shard_dir.join(format!("worker-{slot:03}.csv"))
    }

    /// Spawns one worker process (`worker --shard <path>`), appending
    /// `--fault <spec>` when a chaos fault is aimed at its slot index.
    /// Every spawn takes a fresh index and each fault is armed once, so a
    /// kill fault cannot loop.
    fn spawn_worker(&mut self) -> Result<(), FabricError> {
        let index = self.slots.len();
        let exe = std::env::current_exe()?;
        let mut cmd = Command::new(exe);
        cmd.arg("worker")
            .arg("--shard")
            .arg(self.shard_path(index))
            .env(
                "MBU_HEARTBEAT_MS",
                self.config.heartbeat.as_millis().to_string(),
            )
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(at) = self.chaos_targets.iter().position(|(t, _)| *t == index) {
            // Armed exactly once.
            let (_, fault) = self.chaos_targets.remove(at);
            cmd.arg("--fault").arg(fault);
        }
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let stdin = child.stdin.take().expect("stdin was piped");
        spawn_reader(index, stdout, self.events_tx.clone());
        self.slots.push(Slot {
            child,
            stdin: BufWriter::new(stdin),
            ready: false,
            alive: true,
            busy: None,
            last_seen: Instant::now(),
        });
        self.report.workers_spawned += 1;
        if self.config.verbose {
            eprintln!("fabric: spawned worker {index}");
        }
        Ok(())
    }

    /// Takes the next unit to dispatch, if any is eligible now (a retry
    /// waits out its backoff): retried units first, so a unit lost with its
    /// worker does not wait behind every planned unit and become the
    /// sweep's tail, then by campaign key and start.
    fn next_pending(&mut self) -> Option<UnitState> {
        let now = Instant::now();
        let idx = self
            .pending
            .iter()
            .enumerate()
            .filter(|(_, u)| u.eligible_at <= now)
            .min_by_key(|(_, u)| (u.attempts == 0, u.spec.campaign_key(), u.spec.start))
            .map(|(i, _)| i)?;
        Some(self.pending.remove(idx))
    }

    fn assign(&mut self, slot: usize, state: UnitState) -> Result<(), FabricError> {
        let unit_id = self.next_unit_id;
        self.next_unit_id += 1;
        let msg = ToWorker::Assign {
            unit_id,
            unit: state.spec,
            exp: self.exp_spec(state.spec.campaign_key()),
        };
        if self.config.verbose {
            eprintln!(
                "fabric: assign unit {unit_id} ({}) -> worker {slot} (attempt {})",
                state.spec,
                state.attempts + 1
            );
        }
        match self.slots[slot].send(&msg) {
            Ok(()) => {
                self.slots[slot].busy = Some(unit_id);
                self.slots[slot].last_seen = Instant::now();
                self.in_flight.insert(
                    unit_id,
                    Flight {
                        state,
                        worker: slot,
                        started: Instant::now(),
                    },
                );
                Ok(())
            }
            Err(e) => {
                // The worker died between messages; requeue and drop it.
                self.pending.push(state);
                self.drop_worker(slot, AnomalyKind::WorkerLost, &format!("send failed: {e}"))?;
                Ok(())
            }
        }
    }

    /// Marks a worker dead, reclaims its in-flight unit, and records a
    /// replacement spawn to be paid down by the scheduler tick — through
    /// the circuit breaker, so a worker that dies on arrival cools down
    /// instead of hot-looping respawns.
    fn drop_worker(
        &mut self,
        slot: usize,
        kind: AnomalyKind,
        detail: &str,
    ) -> Result<(), FabricError> {
        if !self.slots[slot].alive {
            return Ok(());
        }
        self.slots[slot].alive = false;
        self.slots[slot].ready = false;
        self.slots[slot].kill();
        self.report.workers_lost += 1;
        self.consecutive_losses += 1;
        self.emit(FabricEvent::WorkerLost {
            slot,
            detail: detail.to_string(),
        });
        if let Some(unit_id) = self.slots[slot].busy.take() {
            if let Some(flight) = self.in_flight.remove(&unit_id) {
                let spec = flight.state.spec;
                self.report.anomalies.record(Anomaly {
                    run_index: spec.start,
                    run_seed: self.exp.seed,
                    kind,
                    message: format!(
                        "worker {slot} lost while running {spec} ({detail}); unit will be retried"
                    ),
                });
                self.retry(flight.state, None, detail)?;
            }
        } else if self.config.verbose {
            eprintln!("fabric: idle worker {slot} dropped ({detail})");
        }
        if !(self.pending.is_empty() && self.in_flight.is_empty()) {
            // Replacements stay bounded: each loss owes at most one spawn.
            self.respawn_deficit += 1;
            if self.consecutive_losses >= self.config.breaker_trip
                && self.breaker_open_until.is_none()
            {
                self.breaker_open_until = Some(Instant::now() + self.config.breaker_cooldown);
                self.report.anomalies.record(Anomaly {
                    run_index: 0,
                    run_seed: self.exp.seed,
                    kind: AnomalyKind::WorkerLost,
                    message: format!(
                        "respawn breaker opened after {} consecutive worker losses; \
                         cooling down {:.1}s before spawning replacements",
                        self.consecutive_losses,
                        self.config.breaker_cooldown.as_secs_f64()
                    ),
                });
                eprintln!(
                    "fabric: respawn breaker open ({} consecutive losses); \
                     cooldown {:.1}s",
                    self.consecutive_losses,
                    self.config.breaker_cooldown.as_secs_f64()
                );
            }
        }
        Ok(())
    }

    /// Pays down owed replacement spawns, but only while the circuit
    /// breaker is closed. Called from the scheduler tick.
    fn pump_respawns(&mut self) -> Result<(), FabricError> {
        if self.respawn_deficit == 0 {
            return Ok(());
        }
        if let Some(until) = self.breaker_open_until {
            if Instant::now() < until {
                return Ok(());
            }
            self.breaker_open_until = None;
            self.consecutive_losses = 0;
            if self.config.verbose {
                eprintln!("fabric: respawn breaker closed; resuming replacements");
            }
        }
        while self.respawn_deficit > 0 {
            if self.pending.is_empty() && self.in_flight.is_empty() {
                self.respawn_deficit = 0;
                break;
            }
            self.respawn_deficit -= 1;
            self.spawn_worker()?;
        }
        Ok(())
    }

    /// The disk-space governor: probes free space under the shard
    /// directory (throttled) and pauses/resumes unit assignment around the
    /// configured watermark, logging one typed `disk-pressure` anomaly per
    /// breach instead of letting shard appends hit raw ENOSPC.
    fn check_disk(&mut self) {
        let Some(watermark) = self.config.disk_watermark_mb else {
            return;
        };
        if self
            .last_disk_probe
            .is_some_and(|t| t.elapsed() < Duration::from_millis(500))
        {
            return;
        }
        self.last_disk_probe = Some(Instant::now());
        // An unprobeable disk is "no information", not pressure.
        let Some(free) = crate::io::free_disk_mb(&self.shard_dir) else {
            return;
        };
        if !self.disk_paused && free < watermark {
            self.disk_paused = true;
            self.report.anomalies.record(Anomaly {
                run_index: 0,
                run_seed: self.exp.seed,
                kind: AnomalyKind::DiskPressure,
                message: format!(
                    "free disk {free} MiB under watermark {watermark} MiB; \
                     pausing unit assignment until space recovers"
                ),
            });
            eprintln!(
                "fabric: disk pressure ({free} MiB free < {watermark} MiB watermark); \
                 pausing unit assignment"
            );
            self.emit(FabricEvent::DiskPressure {
                free_mb: free,
                watermark_mb: watermark,
                paused: true,
            });
        } else if self.disk_paused && free >= watermark {
            self.disk_paused = false;
            eprintln!("fabric: disk pressure cleared ({free} MiB free); resuming unit assignment");
            self.emit(FabricEvent::DiskPressure {
                free_mb: free,
                watermark_mb: watermark,
                paused: false,
            });
        }
    }

    /// Requeues a unit with backoff, or quarantines it after
    /// deterministic failure on ≥ 2 workers / attempt exhaustion.
    ///
    /// # Errors
    ///
    /// [`FabricError::RetryBudgetExhausted`] when scheduling this retry
    /// would exceed the sweep's configured retry budget.
    fn retry(
        &mut self,
        mut state: UnitState,
        failed_worker: Option<usize>,
        error: &str,
    ) -> Result<(), FabricError> {
        state.attempts += 1;
        state.last_error = error.to_string();
        if let Some(w) = failed_worker {
            state.failed_on.insert(w);
        }
        let deterministic = state.failed_on.len() >= 2;
        if deterministic || state.attempts >= self.config.max_attempts {
            let spec = state.spec;
            let why = if deterministic {
                format!(
                    "failed deterministically on {} distinct workers: {error}",
                    state.failed_on.len()
                )
            } else {
                format!("exhausted {} attempts: {error}", state.attempts)
            };
            self.report.anomalies.record(Anomaly {
                run_index: spec.start,
                run_seed: self.exp.seed,
                kind: AnomalyKind::UnitQuarantined,
                message: format!("{spec} quarantined: {why}"),
            });
            if self.config.verbose {
                eprintln!("fabric: quarantined {spec}: {why}");
            }
            self.emit(FabricEvent::Quarantined {
                unit: spec,
                why: why.clone(),
            });
            self.report.quarantined.push((spec, why));
            return Ok(());
        }
        if let Some(budget) = self.config.retry_budget {
            if self.report.retries >= budget {
                return Err(FabricError::RetryBudgetExhausted {
                    budget,
                    last_error: error.to_string(),
                });
            }
        }
        self.report.retries += 1;
        let backoff = self.config.retry_backoff * 2u32.pow((state.attempts - 1).min(8) as u32);
        state.eligible_at = Instant::now() + backoff;
        self.pending.push(state);
        Ok(())
    }

    /// The scheduler loop: dispatch, supervise, reclaim, until no work
    /// remains.
    fn schedule(&mut self) -> Result<(), FabricError> {
        let tick = Duration::from_millis(50);
        loop {
            // Pay down owed replacement spawns (breaker permitting) and
            // probe the disk-space governor.
            self.pump_respawns()?;
            self.check_disk();
            if self.cancel_requested() {
                // Stop dispatching: drop queued units (their gaps stay in
                // the merge's resume plan) and drain what's in flight so
                // every started unit becomes a durable shard row.
                if !self.report.cancelled {
                    self.report.cancelled = true;
                    self.emit(FabricEvent::Cancelled);
                    if self.config.verbose {
                        eprintln!(
                            "fabric: cancellation requested; draining {} in-flight unit(s)",
                            self.in_flight.len()
                        );
                    }
                }
                self.pending.clear();
            } else if !self.disk_paused {
                // Dispatch to every idle ready worker (held while the
                // disk-space governor has assignment paused).
                while let Some(slot) = self
                    .slots
                    .iter()
                    .position(|s| s.alive && s.ready && s.busy.is_none())
                {
                    let Some(state) = self.next_pending() else {
                        break;
                    };
                    self.assign(slot, state)?;
                }
            }
            if self.pending.is_empty() && self.in_flight.is_empty() {
                return Ok(());
            }
            // With no worker alive, owed replacements (held by an open
            // breaker, or paid down next tick) keep the sweep ticking
            // through the cooldown; with none owed, the pool is exhausted.
            if self.respawn_deficit == 0 && !self.slots.iter().any(|s| s.alive) {
                return Err(FabricError::WorkersExhausted {
                    pending: self.pending.len() + self.in_flight.len(),
                });
            }
            match self.events.recv_timeout(tick) {
                Ok((slot, Ok(msg))) => self.on_message(slot, msg)?,
                Ok((slot, Err(ProtocolError::Eof))) => {
                    self.drop_worker(slot, AnomalyKind::WorkerLost, "connection closed")?;
                }
                Ok((slot, Err(e))) => {
                    self.drop_worker(slot, AnomalyKind::ProtocolGarbage, &e.to_string())?;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(FabricError::WorkersExhausted {
                        pending: self.pending.len() + self.in_flight.len(),
                    });
                }
            }
            self.check_liveness()?;
        }
    }

    fn on_message(&mut self, slot: usize, msg: ToSupervisor) -> Result<(), FabricError> {
        if !self.slots[slot].alive {
            // Late message from a worker already declared dead; its rows
            // are still on disk and the merge dedups them.
            return Ok(());
        }
        self.slots[slot].last_seen = Instant::now();
        match msg {
            ToSupervisor::Hello { pid } => {
                self.slots[slot].ready = true;
                if self.config.verbose {
                    eprintln!("fabric: worker {slot} ready (pid {pid})");
                }
                self.emit(FabricEvent::WorkerReady { slot, pid });
            }
            // Liveness only: `last_seen` was refreshed above.
            ToSupervisor::Heartbeat { .. } => {}
            ToSupervisor::Done {
                unit_id,
                row,
                anomalies,
            } => {
                if self.slots[slot].busy == Some(unit_id) {
                    self.slots[slot].busy = None;
                }
                if let Some(flight) = self.in_flight.remove(&unit_id) {
                    self.report.units_completed += 1;
                    // Real progress: the pool is healthy enough that the
                    // respawn breaker's loss streak resets.
                    self.consecutive_losses = 0;
                    if self.config.verbose {
                        eprintln!(
                            "fabric: unit {unit_id} done on worker {slot} \
                             ({} runs, {anomalies} anomalies)",
                            row.counts.total()
                        );
                    }
                    self.emit(FabricEvent::UnitDone {
                        unit: flight.state.spec,
                        worker: slot,
                        runs: row.counts.total(),
                        anomalies,
                        completed: self.report.units_completed,
                        planned: self.report.units_planned,
                    });
                }
            }
            ToSupervisor::Fail { unit_id, error } => {
                if self.slots[slot].busy == Some(unit_id) {
                    self.slots[slot].busy = None;
                }
                if let Some(flight) = self.in_flight.remove(&unit_id) {
                    let spec = flight.state.spec;
                    self.report.anomalies.record(Anomaly {
                        run_index: spec.start,
                        run_seed: self.exp.seed,
                        kind: AnomalyKind::WorkerLost,
                        message: format!(
                            "unit {spec} failed on worker {slot}: {error}; retry scheduled"
                        ),
                    });
                    self.emit(FabricEvent::UnitFailed {
                        unit: spec,
                        worker: slot,
                        error: error.clone(),
                    });
                    self.retry(flight.state, Some(slot), &error)?;
                }
            }
        }
        Ok(())
    }

    /// Stall and deadline supervision.
    fn check_liveness(&mut self) -> Result<(), FabricError> {
        let now = Instant::now();
        let stalled: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.alive
                    && s.busy.is_some()
                    && now.duration_since(s.last_seen) > self.config.stall_timeout
            })
            .map(|(i, _)| i)
            .collect();
        for slot in stalled {
            self.drop_worker(
                slot,
                AnomalyKind::WorkerStall,
                &format!(
                    "no heartbeat for {:.1}s",
                    self.config.stall_timeout.as_secs_f64()
                ),
            )?;
        }
        if let Some(deadline) = self.config.unit_deadline {
            let overdue: Vec<usize> = self
                .in_flight
                .values()
                .filter(|f| now.duration_since(f.started) > deadline)
                .map(|f| f.worker)
                .collect();
            for slot in overdue {
                self.drop_worker(
                    slot,
                    AnomalyKind::WallClock,
                    &format!("unit exceeded its {:.1}s deadline", deadline.as_secs_f64()),
                )?;
            }
        }
        Ok(())
    }

    /// Clean shutdown of surviving workers.
    fn shutdown_workers(&mut self) {
        for slot in &mut self.slots {
            if slot.alive {
                let _ = slot.send(&ToWorker::Shutdown);
            }
        }
        for slot in &mut self.slots {
            if slot.alive {
                let _ = slot.child.wait();
            }
        }
    }

    /// The final crash-consistent merge: re-read every shard file, splice
    /// campaigns, recompute margins, combine with pre-existing fresh rows
    /// and save atomically.
    fn finish(
        mut self,
        existing: ResultStore,
        out_csv: &Path,
    ) -> Result<(ResultStore, FabricReport), FabricError> {
        let rows = load_shard_dir(&RealIo, &self.shard_dir)?;
        // The plan only ever holds campaigns that were not already in the
        // final store, so no filtering here.
        let (merged, merge_report) = merge_rows(self.exp, &self.plan, &rows, &self.expected);
        let mut store = existing;
        for r in merged.iter() {
            // Class campaigns carry their coverage metadata (classes,
            // population) into the final store.
            store.insert_flavored(
                r.clone(),
                merged.fingerprint(r.component, r.workload, r.faults),
                merged.exhaustive_meta(r.component, r.workload, r.faults),
            );
        }
        store.save(out_csv)?;
        self.report.merge = merge_report;
        let worst_margin = store
            .iter()
            .filter_map(|r| r.achieved_margin)
            .fold(None, |acc: Option<f64>, m| {
                Some(acc.map_or(m, |a| a.max(m)))
            });
        self.emit(FabricEvent::Merged {
            campaigns: store.len(),
            gaps: self.report.merge.gaps.len(),
            worst_margin,
        });
        Ok((store, self.report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_env_defaults_are_sane() {
        let c = FabricConfig::default();
        assert!(c.workers >= 1);
        assert!(c.max_attempts >= 1);
        assert!(c.disk_watermark_mb.is_none(), "governor off by default");
        assert!(c.breaker_trip >= 1);
        assert!(
            c.retry_budget.is_none(),
            "retry budget unbounded by default"
        );
    }

    #[test]
    fn governor_env_knobs_are_typed() {
        // Each governor knob rejects garbage with a typed ConfigError that
        // names the variable — no silent fallback to defaults.
        for var in [
            "MBU_DISK_WATERMARK_MB",
            "MBU_BREAKER_TRIP",
            "MBU_BREAKER_COOLDOWN_MS",
            "MBU_RETRY_BUDGET",
        ] {
            std::env::set_var(var, "banana");
            let err = FabricConfig::from_env().unwrap_err();
            assert!(
                err.to_string().contains(var),
                "error for {var} should name it: {err}"
            );
            std::env::remove_var(var);
        }
        // Zero is not a sane breaker trip point (it could never close).
        std::env::set_var("MBU_BREAKER_TRIP", "0");
        assert!(FabricConfig::from_env().is_err());
        std::env::remove_var("MBU_BREAKER_TRIP");
        // Valid values land in the right fields.
        std::env::set_var("MBU_DISK_WATERMARK_MB", "256");
        std::env::set_var("MBU_BREAKER_TRIP", "5");
        std::env::set_var("MBU_BREAKER_COOLDOWN_MS", "750");
        std::env::set_var("MBU_RETRY_BUDGET", "12");
        let c = FabricConfig::from_env().unwrap();
        assert_eq!(c.disk_watermark_mb, Some(256));
        assert_eq!(c.breaker_trip, 5);
        assert_eq!(c.breaker_cooldown, Duration::from_millis(750));
        assert_eq!(c.retry_budget, Some(12));
        for var in [
            "MBU_DISK_WATERMARK_MB",
            "MBU_BREAKER_TRIP",
            "MBU_BREAKER_COOLDOWN_MS",
            "MBU_RETRY_BUDGET",
        ] {
            std::env::remove_var(var);
        }
    }

    #[test]
    fn auto_unit_sizing_scales_with_workers() {
        let c = FabricConfig {
            workers: 3,
            ..FabricConfig::default()
        };
        // 150 runs / (3 workers × 4) = 13 runs per unit.
        assert_eq!(c.unit_size(150), 13);
        // Tiny campaigns never split below 8 runs…
        assert_eq!(c.unit_size(20), 8);
        // …and a unit never exceeds the campaign.
        assert_eq!(c.unit_size(5), 5);
    }

    /// A unit lost with its worker goes out before every planned unit once
    /// its backoff is over, instead of waiting behind them all.
    #[test]
    fn an_eligible_retry_dispatches_before_planned_units() {
        let exp = Experiments::default();
        let config = FabricConfig::default();
        let dir = std::env::temp_dir().join("mbu-next-pending-test");
        let mut sup = Supervisor::new(&exp, &config, &dir, SweepOptions::default());
        let unit = |start, end| UnitSpec {
            component: HwComponent::DTlb,
            workload: Workload::Sha,
            faults: 1,
            start,
            end,
        };
        sup.pending
            .push(UnitState::new(unit(0, 10), Instant::now()));
        let mut retried = UnitState::new(unit(10, 20), Instant::now());
        retried.attempts = 1;
        sup.pending.push(retried);
        assert_eq!(sup.next_pending().map(|u| u.spec), Some(unit(10, 20)));
        assert_eq!(sup.next_pending().map(|u| u.spec), Some(unit(0, 10)));
        assert!(sup.next_pending().is_none());
    }

    #[test]
    fn auto_unit_class_sizing_scales_with_workers() {
        let c = FabricConfig {
            workers: 4,
            ..FabricConfig::default()
        };
        // 1000 live classes / (4 workers × 4) = 63 classes per unit.
        assert_eq!(c.unit_size(1000), 63);
        // Tiny campaigns never split below 8 classes…
        assert_eq!(c.unit_size(20), 8);
        // …and a unit never exceeds the live-class count.
        assert_eq!(c.unit_size(3), 3);
    }
}
