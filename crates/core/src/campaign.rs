//! Statistical fault-injection campaigns (paper §III.A).
//!
//! A campaign fixes a (workload, component, fault cardinality) triple and
//! performs `runs` independent injection simulations:
//!
//! 1. one fault-free **golden run** establishes the reference output and the
//!    fault-free execution time `T`;
//! 2. each injection run draws a random injection cycle in `[0, T)` and a
//!    random fault mask, simulates up to the injection point, applies the
//!    bit flips, and continues until exit, crash, assert, or the timeout
//!    limit of `4 × T` (paper §III.C);
//! 3. outcomes are classified and aggregated into [`ClassCounts`].
//!
//! Every run classifies against one [`GoldenArtifacts`]: the golden output
//! and counters, plus the snapshot store when snapshots are on.
//! [`Campaign::try_run`] builds them itself, the self-contained reference;
//! a sweep builds them once per workload and runs each campaign, or each
//! work unit's run range, with [`Campaign::try_run_range`]. With snapshots
//! on, a run resumes straight from the golden checkpoint at or before its
//! injection cycle ([`Simulator::from_snapshot`]): it loads no program and
//! simulates only from that checkpoint on. With them off, the plain
//! executor builds the machine from the program and simulates the whole
//! prefix — the reference the differential suites compare against.
//!
//! Runs are distributed over worker threads by one injection executor,
//! which the exhaustive engine ([`crate::exhaustive`]) drives with class
//! representatives instead of seed-drawn faults. Results are deterministic
//! for a given seed regardless of thread count, because each run's RNG is
//! seeded from `(campaign seed, run index)`.
//!
//! # Resilience
//!
//! Long sweeps must survive individual bad runs, so the executor isolates
//! every injection run:
//!
//! * **Panic isolation** — each run, run hook included, executes under
//!   [`std::panic::catch_unwind`]. A panic inside the simulator is exactly
//!   what a hardware assert models (an internal invariant broken by the
//!   injected corruption), so a panicking run classifies as
//!   [`FaultEffect::Assert`] and the campaign keeps going. The panic payload
//!   and the run's seed are preserved in the campaign's [`AnomalyLog`] so
//!   the run can be replayed under a debugger.
//! * **Wall-clock deadline** — each run starts with a deadline
//!   [`CampaignConfig::run_wall_budget`] away, which the simulator checks
//!   on entry to every run segment and every 1,024 cycles; a run the
//!   deadline stops classifies as [`FaultEffect::Timeout`] and is logged
//!   as an anomaly. Class simulations run without one, so an exact AVF
//!   never depends on host speed.
//! * **Typed errors** — configuration problems and failed golden runs are
//!   reported as [`CampaignError`] through [`Campaign::try_new`] /
//!   [`Campaign::try_run`]; the panicking [`Campaign::new`] / \
//!   [`Campaign::run`] remain as conveniences for tests and examples.

use crate::classify::{classify, ClassCounts, FaultEffect};
use crate::error::CampaignError;
use crate::mask::{ClusterSpec, FaultMask, MaskGenerator};
use crate::stats;
use crate::tech::component_bits;
use mbu_ace::LivenessOracle;
use mbu_cpu::{CoreConfig, HwComponent, RunEnd, Simulator};
use mbu_snap::{GoldenArtifacts, SnapshotSpec, SnapshotStats, SnapshotStore};
use mbu_sram::{BitCoord, Geometry};
use mbu_workloads::Workload;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// Which SRAM array of the target component to inject into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InjectionTarget {
    /// The component's storage/data array — the paper's target (Table VIII
    /// bit counts).
    #[default]
    DataArray,
    /// A cache's tag array (tag + valid + dirty bits) — the ablation target
    /// for tag-protection studies; only valid for the three caches.
    TagArray,
}

impl fmt::Display for InjectionTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectionTarget::DataArray => f.write_str("data array"),
            InjectionTarget::TagArray => f.write_str("tag array"),
        }
    }
}

/// A per-run hook: an arbitrary (possibly stateful) closure invoked with
/// the run index (a class simulation's position) at the start of each
/// injection run, inside the isolation boundary. Cloning shares the
/// underlying closure.
#[derive(Clone)]
pub struct RunHook(pub Arc<dyn Fn(usize) + Send + Sync>);

impl RunHook {
    /// Wraps a closure as a hook.
    pub fn new(hook: impl Fn(usize) + Send + Sync + 'static) -> Self {
        Self(Arc::new(hook))
    }
}

impl fmt::Debug for RunHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RunHook(..)")
    }
}

/// Margin-driven adaptive sampling (paper §III.A readjustment, applied
/// online): after each batch of runs the achieved error margin is
/// recomputed with the *measured* AVF as the probability estimate, and the
/// campaign stops early once the target margin is met. A mostly-masked
/// campaign (small `p`) reaches the paper's 2.88 % target far before the
/// fixed 2 000 runs; a highly vulnerable one keeps sampling up to the
/// configured maximum.
///
/// Early stopping depends only on the deterministic per-run outcomes, so
/// adaptive campaigns remain reproducible across thread counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSpec {
    /// Stop once the achieved margin is at or below this target (e.g. the
    /// paper's 0.0288).
    pub target_margin: f64,
    /// Confidence z-value for the margin ([`stats::Z_99`] in the paper).
    pub z: f64,
    /// Never stop before this many runs, however tight the margin looks.
    pub min_runs: usize,
    /// Margin is re-evaluated every `batch` runs.
    pub batch: usize,
}

impl AdaptiveSpec {
    /// The paper's sampling target: 2.88 % margin at 99 % confidence,
    /// re-evaluated every 100 runs after at least 100.
    pub fn paper() -> Self {
        Self {
            target_margin: 0.0288,
            z: stats::Z_99,
            min_runs: 100,
            batch: 100,
        }
    }

    fn validate(&self) -> Result<(), CampaignError> {
        let reason = if !(self.target_margin > 0.0 && self.target_margin < 1.0) {
            Some("target margin must be in (0, 1)")
        } else if !(self.z.is_finite() && self.z > 0.0) {
            Some("z must be a positive finite number")
        } else if self.min_runs == 0 {
            Some("min_runs must be nonzero")
        } else if self.batch == 0 {
            Some("batch must be nonzero")
        } else {
            None
        };
        match reason {
            Some(reason) => Err(CampaignError::InvalidAdaptiveSpec { reason }),
            None => Ok(()),
        }
    }
}

/// Configuration of one injection campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The workload to run.
    pub workload: Workload,
    /// The hardware structure to inject into.
    pub component: HwComponent,
    /// Fault cardinality (bits flipped per injection), 1–3 in the paper.
    pub faults: usize,
    /// Number of injection runs (the paper uses 2 000; see [`crate::stats`]).
    pub runs: usize,
    /// Campaign seed; same seed ⇒ same results.
    pub seed: u64,
    /// Cluster window for spatial multi-bit faults.
    pub cluster: ClusterSpec,
    /// Core configuration.
    pub core: CoreConfig,
    /// Timeout limit as a multiple of the fault-free execution time.
    pub timeout_factor: u64,
    /// Worker threads (0 ⇒ available parallelism).
    pub threads: usize,
    /// Which array of the component to inject into.
    pub target: InjectionTarget,
    /// Collect a per-run fault list ([`RunDetail`]) in the result.
    pub collect_details: bool,
    /// Wall-clock budget per injection run. A run still going at its
    /// deadline is stopped by the simulator and classified as
    /// [`FaultEffect::Timeout`]; `None` sets no deadline. The stop depends
    /// on host speed, so it is the one knob that can make results
    /// non-deterministic — the generous default only fires on genuinely
    /// wedged runs.
    pub run_wall_budget: Option<Duration>,
    /// Consult a fault-free [`LivenessOracle`] before simulating each run:
    /// a mask whose flipped bits are all provably dead at the injection
    /// cycle classifies as [`FaultEffect::Masked`] without simulation. The
    /// oracle is conservative, so classifications are bit-identical with
    /// this on or off; skipped runs are counted in
    /// [`CampaignResult::oracle_skips`]. Only applies to
    /// [`InjectionTarget::DataArray`] campaigns.
    pub use_liveness_oracle: bool,
    /// Margin-driven adaptive sampling: when set, [`CampaignConfig::runs`]
    /// becomes the *maximum* and the campaign stops early once the achieved
    /// error margin (recomputed after every batch with the measured AVF as
    /// `p`) meets the target. `None` keeps the classic fixed-run behaviour.
    pub adaptive: Option<AdaptiveSpec>,
    /// Checkpointed fast-forward injection: record a [`SnapshotStore`] of
    /// golden-run checkpoints, start each injection run from the nearest
    /// checkpoint at or before its injection cycle, and stop a run early as
    /// `Masked` once a post-fault reconvergence check proves its reachable
    /// state identical to the golden run's. Classifications are
    /// bit-identical with this on or off (see `mbu_snap`); composes freely
    /// with [`CampaignConfig::use_liveness_oracle`] and
    /// [`CampaignConfig::adaptive`].
    pub use_snapshots: bool,
    /// Recording parameters (interval, memory cap) for the snapshot store;
    /// only consulted when [`CampaignConfig::use_snapshots`] is set.
    pub snapshot_spec: SnapshotSpec,
    /// Test-only fault hook, invoked with the run index (a class
    /// simulation's position) at the start of each injection run *inside*
    /// the isolation boundary. Lets tests provoke panics and stalls in an
    /// otherwise healthy engine.
    #[doc(hidden)]
    pub run_hook: Option<RunHook>,
}

impl CampaignConfig {
    /// Creates a campaign with the paper's defaults (3 × 3 cluster,
    /// Cortex-A9-like core, 4 × timeout, 200 runs).
    pub fn new(workload: Workload, component: HwComponent, faults: usize) -> Self {
        Self {
            workload,
            component,
            faults,
            runs: 200,
            seed: 0x6EF1_2019,
            cluster: ClusterSpec::DEFAULT,
            core: CoreConfig::cortex_a9_like(),
            timeout_factor: 4,
            threads: 0,
            target: InjectionTarget::DataArray,
            collect_details: false,
            run_wall_budget: Some(Duration::from_secs(60)),
            use_liveness_oracle: false,
            adaptive: None,
            use_snapshots: false,
            snapshot_spec: SnapshotSpec::default(),
            run_hook: None,
        }
    }

    /// Sets the number of runs.
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the campaign seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the cluster window.
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = cluster;
        self
    }

    /// Targets the cache tag array instead of the data array (ablation).
    pub fn target(mut self, target: InjectionTarget) -> Self {
        self.target = target;
        self
    }

    /// Collects the per-run fault list in the result.
    pub fn collect_details(mut self, collect: bool) -> Self {
        self.collect_details = collect;
        self
    }

    /// Sets (or, with `None`, disables) the per-run wall-clock budget.
    pub fn run_wall_budget(mut self, budget: Option<Duration>) -> Self {
        self.run_wall_budget = budget;
        self
    }

    /// Enables (or disables) the provably-masked liveness-oracle fast path
    /// (see [`CampaignConfig::use_liveness_oracle`]).
    pub fn use_liveness_oracle(mut self, on: bool) -> Self {
        self.use_liveness_oracle = on;
        self
    }

    /// Enables (with `Some`) or disables margin-driven adaptive sampling
    /// (see [`CampaignConfig::adaptive`]).
    pub fn adaptive(mut self, spec: Option<AdaptiveSpec>) -> Self {
        self.adaptive = spec;
        self
    }

    /// Enables (or disables) checkpointed fast-forward injection
    /// (see [`CampaignConfig::use_snapshots`]).
    pub fn use_snapshots(mut self, on: bool) -> Self {
        self.use_snapshots = on;
        self
    }

    /// Sets the snapshot recording parameters
    /// (see [`CampaignConfig::snapshot_spec`]).
    pub fn snapshot_spec(mut self, spec: SnapshotSpec) -> Self {
        self.snapshot_spec = spec;
        self
    }

    /// Installs a test-only per-run hook (see [`CampaignConfig::run_hook`]).
    /// Accepts any `Fn(usize) + Send + Sync` — plain `fn` items and stateful
    /// capturing closures alike.
    #[doc(hidden)]
    pub fn with_run_hook(mut self, hook: impl Fn(usize) + Send + Sync + 'static) -> Self {
        self.run_hook = Some(RunHook::new(hook));
        self
    }
}

/// One injection run's record (the classic fault-list entry).
#[derive(Debug, Clone, PartialEq)]
pub struct RunDetail {
    /// Run index within the campaign.
    pub index: usize,
    /// Cycle the mask was applied at.
    pub inject_cycle: u64,
    /// The applied fault mask.
    pub mask: FaultMask,
    /// Classified outcome.
    pub effect: FaultEffect,
    /// Cycles the faulty run took.
    pub cycles: u64,
}

/// What kind of irregularity an [`Anomaly`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// The run panicked inside the isolation boundary; it was classified as
    /// [`FaultEffect::Assert`].
    Panic,
    /// The run's wall-clock deadline stopped it; it was classified as
    /// [`FaultEffect::Timeout`].
    WallClock,
    /// The snapshot store hit its memory cap while recording and degraded
    /// to a sparser checkpoint interval (campaign-level, logged as run 0;
    /// classifications are unaffected, only the fast-forward granularity).
    SnapshotMemCap,
    /// A distributed-sweep worker process died (exited, was killed, or its
    /// connection broke) while a work unit was in flight; the unit was
    /// retried on a surviving worker (fabric-level, logged with the unit's
    /// first run index; merged classifications are unaffected).
    WorkerLost,
    /// A distributed-sweep worker stopped heartbeating while a work unit was
    /// in flight and was declared dead by the supervisor's stall detector;
    /// the unit was retried on a surviving worker.
    WorkerStall,
    /// A distributed-sweep worker sent a frame the supervisor could not
    /// parse (garbage or truncated protocol data); the worker was dropped
    /// and its in-flight unit retried.
    ProtocolGarbage,
    /// A work unit failed deterministically on two or more distinct workers
    /// and was quarantined: the sweep completed *degraded* (the unit's runs
    /// are missing from the merged store) instead of aborting or silently
    /// retrying forever.
    UnitQuarantined,
    /// A TCP worker that had been declared lost reconnected with the same
    /// worker id and rejoined the pool; units it had persisted but never
    /// acknowledged were recovered from its shard store instead of re-run.
    WorkerRejoined,
    /// Free disk space under the shard directory fell below the configured
    /// watermark; the supervisor paused assigning new units (pending work
    /// queued, shard appends stopped) until space recovered, instead of
    /// running into raw ENOSPC mid-append.
    DiskPressure,
}

impl fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnomalyKind::Panic => f.write_str("panic"),
            AnomalyKind::WallClock => f.write_str("wall-clock"),
            AnomalyKind::SnapshotMemCap => f.write_str("snapshot-mem-cap"),
            AnomalyKind::WorkerLost => f.write_str("worker-lost"),
            AnomalyKind::WorkerStall => f.write_str("worker-stall"),
            AnomalyKind::ProtocolGarbage => f.write_str("protocol-garbage"),
            AnomalyKind::UnitQuarantined => f.write_str("unit-quarantined"),
            AnomalyKind::WorkerRejoined => f.write_str("worker-rejoined"),
            AnomalyKind::DiskPressure => f.write_str("disk-pressure"),
        }
    }
}

/// One distributed-sweep work unit: a contiguous run-range
/// `[start, end)` of a single (component, workload, cardinality) campaign.
///
/// Run outcomes are deterministic per run index (each run's seed derives
/// from the campaign seed and the absolute run index alone), so a
/// campaign's class counts are the sum of the counts of any disjoint
/// run-range cover — the shard planner exploits this to split campaigns
/// across worker processes. A full campaign is the unit `[0, runs)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnitSpec {
    /// Target component.
    pub component: HwComponent,
    /// The workload to run.
    pub workload: Workload,
    /// Fault cardinality.
    pub faults: usize,
    /// First run index of the range (inclusive).
    pub start: usize,
    /// One past the last run index of the range (exclusive).
    pub end: usize,
}

impl UnitSpec {
    /// The unit covering a whole campaign.
    pub fn whole(component: HwComponent, workload: Workload, faults: usize, runs: usize) -> Self {
        Self {
            component,
            workload,
            faults,
            start: 0,
            end: runs,
        }
    }

    /// The campaign this unit belongs to.
    pub fn campaign_key(&self) -> (HwComponent, Workload, usize) {
        (self.component, self.workload, self.faults)
    }

    /// Number of runs in the range.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// The run-range as a `Range`.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

impl fmt::Display for UnitSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}-bit[{}..{})",
            self.component, self.workload, self.faults, self.start, self.end
        )
    }
}

/// The achieved error margin of `counts` for a campaign targeting
/// `component`, over the component's per-execution fault population, with
/// the measured AVF (clamped to `[0.01, 0.99]`) as the probability
/// estimate.
///
/// This is the exact computation a campaign applies to its own counts at
/// the end of a run; it is exposed as a free function so the distributed
/// shard merge can recompute a campaign's margin from summed partial
/// counts and land on the bit-identical `f64` a single-process sweep would
/// have stored.
pub fn campaign_margin(
    component: HwComponent,
    counts: &ClassCounts,
    fault_free_cycles: u64,
    z: f64,
) -> Result<f64, CampaignError> {
    let population = stats::fault_population(component_bits(component), fault_free_cycles.max(1));
    let samples = counts.total().clamp(1, population);
    let p = counts.avf().clamp(0.01, 0.99);
    Ok(stats::error_margin(population, samples, z, p)?)
}

/// One irregular run: enough context to replay it in isolation
/// (`MaskGenerator::seeded(run_seed, cluster)` reproduces the exact fault).
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// Run index within the campaign.
    pub run_index: usize,
    /// The run's derived RNG seed.
    pub run_seed: u64,
    /// What happened.
    pub kind: AnomalyKind,
    /// The panic payload, or a description of the deadline stop.
    pub message: String,
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run {} (seed 0x{:016x}) {}: {}",
            self.run_index, self.run_seed, self.kind, self.message
        )
    }
}

/// Per-campaign record of runs that panicked or blew their wall-clock
/// budget. Empty for a healthy campaign; entries are sorted by run index, so
/// the log is deterministic whenever the anomalies themselves are.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnomalyLog {
    entries: Vec<Anomaly>,
}

impl AnomalyLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an anomaly.
    pub fn record(&mut self, anomaly: Anomaly) {
        self.entries.push(anomaly);
    }

    /// The recorded anomalies, sorted by run index.
    pub fn entries(&self) -> &[Anomaly] {
        &self.entries
    }

    /// Number of recorded anomalies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the campaign was anomaly-free.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for AnomalyLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return f.write_str("no anomalies");
        }
        writeln!(f, "{} anomalous run(s):", self.entries.len())?;
        for a in &self.entries {
            writeln!(f, "  {a}")?;
        }
        Ok(())
    }
}

/// Aggregated result of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// The configuration that produced this result.
    pub workload: Workload,
    /// Target component.
    pub component: HwComponent,
    /// Fault cardinality.
    pub faults: usize,
    /// Class counts over all runs.
    pub counts: ClassCounts,
    /// Fault-free execution time in cycles.
    pub fault_free_cycles: u64,
    /// Fault-free committed instructions.
    pub fault_free_instructions: u64,
    /// Per-run fault list, present when
    /// [`CampaignConfig::collect_details`] was enabled.
    pub details: Option<Vec<RunDetail>>,
    /// Runs that panicked or were stopped by their deadline (empty for a
    /// healthy campaign).
    pub anomalies: AnomalyLog,
    /// Runs the liveness oracle classified as Masked without simulation
    /// (zero unless [`CampaignConfig::use_liveness_oracle`] was set).
    pub oracle_skips: u64,
    /// The error margin achieved by the executed runs, recomputed with the
    /// measured AVF as `p` (paper §III.A readjustment; the probability is
    /// clamped to `[0.01, 0.99]` so fully-masked campaigns stay
    /// computable). `None` for results loaded from pre-integrity (v1)
    /// checkpoint files.
    pub achieved_margin: Option<f64>,
    /// Snapshot-store bookkeeping — checkpoint count, interval, retained
    /// bytes, cap-forced thinning, fast-forwarded restores and early-Masked
    /// reconvergence exits. `None` unless
    /// [`CampaignConfig::use_snapshots`] was set.
    pub snapshot_stats: Option<SnapshotStats>,
}

impl CampaignResult {
    /// AVF of this campaign (`1 − masked fraction`).
    pub fn avf(&self) -> f64 {
        self.counts.avf()
    }
}

impl fmt::Display for CampaignResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {} / {}-bit: {}",
            self.component, self.workload, self.faults, self.counts
        )?;
        if !self.anomalies.is_empty() {
            write!(f, " [{} anomalies]", self.anomalies.len())?;
        }
        Ok(())
    }
}

thread_local! {
    /// Set while a worker is inside the per-run isolation boundary: the
    /// process panic hook stays quiet for these expected panics.
    static IN_ISOLATED_RUN: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Wraps the process panic hook (once) so panics inside isolated injection
/// runs don't spray backtraces — they are captured, classified and logged,
/// not crashes. Panics from anywhere else still reach the previous hook.
fn install_quiet_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info: &panic::PanicHookInfo<'_>| {
            if !IN_ISOLATED_RUN.with(|f| f.get()) {
                previous(info);
            }
        }));
    });
}

/// Renders a `catch_unwind` payload as text.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The per-run seed derivation — shared by execution and anomaly reporting,
/// and relied on by checkpoint/resume (re-running index `i` under the same
/// campaign seed must regenerate the same fault).
fn derive_run_seed(campaign_seed: u64, run_index: usize) -> u64 {
    campaign_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(run_index as u64 + 1)
}

/// Per-run bookkeeping flags threaded out of the isolation boundary.
#[derive(Debug, Clone, Copy, Default)]
struct RunExtras {
    /// The liveness oracle proved the run masked without simulation.
    oracle_skip: bool,
    /// The run fast-forwarded from a golden checkpoint.
    snapshot_restore: bool,
    /// A reconvergence check proved the run masked before it finished.
    snapshot_early_masked: bool,
    /// The run's wall-clock deadline stopped it.
    deadline_stopped: bool,
}

/// Where one injection flips bits: `coords` of the target array, at cycle
/// `inject_at`. A sampled run draws its site from the run seed; an
/// equivalence class injects one member of its bit's cycle span.
#[derive(Debug, Clone)]
pub(crate) struct FaultSite {
    /// The cycle the flips are applied at.
    pub(crate) inject_at: u64,
    /// The flipped bits.
    pub(crate) coords: Vec<BitCoord>,
}

/// How one isolated injection run ended.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Injection {
    /// Classified outcome.
    pub(crate) effect: FaultEffect,
    /// Cycles the faulty run took.
    pub(crate) cycles: u64,
    extras: RunExtras,
}

/// A runnable campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
}

impl Campaign {
    /// Creates a campaign from its configuration, validating it.
    pub fn try_new(config: CampaignConfig) -> Result<Self, CampaignError> {
        if config.runs == 0 {
            return Err(CampaignError::ZeroRuns);
        }
        if config.faults == 0 || config.faults > config.cluster.cells() {
            return Err(CampaignError::CardinalityTooLarge {
                faults: config.faults,
                cluster: config.cluster,
            });
        }
        if config.target == InjectionTarget::TagArray
            && !matches!(
                config.component,
                HwComponent::L1D | HwComponent::L1I | HwComponent::L2
            )
        {
            return Err(CampaignError::TagArrayUnsupported {
                component: config.component,
            });
        }
        if let Some(adaptive) = &config.adaptive {
            adaptive.validate()?;
        }
        Ok(Self { config })
    }

    /// Creates a campaign from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`Campaign::try_new`] for
    /// the non-panicking form).
    pub fn new(config: CampaignConfig) -> Self {
        match Self::try_new(config) {
            Ok(campaign) => campaign,
            Err(e) => panic!("{e}"),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The injection cycle and fault mask of sampled run `run_index`, drawn
    /// from the run's own seed in that order. A pure function of the index:
    /// a run sees the same fault under any thread schedule, with the oracle
    /// and the snapshot store on or off, and when a resumed sweep re-runs
    /// it.
    fn draw(
        &self,
        run_index: usize,
        fault_free_cycles: u64,
        geometry: Geometry,
    ) -> (u64, FaultMask) {
        let cfg = &self.config;
        let mut gen = MaskGenerator::seeded(derive_run_seed(cfg.seed, run_index), cfg.cluster);
        let inject_at = gen.injection_cycle(fault_free_cycles);
        (inject_at, gen.generate(geometry, cfg.faults))
    }

    /// Classifies one fault site against the golden reference in
    /// `artifacts`: flips its bits at its cycle under the configured target
    /// and runs to exit, crash, assert, the timeout limit or `deadline`.
    ///
    /// Two fast paths return `Masked` with exactly the golden cycle count,
    /// which is what full simulation produces: such a run is cycle-identical
    /// to the golden run. The oracle proves that before the fault (every
    /// flipped bit is dead at the injection cycle, see [`LivenessOracle`]);
    /// a reconvergence check proves it after the fault (every reachable bit
    /// matches a golden checkpoint, and determinism makes the rest of the
    /// run golden).
    fn run_injection(
        &self,
        artifacts: &GoldenArtifacts,
        site: &FaultSite,
        oracle: Option<&LivenessOracle>,
        deadline: Option<Instant>,
    ) -> Injection {
        let cfg = &self.config;
        let fault_free_cycles = artifacts.cycles();
        let masked = |extras| Injection {
            effect: FaultEffect::Masked,
            cycles: fault_free_cycles,
            extras,
        };
        let mut extras = RunExtras::default();
        if oracle.is_some_and(|o| o.provably_masked(&site.coords, site.inject_at)) {
            extras.oracle_skip = true;
            return masked(extras);
        }
        let snapshots = artifacts.snapshot_store().filter(|_| cfg.use_snapshots);
        let mut sim = match snapshots {
            // Fast-forward: skip the fault-free prefix by resuming from the
            // nearest golden checkpoint at or before the injection cycle.
            Some(store) => {
                extras.snapshot_restore = true;
                Simulator::from_snapshot(cfg.core, store.nearest_at_or_before(site.inject_at))
            }
            // The plain executor, kept as the differential reference:
            // load the program and simulate the prefix.
            None => Simulator::new(cfg.core, artifacts.program()),
        };
        if let Some(deadline) = deadline {
            sim.set_deadline(deadline);
        }
        let limit = fault_free_cycles * cfg.timeout_factor;
        // The injection point precedes the fault-free end, so the run cannot
        // have finished yet.
        if sim.run_until_cycle(site.inject_at).is_none() {
            match cfg.target {
                InjectionTarget::DataArray => sim.inject_flips(cfg.component, &site.coords),
                InjectionTarget::TagArray => sim.inject_tag_flips(cfg.component, &site.coords),
            }
        }
        let end = match snapshots {
            None => sim.run_until_cycle(limit),
            Some(store) => {
                let (end, early) = run_with_reconvergence(&mut sim, store, limit);
                if early {
                    extras.snapshot_early_masked = true;
                    return masked(extras);
                }
                end
            }
        };
        extras.deadline_stopped = sim.stopped_by_deadline();
        let result = mbu_cpu::RunResult {
            end: end.unwrap_or(RunEnd::CycleLimit),
            output: sim.output().to_vec(),
            cycles: sim.cycle(),
            instructions: sim.instructions(),
        };
        Injection {
            effect: classify(&result, artifacts.output(), artifacts.exit_code()),
            cycles: result.cycles,
            extras,
        }
    }

    /// The injection executor behind every campaign kind: sampled run
    /// ranges here, class ranges and stratified batches in
    /// [`crate::exhaustive`]. The configured worker threads take the
    /// entries of `positions` from one atomic queue. Each runs inside the
    /// isolation boundary: the run hook fires with the position, `site`
    /// maps it to a fault site, and [`Campaign::run_injection`] classifies
    /// the site against `artifacts`, consulting `oracle` first. A run
    /// starts with a deadline `budget` away (`None`: no deadline).
    ///
    /// Returns one outcome per position, in `positions` order: the
    /// injection, or the payload of the panic the boundary caught (callers
    /// classify it `Assert`). Every run is deterministic per position, so
    /// the outcomes do not depend on the thread count.
    ///
    /// `catch_unwind` unwind-safety audit: the boundary captures `&self`
    /// (immutable configuration), the artifacts, the oracle and the site
    /// mapping (immutable, shared) and the deadline (a copy). All mutable
    /// state — the simulator — lives inside the boundary and is dropped on
    /// unwind, so nothing observable can be left half-updated; the
    /// `AssertUnwindSafe` is sound.
    ///
    /// # Errors
    ///
    /// [`CampaignError::WorkerPanicked`] when a worker thread panics
    /// outside the boundary (an engine bug).
    pub(crate) fn simulate(
        &self,
        artifacts: &GoldenArtifacts,
        positions: &[usize],
        oracle: Option<&LivenessOracle>,
        budget: Option<Duration>,
        site: impl Fn(usize) -> FaultSite + Sync,
    ) -> Result<Vec<Result<Injection, String>>, CampaignError> {
        if positions.is_empty() {
            return Ok(Vec::new());
        }
        install_quiet_panic_hook();
        let isolated = |position: usize| {
            // Armed before the hook fires, so a stalled hook counts against
            // the run's budget. A budget too large for `Instant` sets no
            // deadline.
            let deadline = budget.and_then(|b| Instant::now().checked_add(b));
            IN_ISOLATED_RUN.with(|flag| {
                flag.set(true);
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    if let Some(hook) = &self.config.run_hook {
                        (hook.0)(position);
                    }
                    self.run_injection(artifacts, &site(position), oracle, deadline)
                }));
                flag.set(false);
                outcome.map_err(|payload| payload_message(payload.as_ref()))
            })
        };
        let threads = match self.config.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
        .min(positions.len());
        let next = AtomicUsize::new(0);
        let mut outcomes = Vec::with_capacity(positions.len());
        let mut worker_panicked = false;
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&position) = positions.get(k) else {
                                return local;
                            };
                            local.push((k, isolated(position)));
                        }
                    })
                })
                .collect();
            for worker in workers {
                match worker.join() {
                    Ok(local) => outcomes.extend(local),
                    // A panic *outside* the isolation boundary is an engine
                    // bug; it is reported as a typed error below.
                    Err(_) => worker_panicked = true,
                }
            }
        });
        if worker_panicked {
            return Err(CampaignError::WorkerPanicked);
        }
        outcomes.sort_unstable_by_key(|&(k, _)| k);
        Ok(outcomes.into_iter().map(|(_, outcome)| outcome).collect())
    }

    /// Runs the whole campaign (parallel, deterministic), reporting failures
    /// as [`CampaignError`] instead of panicking: builds the golden
    /// artifacts ([`Campaign::build_artifacts`]), then runs `0..runs`
    /// against them ([`Campaign::try_run_range`]). This is the
    /// self-contained reference the differential suites compare the sweep
    /// paths against.
    ///
    /// With [`CampaignConfig::adaptive`] set, runs execute in batches and
    /// the campaign stops as soon as the achieved margin (measured AVF as
    /// `p`) meets the target — see [`AdaptiveSpec`].
    pub fn try_run(&self) -> Result<CampaignResult, CampaignError> {
        self.try_run_range(0..self.config.runs, &self.build_artifacts()?)
    }

    /// Builds the golden artifacts every run of this campaign classifies
    /// against: the fault-free output/counters and — when
    /// [`CampaignConfig::use_snapshots`] is set — a recorded
    /// [`SnapshotStore`] under [`CampaignConfig::snapshot_spec`].
    ///
    /// A sweep builds these once per `(core, workload)` pair and passes the
    /// same value to [`Campaign::try_run_range`] for every campaign
    /// targeting that workload, eliminating the per-campaign golden and
    /// recording runs.
    pub fn build_artifacts(&self) -> Result<GoldenArtifacts, CampaignError> {
        let cfg = &self.config;
        let spec = cfg.use_snapshots.then_some(cfg.snapshot_spec);
        GoldenArtifacts::build(cfg.core, cfg.workload.shared_program(), spec).map_err(|end| {
            CampaignError::GoldenRunFailed {
                workload: cfg.workload,
                end,
            }
        })
    }

    /// Runs the run-range `range` of this campaign against pre-built golden
    /// artifacts; the whole campaign is `0..runs`. This is the entry point
    /// of every sweep: in process each workload's artifacts are shared by
    /// all its campaigns, and on the fabric each work unit is a range.
    ///
    /// The reference output, counters and checkpoint store come from the
    /// artifacts. The simulator is deterministic, so they are bit-identical
    /// to what [`Campaign::try_run`] builds privately: classifications,
    /// anomaly logs and details do not depend on which path supplied them.
    ///
    /// Per-run seeds derive from the campaign seed and the *absolute* run
    /// index alone, so the runs of `range` are classified bit-identically
    /// to the same indices inside a full campaign; summing the
    /// [`ClassCounts`] of any disjoint cover of `0..runs` reproduces the
    /// full campaign's counts exactly. The result carries only the range's
    /// counts/details/anomalies (plus the golden counters, which are
    /// range-independent); its `achieved_margin` is over the partial counts
    /// and is recomputed from merged counts by the shard merge.
    ///
    /// # Errors
    ///
    /// [`CampaignError::InvalidRunRange`] for an empty or out-of-bounds
    /// range; [`CampaignError::InvalidAdaptiveSpec`] for a partial range of
    /// an adaptive campaign, because early stopping depends on the global
    /// run order; [`CampaignError::ArtifactMismatch`] for artifacts built
    /// for a different core, program or snapshot spec, rather than
    /// silently misclassifying every run.
    pub fn try_run_range(
        &self,
        range: std::ops::Range<usize>,
        artifacts: &GoldenArtifacts,
    ) -> Result<CampaignResult, CampaignError> {
        let cfg = &self.config;
        if range.start >= range.end || range.end > cfg.runs {
            return Err(CampaignError::InvalidRunRange {
                start: range.start,
                end: range.end,
                runs: cfg.runs,
            });
        }
        if cfg.adaptive.is_some() && (range.start != 0 || range.end != cfg.runs) {
            return Err(CampaignError::InvalidAdaptiveSpec {
                reason: "adaptive campaigns cannot be split into partial run-ranges",
            });
        }
        self.validate_artifacts(artifacts)?;
        let cycles = artifacts.cycles();
        let geometry = match cfg.target {
            InjectionTarget::DataArray => cfg.core.component_geometry(cfg.component),
            InjectionTarget::TagArray => cfg.core.tag_geometry(cfg.component),
        };
        // One fault-free observation run buys the provably-masked pre-filter
        // for every injection run. Build failures (e.g. an observation run
        // that does not exit cleanly) silently disable the fast path: the
        // campaign is then merely slower, never wrong.
        let oracle = if cfg.use_liveness_oracle && cfg.target == InjectionTarget::DataArray {
            LivenessOracle::build(cfg.core, artifacts.program(), cfg.component).ok()
        } else {
            None
        };
        let snapshots = artifacts.snapshot_store().filter(|_| cfg.use_snapshots);
        let mut counts = ClassCounts::new();
        let mut details: Vec<RunDetail> = Vec::new();
        let mut anomalies = AnomalyLog::new();
        if let Some(store) = snapshots {
            let thinned = store.stats().thinned;
            if thinned > 0 {
                anomalies.record(Anomaly {
                    run_index: 0,
                    run_seed: cfg.seed,
                    kind: AnomalyKind::SnapshotMemCap,
                    message: format!(
                        "snapshot store exceeded its {} byte cap; thinned {}× to a {}-cycle \
                         interval ({} checkpoints, {} bytes retained)",
                        cfg.snapshot_spec.mem_cap_bytes.unwrap_or(0),
                        thinned,
                        store.interval(),
                        store.len(),
                        store.retained_bytes(),
                    ),
                });
            }
        }
        let (mut oracle_skips, mut snap_restores, mut snap_early_masked) = (0u64, 0u64, 0u64);
        let mut executed = range.start;
        while executed < range.end {
            let end = match &cfg.adaptive {
                None => range.end,
                Some(a) => (executed + a.batch).min(range.end),
            };
            let batch: Vec<usize> = (executed..end).collect();
            let runs = self.simulate(
                artifacts,
                &batch,
                oracle.as_ref(),
                cfg.run_wall_budget,
                |index| {
                    let (inject_at, mask) = self.draw(index, cycles, geometry);
                    FaultSite {
                        inject_at,
                        coords: mask.coords,
                    }
                },
            )?;
            // Outcomes come back in run order, so the anomaly log and the
            // fault list are sorted by run index as they grow.
            for (index, run) in batch.into_iter().zip(runs) {
                let run_seed = derive_run_seed(cfg.seed, index);
                let panicked = run.is_err();
                let (effect, run_cycles) = match run {
                    Ok(run) => {
                        oracle_skips += u64::from(run.extras.oracle_skip);
                        snap_restores += u64::from(run.extras.snapshot_restore);
                        snap_early_masked += u64::from(run.extras.snapshot_early_masked);
                        if run.extras.deadline_stopped {
                            anomalies.record(Anomaly {
                                run_index: index,
                                run_seed,
                                kind: AnomalyKind::WallClock,
                                message: format!(
                                    "stopped after exceeding the {:?} wall-clock budget",
                                    cfg.run_wall_budget.unwrap_or_default()
                                ),
                            });
                        }
                        (run.effect, run.cycles)
                    }
                    // A panic is the software image of a hardware assert: an
                    // internal invariant tripped by the injected corruption.
                    Err(message) => {
                        anomalies.record(Anomaly {
                            run_index: index,
                            run_seed,
                            kind: AnomalyKind::Panic,
                            message,
                        });
                        (FaultEffect::Assert, 0)
                    }
                };
                counts.record(effect);
                if cfg.collect_details {
                    // A site is a pure function of its run index, so the
                    // fault list re-draws it; a panicked run lists none.
                    let (inject_cycle, mask) = if panicked {
                        let none = FaultMask {
                            coords: Vec::new(),
                            origin: BitCoord::new(0, 0),
                            cluster: cfg.cluster,
                        };
                        (0, none)
                    } else {
                        self.draw(index, cycles, geometry)
                    };
                    details.push(RunDetail {
                        index,
                        inject_cycle,
                        mask,
                        effect,
                        cycles: run_cycles,
                    });
                }
            }
            executed = end;
            if let Some(a) = &cfg.adaptive {
                if executed >= a.min_runs
                    && campaign_margin(cfg.component, &counts, cycles, a.z)? <= a.target_margin
                {
                    break;
                }
            }
        }
        let z = cfg.adaptive.as_ref().map_or(stats::Z_99, |a| a.z);
        let achieved_margin = Some(campaign_margin(cfg.component, &counts, cycles, z)?);
        Ok(CampaignResult {
            workload: cfg.workload,
            component: cfg.component,
            faults: cfg.faults,
            counts,
            fault_free_cycles: cycles,
            fault_free_instructions: artifacts.instructions(),
            details: cfg.collect_details.then_some(details),
            anomalies,
            oracle_skips,
            achieved_margin,
            snapshot_stats: snapshots.map(|s| SnapshotStats {
                restores: snap_restores,
                early_masked: snap_early_masked,
                ..s.stats()
            }),
        })
    }

    /// Rejects golden artifacts built for a different campaign (wrong core
    /// configuration, wrong program, or a missing/mismatched snapshot
    /// store) — shared by the sampled runs and the exhaustive engine. The
    /// program is compared with the workload's shared image
    /// ([`Workload::shared_program`]), so a check assembles nothing.
    pub(crate) fn validate_artifacts(
        &self,
        artifacts: &GoldenArtifacts,
    ) -> Result<(), CampaignError> {
        let cfg = &self.config;
        if *artifacts.core() != cfg.core {
            return Err(CampaignError::ArtifactMismatch {
                reason: "artifacts were built for a different core configuration",
            });
        }
        if artifacts.program() != cfg.workload.shared_program() {
            return Err(CampaignError::ArtifactMismatch {
                reason: "artifacts were built for a different program",
            });
        }
        if cfg.use_snapshots {
            if artifacts.snapshot_store().is_none() {
                return Err(CampaignError::ArtifactMismatch {
                    reason: "campaign uses snapshots but the artifacts carry no store",
                });
            }
            if artifacts.snapshot_spec() != Some(cfg.snapshot_spec) {
                return Err(CampaignError::ArtifactMismatch {
                    reason: "artifacts' snapshot store was recorded under a different spec",
                });
            }
        }
        Ok(())
    }

    /// Runs the whole campaign (parallel, deterministic).
    ///
    /// # Panics
    ///
    /// Panics if the golden run fails or a worker dies (see
    /// [`Campaign::try_run`] for the non-panicking form).
    pub fn run(&self) -> CampaignResult {
        match self.try_run() {
            Ok(result) => result,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Runs a post-injection simulator to `limit`, pausing at every golden
/// checkpoint cycle for a reconvergence check. Returns the run end (if the
/// machine finished) and whether a check proved the run masked.
///
/// The stall-fuse counter is owned here and threaded through every segment
/// ([`Simulator::run_until_cycle_resumable`]), so a livelocked run trips
/// the fuse after exactly as many commit-less cycles as an unsegmented
/// [`Simulator::run_until_cycle`] call would — segmentation cannot change
/// a classification.
fn run_with_reconvergence(
    sim: &mut Simulator,
    store: &SnapshotStore,
    limit: u64,
) -> (Option<RunEnd>, bool) {
    let mut stalled = 0u64;
    loop {
        match store.next_check_after(sim.cycle()).filter(|&c| c < limit) {
            None => return (sim.run_until_cycle_resumable(limit, &mut stalled), false),
            Some(check) => {
                let end = sim.run_until_cycle_resumable(check, &mut stalled);
                if end.is_some() {
                    return (end, false);
                }
                if sim.stopped_by_deadline() {
                    // The wall-clock deadline stopped the segment: surface
                    // the unfinished run the same way `run_until_cycle`
                    // does.
                    return (None, false);
                }
                if let Some(golden) = store.golden_at(check) {
                    if sim.converged_with(golden) {
                        return (None, true);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workload: Workload, component: HwComponent, faults: usize) -> CampaignResult {
        Campaign::new(
            CampaignConfig::new(workload, component, faults)
                .runs(24)
                .seed(7),
        )
        .run()
    }

    #[test]
    fn campaign_counts_match_run_count() {
        let r = small(Workload::Stringsearch, HwComponent::RegFile, 1);
        assert_eq!(r.counts.total(), 24);
        assert!(r.fault_free_cycles > 1000);
        assert!(
            r.anomalies.is_empty(),
            "healthy campaign must be anomaly-free"
        );
    }

    #[test]
    fn results_are_deterministic_across_thread_counts() {
        let base = CampaignConfig::new(Workload::Stringsearch, HwComponent::L1D, 2)
            .runs(16)
            .seed(123);
        let a = Campaign::new(base.clone().threads(1)).run();
        let b = Campaign::new(base.threads(4)).run();
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn run_hook_accepts_stateful_closures() {
        // The hook takes any `Fn` closure, not just fn pointers: capture an
        // atomic counter and check every run index was observed exactly once.
        let seen = Arc::new(AtomicUsize::new(0));
        let seen_in_hook = Arc::clone(&seen);
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 1)
                .runs(12)
                .seed(7)
                .threads(3)
                .with_run_hook(move |_| {
                    seen_in_hook.fetch_add(1, Ordering::Relaxed);
                }),
        )
        .run();
        assert_eq!(r.counts.total(), 12);
        assert_eq!(seen.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn different_seeds_generally_differ() {
        let base = CampaignConfig::new(Workload::Stringsearch, HwComponent::DTlb, 3).runs(32);
        let a = Campaign::new(base.clone().seed(1)).run();
        let b = Campaign::new(base.seed(2)).run();
        // Not guaranteed in principle, but overwhelmingly likely for a
        // vulnerable component.
        assert!(a.counts != b.counts || a.counts.masked == 32);
    }

    #[test]
    fn large_structures_mostly_mask_single_bits() {
        // The L2 is 4 Mbit; a short workload touches a tiny fraction, so
        // most single-bit faults must be masked.
        let r = small(Workload::Stringsearch, HwComponent::L2, 1);
        assert!(
            r.counts.fraction(FaultEffect::Masked) > 0.7,
            "expected mostly masked, got {}",
            r.counts
        );
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let _ = Campaign::new(CampaignConfig::new(Workload::Sha, HwComponent::L1D, 1).runs(0));
    }

    #[test]
    #[should_panic(expected = "fit the cluster")]
    fn oversized_cardinality_rejected() {
        let _ = Campaign::new(CampaignConfig::new(Workload::Sha, HwComponent::L1D, 10));
    }

    #[test]
    fn try_new_reports_typed_errors() {
        let zero =
            Campaign::try_new(CampaignConfig::new(Workload::Sha, HwComponent::L1D, 1).runs(0));
        assert_eq!(zero.unwrap_err(), CampaignError::ZeroRuns);
        let oversized = Campaign::try_new(CampaignConfig::new(Workload::Sha, HwComponent::L1D, 10));
        assert!(matches!(
            oversized.unwrap_err(),
            CampaignError::CardinalityTooLarge { faults: 10, .. }
        ));
        let tags = Campaign::try_new(
            CampaignConfig::new(Workload::Sha, HwComponent::ITlb, 1)
                .target(InjectionTarget::TagArray),
        );
        assert_eq!(
            tags.unwrap_err(),
            CampaignError::TagArrayUnsupported {
                component: HwComponent::ITlb
            }
        );
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    #[test]
    fn tag_array_campaign_runs_and_classifies() {
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::L1D, 2)
                .runs(16)
                .seed(31)
                .target(InjectionTarget::TagArray),
        )
        .run();
        assert_eq!(r.counts.total(), 16);
    }

    #[test]
    #[should_panic(expected = "only defined for caches")]
    fn tag_array_rejected_for_tlbs() {
        let _ = Campaign::new(
            CampaignConfig::new(Workload::Sha, HwComponent::DTlb, 1)
                .target(InjectionTarget::TagArray),
        );
    }

    #[test]
    fn in_order_core_is_slower_but_correct() {
        let p = Workload::Stringsearch.program();
        let ooo = Simulator::new(CoreConfig::cortex_a9_like(), &p).run(u64::MAX / 8);
        let ino = Simulator::new(CoreConfig::in_order_a9(), &p).run(u64::MAX / 8);
        assert_eq!(ooo.output, ino.output, "architectural results must agree");
        assert!(
            ino.cycles > ooo.cycles,
            "in-order issue must cost cycles ({} vs {})",
            ino.cycles,
            ooo.cycles
        );
    }

    #[test]
    fn quad_bit_campaign_is_supported() {
        // The paper folds >=4-bit rates into the triple class; the injector
        // itself supports any cardinality that fits the cluster.
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 4)
                .runs(12)
                .seed(8),
        )
        .run();
        assert_eq!(r.counts.total(), 12);
    }
}

#[cfg(test)]
mod detail_tests {
    use super::*;

    #[test]
    fn details_cover_every_run_in_order() {
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 2)
                .runs(20)
                .seed(11)
                .collect_details(true),
        )
        .run();
        let details = r.details.as_ref().expect("details requested");
        assert_eq!(details.len(), 20);
        for (i, d) in details.iter().enumerate() {
            assert_eq!(d.index, i);
            assert_eq!(d.mask.cardinality(), 2);
            assert!(d.inject_cycle < r.fault_free_cycles);
            assert!(d.cycles <= r.fault_free_cycles * 4 + 1);
        }
        // The class counts must agree with the detail records.
        let mut counts = ClassCounts::new();
        for d in details {
            counts.record(d.effect);
        }
        assert_eq!(counts, r.counts);
    }

    #[test]
    fn details_absent_by_default() {
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 1).runs(4),
        )
        .run();
        assert!(r.details.is_none());
    }
}

#[cfg(test)]
mod resilience_tests {
    use super::*;

    fn panic_every_fifth(index: usize) {
        if index.is_multiple_of(5) {
            panic!("mock simulator invariant violated in run {index}");
        }
    }

    #[test]
    fn panicking_runs_classify_as_assert_and_campaign_completes() {
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 1)
                .runs(20)
                .seed(5)
                .with_run_hook(panic_every_fifth)
                .collect_details(true),
        )
        .run();
        // Every run completes; indices 0, 5, 10, 15 panicked.
        assert_eq!(r.counts.total(), 20);
        assert!(
            r.counts.assert_ >= 4,
            "panicked runs classify as Assert: {}",
            r.counts
        );
        assert_eq!(r.anomalies.len(), 4);
        for (a, expected_index) in r.anomalies.entries().iter().zip([0usize, 5, 10, 15]) {
            assert_eq!(a.run_index, expected_index);
            assert_eq!(a.kind, AnomalyKind::Panic);
            assert_eq!(a.run_seed, derive_run_seed(5, expected_index));
            assert!(
                a.message.contains("mock simulator invariant"),
                "payload preserved: {}",
                a.message
            );
        }
        let details = r.details.as_ref().expect("details requested");
        for d in details {
            if d.index.is_multiple_of(5) {
                assert_eq!(d.effect, FaultEffect::Assert);
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts_with_panicking_runs() {
        let base = CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 2)
            .runs(24)
            .seed(9)
            .with_run_hook(panic_every_fifth)
            .collect_details(true);
        let one = Campaign::new(base.clone().threads(1)).run();
        let two = Campaign::new(base.clone().threads(2)).run();
        let eight = Campaign::new(base.threads(8)).run();
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }

    #[test]
    fn golden_run_failure_is_a_typed_error() {
        // An absurd timeout factor cannot make the golden run fail — instead
        // exercise the path directly through a config whose workload is
        // healthy but whose golden result is checked: the error type is
        // already covered by unit tests in `error`; here we make sure a
        // healthy golden run does NOT error.
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 1).runs(2),
        )
        .try_run();
        assert!(r.is_ok());
    }

    fn stall_hard(index: usize) {
        if index == 1 {
            // Well past the budget, but bounded so a broken deadline
            // doesn't hang the suite.
            std::thread::sleep(Duration::from_millis(600));
        }
    }

    #[test]
    fn watchdog_cancels_over_budget_runs() {
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 1)
                .runs(3)
                .seed(2)
                .threads(1)
                .run_wall_budget(Some(Duration::from_millis(100)))
                .with_run_hook(stall_hard),
        )
        .run();
        assert_eq!(r.counts.total(), 3);
        // Run 1 slept through its budget: cancelled → Timeout + anomaly.
        // (A slow or loaded host may additionally cancel a healthy run, so
        // assert containment, not exact equality.)
        assert!(
            r.counts.timeout >= 1,
            "watchdog must cancel the stalled run: {}",
            r.counts
        );
        let wall: Vec<_> = r
            .anomalies
            .entries()
            .iter()
            .filter(|a| a.kind == AnomalyKind::WallClock)
            .collect();
        assert!(!wall.is_empty(), "cancellation must be logged");
        assert!(
            wall.iter().any(|a| a.run_index == 1),
            "the stalled run must be among the cancelled: {:?}",
            wall
        );
    }

    #[test]
    fn watchdog_disabled_means_no_wall_clock_anomalies() {
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 1)
                .runs(4)
                .seed(3)
                .run_wall_budget(None),
        )
        .run();
        assert!(r.anomalies.is_empty());
    }

    #[test]
    fn deadline_stops_runs_split_into_short_snapshot_segments() {
        // 256-cycle checkpoint segments never reach the 1,024-cycle poll
        // interval within one call, so only the check on segment entry can
        // stop these runs: every run sleeps past its budget first.
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 1)
                .runs(4)
                .seed(5)
                .threads(2)
                .use_snapshots(true)
                .snapshot_spec(SnapshotSpec {
                    interval: Some(256),
                    ..SnapshotSpec::default()
                })
                .run_wall_budget(Some(Duration::from_millis(50)))
                .with_run_hook(|_| std::thread::sleep(Duration::from_millis(80))),
        )
        .run();
        assert_eq!(r.counts.timeout, 4, "every run must time out: {}", r.counts);
        let wall: Vec<usize> = r
            .anomalies
            .entries()
            .iter()
            .filter(|a| a.kind == AnomalyKind::WallClock)
            .map(|a| a.run_index)
            .collect();
        assert_eq!(wall, [0, 1, 2, 3], "one wall-clock anomaly per stopped run");
    }

    /// A campaign returns as soon as its last run does: arming the default
    /// 60 s budget adds no wait to a 1-run campaign. Timing-based, so it
    /// runs only in optimised builds, on the fastest of three tries.
    #[cfg(not(debug_assertions))]
    #[test]
    fn wall_budget_adds_no_wait_at_campaign_end() {
        let base = CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 1)
            .runs(1)
            .seed(9);
        let artifacts = Campaign::new(base.clone()).build_artifacts().unwrap();
        let fastest = |cfg: CampaignConfig| {
            let campaign = Campaign::new(cfg);
            (0..3)
                .map(|_| {
                    let t = Instant::now();
                    campaign.try_run_range(0..1, &artifacts).unwrap();
                    t.elapsed()
                })
                .min()
                .unwrap()
        };
        let budgeted = fastest(base.clone());
        let unbudgeted = fastest(base.run_wall_budget(None));
        assert!(
            budgeted <= unbudgeted + Duration::from_millis(50),
            "budgeted {budgeted:?} vs unbudgeted {unbudgeted:?}"
        );
    }
}

#[cfg(test)]
mod snapshot_campaign_tests {
    use super::*;

    #[test]
    fn snapshot_campaign_is_bit_identical_to_plain() {
        let base = CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 2)
            .runs(20)
            .seed(41)
            .collect_details(true);
        let plain = Campaign::new(base.clone()).run();
        let fast = Campaign::new(base.use_snapshots(true)).run();
        assert_eq!(plain.counts, fast.counts);
        assert_eq!(plain.details, fast.details);
        assert_eq!(plain.anomalies, fast.anomalies);
        let stats = fast.snapshot_stats.expect("stats present when enabled");
        assert!(stats.snapshots >= 2);
        assert!(stats.restores > 0, "runs must fast-forward: {stats:?}");
        assert!(plain.snapshot_stats.is_none());
    }

    #[test]
    fn snapshot_mem_cap_degrades_gracefully_and_is_logged() {
        let base = CampaignConfig::new(Workload::Stringsearch, HwComponent::DTlb, 1)
            .runs(12)
            .seed(5)
            .collect_details(true);
        let plain = Campaign::new(base.clone()).run();
        let capped = Campaign::new(base.use_snapshots(true).snapshot_spec(SnapshotSpec {
            interval: Some(512),
            // Far below what a 512-cycle interval retains: forces thinning.
            mem_cap_bytes: Some(100_000),
        }))
        .run();
        assert_eq!(plain.counts, capped.counts, "thinning never reclassifies");
        assert_eq!(plain.details, capped.details);
        let stats = capped.snapshot_stats.expect("stats present");
        assert!(stats.thinned >= 1, "cap must thin the store: {stats:?}");
        assert!(
            capped
                .anomalies
                .entries()
                .iter()
                .any(|a| a.kind == AnomalyKind::SnapshotMemCap),
            "cap degradation must be surfaced in the anomaly log"
        );
    }

    #[test]
    fn early_masked_runs_report_golden_cycles() {
        // A large, mostly-dead structure: most faults mask, so reconvergence
        // must fire and the early-exited runs must record exactly the golden
        // cycle count (what full simulation of a masked run produces).
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::L2, 1)
                .runs(16)
                .seed(13)
                .use_snapshots(true)
                .collect_details(true),
        )
        .run();
        let stats = r.snapshot_stats.expect("stats present");
        assert!(
            stats.early_masked > 0,
            "mostly-masked L2 campaign must reconverge early: {stats:?}"
        );
        for d in r.details.as_ref().unwrap() {
            if d.effect == FaultEffect::Masked {
                assert_eq!(d.cycles, r.fault_free_cycles);
            }
        }
    }
}

#[cfg(test)]
mod adaptive_tests {
    use super::*;

    #[test]
    fn invalid_adaptive_specs_are_rejected() {
        let base = || CampaignConfig::new(Workload::Stringsearch, HwComponent::L1D, 1).runs(100);
        let bad_margin = AdaptiveSpec {
            target_margin: 0.0,
            ..AdaptiveSpec::paper()
        };
        assert!(matches!(
            Campaign::try_new(base().adaptive(Some(bad_margin))).unwrap_err(),
            CampaignError::InvalidAdaptiveSpec { .. }
        ));
        let bad_z = AdaptiveSpec {
            z: -1.0,
            ..AdaptiveSpec::paper()
        };
        assert!(matches!(
            Campaign::try_new(base().adaptive(Some(bad_z))).unwrap_err(),
            CampaignError::InvalidAdaptiveSpec { .. }
        ));
        let bad_batch = AdaptiveSpec {
            batch: 0,
            ..AdaptiveSpec::paper()
        };
        assert!(matches!(
            Campaign::try_new(base().adaptive(Some(bad_batch))).unwrap_err(),
            CampaignError::InvalidAdaptiveSpec { .. }
        ));
        let bad_min = AdaptiveSpec {
            min_runs: 0,
            ..AdaptiveSpec::paper()
        };
        assert!(matches!(
            Campaign::try_new(base().adaptive(Some(bad_min))).unwrap_err(),
            CampaignError::InvalidAdaptiveSpec { .. }
        ));
        assert!(Campaign::try_new(base().adaptive(Some(AdaptiveSpec::paper()))).is_ok());
    }

    /// ISSUE 3 acceptance: a high-mask campaign under adaptive sampling
    /// stops measurably earlier than the paper's fixed 2 000 runs while
    /// still achieving the paper's 2.88 % margin.
    #[test]
    fn adaptive_stops_high_mask_campaign_early_with_paper_margin() {
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::L2, 1)
                .runs(2000)
                .seed(17)
                .use_liveness_oracle(true)
                .adaptive(Some(AdaptiveSpec::paper())),
        )
        .run();
        let margin = r.achieved_margin.expect("margin always computed");
        assert!(
            r.counts.total() < 2000,
            "adaptive sampling must stop early, ran all {} runs",
            r.counts.total()
        );
        assert!(
            margin <= 0.0288,
            "achieved margin {margin} must meet the paper's 2.88 % target"
        );
        // Near-fully-masked L2 campaigns converge fast: one or two batches.
        assert!(
            r.counts.total() <= 400,
            "expected convergence within a few batches, got {}",
            r.counts.total()
        );
    }

    #[test]
    fn adaptive_campaign_is_deterministic_across_thread_counts() {
        let base = CampaignConfig::new(Workload::Stringsearch, HwComponent::L2, 1)
            .runs(600)
            .seed(23)
            .adaptive(Some(AdaptiveSpec {
                target_margin: 0.0288,
                z: stats::Z_99,
                min_runs: 50,
                batch: 50,
            }));
        let a = Campaign::new(base.clone().threads(1)).run();
        let b = Campaign::new(base.threads(4)).run();
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.achieved_margin, b.achieved_margin);
    }

    #[test]
    fn fixed_campaigns_still_report_achieved_margin() {
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 1)
                .runs(24)
                .seed(7),
        )
        .run();
        assert_eq!(r.counts.total(), 24);
        let margin = r
            .achieved_margin
            .expect("fixed campaigns report margin too");
        assert!(margin > 0.0 && margin < 1.0, "got {margin}");
    }

    #[test]
    fn adaptive_never_exceeds_configured_runs_cap() {
        // A small, vulnerable structure with a loose cap: the margin check
        // may never trigger, but the cap still bounds the campaign.
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 2)
                .runs(120)
                .seed(29)
                .adaptive(Some(AdaptiveSpec {
                    target_margin: 0.001,
                    z: stats::Z_99,
                    min_runs: 40,
                    batch: 40,
                })),
        )
        .run();
        assert_eq!(r.counts.total(), 120, "cap must bound adaptive campaigns");
    }
}
