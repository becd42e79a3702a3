//! The per-table / per-figure experiment implementations.

use crate::io::{RealIo, RetryIo, RetryPolicy, StoreIo};
use crate::source::FaultSource;
use crate::store::{
    component_slug, AnalyticalRow, AnalyticalStore, Key, ResultStore, StoreError, StoreVersion,
};
use mbu_ace::{capture, AceStructure, CaptureError, LivenessMap};
use mbu_cpu::{CoreConfig, HwComponent, RunEnd, Simulator};
use mbu_gefin::avf::{weighted_avf, ClassBreakdown, ComponentAvf};
use mbu_gefin::beam::{run_beam, BeamConfig};
use mbu_gefin::campaign::{
    AdaptiveSpec, Campaign, CampaignConfig, CampaignResult, InjectionTarget,
};
use mbu_gefin::classify::FaultEffect;
use mbu_gefin::error::CampaignError;
use mbu_gefin::exhaustive::{ExhaustiveSpec, StratifiedSpec, DEFAULT_MAX_CLASSES};
use mbu_gefin::fit::cpu_fit;
use mbu_gefin::integrity::{config_digest, golden_fingerprint, GoldenFingerprint};
use mbu_gefin::mask::{ClusterSpec, MaskGenerator};
use mbu_gefin::paper;
use mbu_gefin::report::{
    cross_validation_table, factor, pct, pct_opt, stacked_chart, AvfCrossValidation, StackedBar,
    Table,
};
use mbu_gefin::stats::{error_margin, fault_population, Z_99};
use mbu_gefin::tech::{
    assessment_gap, component_bits, node_avf, node_avf_with_rates, projected, TechNode,
};
use mbu_gefin::{GoldenArtifacts, SnapshotSpec};
use mbu_workloads::Workload;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a [`Experiments::run_campaigns`] call actually did — the resume
/// accounting that lets callers (and tests) verify that completed campaigns
/// are never re-executed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepReport {
    /// Campaigns executed in this call.
    pub executed: usize,
    /// Campaigns skipped because the store already held their key.
    pub skipped_existing: usize,
    /// Campaigns that could not run (e.g. a failed golden run); the sweep
    /// continues past them.
    pub failed: Vec<(Key, CampaignError)>,
    /// Checkpointed campaigns whose golden-run fingerprint no longer
    /// matches the current binaries/configuration; they were re-run, not
    /// merged.
    pub stale_rerun: usize,
    /// Checkpointed campaigns carrying no fingerprint (pre-integrity
    /// files); kept as-is, but flagged — their provenance is unverifiable.
    pub legacy_unverified: usize,
    /// Whether the sweep stopped early because its wall-clock deadline
    /// expired. Everything finished up to that point is checkpointed;
    /// re-running resumes where it stopped.
    pub deadline_expired: bool,
    /// Achieved error margin per campaign, for every campaign that has one
    /// (executed this call or loaded from a v2 checkpoint).
    pub margins: Vec<(Key, f64)>,
    /// Class simulations run by the class campaigns executed this call.
    pub class_sims: u64,
    /// Fault-space population (bit × cycle pairs) those class campaigns
    /// covered — exactly for exhaustive keys, by scaling for stratified.
    pub covered_weight: u64,
    /// Of that population, the mass proved `Masked` without simulation
    /// (dead classes).
    pub pruned_weight: u64,
}

impl SweepReport {
    /// Whether every attempted campaign succeeded.
    pub fn is_clean(&self) -> bool {
        self.failed.is_empty()
    }

    /// The worst (largest) achieved margin across the sweep, if any
    /// campaign reported one.
    pub fn worst_margin(&self) -> Option<f64> {
        self.margins
            .iter()
            .map(|(_, m)| *m)
            .max_by(|a, b| a.total_cmp(b))
    }
}

/// Knobs governing how a sweep interacts with the outside world: which I/O
/// implementation checkpoint writes go through, how transient failures are
/// retried, the wall-clock deadline, and whether checkpoint rows are
/// verified against the current golden-run fingerprints on resume.
pub struct SweepControl<'a> {
    /// The checkpoint I/O layer (the chaos harness substitutes its own).
    pub io: &'a dyn StoreIo,
    /// Retry policy for transient checkpoint I/O failures.
    pub retry: RetryPolicy,
    /// Hard wall-clock deadline; when it passes, the sweep stops cleanly
    /// with partial, checkpointed results instead of being killed.
    pub deadline: Option<Instant>,
    /// Re-verify each resumed row's golden-run fingerprint and re-run rows
    /// that no longer match (on by default).
    pub verify_fingerprints: bool,
}

impl Default for SweepControl<'static> {
    fn default() -> Self {
        Self {
            io: &RealIo,
            retry: RetryPolicy::DEFAULT,
            deadline: None,
            verify_fingerprints: true,
        }
    }
}

/// Small structures whose full fault space the exhaustive driver
/// enumerates by equivalence class: the partition is provably exact and
/// every live class simulates exactly once, so the result carries margin 0.
pub const EXHAUSTIVE_COMPONENTS: [HwComponent; 3] =
    [HwComponent::ITlb, HwComponent::DTlb, HwComponent::RegFile];

/// Big data arrays covered by class-weighted stratified sampling —
/// exhaustively enumerating their live classes is infeasible, but the
/// dead stratum is still pruned exactly.
pub const STRATIFIED_COMPONENTS: [HwComponent; 3] =
    [HwComponent::L1D, HwComponent::L1I, HwComponent::L2];

/// An invalid `MBU_*` environment variable. The silent-fallback failure
/// mode this replaces — an unparsable `MBU_THREADS` quietly running on the
/// default — is exactly the kind of misconfiguration that makes a
/// distributed sweep's shards subtly inconsistent, so every defect is
/// typed and names its variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The variable was set to a value that does not parse.
    Invalid {
        /// The environment variable.
        var: &'static str,
        /// Its actual value.
        value: String,
        /// What a valid value looks like.
        expected: &'static str,
    },
    /// The variable was set to bytes that are not valid unicode — which
    /// `std::env::var` reports indistinguishably from "unset", silently
    /// activating the default.
    NotUnicode {
        /// The environment variable.
        var: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Invalid {
                var,
                value,
                expected,
            } => write!(f, "{var} {expected}, got `{value}`"),
            ConfigError::NotUnicode { var } => {
                write!(f, "{var} is set to non-unicode bytes")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Reads an environment variable, distinguishing "unset" from "set to
/// garbage bytes".
pub(crate) fn env_value(var: &'static str) -> Result<Option<String>, ConfigError> {
    match std::env::var_os(var) {
        None => Ok(None),
        Some(os) => match os.into_string() {
            Ok(s) => Ok(Some(s)),
            Err(_) => Err(ConfigError::NotUnicode { var }),
        },
    }
}

/// Parses an environment value with a typed failure.
pub(crate) fn parse_env<T: std::str::FromStr>(
    var: &'static str,
    value: &str,
    expected: &'static str,
) -> Result<T, ConfigError> {
    value.trim().parse().map_err(|_| ConfigError::Invalid {
        var,
        value: value.to_string(),
        expected,
    })
}

/// Per-component campaign data: one [`CampaignResult`] per (workload,
/// cardinality).
pub type ComponentData = Vec<CampaignResult>;

/// The experiment driver, configured from the environment.
#[derive(Debug, Clone)]
pub struct Experiments {
    /// Injection runs per campaign (`MBU_RUNS`, default 150).
    pub runs: usize,
    /// Campaign seed (`MBU_SEED`).
    pub seed: u64,
    /// Worker threads (`MBU_THREADS`, 0 = available parallelism).
    pub threads: usize,
    /// Workload subset (`MBU_WORKLOADS`, default: all 15).
    pub workloads: Vec<Workload>,
    /// Core configuration for all simulations.
    pub core: CoreConfig,
    /// Print progress lines while measuring.
    pub verbose: bool,
    /// Margin-driven adaptive early stopping per campaign
    /// (`MBU_ADAPTIVE_MARGIN`, default off: fixed `runs` per campaign).
    pub adaptive: Option<AdaptiveSpec>,
    /// Wall-clock budget for a whole sweep (`MBU_DEADLINE_SECS`, default
    /// none); on expiry the sweep stops cleanly with partial results.
    pub deadline: Option<Duration>,
    /// Checkpoint/restore fast-forward injection (default on): every
    /// campaign records golden-run snapshots, restores the nearest one
    /// instead of re-simulating the fault-free prefix, and classifies
    /// reconverged runs `Masked` early. Classifications are bit-identical
    /// to the plain path, which stays only as the reference the
    /// differential suites compare against.
    pub use_snapshots: bool,
    /// Snapshot interval in cycles (`MBU_SNAPSHOT_INTERVAL`, default:
    /// auto-tuned from each workload's fault-free execution time).
    pub snapshot_interval: Option<u64>,
    /// Hard cap on retained snapshot memory in MiB (`MBU_SNAPSHOT_MEM_MB`);
    /// over the cap the store thins to sparser intervals instead of
    /// growing.
    pub snapshot_mem_mb: Option<u64>,
    /// Hard cap on live equivalence classes per exhaustive campaign
    /// (`MBU_EXHAUSTIVE_MAX_CLASSES`, default 4 000 000). A partition
    /// larger than the cap is rejected with a typed
    /// [`CampaignError::ClassCapExceeded`] — never silently subsampled.
    pub exhaustive_max_classes: u64,
    /// Highest fault cardinality swept (`MBU_CARDINALITY`, default 3):
    /// every sweep measures cardinalities `1..=max_cardinality`. The
    /// paper's per-component figures use 3; the full Fig. 7 sweep goes to
    /// 8 (the largest multi-bit upset the 2×2…3×3 cluster models produce).
    pub max_cardinality: usize,
}

impl Default for Experiments {
    fn default() -> Self {
        Self {
            runs: 150,
            seed: 0x6EF1_2019,
            threads: 0,
            workloads: Workload::ALL.to_vec(),
            core: CoreConfig::cortex_a9_like(),
            verbose: false,
            adaptive: None,
            deadline: None,
            use_snapshots: true,
            snapshot_interval: None,
            snapshot_mem_mb: None,
            exhaustive_max_classes: DEFAULT_MAX_CLASSES,
            max_cardinality: 3,
        }
    }
}

impl Experiments {
    /// Builds the configuration from `MBU_*` environment variables,
    /// rejecting invalid values with a typed [`ConfigError`] instead of a
    /// panic or — worse — a silent fallback to the default. Non-unicode
    /// values (which `std::env::var` reports indistinguishably from
    /// "unset") are rejected too: a supervisor misconfigured with
    /// `MBU_THREADS=<garbage bytes>` must fail loudly, not quietly run on
    /// the default thread count.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending variable, its value, and what
    /// was expected of it.
    pub fn try_from_env() -> Result<Self, ConfigError> {
        let mut e = Self::default();
        if let Some(v) = env_value("MBU_RUNS")? {
            e.runs = parse_env("MBU_RUNS", &v, "must be an integer")?;
        }
        if let Some(v) = env_value("MBU_SEED")? {
            e.seed = parse_env("MBU_SEED", &v, "must be an integer")?;
        }
        if let Some(v) = env_value("MBU_THREADS")? {
            e.threads = parse_env("MBU_THREADS", &v, "must be an integer")?;
        }
        if let Some(v) = env_value("MBU_WORKLOADS")? {
            e.workloads = v
                .split(',')
                .map(|s| {
                    s.trim().parse().map_err(|_| ConfigError::Invalid {
                        var: "MBU_WORKLOADS",
                        value: s.trim().to_string(),
                        expected: "a known workload name",
                    })
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(v) = env_value("MBU_ADAPTIVE_MARGIN")? {
            let target_margin: f64 = parse_env("MBU_ADAPTIVE_MARGIN", &v, "must be a float")?;
            e.adaptive = Some(AdaptiveSpec {
                target_margin,
                ..AdaptiveSpec::paper()
            });
        }
        if let Some(v) = env_value("MBU_DEADLINE_SECS")? {
            e.deadline = Some(Duration::from_secs(parse_env(
                "MBU_DEADLINE_SECS",
                &v,
                "must be an integer",
            )?));
        }
        if let Some(v) = env_value("MBU_SNAPSHOT_INTERVAL")? {
            e.snapshot_interval = Some(parse_env(
                "MBU_SNAPSHOT_INTERVAL",
                &v,
                "must be an integer",
            )?);
        }
        if let Some(v) = env_value("MBU_SNAPSHOT_MEM_MB")? {
            e.snapshot_mem_mb = Some(parse_env("MBU_SNAPSHOT_MEM_MB", &v, "must be an integer")?);
        }
        if let Some(v) = env_value("MBU_EXHAUSTIVE_MAX_CLASSES")? {
            e.exhaustive_max_classes = parse_env(
                "MBU_EXHAUSTIVE_MAX_CLASSES",
                &v,
                "must be a positive integer",
            )?;
            if e.exhaustive_max_classes == 0 {
                return Err(ConfigError::Invalid {
                    var: "MBU_EXHAUSTIVE_MAX_CLASSES",
                    value: v,
                    expected: "must be a positive integer",
                });
            }
        }
        if let Some(v) = env_value("MBU_CARDINALITY")? {
            e.max_cardinality = parse_env("MBU_CARDINALITY", &v, "must be an integer in 1..=8")?;
            if !(1..=8).contains(&e.max_cardinality) {
                return Err(ConfigError::Invalid {
                    var: "MBU_CARDINALITY",
                    value: v,
                    expected: "must be an integer in 1..=8",
                });
            }
        }
        Ok(e)
    }

    /// The fault cardinalities this configuration sweeps.
    pub fn cardinalities(&self) -> std::ops::RangeInclusive<usize> {
        1..=self.max_cardinality
    }

    /// Table I: the microarchitectural configuration actually in force.
    pub fn table1(&self) -> Table {
        let c = &self.core;
        let m = &c.mem;
        let mut t = Table::new(
            "Table I — summary of setup attributes (scaled experimental config)",
            &["Microarchitectural attribute", "Value"],
        );
        let mut row = |k: &str, v: String| t.row(vec![k.to_string(), v]);
        row("ISA / Core", "custom 32-bit RISC / Out-of-Order".into());
        row(
            "L1 Data cache",
            format!("{} KB {}-way", m.l1d.size_bytes / 1024, m.l1d.ways),
        );
        row(
            "L1 Instruction cache",
            format!("{} KB {}-way", m.l1i.size_bytes / 1024, m.l1i.ways),
        );
        row(
            "L2 cache",
            format!("{} KB {}-way", m.l2.size_bytes / 1024, m.l2.ways),
        );
        row(
            "Data / Instruction TLB",
            format!("{} / {} entries", m.dtlb.entries, m.itlb.entries),
        );
        row(
            "Physical Register File",
            format!("{} registers", c.phys_regs),
        );
        row("Instruction queue", c.iq_entries.to_string());
        row("Reorder buffer", c.rob_entries.to_string());
        row(
            "Fetch / Execute / Writeback width",
            format!("{}/{}/{}", c.fetch_width, c.issue_width, c.writeback_width),
        );
        row("Page size", format!("{} B", mbu_mem::PAGE_SIZE));
        t
    }

    /// Table II: example MBU patterns drawn from the mask generator.
    pub fn table2(&self) -> String {
        let mut out =
            String::from("== Table II — multi-bit upset pattern examples (3x3 cluster) ==\n");
        let geometry = mbu_sram::Geometry::new(64, 64);
        for faults in 1..=3 {
            out.push_str(&format!("\n{}-bit fault examples:\n", faults));
            let mut gen = MaskGenerator::seeded(self.seed + faults as u64, ClusterSpec::DEFAULT);
            for i in 0..3 {
                let mask = gen.generate(geometry, faults);
                out.push_str(&format!("  example {}:\n", i + 1));
                for line in mask.pattern().lines() {
                    out.push_str(&format!("    {line}\n"));
                }
            }
        }
        out
    }

    /// Table III: fault-free execution time of every workload, with the
    /// paper's gem5 cycle counts for shape comparison.
    pub fn table3(&self) -> Table {
        let mut t = Table::new(
            "Table III — benchmark execution time",
            &[
                "Benchmark",
                "Cycles (ours)",
                "Instructions",
                "IPC",
                "Cycles (paper, gem5)",
            ],
        );
        for &w in &self.workloads {
            let r = Simulator::new(self.core, &w.program()).run(u64::MAX / 8);
            assert_eq!(r.end, RunEnd::Exited { code: 0 }, "{w} must exit");
            t.row(vec![
                w.name().into(),
                r.cycles.to_string(),
                r.instructions.to_string(),
                format!("{:.2}", r.instructions as f64 / r.cycles as f64),
                paper::table3_cycles(w.name())
                    .map(|c| c.to_string())
                    .unwrap_or_default(),
            ]);
        }
        t
    }

    /// The snapshot-recording parameters shared by every campaign (and by
    /// [`GoldenArtifacts`] built for sweep-wide sharing).
    pub(crate) fn snapshot_spec(&self) -> SnapshotSpec {
        SnapshotSpec {
            interval: self.snapshot_interval,
            mem_cap_bytes: self.snapshot_mem_mb.map(|mb| mb * 1024 * 1024),
        }
    }

    /// The campaign configuration for one (component, workload,
    /// cardinality) — the single source of truth both execution paths and
    /// the fingerprint computation share.
    pub(crate) fn campaign_config(
        &self,
        component: HwComponent,
        workload: Workload,
        faults: usize,
    ) -> CampaignConfig {
        let mut cfg = CampaignConfig::new(workload, component, faults)
            .runs(self.runs)
            .seed(self.seed)
            .threads(self.threads)
            .adaptive(self.adaptive)
            .use_snapshots(self.use_snapshots)
            .snapshot_spec(self.snapshot_spec());
        cfg.core = self.core;
        cfg
    }

    /// Runs one campaign.
    pub fn campaign(
        &self,
        component: HwComponent,
        workload: Workload,
        faults: usize,
    ) -> CampaignResult {
        Campaign::new(self.campaign_config(component, workload, faults)).run()
    }

    /// Runs one campaign without panicking on configuration/golden-run
    /// failures.
    pub fn try_campaign(
        &self,
        component: HwComponent,
        workload: Workload,
        faults: usize,
    ) -> Result<CampaignResult, CampaignError> {
        Campaign::try_new(self.campaign_config(component, workload, faults))?.try_run()
    }

    /// [`Experiments::try_campaign`] with shared golden artifacts: the
    /// campaign skips its private golden (and snapshot-recording) run and
    /// classifies against the pre-built reference instead. Bit-identical to
    /// the plain path — the simulator is deterministic.
    pub fn try_campaign_with_artifacts(
        &self,
        component: HwComponent,
        workload: Workload,
        faults: usize,
        artifacts: &GoldenArtifacts,
    ) -> Result<CampaignResult, CampaignError> {
        Campaign::try_new(self.campaign_config(component, workload, faults))?
            .try_run_range(0..self.runs, artifacts)
    }

    /// Builds the golden artifacts of `workload` (golden run plus snapshot
    /// recording) that every campaign of a sweep on it shares.
    pub(crate) fn golden_artifacts(
        &self,
        workload: Workload,
    ) -> Result<GoldenArtifacts, CampaignError> {
        // Any (component, faults) combination yields the same artifacts;
        // campaign 1-bit is always constructible.
        Campaign::try_new(self.campaign_config(HwComponent::RegFile, workload, 1))?
            .build_artifacts()
    }

    /// The golden-run fingerprint derived from already-built artifacts —
    /// the same digest [`golden_fingerprint`] computes, without re-running
    /// the golden execution.
    pub(crate) fn artifact_fingerprint(&self, artifacts: &GoldenArtifacts) -> GoldenFingerprint {
        GoldenFingerprint::digest(
            artifacts.output(),
            artifacts.exit_code(),
            artifacts.cycles(),
            artifacts.instructions(),
            config_digest(&self.core),
        )
    }

    /// Every sampled campaign of a sweep over `components`, in driver
    /// order: component × workload × cardinality `1..=max_cardinality`.
    pub fn sampled_campaigns(&self, components: &[HwComponent]) -> Vec<(Key, FaultSource)> {
        let mut campaigns = Vec::new();
        for &component in components {
            for &workload in &self.workloads {
                for faults in self.cardinalities() {
                    campaigns.push(((component, workload, faults), FaultSource::Sampled));
                }
            }
        }
        campaigns
    }

    /// Every equivalence-class campaign over `components`: one single-bit
    /// campaign per component × workload, enumerated exhaustively on the
    /// small structures ([`EXHAUSTIVE_COMPONENTS`]) and sampled stratified
    /// on the big arrays.
    pub fn class_campaigns(&self, components: &[HwComponent]) -> Vec<(Key, FaultSource)> {
        let mut campaigns = Vec::new();
        for &component in components {
            for &workload in &self.workloads {
                let source = FaultSource::for_class_campaign(component);
                campaigns.push(((component, workload, 1), source));
            }
        }
        campaigns
    }

    /// [`Experiments::run_campaigns`] over the sampled campaigns of
    /// `components` — the paper's statistical sweep.
    ///
    /// # Errors
    ///
    /// As [`Experiments::run_campaigns_with`].
    pub fn run_sweep(
        &self,
        components: &[HwComponent],
        store: &mut ResultStore,
        checkpoint: Option<&Path>,
    ) -> Result<SweepReport, StoreError> {
        self.run_campaigns(&self.sampled_campaigns(components), store, checkpoint)
    }

    /// [`Experiments::run_campaigns_with`] over the sampled campaigns of
    /// `components`: the form the chaos harness drives.
    ///
    /// # Errors
    ///
    /// As [`Experiments::run_campaigns_with`].
    pub fn run_sweep_with(
        &self,
        components: &[HwComponent],
        store: &mut ResultStore,
        checkpoint: Option<&Path>,
        control: &SweepControl<'_>,
    ) -> Result<SweepReport, StoreError> {
        self.run_campaigns_with(
            &self.sampled_campaigns(components),
            store,
            checkpoint,
            control,
        )
    }

    /// [`Experiments::run_campaigns_with`] under this configuration's
    /// sweep deadline (`MBU_DEADLINE_SECS`) and the default checkpoint
    /// I/O.
    ///
    /// # Errors
    ///
    /// As [`Experiments::run_campaigns_with`].
    pub fn run_campaigns(
        &self,
        campaigns: &[(Key, FaultSource)],
        store: &mut ResultStore,
        checkpoint: Option<&Path>,
    ) -> Result<SweepReport, StoreError> {
        let control = SweepControl {
            deadline: self.deadline.map(|d| Instant::now() + d),
            ..SweepControl::default()
        };
        self.run_campaigns_with(campaigns, store, checkpoint, &control)
    }

    /// The current golden-run fingerprint of `workload`, computed lazily
    /// and cached (`None` if the golden run fails — the campaign itself
    /// will then report the failure in detail).
    fn current_fingerprint(
        &self,
        cache: &mut BTreeMap<Workload, Option<GoldenFingerprint>>,
        workload: Workload,
    ) -> Option<GoldenFingerprint> {
        *cache
            .entry(workload)
            .or_insert_with(|| golden_fingerprint(self.core, workload).ok())
    }

    /// The in-process driver's resume rule: whether the row
    /// `store` holds under `key` is kept (`true`, skip the campaign) or
    /// re-run. A stored golden-run fingerprint that no longer matches the
    /// current binaries means the simulator, core configuration or workload
    /// changed underneath the checkpoint, so the row is re-run and counted
    /// in `stale`. A row without a fingerprint predates the integrity
    /// columns; it is kept (old results are not orphaned) and counted in
    /// `legacy`.
    fn keep_checkpointed(
        &self,
        store: &ResultStore,
        (component, w, faults): Key,
        fingerprints: &mut BTreeMap<Workload, Option<GoldenFingerprint>>,
        legacy: &mut usize,
        stale: &mut usize,
    ) -> bool {
        let Some(stored) = store.fingerprint(component, w, faults) else {
            *legacy += 1;
            if self.verbose {
                eprintln!(
                    "  warning: {component}/{w}/{faults}-bit comes from a pre-integrity \
                     checkpoint (no fingerprint); kept as-is"
                );
            }
            return true;
        };
        // An unobtainable current fingerprint (golden run fails today)
        // cannot prove staleness; the row is kept.
        if !self
            .current_fingerprint(fingerprints, w)
            .is_some_and(|current| current != stored)
        {
            return true;
        }
        *stale += 1;
        if self.verbose {
            eprintln!(
                "  {component}/{w}/{faults}-bit checkpoint is stale \
                 (fingerprint mismatch); re-running"
            );
        }
        false
    }

    /// The crash-safe in-process sweep driver, for campaigns of any
    /// [`FaultSource`]: runs every campaign of `campaigns` the store does
    /// not already hold, in list order, against one golden run per
    /// workload, flushing each finished campaign (with its coverage
    /// metadata, for class campaigns) to `checkpoint` as it completes.
    ///
    /// Resumability comes from the skip + flush pair: load the checkpoint
    /// into `store` before calling, and an interrupted sweep restarts where
    /// it stopped, losing at most the single campaign that was in flight.
    /// On resume, each checkpointed row's stored golden-run fingerprint is
    /// compared against the fingerprint the current binaries produce; a
    /// mismatch means the simulator, core configuration or workload changed
    /// underneath the checkpoint, so the row is **re-run**, not merged
    /// ([`SweepReport::stale_rerun`]). Rows from pre-integrity files carry
    /// no fingerprint; they are kept (old results are not orphaned) but
    /// counted in [`SweepReport::legacy_unverified`]. Once the control's
    /// deadline passes, the sweep stops before its next campaign
    /// ([`SweepReport::deadline_expired`]). A workload whose golden run
    /// fails is reported in [`SweepReport::failed`] once per component and
    /// skipped, rather than aborting the sweep.
    ///
    /// # Errors
    ///
    /// Only checkpoint I/O aborts the sweep (after the retry policy is
    /// exhausted) — losing the ability to flush would silently forfeit
    /// crash-safety. Campaign failures never do.
    pub fn run_campaigns_with(
        &self,
        campaigns: &[(Key, FaultSource)],
        store: &mut ResultStore,
        checkpoint: Option<&Path>,
        control: &SweepControl<'_>,
    ) -> Result<SweepReport, StoreError> {
        let retry_io = RetryIo::new(control.io, control.retry);
        let mut report = SweepReport::default();
        let mut fingerprints: BTreeMap<Workload, Option<GoldenFingerprint>> = BTreeMap::new();
        // One golden (and recording) run per workload, shared read-only
        // across every campaign; a failure is memoized too.
        let mut artifacts: BTreeMap<Workload, Result<Arc<GoldenArtifacts>, CampaignError>> =
            BTreeMap::new();
        let mut poisoned: BTreeSet<(HwComponent, Workload)> = BTreeSet::new();
        for &(key, source) in campaigns {
            let (component, w, faults) = key;
            if control.deadline.is_some_and(|d| Instant::now() >= d) {
                report.deadline_expired = true;
                if self.verbose {
                    eprintln!("  sweep deadline expired; stopping with partial results");
                }
                break;
            }
            if store.contains(component, w, faults)
                && (!control.verify_fingerprints
                    || self.keep_checkpointed(
                        store,
                        key,
                        &mut fingerprints,
                        &mut report.legacy_unverified,
                        &mut report.stale_rerun,
                    ))
            {
                report.skipped_existing += 1;
                if let Some(m) = store
                    .get(component, w, faults)
                    .and_then(|r| r.achieved_margin)
                {
                    report.margins.push((key, m));
                }
                continue;
            }
            if poisoned.contains(&(component, w)) {
                continue;
            }
            let outcome = artifacts
                .entry(w)
                .or_insert_with(|| self.golden_artifacts(w).map(Arc::new))
                .clone()
                .and_then(|a| source.run_campaign(self, key, &a).map(|r| (r, a)));
            match outcome {
                Ok(((r, class), a)) => {
                    report.executed += 1;
                    if let Some((m, pruned)) = class {
                        report.class_sims += m.classes;
                        report.covered_weight = report.covered_weight.saturating_add(m.weight);
                        report.pruned_weight = report.pruned_weight.saturating_add(pruned);
                    }
                    let meta = class.map(|(m, _)| m);
                    if let Some(m) = r.achieved_margin {
                        report.margins.push((key, m));
                    }
                    if self.verbose {
                        match meta {
                            Some(m) => eprintln!(
                                "  {r} [{} classes over {} bit-cycles]",
                                m.classes, m.weight
                            ),
                            None => eprintln!("  {r}"),
                        }
                        if !r.anomalies.is_empty() {
                            eprintln!("  {}", r.anomalies);
                        }
                    }
                    // The fingerprint derives from the shared artifacts —
                    // no extra golden run.
                    let fp = *fingerprints
                        .entry(w)
                        .or_insert_with(|| Some(self.artifact_fingerprint(&a)));
                    if let Some(path) = checkpoint {
                        ResultStore::append_flavored_row_with(&retry_io, path, &r, fp, meta)?;
                    }
                    store.insert_flavored(r, fp, meta);
                }
                Err(e) => {
                    if self.verbose {
                        eprintln!("  {component}/{w}/{faults}-bit failed: {e}");
                    }
                    // A golden-run failure poisons the component's other
                    // campaigns on this workload; don't report it again.
                    if matches!(e, CampaignError::GoldenRunFailed { .. }) {
                        poisoned.insert((component, w));
                    }
                    report.failed.push((key, e));
                }
            }
        }
        Ok(report)
    }

    /// The exhaustive-campaign parameters this configuration implies.
    pub fn exhaustive_spec(&self) -> ExhaustiveSpec {
        ExhaustiveSpec {
            max_classes: self.exhaustive_max_classes,
            ..ExhaustiveSpec::default()
        }
    }

    /// The stratified-sampling parameters this configuration implies: the
    /// paper's 2.88 % @ 99 % target, drawn with this sweep's seed.
    pub fn stratified_spec(&self) -> StratifiedSpec {
        StratifiedSpec {
            seed: self.seed,
            ..StratifiedSpec::paper()
        }
    }

    /// The single-bit campaign configuration an equivalence-class campaign
    /// runs under — the sampled-path configuration with adaptive stopping
    /// cleared (exhaustive campaigns enumerate, they never stop early).
    pub(crate) fn equiv_config(
        &self,
        component: HwComponent,
        workload: Workload,
    ) -> CampaignConfig {
        let mut cfg = self.campaign_config(component, workload, 1);
        cfg.adaptive = None;
        cfg
    }

    /// Renders the equivalence-class campaigns the store holds — one row
    /// per key carrying the exhaustive flavor, with its coverage proof.
    pub fn equiv_table(&self, store: &ResultStore) -> Table {
        let mut t = Table::new(
            "Equivalence-class campaigns — coverage per (component, workload)",
            &[
                "Component",
                "Workload",
                "Mode",
                "Classes",
                "Population",
                "AVF",
                "±margin",
                "Coverage",
            ],
        );
        for &c in EXHAUSTIVE_COMPONENTS.iter().chain(&STRATIFIED_COMPONENTS) {
            for &w in &self.workloads {
                let (Some(r), Some(meta)) = (store.get(c, w, 1), store.exhaustive_meta(c, w, 1))
                else {
                    continue;
                };
                let proved = r.achieved_margin == Some(0.0);
                t.row(vec![
                    c.to_string(),
                    w.to_string(),
                    if proved { "exhaustive" } else { "stratified" }.into(),
                    meta.classes.to_string(),
                    meta.weight.to_string(),
                    pct(r.avf()),
                    pct_opt(r.achieved_margin),
                    if proved {
                        "100% (proved)".into()
                    } else {
                        "100% (dead exact, live scaled)".into()
                    },
                ]);
            }
        }
        t
    }

    /// Read-only integrity audit of a checkpoint file: format version,
    /// per-row CRC verification, and each stored golden-run fingerprint
    /// checked against what the *current* binaries produce. Nothing is
    /// modified — defective rows are reported, not quarantined.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and [`StoreError::UnsupportedVersion`].
    pub fn verify_store(&self, path: &Path) -> Result<Table, StoreError> {
        let text = std::fs::read_to_string(path)?;
        let (store, audit) = ResultStore::from_csv_lossy(&text)?;
        let mut t = Table::new(
            &format!("Checkpoint audit — {}", path.display()),
            &["Check", "Result"],
        );
        t.row(vec![
            "format version".into(),
            match audit.version {
                StoreVersion::V2 => "v2 (checksummed)".into(),
                StoreVersion::Legacy => "legacy v1 (no checksums, no fingerprints)".into(),
            },
        ]);
        t.row(vec!["rows parsed".into(), audit.rows_loaded.to_string()]);
        t.row(vec!["distinct campaigns".into(), store.len().to_string()]);
        t.row(vec![
            "defective rows".into(),
            audit.quarantined.len().to_string(),
        ]);
        for q in &audit.quarantined {
            t.row(vec![format!("  line {}", q.line), q.defect.to_string()]);
        }
        let mut fingerprints: BTreeMap<Workload, Option<GoldenFingerprint>> = BTreeMap::new();
        let (mut fresh, mut stale, mut unstamped) = (0usize, 0usize, 0usize);
        for r in store.iter() {
            match store.fingerprint(r.component, r.workload, r.faults) {
                None => unstamped += 1,
                Some(stored) => match self.current_fingerprint(&mut fingerprints, r.workload) {
                    Some(current) if current == stored => fresh += 1,
                    _ => stale += 1,
                },
            }
        }
        t.row(vec![
            "fingerprints matching current binaries".into(),
            fresh.to_string(),
        ]);
        t.row(vec![
            "fingerprints stale (would re-run on resume)".into(),
            stale.to_string(),
        ]);
        t.row(vec![
            "rows without fingerprint".into(),
            unstamped.to_string(),
        ]);
        let margins: Vec<f64> = store.iter().filter_map(|r| r.achieved_margin).collect();
        t.row(vec![
            "worst achieved margin".into(),
            margins
                .iter()
                .copied()
                .max_by(f64::total_cmp)
                .map(pct)
                .unwrap_or_else(|| "-".into()),
        ]);
        // Exhaustive-flavor rows: the class/weight columns already parsed
        // (counts summing to the declared population), so what remains to
        // audit is whether that population reconciles with the structure's
        // actual bit × cycle fault space under the current configuration.
        let mut geometry: BTreeMap<HwComponent, u64> = BTreeMap::new();
        let (mut exhaustive_rows, mut reconciled) = (0usize, 0usize);
        let mut mismatches = Vec::new();
        for r in store.iter() {
            let Some(meta) = store.exhaustive_meta(r.component, r.workload, r.faults) else {
                continue;
            };
            exhaustive_rows += 1;
            let bits = *geometry
                .entry(r.component)
                .or_insert_with(|| self.core.component_geometry(r.component).total_bits() as u64);
            let expected = bits.saturating_mul(r.fault_free_cycles);
            if meta.weight == expected {
                reconciled += 1;
            } else {
                mismatches.push(format!(
                    "  {}/{}/{}-bit: weight {} != {} bits x {} cycles",
                    r.component, r.workload, r.faults, meta.weight, bits, r.fault_free_cycles
                ));
            }
        }
        t.row(vec![
            "exhaustive-flavor rows".into(),
            exhaustive_rows.to_string(),
        ]);
        if exhaustive_rows > 0 {
            t.row(vec![
                "exhaustive weights reconciling with bit x cycle space".into(),
                reconciled.to_string(),
            ]);
            for m in mismatches {
                t.row(vec![m, "WEIGHT MISMATCH".into()]);
            }
        }
        Ok(t)
    }

    /// Runs the full campaign set of one component (every workload × 1/2/3
    /// bits) and stores the results.
    ///
    /// # Panics
    ///
    /// Panics if any campaign fails; use [`Experiments::run_sweep`] for the
    /// fault-tolerant, checkpointing form.
    pub fn measure_component(&self, component: HwComponent, store: &mut ResultStore) {
        let report = self
            .run_sweep(&[component], store, None)
            .expect("no checkpoint file, so no I/O can fail");
        if let Some((key, e)) = report.failed.first() {
            panic!("campaign {}/{}/{} failed: {e}", key.0, key.1, key.2);
        }
    }

    /// Figure 1–6: per-benchmark fault-effect breakdown for one component.
    pub fn figure_table(&self, component: HwComponent, store: &ResultStore) -> Table {
        let fig = match component {
            HwComponent::L1D => 1,
            HwComponent::L1I => 2,
            HwComponent::L2 => 3,
            HwComponent::RegFile => 4,
            HwComponent::DTlb => 5,
            HwComponent::ITlb => 6,
        };
        let mut t = Table::new(
            &format!("Fig. {fig} — AVF for 1/2/3-bit fault injection, {component}"),
            &[
                "Benchmark",
                "Faults",
                "Masked",
                "SDC",
                "Crash",
                "Timeout",
                "Assert",
                "AVF",
                "±margin",
            ],
        );
        for &w in &self.workloads {
            for faults in self.cardinalities() {
                if let Some(r) = store.get(component, w, faults) {
                    let b = ClassBreakdown::from_counts(&r.counts);
                    t.row(vec![
                        w.name().into(),
                        faults.to_string(),
                        pct(b.masked),
                        pct(b.sdc),
                        pct(b.crash),
                        pct(b.timeout),
                        pct(b.assert_),
                        pct(b.avf()),
                        pct_opt(r.achieved_margin),
                    ]);
                }
            }
        }
        t
    }

    /// Eq. 2: execution-time-weighted AVFs per component from the store.
    ///
    /// # Panics
    ///
    /// Panics if the store is missing campaigns for the configured
    /// workloads.
    pub fn component_avfs(&self, store: &ResultStore) -> BTreeMap<HwComponent, ComponentAvf> {
        let mut out = BTreeMap::new();
        for c in HwComponent::ALL {
            let per_card: Vec<f64> = (1..=3)
                .map(|faults| {
                    let samples: Vec<(f64, u64)> = self
                        .workloads
                        .iter()
                        .map(|&w| {
                            let r = store
                                .get(c, w, faults)
                                .unwrap_or_else(|| panic!("missing campaign {c}/{w}/{faults}"));
                            (r.avf(), r.fault_free_cycles)
                        })
                        .collect();
                    weighted_avf(&samples)
                })
                .collect();
            out.insert(c, ComponentAvf::new(per_card[0], per_card[1], per_card[2]));
        }
        out
    }

    /// Table IV: per-component vulnerability increase (2-bit and 3-bit vs
    /// single-bit), both as the maximum over benchmarks (the paper's view)
    /// and as the ratio of weighted AVFs.
    pub fn table4(&self, store: &ResultStore) -> Table {
        let avfs = self.component_avfs(store);
        let mut t = Table::new(
            "Table IV — vulnerability increase per component",
            &[
                "Component",
                "2-bit (max over benchmarks)",
                "3-bit (max over benchmarks)",
                "2-bit (weighted)",
                "3-bit (weighted)",
                "paper 2-bit",
                "paper 3-bit",
            ],
        );
        for c in HwComponent::ALL {
            let mut max2: f64 = 0.0;
            let mut max3: f64 = 0.0;
            for &w in &self.workloads {
                let a1 = store.get(c, w, 1).map(|r| r.avf()).unwrap_or(0.0);
                if a1 > 0.0 {
                    if let Some(r2) = store.get(c, w, 2) {
                        max2 = max2.max(r2.avf() / a1);
                    }
                    if let Some(r3) = store.get(c, w, 3) {
                        max3 = max3.max(r3.avf() / a1);
                    }
                }
            }
            let a = &avfs[&c];
            let (p2, p3) = paper::table4_increases(c);
            t.row(vec![
                c.to_string(),
                factor(max2),
                factor(max3),
                factor(a.increase_2bit()),
                factor(a.increase_3bit()),
                factor(p2),
                factor(p3),
            ]);
        }
        t
    }

    /// Table V: weighted AVF per component for 1/2/3 faults, with error
    /// margins (99 % confidence) and the paper's values alongside.
    pub fn table5(&self, store: &ResultStore) -> Table {
        let avfs = self.component_avfs(store);
        let paper_avfs = paper::table5_avfs();
        let mut t = Table::new(
            "Table V — weighted AVF per component for 1, 2 and 3 faults",
            &[
                "Component",
                "Faults",
                "AVF",
                "Increase",
                "±99% margin",
                "AVF (paper)",
            ],
        );
        for c in HwComponent::ALL {
            let a = &avfs[&c];
            let p = &paper_avfs[&c];
            for faults in 1..=3 {
                let avf = a.for_cardinality(faults);
                let increase = match faults {
                    2 => format!("+{:.2}%", a.pct_increase_1_to_2()),
                    3 => format!("+{:.2}%", a.pct_increase_2_to_3()),
                    _ => "-".into(),
                };
                // Mean fault population and mean executed sample count
                // across workloads for the margin (adaptive campaigns may
                // have stopped short of the configured run cap).
                let present: Vec<&CampaignResult> = self
                    .workloads
                    .iter()
                    .filter_map(|&w| store.get(c, w, faults))
                    .collect();
                let denom = present.len().max(1) as u64;
                let mean_cycles = present.iter().map(|r| r.fault_free_cycles).sum::<u64>() / denom;
                let mean_samples = present.iter().map(|r| r.counts.total()).sum::<u64>() / denom;
                let population = fault_population(component_bits(c), mean_cycles.max(1));
                let margin = error_margin(
                    population,
                    mean_samples.clamp(1, population),
                    Z_99,
                    avf.clamp(0.01, 0.99),
                )
                .map(pct)
                .unwrap_or_else(|_| "-".into());
                t.row(vec![
                    c.to_string(),
                    faults.to_string(),
                    pct(avf),
                    increase,
                    margin,
                    pct(p.for_cardinality(faults)),
                ]);
            }
        }
        t
    }

    /// Table VI: the per-node MBU rates (input data from Ibe et al.).
    pub fn table6(&self) -> Table {
        let mut t = Table::new(
            "Table VI — multi-bit rates per node",
            &["Technology Node", "Single-bit", "Double-bit", "Triple-bit"],
        );
        for node in TechNode::ALL {
            let r = node.mbu_rates();
            t.row(vec![node.to_string(), pct(r[0]), pct(r[1]), pct(r[2])]);
        }
        t
    }

    /// Table VII: raw FIT per bit per node (input data).
    pub fn table7(&self) -> Table {
        let mut t = Table::new(
            "Table VII — raw FIT for 250 nm to 22 nm nodes",
            &["Node", "Raw FIT per bit"],
        );
        for node in TechNode::ALL {
            t.row(vec![
                node.to_string(),
                format!("{:.0} x 10^-8", node.raw_fit_per_bit() * 1e8),
            ]);
        }
        t
    }

    /// Table VIII: component sizes in bits.
    pub fn table8(&self) -> Table {
        let mut t = Table::new(
            "Table VIII — component sizes in bits",
            &["Component", "Size (bits)"],
        );
        for c in HwComponent::ALL {
            t.row(vec![c.to_string(), component_bits(c).to_string()]);
        }
        t
    }

    /// Figure 7: aggregate multi-bit AVF per component per node (Eq. 3),
    /// with the single-bit baseline and the assessment gap.
    pub fn fig7(&self, avfs: &BTreeMap<HwComponent, ComponentAvf>) -> Table {
        let mut t = Table::new(
            "Fig. 7 — multi-bit weighted AVF per component per technology node",
            &[
                "Component",
                "Node",
                "Single-bit AVF",
                "Aggregate AVF",
                "Gap",
            ],
        );
        for c in HwComponent::ALL {
            let a = &avfs[&c];
            for node in TechNode::ALL {
                t.row(vec![
                    c.to_string(),
                    node.to_string(),
                    pct(a.single),
                    pct(node_avf(a, node)),
                    format!("{:+.1}%", assessment_gap(a, node) * 100.0),
                ]);
            }
        }
        t
    }

    /// Figure 8: CPU FIT per node with the multi-bit contribution (Eq. 4).
    pub fn fig8(&self, avfs: &BTreeMap<HwComponent, ComponentAvf>) -> Table {
        let mut t = Table::new(
            "Fig. 8 — FIT for the entire CPU core per technology node",
            &[
                "Node",
                "Total FIT",
                "Single-bit FIT",
                "MBU FIT",
                "MBU contribution",
            ],
        );
        for node in TechNode::ALL {
            let fit = cpu_fit(avfs, node);
            t.row(vec![
                node.to_string(),
                format!("{:.4}", fit.total),
                format!("{:.4}", fit.single_bit_only),
                format!("{:.4}", fit.mbu_part()),
                format!("{:.1}%", fit.mbu_contribution_pct()),
            ]);
        }
        t
    }

    /// Summary + observations (Table IV right column analogue): the
    /// per-class character of each component, computed from the store.
    pub fn class_character(&self, store: &ResultStore) -> Table {
        let mut t = Table::new(
            "Per-component fault-effect character (aggregate over benchmarks, 1-3 bit)",
            &["Component", "Masked", "SDC", "Crash", "Timeout", "Assert"],
        );
        for c in HwComponent::ALL {
            let mut counts = mbu_gefin::ClassCounts::new();
            for r in store.iter().filter(|r| r.component == c) {
                counts.merge(&r.counts);
            }
            if counts.total() == 0 {
                continue;
            }
            t.row(vec![
                c.to_string(),
                pct(counts.fraction(FaultEffect::Masked)),
                pct(counts.fraction(FaultEffect::Sdc)),
                pct(counts.fraction(FaultEffect::Crash)),
                pct(counts.fraction(FaultEffect::Timeout)),
                pct(counts.fraction(FaultEffect::Assert)),
            ]);
        }
        t
    }

    /// Ablation A: data-array vs tag-array injection for the caches
    /// (DESIGN.md design-choice ablation; the paper injects data arrays).
    pub fn ablation_tag_vs_data(&self) -> Table {
        let mut t = Table::new(
            "Ablation — data array vs tag array AVF (2-bit faults)",
            &["Component", "Workload", "Data-array AVF", "Tag-array AVF"],
        );
        let workload = self.workloads.first().copied().unwrap_or(Workload::Sha);
        for c in [HwComponent::L1D, HwComponent::L1I, HwComponent::L2] {
            let data = Campaign::new(
                CampaignConfig::new(workload, c, 2)
                    .runs(self.runs)
                    .seed(self.seed)
                    .threads(self.threads),
            )
            .run();
            let tag = Campaign::new(
                CampaignConfig::new(workload, c, 2)
                    .runs(self.runs)
                    .seed(self.seed)
                    .threads(self.threads)
                    .target(InjectionTarget::TagArray),
            )
            .run();
            t.row(vec![
                c.to_string(),
                workload.to_string(),
                pct(data.avf()),
                pct(tag.avf()),
            ]);
        }
        t
    }

    /// Ablation B: out-of-order vs in-order issue — performance and
    /// register-file vulnerability (the paper's conclusion extends the
    /// methodology to in-order CPUs).
    pub fn ablation_in_order(&self) -> Table {
        let mut t = Table::new(
            "Ablation — out-of-order vs in-order core",
            &["Core", "Workload", "Cycles", "IPC", "RegFile 2-bit AVF"],
        );
        let workload = self.workloads.first().copied().unwrap_or(Workload::Sha);
        for (name, core) in [
            ("out-of-order", CoreConfig::cortex_a9_like()),
            ("in-order", CoreConfig::in_order_a9()),
        ] {
            let r = Simulator::new(core, &workload.program()).run(u64::MAX / 8);
            let mut cfg = CampaignConfig::new(workload, HwComponent::RegFile, 2)
                .runs(self.runs)
                .seed(self.seed)
                .threads(self.threads);
            cfg.core = core;
            let campaign = Campaign::new(cfg).run();
            t.row(vec![
                name.into(),
                workload.to_string(),
                r.cycles.to_string(),
                format!("{:.2}", r.instructions as f64 / r.cycles as f64),
                pct(campaign.avf()),
            ]);
        }
        t
    }

    /// Ablation C: cluster-window size (the paper fixes 3×3 because larger
    /// upsets have ~zero rates; this quantifies the sensitivity).
    pub fn ablation_cluster_size(&self) -> Table {
        let mut t = Table::new(
            "Ablation — cluster window size (3-bit faults, DTLB)",
            &["Cluster", "Workload", "AVF"],
        );
        let workload = self.workloads.first().copied().unwrap_or(Workload::Qsort);
        for (name, cluster) in [
            ("2x2", ClusterSpec::new(2, 2)),
            ("3x3", ClusterSpec::new(3, 3)),
            ("4x4", ClusterSpec::new(4, 4)),
            ("1x9 (row burst)", ClusterSpec::new(1, 9)),
        ] {
            let r = Campaign::new(
                CampaignConfig::new(workload, HwComponent::DTlb, 3)
                    .runs(self.runs)
                    .seed(self.seed)
                    .threads(self.threads)
                    .cluster(cluster),
            )
            .run();
            t.row(vec![name.into(), workload.to_string(), pct(r.avf())]);
        }
        t
    }

    /// Extension: the projected 14 nm FinFET node appended to the Fig. 7 /
    /// Fig. 8 series (clearly marked as a projection).
    pub fn projected_14nm(&self, avfs: &BTreeMap<HwComponent, ComponentAvf>) -> Table {
        let mut t = Table::new(
            "Extension — projected 14 nm FinFET node (not paper data)",
            &[
                "Component",
                "22 nm aggregate AVF",
                "14 nm projected AVF",
                "14 nm projected FIT",
            ],
        );
        let rates = projected::finfet_14nm_rates();
        let raw = projected::finfet_14nm_raw_fit();
        for c in HwComponent::ALL {
            let a = &avfs[&c];
            let v22 = node_avf(a, TechNode::N22);
            let v14 = node_avf_with_rates(a, rates);
            let fit14 = v14 * raw * component_bits(c) as f64;
            t.row(vec![
                c.to_string(),
                pct(v22),
                pct(v14),
                format!("{fit14:.5}"),
            ]);
        }
        t
    }

    /// Figure 1–6 as an ASCII stacked-bar chart (the paper's visual form):
    /// `.` masked, `S` SDC, `C` crash, `T` timeout, `A` assert.
    pub fn figure_chart(&self, component: HwComponent, store: &ResultStore) -> String {
        let mut bars = Vec::new();
        for &w in &self.workloads {
            for faults in self.cardinalities() {
                if let Some(r) = store.get(component, w, faults) {
                    let b = ClassBreakdown::from_counts(&r.counts);
                    bars.push(StackedBar {
                        label: format!("{}/{}", w.name(), faults),
                        segments: vec![
                            ('.', b.masked),
                            ('S', b.sdc),
                            ('C', b.crash),
                            ('T', b.timeout),
                            ('A', b.assert_),
                        ],
                    });
                }
            }
        }
        stacked_chart(
            &format!("{component} — masked(.) SDC(S) crash(C) timeout(T) assert(A)"),
            &bars,
            60,
        )
    }

    /// Ablation D: data-array column interleaving (the paper's refs
    /// \[39\]\[46\] protection): with interleave ≥ 3, a 3×3 spatial cluster
    /// degenerates into ≤1 flipped bit per logical word.
    pub fn ablation_interleaving(&self) -> Table {
        let mut t = Table::new(
            "Ablation — L1D column interleaving vs 3-bit spatial MBU AVF",
            &["Interleave", "Workload", "AVF"],
        );
        let workload = self.workloads.first().copied().unwrap_or(Workload::Sha);
        for interleave in [1u32, 2, 4] {
            let mut cfg = CampaignConfig::new(workload, HwComponent::L1D, 3)
                .runs(self.runs)
                .seed(self.seed)
                .threads(self.threads);
            cfg.core.mem.l1d = cfg.core.mem.l1d.with_interleave(interleave);
            let r = Campaign::new(cfg).run();
            t.row(vec![
                format!("{interleave}x"),
                workload.to_string(),
                pct(r.avf()),
            ]);
        }
        t
    }

    /// Extension: beam emulation vs the Eq. 3 aggregate — validates the
    /// single-fault injection methodology against a Poisson multi-strike
    /// protocol at the same node.
    pub fn beam_validation(&self, store: &ResultStore) -> Table {
        let mut t = Table::new(
            "Extension — beam emulation vs Eq. 3 aggregate (22 nm)",
            &[
                "Workload",
                "Component",
                "Beam AVF|struck",
                "Eq. 3 aggregate AVF",
            ],
        );
        let workload = self.workloads.first().copied().unwrap_or(Workload::Sha);
        for component in [HwComponent::RegFile, HwComponent::L1D] {
            let beam = run_beam(
                &BeamConfig::new(workload, component, TechNode::N22)
                    .runs(self.runs)
                    .flux(0.7)
                    .seed(self.seed),
            );
            let eq3 = (1..=3)
                .map(|f| {
                    store
                        .get(component, workload, f)
                        .map(|r| r.avf())
                        .unwrap_or(0.0)
                        * TechNode::N22.mbu_rates()[f - 1]
                })
                .sum::<f64>();
            t.row(vec![
                workload.to_string(),
                component.to_string(),
                pct(beam.avf_given_struck()),
                pct(eq3),
            ]);
        }
        t
    }

    /// Ablation E: stall-on-branch (the default front end) vs bimodal
    /// speculation — cycles and register-file AVF. Speculation shortens
    /// runs and changes instruction-level liveness, so this bounds the
    /// modeling error of the no-speculation divergence noted in DESIGN.md.
    pub fn ablation_speculation(&self) -> Table {
        let mut t = Table::new(
            "Ablation — stall-on-branch vs bimodal speculation",
            &["Front end", "Workload", "Cycles", "RegFile 2-bit AVF"],
        );
        let workload = self.workloads.first().copied().unwrap_or(Workload::Qsort);
        for (name, core) in [
            ("stall-on-branch", CoreConfig::cortex_a9_like()),
            ("bimodal speculation", CoreConfig::speculative_a9()),
        ] {
            let run = Simulator::new(core, &workload.program()).run(u64::MAX / 8);
            let mut cfg = CampaignConfig::new(workload, HwComponent::RegFile, 2)
                .runs(self.runs)
                .seed(self.seed)
                .threads(self.threads);
            cfg.core = core;
            let campaign = Campaign::new(cfg).run();
            t.row(vec![
                name.into(),
                workload.to_string(),
                run.cycles.to_string(),
                pct(campaign.avf()),
            ]);
        }
        t
    }

    /// Analytical (ACE) vs injected AVF cross-validation over every
    /// configured workload and all six components.
    ///
    /// One fault-free [`mbu_ace::capture()`] per workload yields the
    /// analytical AVF of all six data arrays at once; the injected AVF is
    /// the single-bit campaign (`1 − masked fraction`), reused from
    /// `rstore` when present. Both sides checkpoint incrementally
    /// ([`AnalyticalStore::append_row`] / [`ResultStore::append_row`]), so
    /// an interrupted cross-validation resumes where it stopped.
    ///
    /// A workload whose capture or golden run fails is skipped (reported on
    /// stderr when verbose) rather than aborting the sweep.
    ///
    /// # Errors
    ///
    /// Only checkpoint I/O aborts the run, mirroring
    /// [`Experiments::run_sweep`].
    pub fn xval_rows(
        &self,
        astore: &mut AnalyticalStore,
        rstore: &mut ResultStore,
        analytical_checkpoint: Option<&Path>,
        injected_checkpoint: Option<&Path>,
    ) -> Result<Vec<AvfCrossValidation>, StoreError> {
        let mut rows = Vec::new();
        for &w in &self.workloads {
            // Analytical side: capture once per workload, unless every
            // component is already checkpointed.
            if HwComponent::ALL.iter().any(|&c| !astore.contains(c, w)) {
                match capture(self.core, &w.program()) {
                    Ok(map) => {
                        for c in HwComponent::ALL {
                            let r = &map.structures[&AceStructure::for_component(c)];
                            let row = AnalyticalRow {
                                component: c,
                                workload: w,
                                analytical_avf: r.analytical_avf(),
                                total_cycles: map.total_cycles,
                            };
                            if let Some(path) = analytical_checkpoint {
                                AnalyticalStore::append_row(path, &row)?;
                            }
                            astore.insert(row);
                        }
                    }
                    Err(e) => {
                        if self.verbose {
                            eprintln!("  {w}: fault-free capture failed: {e}");
                        }
                        continue;
                    }
                }
            }
            // Injected side: single-bit data-array campaigns.
            for c in HwComponent::ALL {
                if !rstore.contains(c, w, 1) {
                    match self.try_campaign(c, w, 1) {
                        Ok(r) => {
                            if self.verbose {
                                eprintln!("  {r}");
                            }
                            if let Some(path) = injected_checkpoint {
                                ResultStore::append_row(path, &r)?;
                            }
                            rstore.insert(r);
                        }
                        Err(e) => {
                            if self.verbose {
                                eprintln!("  {c}/{w}/1-bit failed: {e}");
                            }
                            continue;
                        }
                    }
                }
                let (Some(a), Some(i)) = (astore.get(c, w), rstore.get(c, w, 1)) else {
                    continue;
                };
                rows.push(AvfCrossValidation {
                    component: component_slug(c).into(),
                    workload: w.name().into(),
                    analytical: a.analytical_avf,
                    injected: i.avf(),
                });
            }
        }
        Ok(rows)
    }

    /// Renders [`Experiments::xval_rows`] as the paper-style table.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint I/O failures.
    pub fn xval_table(
        &self,
        astore: &mut AnalyticalStore,
        rstore: &mut ResultStore,
        analytical_checkpoint: Option<&Path>,
        injected_checkpoint: Option<&Path>,
    ) -> Result<Table, StoreError> {
        let rows = self.xval_rows(astore, rstore, analytical_checkpoint, injected_checkpoint)?;
        Ok(cross_validation_table(&rows))
    }

    /// Fault-free occupancy / liveness observation of one workload.
    ///
    /// # Errors
    ///
    /// Propagates [`CaptureError`] if the observation run does not exit
    /// cleanly.
    pub fn observe(&self, workload: Workload) -> Result<LivenessMap, CaptureError> {
        capture(self.core, &workload.program())
    }

    /// Per-structure residency summary of one captured run: geometry,
    /// recorded events, live-bit-cycles, analytical AVF and mean live
    /// fraction for all nine observed arrays.
    pub fn occupancy_table(&self, workload: Workload, map: &LivenessMap) -> Table {
        let mut t = Table::new(
            &format!(
                "Occupancy & liveness — {workload} ({} cycles, {} instructions)",
                map.total_cycles, map.instructions
            ),
            &[
                "Structure",
                "Geometry",
                "Events",
                "Live-bit-cycles",
                "Analytical AVF",
                "Mean live",
            ],
        );
        for s in AceStructure::ALL {
            let r = &map.structures[&s];
            t.row(vec![
                s.slug().into(),
                format!("{}x{}", r.rows(), r.cols()),
                r.events.to_string(),
                r.live_bit_cycles().to_string(),
                pct(r.analytical_avf()),
                pct(r.mean_live_fraction()),
            ]);
        }
        t
    }

    /// Pipeline-queue occupancy summary (ROB / issue queue / store buffer).
    pub fn pipeline_occupancy_table(&self, map: &LivenessMap) -> Table {
        let o = &map.occupancy;
        let mut t = Table::new(
            &format!("Pipeline occupancy ({} sampled cycles)", o.samples),
            &["Queue", "Capacity", "Mean", "Peak", "Mean utilization"],
        );
        let cap_rob = self.core.rob_entries as usize;
        let cap_iq = self.core.iq_entries as usize;
        let mut row = |name: &str, cap: usize, mean: f64, peak: usize| {
            t.row(vec![
                name.into(),
                if cap > 0 { cap.to_string() } else { "-".into() },
                format!("{mean:.2}"),
                peak.to_string(),
                if cap > 0 {
                    pct(mean / cap as f64)
                } else {
                    "-".into()
                },
            ]);
        };
        row("reorder buffer", cap_rob, o.mean_rob, o.max_rob);
        row("issue queue", cap_iq, o.mean_iq, o.max_iq);
        row("store buffer", 0, o.mean_sb, o.max_sb);
        t
    }

    /// The bucketed occupancy time series as CSV
    /// (`cycle,rob,iq,store_buffer`), for plotting.
    pub fn occupancy_series_csv(&self, map: &LivenessMap) -> String {
        let mut out = String::from("cycle,rob,iq,store_buffer\n");
        for p in &map.occupancy.series {
            out.push_str(&format!(
                "{},{:.3},{:.3},{:.3}\n",
                p.cycle, p.rob, p.iq, p.store_buffer
            ));
        }
        out
    }

    /// Progress label for one component measurement.
    pub fn describe(&self, component: HwComponent) -> String {
        format!(
            "{} ({}): {} workloads x 3 cardinalities x {} runs",
            component,
            component_slug(component),
            self.workloads.len(),
            self.runs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Experiments {
        Experiments {
            runs: 8,
            workloads: vec![Workload::Stringsearch],
            ..Experiments::default()
        }
    }

    #[test]
    fn table1_lists_scaled_config() {
        let t = tiny().table1();
        let s = t.to_string();
        assert!(s.contains("2 KB 4-way"));
        assert!(s.contains("56 registers"));
        assert!(s.contains("2/4/4"));
    }

    #[test]
    fn table2_renders_patterns() {
        let s = tiny().table2();
        assert!(s.contains("1-bit fault examples"));
        assert!(s.contains("3-bit fault examples"));
        assert!(s.matches('X').count() >= 1 + 2 + 3);
    }

    #[test]
    fn table3_reports_cycles() {
        let t = tiny().table3();
        assert_eq!(t.len(), 1);
        assert!(t.to_string().contains("stringsearch"));
    }

    #[test]
    fn measure_and_derive_small() {
        let e = tiny();
        let mut store = ResultStore::new();
        e.measure_component(HwComponent::RegFile, &mut store);
        assert_eq!(store.len(), 3);
        let fig = e.figure_table(HwComponent::RegFile, &store);
        assert_eq!(fig.len(), 3);
        // Derivations need all six components; fill the rest from the same
        // component's numbers to exercise the math paths.
        for c in HwComponent::ALL {
            for f in 1..=3 {
                if store.get(c, Workload::Stringsearch, f).is_none() {
                    let mut r = store
                        .get(HwComponent::RegFile, Workload::Stringsearch, f)
                        .unwrap()
                        .clone();
                    r.component = c;
                    store.insert(r);
                }
            }
        }
        let avfs = e.component_avfs(&store);
        assert_eq!(avfs.len(), 6);
        assert_eq!(e.fig7(&avfs).len(), 48);
        assert_eq!(e.fig8(&avfs).len(), 8);
        assert_eq!(e.table4(&store).len(), 6);
        assert_eq!(e.table5(&store).len(), 18);
        assert!(!e.class_character(&store).is_empty());
    }

    #[test]
    fn static_tables_have_expected_rows() {
        let e = tiny();
        assert_eq!(e.table6().len(), 8);
        assert_eq!(e.table7().len(), 8);
        assert_eq!(e.table8().len(), 6);
    }

    #[test]
    fn xval_cross_validates_and_resumes_from_checkpoints() {
        let e = tiny();
        let w = Workload::Stringsearch;
        let dir = std::env::temp_dir().join(format!("mbu-xval-test-{}", std::process::id()));
        let a_path = dir.join("analytical.csv");
        let i_path = dir.join("injected.csv");
        let _ = std::fs::remove_dir_all(&dir);
        let mut astore = AnalyticalStore::new();
        let mut rstore = ResultStore::new();
        let rows = e
            .xval_rows(&mut astore, &mut rstore, Some(&a_path), Some(&i_path))
            .unwrap();
        assert_eq!(
            rows.len(),
            6,
            "one row per component for the single workload"
        );
        for r in &rows {
            assert!(
                (0.0..=1.0).contains(&r.analytical),
                "{}: {}",
                r.component,
                r.analytical
            );
            assert!((0.0..=1.0).contains(&r.injected));
        }
        // Both estimates agree that the register file is far more
        // vulnerable than the (mostly idle) L2.
        let by = |slug: &str| rows.iter().find(|r| r.component == slug).unwrap();
        assert!(by("regfile").analytical > by("l2").analytical);
        // The table renders every pair plus the mean row.
        let t = cross_validation_table(&rows);
        assert_eq!(t.len(), 7);
        // Resuming from the on-disk checkpoints recomputes nothing and
        // reproduces the same rows.
        let mut astore2 = AnalyticalStore::load(&a_path).unwrap();
        let mut rstore2 = ResultStore::load(&i_path).unwrap();
        assert_eq!(astore2.len(), 6);
        let again = e
            .xval_rows(&mut astore2, &mut rstore2, Some(&a_path), Some(&i_path))
            .unwrap();
        assert_eq!(again.len(), rows.len());
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.component, b.component);
            assert!((a.analytical - b.analytical).abs() < 1e-12);
            assert_eq!(a.injected, b.injected);
        }
        assert_eq!(astore2.get(HwComponent::L2, w).unwrap().total_cycles, {
            astore.get(HwComponent::L2, w).unwrap().total_cycles
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn occupancy_tables_and_series_render() {
        let e = tiny();
        let map = e.observe(Workload::Stringsearch).unwrap();
        let t = e.occupancy_table(Workload::Stringsearch, &map);
        assert_eq!(t.len(), AceStructure::ALL.len());
        assert!(t.to_string().contains("l1d-tag"));
        let p = e.pipeline_occupancy_table(&map);
        assert_eq!(p.len(), 3);
        let csv = e.occupancy_series_csv(&map);
        assert!(csv.starts_with("cycle,rob,iq,store_buffer\n"));
        assert!(csv.lines().count() > 1, "series must not be empty");
    }

    #[test]
    fn sweep_resumes_skipping_completed_keys() {
        let e = tiny();
        let w = Workload::Stringsearch;
        let c = HwComponent::RegFile;
        let mut store = ResultStore::new();
        let first = e.run_sweep(&[c], &mut store, None).unwrap();
        assert_eq!(first.executed, 3, "fresh sweep runs every campaign");
        assert_eq!(first.skipped_existing, 0);
        assert!(first.is_clean());
        // Re-running against the same store executes nothing.
        let second = e.run_sweep(&[c], &mut store, None).unwrap();
        assert_eq!(second.executed, 0);
        assert_eq!(second.skipped_existing, 3);
        // Resume from a partial store (as after a kill): only the missing
        // key runs, and deterministically reproduces the original result.
        let mut partial = ResultStore::new();
        partial.insert(store.get(c, w, 1).unwrap().clone());
        partial.insert(store.get(c, w, 3).unwrap().clone());
        let resumed = e.run_sweep(&[c], &mut partial, None).unwrap();
        assert_eq!(resumed.executed, 1, "only the missing campaign re-runs");
        assert_eq!(resumed.skipped_existing, 2);
        assert_eq!(partial.get(c, w, 2).unwrap(), store.get(c, w, 2).unwrap());
    }

    #[test]
    fn equiv_env_knobs_parse_and_reject_typed() {
        // Defaults: the documented class cap.
        let e = Experiments::default();
        assert_eq!(e.exhaustive_max_classes, DEFAULT_MAX_CLASSES);
        // Valid values round-trip.
        std::env::set_var("MBU_EXHAUSTIVE_MAX_CLASSES", "1234");
        let e = Experiments::try_from_env().unwrap();
        assert_eq!(e.exhaustive_max_classes, 1234);
        // Invalid values are typed errors naming the variable — never a
        // silent fallback to the default.
        std::env::set_var("MBU_EXHAUSTIVE_MAX_CLASSES", "lots");
        assert_eq!(
            Experiments::try_from_env().unwrap_err(),
            ConfigError::Invalid {
                var: "MBU_EXHAUSTIVE_MAX_CLASSES",
                value: "lots".into(),
                expected: "must be a positive integer",
            }
        );
        // Zero would disable exhaustive mode entirely while looking set.
        std::env::set_var("MBU_EXHAUSTIVE_MAX_CLASSES", "0");
        assert_eq!(
            Experiments::try_from_env().unwrap_err(),
            ConfigError::Invalid {
                var: "MBU_EXHAUSTIVE_MAX_CLASSES",
                value: "0".into(),
                expected: "must be a positive integer",
            }
        );
        std::env::remove_var("MBU_EXHAUSTIVE_MAX_CLASSES");
        let e = Experiments::try_from_env().unwrap();
        assert_eq!(e.exhaustive_max_classes, DEFAULT_MAX_CLASSES);
    }

    #[test]
    fn equiv_components_split_by_structure_in_list_order() {
        use FaultSource::{Exhaustive, Stratified};
        let e = tiny();
        let sources = |components: &[HwComponent]| -> Vec<(HwComponent, FaultSource)> {
            e.class_campaigns(components)
                .into_iter()
                .map(|((c, w, faults), source)| {
                    assert_eq!((w, faults), (Workload::Stringsearch, 1), "single-bit");
                    (c, source)
                })
                .collect()
        };
        assert_eq!(
            sources(&[
                HwComponent::L2,
                HwComponent::DTlb,
                HwComponent::L1D,
                HwComponent::ITlb,
            ]),
            vec![
                (HwComponent::L2, Stratified),
                (HwComponent::DTlb, Exhaustive),
                (HwComponent::L1D, Stratified),
                (HwComponent::ITlb, Exhaustive),
            ]
        );
        assert!(sources(&EXHAUSTIVE_COMPONENTS)
            .iter()
            .all(|&(_, s)| s == Exhaustive));
        assert!(sources(&STRATIFIED_COMPONENTS)
            .iter()
            .all(|&(_, s)| s == Stratified));
    }

    /// `MBU_DEADLINE_SECS` reaches class campaigns through the one driver:
    /// an expired deadline runs nothing, and the resumed sweep lands on the
    /// uninterrupted sweep's store.
    #[test]
    fn class_sweep_stops_at_the_deadline_and_resumes() {
        let e = tiny();
        let campaigns = e.class_campaigns(&[HwComponent::L2]);
        let mut uninterrupted = ResultStore::new();
        e.run_campaigns(&campaigns, &mut uninterrupted, None)
            .unwrap();
        let expired = Experiments {
            deadline: Some(Duration::ZERO),
            ..tiny()
        };
        let mut store = ResultStore::new();
        let report = expired.run_campaigns(&campaigns, &mut store, None).unwrap();
        assert!(report.deadline_expired);
        assert_eq!((report.executed, report.skipped_existing), (0, 0));
        assert!(store.is_empty());
        let resumed = e.run_campaigns(&campaigns, &mut store, None).unwrap();
        assert!(!resumed.deadline_expired);
        assert_eq!(resumed.executed, 1);
        assert_eq!(store.to_csv(), uninterrupted.to_csv());
    }

    /// A resumed equivalence-class checkpoint obeys the sampled sweep's
    /// rule: a row stamped by other binaries re-runs, an unstamped row is
    /// kept and flagged.
    #[test]
    fn equiv_driver_reruns_stale_rows_and_keeps_legacy_ones() {
        let e = tiny();
        let (c, w) = (HwComponent::L2, Workload::Stringsearch);
        let mut store = ResultStore::new();
        let first = e
            .run_campaigns(&e.class_campaigns(&[c]), &mut store, None)
            .unwrap();
        assert_eq!(first.executed, 1);
        let row = store.get(c, w, 1).unwrap().clone();
        let meta = store.exhaustive_meta(c, w, 1).unwrap();
        let true_fp = store.fingerprint(c, w, 1).expect("the driver stamps rows");

        let mut stale = ResultStore::new();
        stale.insert_flavored(
            row.clone(),
            Some(GoldenFingerprint(0xDEAD_BEEF)),
            Some(meta),
        );
        let report = e
            .run_campaigns(&e.class_campaigns(&[c]), &mut stale, None)
            .unwrap();
        assert_eq!(report.stale_rerun, 1, "the stale row is re-run");
        assert_eq!((report.executed, report.skipped_existing), (1, 0));
        assert_eq!(report.legacy_unverified, 0);
        assert_eq!(stale.get(c, w, 1).unwrap().counts, row.counts);
        assert_eq!(stale.fingerprint(c, w, 1), Some(true_fp));

        let mut legacy = ResultStore::new();
        legacy.insert_flavored(row, None, Some(meta));
        let report = e
            .run_campaigns(&e.class_campaigns(&[c]), &mut legacy, None)
            .unwrap();
        assert_eq!(report.legacy_unverified, 1, "the legacy row is kept");
        assert_eq!((report.executed, report.skipped_existing), (0, 1));
        assert_eq!(report.stale_rerun, 0);
        assert_eq!(legacy.fingerprint(c, w, 1), None);
    }

    #[test]
    fn equiv_driver_stratified_covers_l2_and_resumes() {
        let e = tiny();
        let w = Workload::Stringsearch;
        let c = HwComponent::L2;
        let dir = std::env::temp_dir().join(format!("mbu-equiv-test-{}", std::process::id()));
        let path = dir.join("equiv.csv");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ResultStore::new();
        let report = e
            .run_campaigns(&e.class_campaigns(&[c]), &mut store, Some(&path))
            .unwrap();
        assert_eq!(report.executed, 1);
        assert!(report.is_clean(), "{:?}", report.failed);
        let meta = store.exhaustive_meta(c, w, 1).unwrap();
        assert!(meta.classes > 0, "the sampler simulated live classes");
        // The report's class totals are the one campaign's.
        assert_eq!(report.class_sims, meta.classes);
        assert_eq!(report.covered_weight, meta.weight);
        assert!(report.pruned_weight < meta.weight);
        let row = store.get(c, w, 1).unwrap();
        // Scaled counts cover the whole population, and that population
        // reconciles with the structure's actual bit × cycle fault space.
        assert_eq!(row.counts.total(), meta.weight);
        let bits = e.core.component_geometry(c).total_bits() as u64;
        assert_eq!(meta.weight, bits * row.fault_free_cycles);
        assert!(row.achieved_margin.unwrap() > 0.0, "stratified, not proved");
        // The driver's campaign is the sampler's run under the paper's
        // stopping rule, draw floor included.
        let plan = mbu_gefin::exhaustive::ExhaustivePlan::try_new(
            e.equiv_config(c, w),
            e.exhaustive_spec(),
        )
        .unwrap();
        let direct = plan.run_stratified(e.stratified_spec(), None).unwrap();
        assert!(
            direct.draws >= StratifiedSpec::paper().min_draws,
            "paper spec draws ≥ min"
        );
        assert_eq!(direct.simulated, meta.classes);
        assert_eq!(direct.campaign.counts, row.counts);
        // The flavored checkpoint row survives a reload with its metadata,
        // and the resumed driver re-runs nothing.
        let mut reloaded = ResultStore::load(&path).unwrap();
        assert_eq!(reloaded.exhaustive_meta(c, w, 1), Some(meta));
        let back = reloaded.get(c, w, 1).unwrap();
        // oracle_skips (like details) is not a persisted column; the
        // classification payload must round-trip bit-identically.
        assert_eq!(back.counts, row.counts);
        assert_eq!(back.achieved_margin, row.achieved_margin);
        assert_eq!(back.fault_free_cycles, row.fault_free_cycles);
        assert_eq!(back.fault_free_instructions, row.fault_free_instructions);
        let again = e
            .run_campaigns(&e.class_campaigns(&[c]), &mut reloaded, Some(&path))
            .unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(again.skipped_existing, 1);
        // The audit reports the flavor and reconciles its weight.
        let audit = e.verify_store(&path).unwrap().to_string();
        assert!(audit.contains("exhaustive-flavor rows"));
        assert!(!audit.contains("WEIGHT MISMATCH"), "{audit}");
        // The coverage table renders the stratified row.
        let t = e.equiv_table(&reloaded).to_string();
        assert!(t.contains("stratified"), "{t}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_sweep_resumes_from_disk() {
        let e = tiny();
        let c = HwComponent::RegFile;
        let dir = std::env::temp_dir().join(format!("mbu-sweep-test-{}", std::process::id()));
        let path = dir.join("sweep.csv");
        let _ = std::fs::remove_file(&path);
        let mut store = ResultStore::new();
        e.run_sweep(&[c], &mut store, Some(&path)).unwrap();
        // Every finished campaign was flushed as it completed.
        let reloaded = ResultStore::load(&path).unwrap();
        assert_eq!(reloaded.len(), 3);
        // A restarted process loads the checkpoint and has nothing to do.
        let mut resumed_store = reloaded;
        let report = e.run_sweep(&[c], &mut resumed_store, Some(&path)).unwrap();
        assert_eq!(report.executed, 0);
        assert_eq!(report.skipped_existing, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
