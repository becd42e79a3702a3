//! The HTTP service adapter: plugs the distributed sweep fabric into the
//! generic `mbu-serve` job manager.
//!
//! [`SweepBackend`] validates sweep submissions against the same typed
//! [`ConfigError`] vocabulary as the `MBU_*` environment knobs, executes
//! each job as a supervised fabric sweep in its own shard directory (so
//! concurrent jobs never share state and a daemon restart resumes each
//! job from its shards), streams [`FabricEvent`]s into the job's live
//! event log, and serves merged results — including the raw checkpoint
//! CSV, which is byte-identical to a single-process `repro sweep`.
//!
//! Submissions carry an optional `mode` field: `"measure"` (default)
//! runs the paper's statistical campaigns sharded by run range;
//! `"exhaustive"` runs the provable-coverage equivalence-class sweep
//! sharded by live-class range (small structures exhaustively, the big
//! arrays stratified), merged bit-identically to a single-process
//! `repro exhaustive`. Exhaustive submissions are single-bit by
//! construction, so a `cardinality` above 1 is a typed 400.

use crate::experiments::{env_value, parse_env, ConfigError, Experiments};
use crate::store::component_slug;
use crate::supervisor::{FabricConfig, FabricEvent, Supervisor, SweepOptions, WorkerPool};
use crate::{ResultStore, EXHAUSTIVE_COMPONENTS};
use mbu_cpu::HwComponent;
use mbu_gefin::json::Json;
use mbu_serve::{
    ApiError, Artifact, JobBackend, JobContext, JobManager, JobOutcome, ServeOptions, Submission,
};
use mbu_workloads::Workload;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Service-level knobs, environment-driven like every other `MBU_*`
/// setting and rejected through the same typed [`ConfigError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Sweeps running concurrently (`MBU_HTTP_MAX_JOBS`, default 2).
    pub max_jobs: usize,
    /// Accepted-but-waiting submissions before `429` (`MBU_HTTP_QUEUE`,
    /// default 8).
    pub queue: usize,
    /// Simultaneous HTTP connections before load-shedding 503s
    /// (`MBU_HTTP_CONN_MAX`, default 64, must be ≥ 1).
    pub conn_max: usize,
    /// Per-connection read/write deadline (`MBU_HTTP_TIMEOUT_SECS`,
    /// default 30 s) — the slow-loris budget.
    pub io_budget: Duration,
    /// How long a SIGTERM'd daemon waits for in-flight sweeps to park as
    /// drained before giving up (`MBU_DRAIN_TIMEOUT_SECS`, default 60 s).
    pub drain_timeout: Duration,
    /// Terminal jobs whose `shards/` directories are retained; older ones
    /// are garbage-collected (`MBU_RETAIN_JOBS`, default none = keep all).
    /// Merged results and job records are never GC'd — only the shard
    /// files already folded into `measured.csv`.
    pub retain_jobs: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_jobs: 2,
            queue: 8,
            conn_max: 64,
            io_budget: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(60),
            retain_jobs: None,
        }
    }
}

impl ServeConfig {
    /// Reads `MBU_HTTP_MAX_JOBS`, `MBU_HTTP_QUEUE`, `MBU_HTTP_CONN_MAX`,
    /// `MBU_HTTP_TIMEOUT_SECS`, `MBU_DRAIN_TIMEOUT_SECS` and
    /// `MBU_RETAIN_JOBS`.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the defective variable.
    pub fn from_env() -> Result<Self, ConfigError> {
        let mut cfg = ServeConfig::default();
        if let Some(v) = env_value("MBU_HTTP_MAX_JOBS")? {
            cfg.max_jobs = parse_env("MBU_HTTP_MAX_JOBS", &v, "must be a positive integer")?;
            if cfg.max_jobs == 0 {
                return Err(ConfigError::Invalid {
                    var: "MBU_HTTP_MAX_JOBS",
                    value: v,
                    expected: "must be a positive integer",
                });
            }
        }
        if let Some(v) = env_value("MBU_HTTP_QUEUE")? {
            cfg.queue = parse_env("MBU_HTTP_QUEUE", &v, "must be an integer")?;
        }
        if let Some(v) = env_value("MBU_HTTP_CONN_MAX")? {
            cfg.conn_max = parse_env("MBU_HTTP_CONN_MAX", &v, "must be a positive integer")?;
            if cfg.conn_max == 0 {
                return Err(ConfigError::Invalid {
                    var: "MBU_HTTP_CONN_MAX",
                    value: v,
                    expected: "must be a positive integer",
                });
            }
        }
        if let Some(v) = env_value("MBU_HTTP_TIMEOUT_SECS")? {
            cfg.io_budget = Duration::from_secs(parse_env(
                "MBU_HTTP_TIMEOUT_SECS",
                &v,
                "must be an integer",
            )?);
        }
        if let Some(v) = env_value("MBU_DRAIN_TIMEOUT_SECS")? {
            cfg.drain_timeout = Duration::from_secs(parse_env(
                "MBU_DRAIN_TIMEOUT_SECS",
                &v,
                "must be an integer",
            )?);
        }
        if let Some(v) = env_value("MBU_RETAIN_JOBS")? {
            cfg.retain_jobs = Some(parse_env("MBU_RETAIN_JOBS", &v, "must be an integer")?);
        }
        Ok(cfg)
    }
}

/// The figure-number ↔ component mapping of the paper (Fig. 1–6).
fn figure_component(n: usize) -> Option<HwComponent> {
    HwComponent::ALL.get(n.checked_sub(1)?).copied()
}

/// Decrements the active-job counter even when `execute` panics.
struct ActiveGuard<'a>(&'a AtomicUsize);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The fabric-backed [`JobBackend`]: each job is one supervised sweep.
pub struct SweepBackend {
    /// Environment-derived defaults a submission overrides field by field.
    pub base: Experiments,
    /// Fabric knobs; `workers` is the *total* pool, divided fairly across
    /// concurrently running jobs.
    pub fabric: FabricConfig,
    active: AtomicUsize,
}

impl SweepBackend {
    /// A backend over the given defaults.
    pub fn new(base: Experiments, fabric: FabricConfig) -> SweepBackend {
        SweepBackend {
            base,
            fabric,
            active: AtomicUsize::new(0),
        }
    }

    /// Rebuilds the experiment configuration from a canonical spec. The
    /// final `bool` is true for exhaustive-mode jobs; specs persisted by
    /// daemons that predate the `mode` field parse as measure, and the
    /// `snapshots` switch older daemons stored is ignored (results are
    /// identical either way, and snapshots are always on).
    fn exp_from_spec(
        &self,
        spec: &Json,
    ) -> Result<(Experiments, Vec<HwComponent>, bool), ApiError> {
        let mut exp = self.base.clone();
        let bad = |what: &str| ApiError::internal(format!("corrupt stored spec: {what}"));
        exp.runs = spec
            .get("runs")
            .and_then(Json::as_usize)
            .ok_or_else(|| bad("runs"))?;
        exp.seed = spec
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("seed"))?;
        exp.max_cardinality = spec
            .get("cardinality")
            .and_then(Json::as_usize)
            .ok_or_else(|| bad("cardinality"))?;
        exp.workloads = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("workloads"))?
            .iter()
            .map(|w| {
                w.as_str()
                    .and_then(|s| s.parse::<Workload>().ok())
                    .ok_or_else(|| bad("workloads"))
            })
            .collect::<Result<_, _>>()?;
        let components = spec
            .get("components")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("components"))?
            .iter()
            .map(|c| {
                c.as_str()
                    .and_then(|s| s.parse::<HwComponent>().ok())
                    .ok_or_else(|| bad("components"))
            })
            .collect::<Result<_, _>>()?;
        let exhaustive = match spec.get("mode") {
            None => false,
            Some(v) => match v.as_str() {
                Some("measure") => false,
                Some("exhaustive") => true,
                _ => return Err(bad("mode")),
            },
        };
        Ok((exp, components, exhaustive))
    }
}

fn summary_json(store_len: usize, report: &crate::supervisor::FabricReport) -> Json {
    Json::Obj(vec![
        ("campaigns".into(), Json::usize(store_len)),
        ("units_planned".into(), Json::usize(report.units_planned)),
        (
            "units_completed".into(),
            Json::usize(report.units_completed),
        ),
        ("retries".into(), Json::usize(report.retries)),
        (
            "workers_spawned".into(),
            Json::usize(report.workers_spawned),
        ),
        ("workers_lost".into(), Json::usize(report.workers_lost)),
        ("quarantined".into(), Json::usize(report.quarantined.len())),
        ("gaps".into(), Json::usize(report.merge.gaps.len())),
        ("clean".into(), Json::Bool(report.is_clean())),
    ])
}

impl JobBackend for SweepBackend {
    fn validate(&self, body: &Json) -> Result<Submission, ApiError> {
        let Json::Obj(fields) = body else {
            return Err(ApiError::bad_request("submission must be a JSON object"));
        };
        const KNOWN: [&str; 7] = [
            "title",
            "components",
            "workloads",
            "runs",
            "seed",
            "cardinality",
            "mode",
        ];
        for (key, _) in fields {
            if !KNOWN.contains(&key.as_str()) {
                return Err(ApiError::bad_request(format!(
                    "unknown field `{key}` (expected one of: {})",
                    KNOWN.join(", ")
                )));
            }
        }
        let mode = match body.get("mode") {
            None => "measure",
            Some(v) => match v.as_str() {
                Some(m @ ("measure" | "exhaustive")) => m,
                _ => {
                    return Err(ApiError::bad_request(
                        "mode must be \"measure\" or \"exhaustive\"",
                    ))
                }
            },
        };
        let components: Vec<HwComponent> = match body.get("components") {
            // Exhaustive mode defaults to the provably-coverable small
            // structures; "all" or an explicit list can add the stratified
            // big arrays.
            None if mode == "exhaustive" => EXHAUSTIVE_COMPONENTS.to_vec(),
            None => HwComponent::ALL.to_vec(),
            Some(Json::Str(s)) if s == "all" => HwComponent::ALL.to_vec(),
            Some(Json::Arr(items)) if !items.is_empty() => items
                .iter()
                .map(|c| {
                    c.as_str()
                        .ok_or_else(|| ApiError::bad_request("components must be strings"))
                        .and_then(|s| {
                            s.parse::<HwComponent>()
                                .map_err(|e| ApiError::bad_request(e.to_string()))
                        })
                })
                .collect::<Result<_, _>>()?,
            Some(_) => {
                return Err(ApiError::bad_request(
                    "components must be \"all\" or a non-empty array of component slugs",
                ))
            }
        };
        let workloads: Vec<Workload> = match body.get("workloads") {
            None => self.base.workloads.clone(),
            Some(Json::Arr(items)) if !items.is_empty() => items
                .iter()
                .map(|w| {
                    w.as_str()
                        .ok_or_else(|| ApiError::bad_request("workloads must be strings"))
                        .and_then(|s| {
                            s.parse::<Workload>().map_err(|_| {
                                ApiError::bad_request(format!("unknown workload `{s}`"))
                            })
                        })
                })
                .collect::<Result<_, _>>()?,
            Some(_) => {
                return Err(ApiError::bad_request(
                    "workloads must be a non-empty array of workload names",
                ))
            }
        };
        let runs = match body.get("runs") {
            None => self.base.runs,
            Some(v) => match v.as_usize() {
                Some(n) if n >= 1 => n,
                _ => return Err(ApiError::bad_request("runs must be a positive integer")),
            },
        };
        let seed = match body.get("seed") {
            None => self.base.seed,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| ApiError::bad_request("seed must be a u64"))?,
        };
        let cardinality = match body.get("cardinality") {
            // Equivalence classes are single-bit by construction, so an
            // exhaustive job never inherits a multi-bit default.
            None if mode == "exhaustive" => 1,
            None => self.base.max_cardinality,
            Some(v) => match v.as_usize() {
                Some(1) => 1,
                Some(n) if (2..=8).contains(&n) => {
                    if mode == "exhaustive" {
                        return Err(ApiError::bad_request(
                            "cardinality must be 1 in exhaustive mode \
                             (equivalence classes cover single-bit faults)",
                        ));
                    }
                    n
                }
                _ => {
                    return Err(ApiError::bad_request(
                        "cardinality must be an integer in 1..=8",
                    ))
                }
            },
        };
        let title = match body.get("title") {
            None => format!(
                "{} component(s) x {} workload(s) x {runs} runs",
                components.len(),
                workloads.len()
            ),
            Some(v) => v
                .as_str()
                .ok_or_else(|| ApiError::bad_request("title must be a string"))?
                .to_string(),
        };
        // The canonical spec: every knob resolved, so execution after a
        // daemon restart (different environment) reproduces exactly what
        // was validated.
        let spec = Json::Obj(vec![
            (
                "components".into(),
                Json::Arr(
                    components
                        .iter()
                        .map(|&c| Json::str(component_slug(c)))
                        .collect(),
                ),
            ),
            (
                "workloads".into(),
                Json::Arr(workloads.iter().map(|w| Json::str(w.name())).collect()),
            ),
            ("runs".into(), Json::usize(runs)),
            ("seed".into(), Json::u64(seed)),
            ("cardinality".into(), Json::usize(cardinality)),
            ("mode".into(), Json::str(mode)),
        ]);
        Ok(Submission { title, spec })
    }

    fn execute(&self, ctx: &JobContext) -> JobOutcome {
        let (exp, components, exhaustive) = match self.exp_from_spec(&ctx.spec) {
            Ok(parsed) => parsed,
            Err(e) => return JobOutcome::Failed(e.message),
        };
        // Fair sharing: the configured worker pool is divided across
        // whatever is running right now.
        let active = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        let _guard = ActiveGuard(&self.active);
        let mut fabric = self.fabric.clone();
        fabric.workers = (self.fabric.workers / active).max(1);
        let shard_dir = ctx.dir.join("shards");
        let out_csv = ctx.dir.join("measured.csv");
        let events_ctx = ctx.clone();
        // The supervisor only understands one stop signal; drain and
        // cancel both pull it. A watcher thread folds the two job-level
        // conditions into the fabric's flag, and the outcome below
        // distinguishes them again.
        let stop = Arc::new(AtomicBool::new(false));
        let finished = Arc::new(AtomicBool::new(false));
        let watcher = {
            let stop = Arc::clone(&stop);
            let finished = Arc::clone(&finished);
            let ctx = ctx.clone();
            std::thread::spawn(move || {
                while !finished.load(Ordering::SeqCst) {
                    if ctx.cancelled() || ctx.draining() {
                        stop.store(true, Ordering::SeqCst);
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
            })
        };
        let opts = SweepOptions {
            on_event: Some(Box::new(move |ev: &FabricEvent| {
                events_ctx.emit(ev.kind(), ev.to_json());
                if let FabricEvent::UnitDone {
                    completed, planned, ..
                } = ev
                {
                    events_ctx.set_progress(*completed, *planned);
                }
            })),
            cancel: Some(Arc::clone(&stop)),
        };
        // Class campaigns are exhaustive on the small structures and
        // stratified on the big arrays.
        let campaigns = if exhaustive {
            exp.class_campaigns(&components)
        } else {
            exp.sampled_campaigns(&components)
        };
        let result = Supervisor::run_campaigns(
            &exp,
            &campaigns,
            &fabric,
            &shard_dir,
            &out_csv,
            WorkerPool::Spawn,
            opts,
        );
        finished.store(true, Ordering::SeqCst);
        let _ = watcher.join();
        match result {
            Ok((store, report)) => {
                let summary = summary_json(store.len(), &report);
                if report.cancelled {
                    if ctx.draining() && !ctx.cancelled() {
                        // The daemon is shutting down, not the user giving
                        // up: every in-flight unit's row is durable, so the
                        // job parks for the restart to resume.
                        JobOutcome::Drained
                    } else {
                        JobOutcome::Cancelled(summary)
                    }
                } else {
                    JobOutcome::Done(summary)
                }
            }
            Err(e) => JobOutcome::Failed(e.to_string()),
        }
    }

    fn artifact(
        &self,
        ctx: &JobContext,
        tail: &[&str],
        query: &[(String, String)],
    ) -> Result<Artifact, ApiError> {
        let out_csv = ctx.dir.join("measured.csv");
        match tail {
            // The raw merged checkpoint, byte-identical to a
            // single-process `repro sweep` over the same spec.
            ["store"] => match std::fs::read(&out_csv) {
                Ok(body) => Ok(Artifact {
                    content_type: "text/csv".into(),
                    body,
                }),
                Err(_) => Err(ApiError::not_found(
                    "no merged store (the job may have failed before its merge)",
                )),
            },
            ["results"] => {
                let (exp, components, _) = self.exp_from_spec(&ctx.spec)?;
                let store = load_results(&out_csv)?;
                let figures = components
                    .iter()
                    .map(|&c| exp.figure_table(c, &store).to_json())
                    .collect();
                let body = Json::Obj(vec![
                    ("campaigns".into(), Json::usize(store.len())),
                    ("figures".into(), Json::Arr(figures)),
                ]);
                Ok(Artifact {
                    content_type: "application/json".into(),
                    body: body.encode().into_bytes(),
                })
            }
            ["figures", n] => {
                let component = n
                    .parse::<usize>()
                    .ok()
                    .and_then(figure_component)
                    .ok_or_else(|| {
                        ApiError::not_found(format!("no figure `{n}` (figures are 1..=6)"))
                    })?;
                let (exp, _, _) = self.exp_from_spec(&ctx.spec)?;
                let store = load_results(&out_csv)?;
                let table = exp.figure_table(component, &store);
                let csv = query.iter().any(|(k, v)| k == "format" && v == "csv");
                Ok(if csv {
                    Artifact {
                        content_type: "text/csv".into(),
                        body: table.to_csv().into_bytes(),
                    }
                } else {
                    Artifact {
                        content_type: "application/json".into(),
                        body: table.to_json().encode().into_bytes(),
                    }
                })
            }
            _ => Err(ApiError::not_found(format!(
                "no artifact `{}` (expected store, results, or figures/N)",
                tail.join("/")
            ))),
        }
    }
}

fn load_results(out_csv: &Path) -> Result<ResultStore, ApiError> {
    if !out_csv.exists() {
        return Err(ApiError::not_found(
            "no merged store (the job may have failed before its merge)",
        ));
    }
    ResultStore::load(out_csv).map_err(|e| ApiError::internal(format!("store load failed: {e}")))
}

/// Retention GC: deletes the `shards/` directories of all but the newest
/// `retain` *terminal* jobs (those with an `outcome.json`, newest by its
/// mtime). Shard rows of a terminal job are already folded into its
/// merged `measured.csv`, so only resume scaffolding is reclaimed — job
/// records, outcomes and merged results are never touched, and
/// non-terminal (queued, running, drained) jobs keep their shards.
/// Returns how many directories were removed.
pub fn gc_terminal_shards(state_dir: &Path, retain: usize) -> usize {
    let Ok(entries) = std::fs::read_dir(state_dir) else {
        return 0;
    };
    let mut terminal: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
    for entry in entries.flatten() {
        let dir = entry.path();
        let outcome = dir.join("outcome.json");
        if outcome.is_file() && dir.join("shards").is_dir() {
            let stamp = outcome
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            terminal.push((stamp, dir));
        }
    }
    terminal.sort_by_key(|t| std::cmp::Reverse(t.0));
    terminal
        .into_iter()
        .skip(retain)
        .filter(|(_, dir)| std::fs::remove_dir_all(dir.join("shards")).is_ok())
        .count()
}

/// Boots the daemon: binds `listen`, prints the bound address as the
/// first stderr line (`mbu-serve: listening on <addr>` — tests and
/// scripts parse it, so `--listen 127.0.0.1:0` works), restores persisted
/// jobs from `state_dir`, and serves until killed.
///
/// # Errors
///
/// Configuration, bind, or state-directory failures as strings (the
/// `repro` binary's error convention).
pub fn run_daemon(listen: &str, state_dir: &Path) -> Result<(), String> {
    let exp = Experiments::try_from_env().map_err(|e| e.to_string())?;
    let fabric = FabricConfig::from_env().map_err(|e| e.to_string())?;
    let cfg = ServeConfig::from_env().map_err(|e| e.to_string())?;
    let listener =
        std::net::TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!("mbu-serve: listening on {addr}");
    eprintln!(
        "mbu-serve: {} concurrent job(s), queue depth {}, {} fabric worker(s), state in {}",
        cfg.max_jobs,
        cfg.queue,
        fabric.workers,
        state_dir.display()
    );
    let backend = Arc::new(SweepBackend::new(exp, fabric.clone()));
    let manager = JobManager::new(state_dir, backend, cfg.max_jobs, cfg.queue)
        .map_err(|e| format!("state dir {}: {e}", state_dir.display()))?;
    if let Some(retain) = cfg.retain_jobs {
        let removed = gc_terminal_shards(state_dir, retain);
        if removed > 0 {
            eprintln!("mbu-serve: retention GC reclaimed {removed} terminal shard dir(s)");
        }
    }
    // SIGTERM → graceful drain. The handler itself only sets a flag; this
    // watcher thread does the real work: stop admission, wait for running
    // sweeps to park as drained (their shard rows durable, their jobs
    // re-queued), then exit — 0 for a clean drain, 1 for a timeout.
    mbu_serve::signal::install_term_handler();
    {
        let manager = Arc::clone(&manager);
        let state = state_dir.to_path_buf();
        let drain_timeout = cfg.drain_timeout;
        let retain = cfg.retain_jobs;
        std::thread::spawn(move || {
            let mut ticks: u64 = 0;
            loop {
                if mbu_serve::signal::term_requested() {
                    let (running, queued) = manager.counts();
                    eprintln!(
                        "mbu-serve: term signal received; draining {running} running / \
                         {queued} queued job(s), budget {:.0}s",
                        drain_timeout.as_secs_f64()
                    );
                    manager.begin_drain();
                    if manager.await_drained(drain_timeout) {
                        eprintln!("mbu-serve: drain complete; exiting");
                        std::process::exit(0);
                    }
                    eprintln!(
                        "mbu-serve: drain timed out after {:.0}s with jobs still running",
                        drain_timeout.as_secs_f64()
                    );
                    std::process::exit(1);
                }
                ticks += 1;
                // Periodic retention GC (~ every 15 s at the 50 ms tick).
                if let Some(retain) = retain {
                    if ticks.is_multiple_of(300) {
                        let removed = gc_terminal_shards(&state, retain);
                        if removed > 0 {
                            eprintln!(
                                "mbu-serve: retention GC reclaimed {removed} terminal \
                                 shard dir(s)"
                            );
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
    }
    let options = ServeOptions {
        conn_max: cfg.conn_max,
        io_budget: cfg.io_budget,
        health: Some(Box::new(move || {
            vec![
                ("conn_max".into(), Json::usize(cfg.conn_max)),
                ("io_budget_secs".into(), Json::u64(cfg.io_budget.as_secs())),
                (
                    "drain_timeout_secs".into(),
                    Json::u64(cfg.drain_timeout.as_secs()),
                ),
                (
                    "retain_jobs".into(),
                    cfg.retain_jobs.map_or(Json::Null, Json::usize),
                ),
                (
                    "disk_watermark_mb".into(),
                    fabric.disk_watermark_mb.map_or(Json::Null, Json::u64),
                ),
            ]
        })),
    };
    mbu_serve::serve_with(listener, manager, options).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend() -> SweepBackend {
        SweepBackend::new(Experiments::default(), FabricConfig::default())
    }

    #[test]
    fn validate_resolves_every_knob() {
        let b = backend();
        let body = Json::parse(
            r#"{"components":["l1d","itlb"],"workloads":["qsort"],"runs":6,"seed":7,"cardinality":2}"#,
        )
        .unwrap();
        let sub = b.validate(&body).unwrap();
        let (exp, components, exhaustive) = b.exp_from_spec(&sub.spec).unwrap();
        assert_eq!(components, vec![HwComponent::L1D, HwComponent::ITlb]);
        assert_eq!(exp.runs, 6);
        assert_eq!(exp.seed, 7);
        assert_eq!(exp.max_cardinality, 2);
        assert!(exp.use_snapshots, "snapshots are the default path");
        assert!(!exhaustive);
        assert_eq!(exp.workloads, vec![Workload::Qsort]);
        assert!(
            sub.spec.get("snapshots").is_none(),
            "the canonical spec no longer carries the retired switch"
        );
    }

    #[test]
    fn validate_exhaustive_mode() {
        let b = backend();
        // Defaults: the provably-coverable small structures, single-bit.
        let sub = b
            .validate(&Json::parse(r#"{"mode":"exhaustive"}"#).unwrap())
            .unwrap();
        let (exp, components, exhaustive) = b.exp_from_spec(&sub.spec).unwrap();
        assert!(exhaustive);
        assert_eq!(components, EXHAUSTIVE_COMPONENTS.to_vec());
        assert_eq!(exp.max_cardinality, 1);
        // Explicit components (including stratified arrays) pass through.
        let sub = b
            .validate(
                &Json::parse(r#"{"mode":"exhaustive","components":["itlb","l2"],"cardinality":1}"#)
                    .unwrap(),
            )
            .unwrap();
        let (_, components, exhaustive) = b.exp_from_spec(&sub.spec).unwrap();
        assert!(exhaustive);
        assert_eq!(components, vec![HwComponent::ITlb, HwComponent::L2]);
        // Specs persisted before the mode field existed parse as measure.
        let legacy = Json::parse(
            r#"{"components":["l1d"],"workloads":["qsort"],"runs":2,"seed":1,"cardinality":1,"snapshots":false}"#,
        )
        .unwrap();
        assert!(!b.exp_from_spec(&legacy).unwrap().2);
        // A spec stored with the retired `snapshots` switch (either value)
        // still loads, so its job resumes; the switch itself is ignored.
        for stored in [
            r#"{"components":["itlb","l2"],"workloads":["qsort"],"runs":2,"seed":1,"cardinality":1,"snapshots":false,"mode":"exhaustive"}"#,
            r#"{"components":["l1d"],"workloads":["qsort"],"runs":2,"seed":1,"cardinality":2,"snapshots":true,"mode":"measure"}"#,
        ] {
            let (exp, components, _) = b.exp_from_spec(&Json::parse(stored).unwrap()).unwrap();
            assert!(exp.use_snapshots, "{stored}");
            assert_eq!(exp.runs, 2);
            assert!(!components.is_empty());
        }
    }

    #[test]
    fn validate_defaults_and_rejects() {
        let b = backend();
        let sub = b.validate(&Json::Obj(vec![])).unwrap();
        let (exp, components, _) = b.exp_from_spec(&sub.spec).unwrap();
        assert_eq!(components, HwComponent::ALL.to_vec());
        assert_eq!(exp.runs, b.base.runs);
        let cases = [
            (r#"{"bogus":1}"#, "unknown field"),
            (r#"{"components":["warp-core"]}"#, "unknown hardware"),
            (r#"{"components":[]}"#, "non-empty"),
            (r#"{"workloads":["nope"]}"#, "unknown workload"),
            (r#"{"runs":0}"#, "positive"),
            (r#"{"cardinality":9}"#, "1..=8"),
            // The retired switch is an unknown field like any other.
            (r#"{"snapshots":true}"#, "unknown field `snapshots`"),
            (r#"{"snapshots":false}"#, "unknown field `snapshots`"),
            (r#"{"mode":"banana"}"#, "measure"),
            (r#"{"mode":7}"#, "measure"),
            (
                r#"{"mode":"exhaustive","cardinality":3}"#,
                "exhaustive mode",
            ),
            (r#"[1]"#, "JSON object"),
        ];
        for (body, needle) in cases {
            let err = b.validate(&Json::parse(body).unwrap()).unwrap_err();
            assert_eq!(err.status, 400, "{body}");
            assert!(err.message.contains(needle), "{body}: {}", err.message);
        }
    }

    const SERVE_VARS: [&str; 6] = [
        "MBU_HTTP_MAX_JOBS",
        "MBU_HTTP_QUEUE",
        "MBU_HTTP_CONN_MAX",
        "MBU_HTTP_TIMEOUT_SECS",
        "MBU_DRAIN_TIMEOUT_SECS",
        "MBU_RETAIN_JOBS",
    ];

    #[test]
    fn serve_config_env_knobs_are_typed() {
        // Defaults with the variables unset.
        for var in SERVE_VARS {
            std::env::remove_var(var);
        }
        assert_eq!(ServeConfig::from_env().unwrap(), ServeConfig::default());
        // Every knob rejects garbage with a typed error that names it.
        for var in SERVE_VARS {
            std::env::set_var(var, "banana");
            let err = ServeConfig::from_env().unwrap_err();
            assert!(
                err.to_string().contains(var),
                "error for {var} should name it: {err}"
            );
            std::env::remove_var(var);
        }
        std::env::set_var("MBU_HTTP_MAX_JOBS", "0");
        assert!(ServeConfig::from_env().is_err());
        std::env::remove_var("MBU_HTTP_MAX_JOBS");
        std::env::set_var("MBU_HTTP_CONN_MAX", "0");
        assert!(ServeConfig::from_env().is_err());
        std::env::remove_var("MBU_HTTP_CONN_MAX");
        // Valid values land in the right fields.
        std::env::set_var("MBU_HTTP_MAX_JOBS", "3");
        std::env::set_var("MBU_HTTP_QUEUE", "1");
        std::env::set_var("MBU_HTTP_CONN_MAX", "9");
        std::env::set_var("MBU_HTTP_TIMEOUT_SECS", "7");
        std::env::set_var("MBU_DRAIN_TIMEOUT_SECS", "11");
        std::env::set_var("MBU_RETAIN_JOBS", "4");
        let cfg = ServeConfig::from_env().unwrap();
        assert_eq!((cfg.max_jobs, cfg.queue), (3, 1));
        assert_eq!(cfg.conn_max, 9);
        assert_eq!(cfg.io_budget, Duration::from_secs(7));
        assert_eq!(cfg.drain_timeout, Duration::from_secs(11));
        assert_eq!(cfg.retain_jobs, Some(4));
        for var in SERVE_VARS {
            std::env::remove_var(var);
        }
    }

    #[test]
    fn retention_gc_keeps_newest_terminal_jobs() {
        let root = std::env::temp_dir().join(format!("mbu-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // Three terminal jobs (outcome.json present) and one still
        // running; retention 1 keeps the newest terminal shards and the
        // running job untouched.
        for (name, terminal) in [("a", true), ("b", true), ("c", true), ("live", false)] {
            let dir = root.join(name);
            std::fs::create_dir_all(dir.join("shards")).unwrap();
            std::fs::write(dir.join("shards/worker-000.csv"), "rows").unwrap();
            if terminal {
                std::fs::write(dir.join("outcome.json"), "{}").unwrap();
                // Distinct mtimes so "newest" is well-defined.
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
        let removed = gc_terminal_shards(&root, 1);
        assert_eq!(removed, 2, "two older terminal jobs reclaimed");
        assert!(!root.join("a/shards").exists());
        assert!(!root.join("b/shards").exists());
        assert!(root.join("c/shards").exists(), "newest terminal kept");
        assert!(root.join("live/shards").exists(), "non-terminal kept");
        // Idempotent: nothing left to reclaim.
        assert_eq!(gc_terminal_shards(&root, 1), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn figure_numbers_map_to_paper_components() {
        assert_eq!(figure_component(1), Some(HwComponent::L1D));
        assert_eq!(figure_component(6), Some(HwComponent::ITlb));
        assert_eq!(figure_component(0), None);
        assert_eq!(figure_component(7), None);
    }
}
