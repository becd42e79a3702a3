//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--paper] [--csv] [--out <path>]
//!
//! experiments:
//!   table1..table8   the paper's tables
//!   fig1..fig6       per-component AVF breakdowns (runs injection campaigns)
//!   fig7 fig8        technology-node aggregates (derived)
//!   measure          run all fig1-fig6 campaigns and save results
//!   summary          per-component class character (Table IV commentary)
//!   xval             analytical (ACE liveness) vs injected AVF, all
//!                    components x workloads (checkpointed)
//!   occupancy        per-structure liveness + pipeline occupancy for one
//!                    workload (--workload), time series saved to results/
//!   verify-store <csv>  read-only integrity audit of a checkpoint file:
//!                    format version, per-row CRCs, golden-run fingerprints
//!                    vs the current binaries; with --shards <dir> audits a
//!                    worker shard directory instead (per-shard CRC and
//!                    fingerprint status plus class-range weight
//!                    reconciliation for exhaustive-flavor shards,
//!                    non-zero exit on defective rows or annotations)
//!   sweep            distributed measure: spawns MBU_WORKERS (or
//!                    --workers N) supervised worker processes, shards
//!                    every campaign of --components (default all six)
//!                    into run-ranges, retries lost or stalled workers
//!                    (retries dispatch first), and merges the per-worker
//!                    shard stores into --out — the merged CSV is
//!                    byte-identical to a single-process measure
//!   worker           one sweep worker, spawned by the supervisor over
//!                    stdio; writes its checksummed shard to --shard
//!                    <path> before acking (--fault <spec> arms a chaos
//!                    fault, set by the supervisor only)
//!   daemon           long-running HTTP injection service: accepts sweep
//!                    submissions (POST /sweeps), runs them concurrently
//!                    over the fabric, streams live progress, and serves
//!                    merged results; restart-safe (--state dir)
//!   submit           client: POST a sweep to a daemon (--to <addr>),
//!                    prints the job id
//!   status           client: job status (--to <addr>, id positional);
//!                    --follow streams live events until the job finishes
//!   fetch            client: download a finished job's merged CSV
//!                    (--to <addr>, id positional, --out <path>)
//!   cancel           client: cancel a queued or running job
//!   chaos-http       client: fire the MBU_CHAOS_HTTP fault family
//!                    (slow-loris, torn bodies, mid-stream disconnects,
//!                    header floods) at a daemon (--to <addr>) and verify
//!                    every fault gets a typed response and the acceptor
//!                    stays healthy; non-zero exit otherwise
//!   exhaustive       provable-coverage equivalence-class campaigns: one
//!                    run per live (bit, access-interval) class on the
//!                    small structures (ITLB/DTLB/PRF), weight-multiplied
//!                    into the same FIT pipeline with margin exactly 0;
//!                    checkpoints to results/exhaustive.csv next to --out
//!                    and resumes like measure (stale rows re-run);
//!                    --components picks the set, and any big array listed
//!                    (L1D/L1I/L2) is covered by class-weighted stratified
//!                    sampling; --workers N shards each campaign by
//!                    live-class range over the distributed fabric —
//!                    into the shards/ directory `sweep` uses, each
//!                    row's flavour keeping the two kinds of sweep
//!                    apart — and the merge is bit-identical to the
//!                    single-process sweep
//!   all              everything in paper order
//!
//! flags:
//!   --paper          derive fig7/fig8 from the paper's published Table V
//!                    instead of measured data
//!   --csv            print CSV instead of ASCII tables
//!   --out <path>     results CSV path (default results/measured.csv)
//!   --workload <w>   workload for `occupancy` (default stringsearch)
//!
//! environment: the MBU_* knobs (sweep, fabric, daemon and test-only
//! chaos) are tabulated with scope, default and meaning in README.md,
//! "Configuration knobs". Invalid values are rejected with a typed error,
//! never silently defaulted.
//! ```

use mbu_bench::chaos::WorkerFault;
use mbu_bench::supervisor::{FabricConfig, FabricReport, Supervisor, SweepOptions, WorkerPool};
use mbu_bench::{AnalyticalStore, Experiments, Json, ResultStore, EXHAUSTIVE_COMPONENTS};
use mbu_cpu::HwComponent;
use mbu_gefin::paper;
use mbu_gefin::report::Table;
use mbu_workloads::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    experiment: String,
    /// Second positional argument (the file to audit for `verify-store`).
    target: Option<PathBuf>,
    use_paper: bool,
    csv: bool,
    chart: bool,
    out: PathBuf,
    workload: Workload,
    /// `--workers N` override for sweep/exhaustive.
    workers: Option<usize>,
    /// `--shards <dir>`: shard directory for sweep/exhaustive/verify-store.
    shards: Option<PathBuf>,
    /// `--shard <path>`: this worker's shard store.
    shard: Option<PathBuf>,
    /// `--fault <spec>`: the chaos fault a supervisor armed on this worker.
    fault: Option<WorkerFault>,
    /// `--listen <addr>` for daemon.
    listen: Option<String>,
    /// `--state <dir>`: daemon job-state directory.
    state: PathBuf,
    /// `--to <addr>`: daemon address for the client verbs.
    to: Option<String>,
    /// `--follow`: stream live events until the job finishes.
    follow: bool,
    /// `--components <a,b,..>` for sweep, exhaustive and submit.
    components: Option<String>,
    /// `--mode <measure|exhaustive>` for submit (default: measure).
    mode: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut experiment = None;
    let mut target = None;
    let mut use_paper = false;
    let mut csv = false;
    let mut out = PathBuf::from("results/measured.csv");
    let mut chart = false;
    let mut workload = Workload::Stringsearch;
    let mut workers = None;
    let mut shards = None;
    let mut shard = None;
    let mut fault = None;
    let mut listen = None;
    let mut state = PathBuf::from("results/serve");
    let mut to = None;
    let mut follow = false;
    let mut components = None;
    let mut mode = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workers" => {
                let v = args.next().ok_or("--workers needs a count")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--workers must be a positive integer, got `{v}`"))?;
                if n == 0 {
                    return Err("--workers must be a positive integer, got `0`".into());
                }
                workers = Some(n);
            }
            "--shards" => {
                shards = Some(PathBuf::from(
                    args.next().ok_or("--shards needs a directory")?,
                ));
            }
            "--shard" => {
                shard = Some(PathBuf::from(args.next().ok_or("--shard needs a path")?));
            }
            "--fault" => {
                let spec = args.next().ok_or("--fault needs a fault spec")?;
                fault = Some(WorkerFault::parse(&spec).map_err(|e| format!("--fault: {e}"))?);
            }
            "--listen" => {
                listen = Some(args.next().ok_or("--listen needs an address")?);
            }
            "--state" => {
                state = PathBuf::from(args.next().ok_or("--state needs a directory")?);
            }
            "--to" => {
                to = Some(args.next().ok_or("--to needs an address")?);
            }
            "--follow" => follow = true,
            "--components" => {
                components = Some(args.next().ok_or("--components needs a list")?);
            }
            "--mode" => {
                mode = Some(args.next().ok_or("--mode needs measure|exhaustive")?);
            }
            "--paper" => use_paper = true,
            "--csv" => csv = true,
            "--chart" => chart = true,
            "--out" => {
                out = PathBuf::from(args.next().ok_or("--out needs a path")?);
            }
            "--workload" => {
                let name = args.next().ok_or("--workload needs a name")?;
                workload = name
                    .parse()
                    .map_err(|_| format!("unknown workload `{name}`"))?;
            }
            "-h" | "--help" => return Err(String::new()),
            other if experiment.is_none() && !other.starts_with('-') => {
                experiment = Some(other.to_string());
            }
            other if experiment.is_some() && target.is_none() && !other.starts_with('-') => {
                target = Some(PathBuf::from(other));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Options {
        experiment: experiment.ok_or("missing experiment id")?,
        target,
        use_paper,
        csv,
        chart,
        out,
        workload,
        workers,
        shards,
        shard,
        fault,
        listen,
        state,
        to,
        follow,
        components,
        mode,
    })
}

fn usage() {
    eprintln!(
        "usage: repro <table1..table8|fig1..fig8|measure|summary|ablation|xval|occupancy|verify-store|exhaustive|sweep|worker|all> [--paper] [--csv] [--chart] [--out path] [--workload w]\n\
         \x20      repro verify-store <checkpoint.csv>   read-only integrity audit\n\
         \x20      repro verify-store --shards <dir>     audit worker shard stores (exit 1 on defects)\n\
         \x20      repro sweep [--workers N] [--shards dir] [--components a,b]  distributed measure with supervised workers\n\
         \x20      repro worker --shard <path> [--fault spec]  one worker (spawned by the supervisor)\n\
         \x20      repro daemon --listen <addr> [--state dir]  HTTP injection service (see README)\n\
         \x20      repro submit --to <addr> [--components a,b] [--mode measure|exhaustive]  POST a sweep, prints the job id\n\
         \x20      repro status --to <addr> <id> [--follow]    job status / live event stream\n\
         \x20      repro fetch --to <addr> <id> --out <path>   download the merged CSV\n\
         \x20      repro cancel --to <addr> <id>               cancel a queued/running job\n\
         \x20      repro chaos-http --to <addr>                fire HTTP faults at a daemon, verify typed replies\n\
         \x20      repro exhaustive [--components a,b]   one run per live equivalence class (default ITLB/DTLB/PRF;\n\
         \x20                                            listed L1D/L1I/L2 run stratified) -> results/exhaustive.csv\n\
         \x20      repro exhaustive --workers N [--shards dir]  same sweep sharded by class range over the fabric\n\
         \x20                                            (bit-identical merge)\n\
         env:   MBU_* knobs, tabulated in README.md (\"Configuration knobs\")"
    );
}

/// The `--components` list (comma-separated slugs), or `default` when the
/// flag is absent.
fn components(opts: &Options, default: &[HwComponent]) -> Result<Vec<HwComponent>, String> {
    match &opts.components {
        Some(list) => list
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| {
                s.trim()
                    .parse::<HwComponent>()
                    .map_err(|err| err.to_string())
            })
            .collect(),
        None => Ok(default.to_vec()),
    }
}

fn emit(table: &Table, csv: bool) {
    if csv {
        print!("{}", table.to_csv());
    } else {
        println!("{table}");
    }
}

fn fig_component(id: &str) -> Option<HwComponent> {
    Some(match id {
        "fig1" => HwComponent::L1D,
        "fig2" => HwComponent::L1I,
        "fig3" => HwComponent::L2,
        "fig4" => HwComponent::RegFile,
        "fig5" => HwComponent::DTlb,
        "fig6" => HwComponent::ITlb,
        _ => return None,
    })
}

/// Loads the measured store crash-safely: defective rows are quarantined
/// (with a warning) rather than discarding the whole checkpoint, and
/// pre-integrity files are upgraded in place.
fn load_store(opts: &Options) -> ResultStore {
    match ResultStore::recover(&opts.out) {
        Ok((store, audit)) => {
            if !audit.quarantined.is_empty() {
                eprintln!(
                    "warning: {} defective row(s) in {} moved to {} ({} intact rows kept)",
                    audit.quarantined.len(),
                    opts.out.display(),
                    mbu_bench::store::quarantine_path(&opts.out).display(),
                    audit.rows_loaded,
                );
            }
            if audit.version == mbu_bench::StoreVersion::Legacy {
                eprintln!(
                    "warning: {} was a pre-integrity (v1) checkpoint without checksums or \
                     fingerprints; upgraded to v2 in place",
                    opts.out.display()
                );
            }
            store
        }
        Err(e) => {
            eprintln!("warning: could not load {}: {e}", opts.out.display());
            ResultStore::new()
        }
    }
}

fn derived_avfs(
    e: &Experiments,
    opts: &Options,
    store: &mut ResultStore,
) -> std::collections::BTreeMap<HwComponent, mbu_gefin::ComponentAvf> {
    if opts.use_paper {
        eprintln!("note: deriving from the paper's published Table V (--paper)");
        return paper::table5_avfs();
    }
    if !store.is_complete() {
        eprintln!(
            "note: measured results incomplete ({} of 270 campaigns at {}); measuring now",
            store.len(),
            opts.out.display()
        );
        measure_all(e, opts, store);
    }
    e.component_avfs(store)
}

/// Prints what resuming a checkpoint re-ran (stale fingerprints) and kept
/// unverified (no fingerprint).
fn report_resume(stale_rerun: usize, legacy_unverified: usize) {
    if stale_rerun > 0 {
        eprintln!("  re-ran {stale_rerun} campaign(s) whose golden-run fingerprint was stale");
    }
    if legacy_unverified > 0 {
        eprintln!(
            "  kept {legacy_unverified} unverifiable pre-integrity campaign(s) (no fingerprint)"
        );
    }
}

/// Runs every missing campaign, flushing each one to the checkpoint CSV as
/// it finishes — a killed `measure` loses at most the campaign in flight,
/// and a restart re-runs only what is missing.
fn measure_all(e: &Experiments, opts: &Options, store: &mut ResultStore) {
    for c in HwComponent::ALL {
        eprintln!("measuring {}", e.describe(c));
        match e.run_sweep(&[c], store, Some(&opts.out)) {
            Ok(report) => {
                if report.skipped_existing > 0 {
                    eprintln!(
                        "  resumed: {} campaigns already in {}",
                        report.skipped_existing,
                        opts.out.display()
                    );
                }
                report_resume(report.stale_rerun, report.legacy_unverified);
                if let Some(m) = report.worst_margin() {
                    eprintln!("  worst achieved margin: ±{:.2}%", m * 100.0);
                }
                for ((comp, w, faults), err) in &report.failed {
                    eprintln!("  warning: skipped {comp}/{w}/{faults}-bit: {err}");
                }
                if report.deadline_expired {
                    eprintln!("  deadline expired: partial results checkpointed; re-run to resume");
                    break;
                }
            }
            Err(err) => {
                eprintln!(
                    "warning: could not checkpoint to {}: {err}",
                    opts.out.display()
                );
            }
        }
    }
    // Compact the append-only checkpoint (drops re-measured duplicates).
    if let Err(err) = store.save(&opts.out) {
        eprintln!("warning: could not save {}: {err}", opts.out.display());
    }
}

/// Prints the fabric's post-sweep accounting and returns whether the sweep
/// completed clean (no quarantined units, full merge coverage).
fn report_fabric(report: &FabricReport, store: &ResultStore, out: &std::path::Path) -> bool {
    eprintln!(
        "fabric: {} unit(s) planned, {} completed, {} retried; \
         {} worker(s) spawned, {} lost",
        report.units_planned,
        report.units_completed,
        report.retries,
        report.workers_spawned,
        report.workers_lost,
    );
    if report.skipped_existing > 0 {
        eprintln!(
            "fabric: resumed — {} campaign(s) already fresh in the final store",
            report.skipped_existing
        );
    }
    if report.stale_rerun > 0 {
        eprintln!(
            "fabric: re-ran {} campaign(s) whose golden-run fingerprint was stale",
            report.stale_rerun
        );
    }
    for (w, err) in &report.failed_workloads {
        eprintln!("warning: workload {w} skipped — golden run failed: {err}");
    }
    let m = &report.merge;
    eprintln!(
        "fabric: merged {} campaign(s) from {} shard row(s) \
         ({} duplicate(s), {} overlap(s), {} stale, {} conflicting dropped)",
        m.campaigns_merged,
        m.rows_merged,
        m.duplicates_dropped,
        m.overlaps_dropped,
        m.stale_dropped,
        m.conflicts_dropped,
    );
    for a in report.anomalies.entries() {
        eprintln!("anomaly: {a}");
    }
    for (unit, why) in &report.quarantined {
        eprintln!("warning: quarantined {unit}: {why}");
    }
    for gap in &m.gaps {
        eprintln!("warning: coverage gap {gap} — re-run `repro sweep` to fill it");
    }
    eprintln!("saved {} campaign(s) to {}", store.len(), out.display());
    report.is_clean()
}

/// The submission body for `repro submit`: explicit values for everything
/// the client's environment configures, so the sweep is self-contained
/// and reproduces identically regardless of the daemon's own environment.
fn submit_body(e: &Experiments, opts: &Options) -> Result<Json, String> {
    let exhaustive = opts.mode.as_deref() == Some("exhaustive");
    let mut fields = vec![
        (
            "workloads".into(),
            Json::Arr(e.workloads.iter().map(|w| Json::str(w.name())).collect()),
        ),
        ("runs".into(), Json::usize(e.runs)),
        ("seed".into(), Json::u64(e.seed)),
    ];
    // Equivalence classes cover single-bit faults, so the daemon pins
    // cardinality to 1 in exhaustive mode; echoing the sampled-sweep
    // default (MBU_CARDINALITY, usually > 1) would be a typed 400.
    if !exhaustive {
        fields.push(("cardinality".into(), Json::usize(e.max_cardinality)));
    }
    if opts.components.is_some() {
        let comps = components(opts, &[])?
            .into_iter()
            .map(|c| Json::str(mbu_bench::store::component_slug(c)))
            .collect();
        fields.insert(0, ("components".into(), Json::Arr(comps)));
    }
    if let Some(mode) = &opts.mode {
        fields.push(("mode".into(), Json::str(mode)));
    }
    Ok(Json::Obj(fields))
}

fn parse_reply(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "daemon reply was not UTF-8".to_string())?;
    Json::parse(text).map_err(|err| format!("daemon reply was not JSON: {err}"))
}

fn error_of(reply: &Json) -> String {
    reply
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or("(no error message)")
        .to_string()
}

fn client_target(opts: &Options, verb: &str) -> Result<(String, String), String> {
    let addr = opts.to.clone().ok_or(format!("{verb} needs --to <addr>"))?;
    let id = opts
        .target
        .as_ref()
        .and_then(|p| p.to_str())
        .map(String::from)
        .ok_or(format!("{verb} needs a job id"))?;
    Ok((addr, id))
}

/// Streams the job's live events to stderr until it reaches a terminal
/// state. A dropped connection (daemon restarting, network blip) is not
/// fatal: the stream reconnects and resumes from the last event sequence
/// number actually received, so nothing is lost or replayed.
fn follow_events(addr: &str, id: &str) -> Result<(), String> {
    let mut from: u64 = 0;
    let mut failures: u64 = 0;
    loop {
        let before = from;
        let mut tail = String::new();
        let result = mbu_serve::http::request_stream(
            addr,
            "GET",
            &format!("/sweeps/{id}/events?from={from}"),
            |chunk| {
                eprint!("{}", String::from_utf8_lossy(chunk));
                // Track the last *complete* event line's seq so a
                // reconnect resumes exactly after it.
                tail.push_str(&String::from_utf8_lossy(chunk));
                while let Some(pos) = tail.find('\n') {
                    let line: String = tail.drain(..=pos).collect();
                    if let Ok(ev) = Json::parse(line.trim()) {
                        if let Some(seq) = ev.get("seq").and_then(Json::as_u64) {
                            from = from.max(seq);
                        }
                    }
                }
                true
            },
        );
        match result {
            // The daemon closes the stream once the job is terminal.
            Ok(200) => return Ok(()),
            Ok(status) => return Err(format!("event stream failed ({status})")),
            Err(err) => {
                if from > before {
                    // Progress was made before the drop; the outage streak
                    // starts over.
                    failures = 0;
                }
                failures += 1;
                if failures > 5 {
                    return Err(format!(
                        "event stream from {addr}: {err} (gave up after {failures} attempts)"
                    ));
                }
                eprintln!("repro: event stream dropped ({err}); resuming from seq {from}");
                std::thread::sleep(std::time::Duration::from_millis(200 * failures));
            }
        }
    }
}

fn run(opts: &Options) -> Result<(), String> {
    let mut e = Experiments::try_from_env().map_err(|err| err.to_string())?;
    e.verbose = true;
    let id = opts.experiment.as_str();
    match id {
        "table1" => emit(&e.table1(), opts.csv),
        "table2" => println!("{}", e.table2()),
        "table3" => emit(&e.table3(), opts.csv),
        "table6" => emit(&e.table6(), opts.csv),
        "table7" => emit(&e.table7(), opts.csv),
        "table8" => emit(&e.table8(), opts.csv),
        "fig1" | "fig2" | "fig3" | "fig4" | "fig5" | "fig6" => {
            let component = fig_component(id).expect("matched above");
            let mut store = load_store(opts);
            eprintln!("measuring {}", e.describe(component));
            let report = e
                .run_sweep(&[component], &mut store, Some(&opts.out))
                .map_err(|err| err.to_string())?;
            for ((comp, w, faults), err) in &report.failed {
                eprintln!("warning: skipped {comp}/{w}/{faults}-bit: {err}");
            }
            store.save(&opts.out).map_err(|err| err.to_string())?;
            if opts.chart {
                println!("{}", e.figure_chart(component, &store));
            } else {
                emit(&e.figure_table(component, &store), opts.csv);
            }
        }
        "table4" | "table5" | "summary" => {
            if opts.use_paper {
                return Err(
                    "table4/table5/summary print measured data; run without --paper".into(),
                );
            }
            let mut store = load_store(opts);
            if !store.is_complete() {
                eprintln!(
                    "note: measured results incomplete ({} of 270); measuring now",
                    store.len()
                );
                measure_all(&e, opts, &mut store);
            }
            match id {
                "table4" => emit(&e.table4(&store), opts.csv),
                "table5" => emit(&e.table5(&store), opts.csv),
                _ => emit(&e.class_character(&store), opts.csv),
            }
        }
        "fig7" | "fig8" => {
            let mut store = load_store(opts);
            let avfs = derived_avfs(&e, opts, &mut store);
            if id == "fig7" {
                emit(&e.fig7(&avfs), opts.csv);
            } else {
                emit(&e.fig8(&avfs), opts.csv);
            }
        }
        "ablation" => {
            let mut store = load_store(opts);
            emit(&e.ablation_tag_vs_data(), opts.csv);
            emit(&e.ablation_in_order(), opts.csv);
            emit(&e.ablation_cluster_size(), opts.csv);
            let avfs = derived_avfs(&e, opts, &mut store);
            emit(&e.projected_14nm(&avfs), opts.csv);
            emit(&e.ablation_interleaving(), opts.csv);
            emit(&e.ablation_speculation(), opts.csv);
            emit(&e.beam_validation(&store), opts.csv);
        }
        "xval" => {
            // Checkpoints live next to the measured-results CSV.
            let dir = opts
                .out
                .parent()
                .unwrap_or_else(|| std::path::Path::new("results"));
            let a_path = dir.join("analytical.csv");
            let i_path = dir.join("xval_injected.csv");
            let mut astore = if a_path.exists() {
                AnalyticalStore::load(&a_path).map_err(|err| err.to_string())?
            } else {
                AnalyticalStore::new()
            };
            let mut rstore = if i_path.exists() {
                ResultStore::load(&i_path).map_err(|err| err.to_string())?
            } else {
                ResultStore::new()
            };
            eprintln!(
                "cross-validating analytical vs injected AVF: {} workloads x 6 components ({} runs each)",
                e.workloads.len(),
                e.runs
            );
            let table = e
                .xval_table(&mut astore, &mut rstore, Some(&a_path), Some(&i_path))
                .map_err(|err| err.to_string())?;
            emit(&table, opts.csv);
            eprintln!(
                "checkpoints: {} ({} captures), {} ({} campaigns)",
                a_path.display(),
                astore.len(),
                i_path.display(),
                rstore.len()
            );
        }
        "occupancy" => {
            let w = opts.workload;
            eprintln!("observing fault-free run of {w}");
            let map = e.observe(w).map_err(|err| err.to_string())?;
            emit(&e.occupancy_table(w, &map), opts.csv);
            emit(&e.pipeline_occupancy_table(&map), opts.csv);
            let dir = opts
                .out
                .parent()
                .unwrap_or_else(|| std::path::Path::new("results"));
            let series = dir.join(format!("occupancy_{}.csv", w.name()));
            std::fs::create_dir_all(dir).map_err(|err| err.to_string())?;
            std::fs::write(&series, e.occupancy_series_csv(&map)).map_err(|err| err.to_string())?;
            eprintln!("occupancy time series saved to {}", series.display());
        }
        "measure" => {
            let mut store = load_store(opts);
            measure_all(&e, opts, &mut store);
            eprintln!("saved {} campaigns to {}", store.len(), opts.out.display());
        }
        "exhaustive" => {
            // Equivalence-class campaigns checkpoint next to the measured
            // CSV (like xval) so exhaustive rows never mix into the
            // uniform-sampling store.
            let dir = opts
                .out
                .parent()
                .unwrap_or_else(|| std::path::Path::new("results"));
            let path = dir.join("exhaustive.csv");
            eprintln!(
                "exhaustive equivalence-class campaigns: {} workload(s), one run per live class",
                e.workloads.len()
            );
            // --components picks the set (default: the small structures);
            // small structures enumerate exhaustively, big arrays sample
            // stratified.
            let campaigns = e.class_campaigns(&components(opts, &EXHAUSTIVE_COMPONENTS)?);
            if opts.workers.is_some() {
                // Distributed: shard each campaign by class range over
                // supervised workers; the merged store is byte-identical
                // to the single-process path below.
                let mut config = FabricConfig::from_env().map_err(|err| err.to_string())?;
                if let Some(w) = opts.workers {
                    config.workers = w;
                }
                config.verbose = true;
                // The shard directory `repro sweep` uses: each row's
                // flavour keeps the two kinds of sweep apart.
                let shard_dir = opts.shards.clone().unwrap_or_else(|| dir.join("shards"));
                let (dist_store, fabric_report) = Supervisor::run_campaigns(
                    &e,
                    &campaigns,
                    &config,
                    &shard_dir,
                    &path,
                    WorkerPool::Spawn,
                    SweepOptions::default(),
                )
                .map_err(|err| err.to_string())?;
                emit(&e.equiv_table(&dist_store), opts.csv);
                if !report_fabric(&fabric_report, &dist_store, &path) {
                    return Err(
                        "exhaustive sweep completed degraded (quarantined units or coverage gaps)"
                            .into(),
                    );
                }
                return Ok(());
            }
            let mut store = if path.exists() {
                ResultStore::load(&path).map_err(|err| err.to_string())?
            } else {
                ResultStore::new()
            };
            let report = e
                .run_campaigns(&campaigns, &mut store, Some(&path))
                .map_err(|err| err.to_string())?;
            for ((comp, w, faults), err) in &report.failed {
                eprintln!("warning: skipped {comp}/{w}/{faults}-bit: {err}");
            }
            // Compact the append-only checkpoint (drops resumed duplicates).
            store.save(&path).map_err(|err| err.to_string())?;
            emit(&e.equiv_table(&store), opts.csv);
            report_resume(report.stale_rerun, report.legacy_unverified);
            if report.deadline_expired {
                eprintln!("deadline expired: partial results checkpointed; re-run to resume");
            }
            eprintln!(
                "{} campaign(s) executed ({} resumed), {} class sim(s) covering {} bit-cycles \
                 ({} proved dead without simulation); saved to {}",
                report.executed,
                report.skipped_existing,
                report.class_sims,
                report.covered_weight,
                report.pruned_weight,
                path.display()
            );
            if !report.is_clean() {
                return Err(format!(
                    "{} equivalence-class campaign(s) failed",
                    report.failed.len()
                ));
            }
        }
        "verify-store" => {
            // Read-only either way: audits without quarantining, rewriting
            // or re-running anything.
            if let Some(dir) = &opts.shards {
                eprintln!(
                    "auditing shard stores in {} (read-only; recomputing golden-run fingerprints)",
                    dir.display()
                );
                let audits =
                    mbu_bench::fabric::audit_shard_dir(&e, dir).map_err(|err| err.to_string())?;
                if audits.is_empty() {
                    eprintln!("no shard stores found in {}", dir.display());
                }
                let mut defective = 0;
                for a in &audits {
                    print!(
                        "{}: {} intact row(s) ({} fresh, {} stale), {} defective",
                        a.path.display(),
                        a.rows,
                        a.fresh,
                        a.stale,
                        a.quarantined,
                    );
                    if a.exhaustive > 0 || a.weight_defects > 0 {
                        print!(
                            ", {} class-range ({} weight defect(s))",
                            a.exhaustive, a.weight_defects
                        );
                    }
                    println!();
                    defective += a.quarantined + a.weight_defects;
                }
                if defective > 0 {
                    return Err(format!(
                        "{defective} defective shard row(s)/annotation(s) would be \
                         quarantined or rejected at merge"
                    ));
                }
            } else {
                let path = opts.target.clone().unwrap_or_else(|| opts.out.clone());
                eprintln!(
                    "auditing {} (read-only; recomputing golden-run fingerprints)",
                    path.display()
                );
                let table = e.verify_store(&path).map_err(|err| err.to_string())?;
                emit(&table, opts.csv);
            }
        }
        "sweep" => {
            let mut config = FabricConfig::from_env().map_err(|err| err.to_string())?;
            if let Some(w) = opts.workers {
                config.workers = w;
            }
            config.verbose = true;
            let shard_dir = opts.shards.clone().unwrap_or_else(|| {
                opts.out
                    .parent()
                    .unwrap_or_else(|| std::path::Path::new("results"))
                    .join("shards")
            });
            let (store, report) = Supervisor::run(
                &e,
                &components(opts, &HwComponent::ALL)?,
                &config,
                &shard_dir,
                &opts.out,
                WorkerPool::Spawn,
            )
            .map_err(|err| err.to_string())?;
            if !report_fabric(&report, &store, &opts.out) {
                return Err("sweep completed degraded (quarantined units or coverage gaps)".into());
            }
        }
        "worker" => {
            let shard = opts.shard.clone().ok_or("worker needs --shard <path>")?;
            let heartbeat = FabricConfig::from_env()
                .map_err(|err| err.to_string())?
                .heartbeat;
            mbu_bench::fabric::run_worker(
                std::io::stdin().lock(),
                std::io::stdout(),
                &shard,
                heartbeat,
                opts.fault.clone(),
            )
            .map_err(|err| format!("worker: {err}"))?;
        }
        "daemon" => {
            let addr = opts.listen.clone().ok_or("daemon needs --listen <addr>")?;
            mbu_bench::run_daemon(&addr, &opts.state)?;
        }
        "submit" => {
            let addr = opts.to.clone().ok_or("submit needs --to <addr>")?;
            let body = submit_body(&e, opts)?;
            let (status, reply) =
                mbu_serve::http::request(&addr, "POST", "/sweeps", Some(body.encode().as_bytes()))
                    .map_err(|err| format!("submit to {addr}: {err}"))?;
            let reply = parse_reply(&reply)?;
            if status != 201 {
                return Err(format!("submit rejected ({status}): {}", error_of(&reply)));
            }
            let id = reply
                .get("id")
                .and_then(Json::as_str)
                .ok_or("daemon reply had no job id")?;
            eprintln!("submitted as {id}");
            // Bare id on stdout so scripts can capture it.
            println!("{id}");
        }
        "status" => {
            let (addr, id) = client_target(opts, "status")?;
            if opts.follow {
                follow_events(&addr, &id)?;
            }
            let (status, reply) =
                mbu_serve::http::request(&addr, "GET", &format!("/sweeps/{id}"), None)
                    .map_err(|err| format!("status from {addr}: {err}"))?;
            let reply = parse_reply(&reply)?;
            if status != 200 {
                return Err(format!("status failed ({status}): {}", error_of(&reply)));
            }
            println!("{}", reply.encode());
        }
        "fetch" => {
            let (addr, id) = client_target(opts, "fetch")?;
            let (status, body) =
                mbu_serve::http::request(&addr, "GET", &format!("/sweeps/{id}/store"), None)
                    .map_err(|err| format!("fetch from {addr}: {err}"))?;
            if status != 200 {
                let reply = parse_reply(&body)?;
                return Err(format!("fetch failed ({status}): {}", error_of(&reply)));
            }
            if let Some(dir) = opts.out.parent() {
                std::fs::create_dir_all(dir).map_err(|err| err.to_string())?;
            }
            std::fs::write(&opts.out, &body).map_err(|err| err.to_string())?;
            eprintln!("saved {} byte(s) to {}", body.len(), opts.out.display());
        }
        "chaos-http" => {
            use mbu_bench::chaos::{HttpFault, HttpFaultOutcome};
            let addr = opts.to.clone().ok_or("chaos-http needs --to <addr>")?;
            let faults = {
                let from_env = HttpFault::from_env();
                if from_env.is_empty() {
                    HttpFault::all().to_vec()
                } else {
                    from_env
                }
            };
            // The client must outwait the server's I/O budget to observe a
            // slow-loris 408; both sides read the same environment.
            let patience = mbu_bench::ServeConfig::from_env()
                .map_err(|err| err.to_string())?
                .io_budget
                + std::time::Duration::from_secs(5);
            let mut failed = 0usize;
            for fault in faults {
                let verdict = match fault.fire(&addr, patience) {
                    Ok(outcome) => {
                        let expected = matches!(
                            (fault, outcome),
                            (HttpFault::SlowLoris, HttpFaultOutcome::Status(408))
                                | (HttpFault::TornBody, HttpFaultOutcome::Status(400))
                                | (HttpFault::MidStreamDisconnect, HttpFaultOutcome::Closed)
                                | (HttpFault::HeaderFlood, HttpFaultOutcome::Status(431))
                        );
                        eprintln!(
                            "chaos-http: {} -> {outcome:?}{}",
                            fault.kind(),
                            if expected { "" } else { " (UNEXPECTED)" }
                        );
                        expected
                    }
                    Err(err) => {
                        eprintln!("chaos-http: {} -> error: {err}", fault.kind());
                        false
                    }
                };
                if !verdict {
                    failed += 1;
                }
                // Whatever the fault did, the acceptor must still answer.
                match mbu_serve::http::request(&addr, "GET", "/healthz", None) {
                    Ok((200, _)) => {}
                    Ok((status, _)) => {
                        eprintln!(
                            "chaos-http: healthz degraded after {} ({status})",
                            fault.kind()
                        );
                        failed += 1;
                    }
                    Err(err) => {
                        eprintln!("chaos-http: daemon wedged after {} ({err})", fault.kind());
                        failed += 1;
                    }
                }
            }
            if failed > 0 {
                return Err(format!("chaos-http: {failed} check(s) failed"));
            }
            eprintln!("chaos-http: every fault answered typed; acceptor healthy");
        }
        "cancel" => {
            let (addr, id) = client_target(opts, "cancel")?;
            let (status, reply) =
                mbu_serve::http::request(&addr, "POST", &format!("/sweeps/{id}/cancel"), None)
                    .map_err(|err| format!("cancel at {addr}: {err}"))?;
            let reply = parse_reply(&reply)?;
            if status != 202 {
                return Err(format!("cancel failed ({status}): {}", error_of(&reply)));
            }
            println!("{}", reply.encode());
        }
        "all" => {
            emit(&e.table1(), opts.csv);
            println!("{}", e.table2());
            emit(&e.table3(), opts.csv);
            let mut store = load_store(opts);
            if !store.is_complete() {
                measure_all(&e, opts, &mut store);
            }
            for fig in ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6"] {
                let c = fig_component(fig).expect("static list");
                emit(&e.figure_table(c, &store), opts.csv);
            }
            emit(&e.table4(&store), opts.csv);
            emit(&e.table5(&store), opts.csv);
            emit(&e.table6(), opts.csv);
            emit(&e.table7(), opts.csv);
            emit(&e.table8(), opts.csv);
            let avfs = e.component_avfs(&store);
            emit(&e.fig7(&avfs), opts.csv);
            emit(&e.fig8(&avfs), opts.csv);
            emit(&e.class_character(&store), opts.csv);
        }
        other => return Err(format!("unknown experiment `{other}`")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(opts) => match run(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            usage();
            ExitCode::FAILURE
        }
    }
}
