//! `refbench` — the repository's reference benchmark.
//!
//! ```text
//! refbench --workload <sampled|exhaustive|fabric> --seed <n> --seconds <s> --trace <0|1>
//! refbench worker --shard <path>     (spawned by the fabric supervisor)
//! refbench probe --workload <w> --seed <n>   (one set-up probe of a run)
//! ```
//!
//! Runs each program of the workload fault-free once, then repeats
//! identical passes of the workload for `--seconds`. Untraced, it also
//! probes set-up about once per [`PROBE_INTERVAL`] between the passes'
//! campaigns or class slices (on `fabric`, between the campaigns of the
//! in-process reference sweep), and at least [`SETUP_SAMPLES`] times, and
//! reports set-up and each step of a pass at their fastest. Checks
//! every pass's results (the pinned digest at the default seed, exact
//! agreement with the first pass, and for `fabric` exact agreement with the
//! in-process sweep), and prints one JSON result line last: the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`. The
//! metric names and units come from `BENCHMARK.json`. A traced run
//! alternates untraced and traced passes and writes its spans to
//! `out/trace-<workload>-seed<n>.json` under this crate's directory. Exits
//! non-zero when a check fails.

use mbu_gefin::json::Json;
use mbu_refbench::drivers::{
    Bench, FabricStats, Kind, Pass, DEFAULT_SEED, PINNED_EXHAUSTIVE_ANY_SEED, SETUP_SAMPLES,
    THREADS,
};
use mbu_refbench::ledger::{self, Schema};
use mbu_refbench::stats::{median, percentile, tail_percentile, Distribution};
use mbu_refbench::trace::{self, Span};
use mbu_refbench::{layers, procfs};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// The least wall time between two set-up probes of an untraced run.
const PROBE_INTERVAL: Duration = Duration::from_millis(500);

struct Options {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed must be an integer, got `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or(format!("--seconds must be a positive integer, got `{v}`"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got `{v}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Options {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Metric values by name.
type Values = Vec<(&'static str, f64)>;

/// A finished pass with its wall time (set-up probes taken inside it left
/// out) and, when traced, its spans.
struct Timed {
    pass: Pass,
    wall_s: f64,
    probes_s: f64,
    spans: Option<Vec<Span>>,
}

/// Takes set-up probes spread over a whole run, at most one per
/// [`PROBE_INTERVAL`], so that `setup_s` (the fastest sample) draws on the
/// run's whole span of time and not on one moment of a host whose speed
/// drifts.
struct Prober<'a> {
    bench: &'a Bench,
    enabled: bool,
    last: Instant,
    samples: Vec<f64>,
    spent_s: f64,
    failed: bool,
}

impl<'a> Prober<'a> {
    fn new(bench: &'a Bench, enabled: bool) -> Self {
        Self {
            bench,
            enabled,
            last: Instant::now(),
            samples: Vec::new(),
            spent_s: 0.0,
            failed: false,
        }
    }

    fn probe(&mut self) {
        let t0 = Instant::now();
        match probe_in_child(self.bench) {
            Ok(s) => self.samples.push(s),
            Err(e) => {
                eprintln!("refbench: set-up probe: {e}");
                self.failed = true;
            }
        }
        self.last = Instant::now();
        self.spent_s += (self.last - t0).as_secs_f64();
    }

    /// Takes a probe if one is due.
    fn between(&mut self) {
        if self.enabled && self.last.elapsed() >= PROBE_INTERVAL {
            self.probe();
        }
    }
}

/// Runs one set-up probe in a fresh process of this binary and returns its
/// set-up time. The probe starts from nothing, as a pass does, and its
/// memory stays out of this process's peak.
fn probe_in_child(bench: &Bench) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["probe", "--workload", bench.kind.name()])
        .args(["--seed", &bench.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("probe process ended with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|_| format!("probe process printed `{}`", text.trim()))
}

/// What a probe process runs: the workload's fault-free reference runs,
/// then one set-up, whose wall time it prints.
fn probe(opts: &Options) -> Result<f64, String> {
    let scratch = out_dir().join(format!("probe-{}", std::process::id()));
    let bench = Bench::new(opts.kind, opts.seed, &scratch).map_err(|e| e.to_string());
    let setup = bench.and_then(|b| b.setup_probe());
    let _ = std::fs::remove_dir_all(&scratch);
    setup
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_pass(bench: &Bench, k: usize, traced: bool, prober: &mut Prober) -> Timed {
    if traced {
        trace::start(k);
    }
    let spent_s = prober.spent_s;
    let t0 = Instant::now();
    let pass = {
        let _root = trace::enter("pass", "");
        bench.pass(k, &mut || prober.between())
    };
    let gross_s = t0.elapsed().as_secs_f64();
    let probes_s = prober.spent_s - spent_s;
    Timed {
        pass,
        wall_s: gross_s - probes_s,
        probes_s,
        spans: traced.then(trace::finish),
    }
}

/// Output checks across passes: the pinned digest at the default seed,
/// every pass equal to the first, and (`reference`) equal to an
/// independently produced result. Returns the injections lost to failed
/// checks: a pass failing any of them loses every injection it classified.
fn check(bench: &Bench, passes: &[Timed], reference: Option<&Pass>) -> u64 {
    let first = &passes[0].pass;
    let mut lost = 0;
    for (k, t) in passes.iter().enumerate() {
        let p = &t.pass;
        let pinned = bench.seed == DEFAULT_SEED && p.digest != bench.kind.pinned_digest();
        if pinned {
            eprintln!(
                "refbench: pass {k}: result digest {:016x} differs from the pinned {:016x}",
                p.digest,
                bench.kind.pinned_digest()
            );
        }
        let member_variant = p
            .seed_free_digest
            .is_some_and(|d| d != PINNED_EXHAUSTIVE_ANY_SEED);
        if member_variant {
            eprintln!(
                "refbench: pass {k}: seed-free outcome digest {:016x} differs from the pinned {:016x}",
                p.seed_free_digest.unwrap_or_default(),
                PINNED_EXHAUSTIVE_ANY_SEED
            );
        }
        let drift = p.output != first.output || p.counts != first.counts;
        if drift {
            eprintln!("refbench: pass {k} did not reproduce pass 0");
        }
        let mismatch = reference.is_some_and(|r| r.output != p.output || r.digest != p.digest);
        if mismatch {
            eprintln!("refbench: pass {k}: merged CSV differs from the in-process sweep");
        }
        let unnested = t
            .spans
            .as_deref()
            .is_some_and(|s| !trace::self_times_cover_roots(s));
        if unnested {
            eprintln!("refbench: pass {k}: span self times do not add up to the pass's wall time");
        }
        if pinned || member_variant || drift || mismatch || unnested {
            lost += p.attempted.saturating_sub(p.failed);
        }
    }
    lost
}

fn classified_per_s(t: &Timed) -> f64 {
    (t.pass.attempted - t.pass.failed) as f64 / t.wall_s
}

fn fastest(times: impl Iterator<Item = f64>) -> f64 {
    times.fold(f64::INFINITY, f64::min)
}

/// Both times take the fastest observation of a run: the host's speed
/// changes only ever add time, and on a shared host they come in two modes
/// about 2× apart that hold for seconds, so a run's median or mean reads
/// whichever mode the run happened to see most. `setup_s` is the fastest of
/// `setups`, every set-up time of the run (passes and probes);
/// `runs_per_s` is a pass's classified injections over that set-up plus
/// each step's fastest time across the run's passes. `peak_rss_mb` is this
/// process's peak after the first pass: one campaign's footprint, before
/// repeated passes fragment the heap.
fn end_to_end(passes: &[Timed], setups: &[f64], peak_rss_mb: f64) -> Values {
    let first = &passes[0].pass;
    let setup_s = fastest(setups.iter().copied());
    let steps_s: f64 = (0..first.steps_s.len())
        .map(|i| fastest(passes.iter().filter_map(|t| t.pass.steps_s.get(i).copied())))
        .sum();
    let classified = first.attempted.saturating_sub(first.failed) as f64;
    let workers = first.fabric.as_ref().map_or(0.0, |f| f.worker_rss_mb);
    vec![
        ("runs_per_s", classified / (setup_s + steps_s)),
        ("setup_s", setup_s),
        ("max_rss_mb", peak_rss_mb.max(workers)),
    ]
}

/// Sum of the durations of spans named `name`, in seconds.
fn span_total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_s)
        .sum()
}

fn span_samples(traced: &[&Timed], name: &str) -> Vec<f64> {
    traced
        .iter()
        .flat_map(|t| t.spans.iter().flatten())
        .filter(|s| s.name == name)
        .map(Span::duration_s)
        .collect()
}

/// The per-layer ledger from the fault-free reference runs (`init`, the
/// spans recorded while `bench` was made) and the traced passes, plus the
/// distributions behind its percentiles (for the trace file).
fn per_layer(
    bench: &Bench,
    init: &[Span],
    untraced: &[&Timed],
    traced: &[&Timed],
) -> (Values, Vec<(&'static str, Distribution)>) {
    let per_pass =
        |f: &dyn Fn(&Timed) -> f64| median(&traced.iter().map(|t| f(t)).collect::<Vec<_>>());
    let total =
        |name: &'static str| per_pass(&|t| span_total(t.spans.as_deref().unwrap_or(&[]), name));
    let c = &traced[0].pass.counts;
    let fabric: Vec<_> = traced
        .iter()
        .filter_map(|t| t.pass.fabric.as_ref())
        .collect();
    let fabric_median =
        |f: &dyn Fn(&FabricStats) -> f64| median(&fabric.iter().map(|s| f(s)).collect::<Vec<_>>());
    let campaign = span_samples(traced, "gefin.campaign");
    let append = span_samples(traced, "store.append");
    let unit_gaps: Vec<f64> = fabric.iter().flat_map(|s| s.unit_gaps_s.clone()).collect();
    let gefin_spans: Vec<&Span> = traced
        .iter()
        .flat_map(|t| t.spans.iter().flatten())
        .filter(|s| s.name == "gefin.campaign" || s.name == "gefin.class_range")
        .collect();
    let gefin_cpu: f64 = gefin_spans.iter().filter_map(|s| s.cpu_s).sum();
    let gefin_wall: f64 = gefin_spans.iter().map(|s| s.duration_s()).sum();
    let golden_s = span_total(init, "cpu.golden");
    let golden_cycles = bench.golden_cycles as f64;
    let walls = |ts: &[&Timed]| median(&ts.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let values = vec![
        ("workloads.program_s", total("workloads.program")),
        ("cpu.golden_s", golden_s),
        ("cpu.golden_cycles", golden_cycles),
        ("cpu.cycles_per_s", ratio(golden_cycles, golden_s)),
        ("snap.build_s", total("snap.build")),
        ("snap.checkpoints", c.checkpoints as f64),
        (
            "snap.retained_mb",
            c.retained_bytes as f64 / (1024.0 * 1024.0),
        ),
        ("snap.restores", c.restores as f64),
        ("snap.early_masked", c.early_masked as f64),
        (
            "snap.early_masked_frac",
            ratio(c.early_masked as f64, c.runs as f64),
        ),
        ("ace.oracle_skips", c.oracle_skips as f64),
        ("equiv.plan_s", total("equiv.plan")),
        ("equiv.live_classes", c.live_classes as f64),
        (
            "equiv.dead_frac",
            ratio(c.dead_weight as f64, c.population as f64),
        ),
        ("gefin.campaign_s.p50", percentile(&campaign, 50.0)),
        ("gefin.campaign_s.p80", percentile(&campaign, 80.0)),
        ("gefin.campaign_s.n", campaign.len() as f64),
        ("gefin.class_range_s", total("gefin.class_range")),
        ("gefin.runs", c.runs as f64),
        (
            "gefin.cpu_util",
            ratio(gefin_cpu, gefin_wall * THREADS as f64),
        ),
        ("store.append_s.p50", percentile(&append, 50.0)),
        ("store.append_s.p80", percentile(&append, 80.0)),
        ("store.append_s.n", append.len() as f64),
        ("store.appends", c.appends as f64),
        ("store.bytes", c.store_bytes as f64),
        ("fabric.ready_s", fabric_median(&|s| s.ready_s)),
        ("fabric.units", c.units as f64),
        ("fabric.retries", fabric_median(&|s| s.retries as f64)),
        ("fabric.steals", fabric_median(&|s| s.steals as f64)),
        (
            "fabric.workers_lost",
            fabric_median(&|s| s.workers_lost as f64),
        ),
        ("fabric.unit_s.p50", percentile(&unit_gaps, 50.0)),
        ("fabric.unit_s.p95", percentile(&unit_gaps, 95.0)),
        ("fabric.unit_s.n", unit_gaps.len() as f64),
        ("fabric.cpu_util", fabric_median(&|s| s.cpu_util)),
        ("fabric.merge_s", fabric_median(&|s| s.merge_s)),
        (
            "fabric.shard_bytes",
            fabric_median(&|s| s.shard_bytes as f64),
        ),
        (
            "trace.overhead_frac",
            ratio(walls(traced), walls(untraced)) - 1.0,
        ),
    ];
    let distributions = vec![
        ("gefin.campaign_s", Distribution::of(&campaign)),
        ("store.append_s", Distribution::of(&append)),
        ("fabric.unit_s", Distribution::of(&unit_gaps)),
    ];
    for (name, d, named) in [
        ("gefin.campaign_s", distributions[0].1, 80),
        ("store.append_s", distributions[1].1, 80),
        ("fabric.unit_s", distributions[2].1, 95),
    ] {
        if d.n > 0 && tail_percentile(d.n).is_none_or(|p| p < named) {
            eprintln!(
                "refbench: {name}.p{named} rests on {} samples (fewer than 10 beyond it)",
                d.n
            );
        }
    }
    (values, distributions)
}

/// Spans as JSON, each with its self time.
fn spans_json(list: &[Span]) -> Vec<Json> {
    list.iter()
        .zip(trace::self_times(list))
        .map(|(s, self_ns)| {
            let mut fields = vec![
                ("pass".into(), Json::usize(s.pass)),
                ("id".into(), Json::usize(s.id)),
                ("name".into(), Json::str(s.name)),
                ("program".into(), Json::str(s.program)),
                ("parent".into(), s.parent.map_or(Json::Null, Json::usize)),
                ("start_ns".into(), Json::u64(s.start_ns)),
                ("end_ns".into(), Json::u64(s.end_ns)),
                ("self_ns".into(), Json::u64(self_ns)),
            ];
            if let Some(cpu) = s.cpu_s {
                fields.push(("cpu_s".into(), Json::f64(cpu)));
            }
            Json::Obj(fields)
        })
        .collect()
}

/// Writes the fault-free reference runs' spans, the traced passes' spans
/// and the distributions as JSON.
fn write_trace(
    path: &Path,
    bench: &Bench,
    init: &[Span],
    traced: &[&Timed],
    distributions: &[(&'static str, Distribution)],
) -> std::io::Result<()> {
    let num = Json::f64;
    let spans = traced
        .iter()
        .flat_map(|t| spans_json(t.spans.as_deref().unwrap_or(&[])))
        .collect();
    let dists = distributions
        .iter()
        .map(|(name, d)| {
            let mut fields = vec![("n".into(), Json::usize(d.n)), ("p50".into(), num(d.p50))];
            if let Some((p, v)) = d.tail {
                fields.push(("tail_percentile".into(), Json::u64(u64::from(p))));
                fields.push(("tail".into(), num(v)));
            }
            (name.to_string(), Json::Obj(fields))
        })
        .collect();
    let doc = Json::Obj(vec![
        ("workload".into(), Json::str(bench.kind.name())),
        ("seed".into(), Json::u64(bench.seed)),
        (
            "pass_wall_s".into(),
            Json::Arr(traced.iter().map(|t| num(t.wall_s)).collect()),
        ),
        ("distributions".into(), Json::Obj(dists)),
        ("init_spans".into(), Json::Arr(spans_json(init))),
        ("spans".into(), Json::Arr(spans)),
    ]);
    std::fs::write(path, doc.encode() + "\n")
}

fn run(opts: &Options, schema: &Schema) -> Result<bool, String> {
    if !schema.workloads.iter().any(|w| w == opts.kind.name()) {
        return Err(format!(
            "BENCHMARK.json names no workload `{}`",
            opts.kind.name()
        ));
    }
    let out_dir = out_dir();
    let scratch = out_dir.join(format!("run-{}", std::process::id()));
    // A traced run records the fault-free reference runs as a pass of
    // their own.
    if opts.trace {
        trace::start(0);
    }
    let bench = {
        let _root = trace::enter("init", "");
        Bench::new(opts.kind, opts.seed, &scratch)
    };
    let init = trace::finish();
    let bench = bench.map_err(|e| e.to_string())?;
    let budget = Duration::from_secs(opts.seconds);
    let min_passes = if opts.trace { 2 } else { 1 };
    let t0 = Instant::now();
    let mut passes: Vec<Timed> = Vec::new();
    let mut peak_rss_mb = 0.0;
    // Untraced runs probe set-up between the steps of every pass and, on
    // `fabric`, between the campaigns of its in-process reference sweep.
    let mut prober = Prober::new(&bench, !opts.trace);
    // Another pass starts only while one as long as the last still fits
    // the budget. Traced runs alternate untraced and traced passes so both
    // see the same machine state; the untraced ones give the overhead
    // baseline.
    while passes.len() < min_passes
        || passes.last().is_some_and(|t| {
            t0.elapsed().as_secs_f64() + t.wall_s + t.probes_s <= budget.as_secs_f64()
        })
    {
        let traced = opts.trace && passes.len() % 2 == 1;
        let t = run_pass(&bench, passes.len(), traced, &mut prober);
        eprintln!(
            "refbench: pass {}{}: {:.3} s, set-up {:.4} s, {:.1} runs/s",
            passes.len(),
            if traced { " (traced)" } else { "" },
            t.wall_s,
            t.pass.setup_s,
            classified_per_s(&t)
        );
        passes.push(t);
        if passes.len() == 1 {
            peak_rss_mb = procfs::peak_rss_mb(None).unwrap_or(0.0);
        }
    }
    let reference =
        (opts.kind == Kind::Fabric).then(|| bench.sampled_reference(&mut || prober.between()));
    // Untraced runs top the set-up samples up to SETUP_SAMPLES.
    let mut setups: Vec<f64> = passes.iter().map(|t| t.pass.setup_s).collect();
    if prober.enabled {
        for _ in setups.len() + prober.samples.len()..SETUP_SAMPLES {
            prober.probe();
        }
    }
    setups.extend(&prober.samples);
    let probe_failed = prober.failed;
    let listed: Vec<String> = setups.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    eprintln!("refbench: set-up samples (ms): {}", listed.join(" "));
    let measured = end_to_end(&passes, &setups, peak_rss_mb);
    let _ = std::fs::remove_dir_all(&scratch);
    let lost = check(&bench, &passes, reference.as_ref());
    let init_unnested = !trace::self_times_cover_roots(&init);
    if init_unnested {
        eprintln!("refbench: reference-run span self times do not add up to their wall time");
    }
    let attempted: u64 = passes.iter().map(|t| t.pass.attempted).sum();
    let failed = if probe_failed || init_unnested {
        attempted
    } else {
        passes.iter().map(|t| t.pass.failed).sum::<u64>() + lost
    };
    let correct = failed == 0;
    eprintln!(
        "refbench: {} seed {}: {} pass(es), {} set-up sample(s), {attempted} injection(s), {failed} failed; digest {:016x}{}",
        opts.kind.name(),
        opts.seed,
        passes.len(),
        setups.len(),
        passes[0].pass.digest,
        passes[0]
            .pass
            .seed_free_digest
            .map(|d| format!(", seed-free {d:016x}"))
            .unwrap_or_default()
    );
    let line = if opts.trace {
        let (untraced, traced): (Vec<&Timed>, Vec<&Timed>) =
            passes.iter().partition(|t| t.spans.is_none());
        let (values, distributions) = per_layer(&bench, &init, &untraced, &traced);
        let path = out_dir.join(format!("trace-{}-seed{}.json", opts.kind.name(), opts.seed));
        write_trace(&path, &bench, &init, &traced, &distributions).map_err(|e| e.to_string())?;
        eprintln!("refbench: spans written to {}", path.display());
        ledger::result_line(correct, attempted, failed, &schema.per_layer, &values)?
    } else {
        ledger::result_line(correct, attempted, failed, &schema.end_to_end, &measured)?
    };
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        // The fabric supervisor re-executes this binary as its workers.
        let shard = match args.get(1..) {
            Some([flag, path]) if flag == "--shard" => PathBuf::from(path),
            _ => {
                eprintln!("usage: refbench worker --shard <path>");
                return ExitCode::FAILURE;
            }
        };
        return match layers::fabric_worker(&shard) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("refbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("probe") {
        // A set-up probe of a run (see `probe_in_child`).
        return match parse_args(&args[1..]).and_then(|opts| probe(&opts)) {
            Ok(setup_s) => {
                println!("{setup_s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("refbench probe: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = Schema::embedded()
        .and_then(|schema| parse_args(&args).map(|opts| (opts, schema)))
        .and_then(|(opts, schema)| run(&opts, &schema));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("refbench: {e}");
            eprintln!(
                "usage: refbench --workload <sampled|exhaustive|fabric> --seed <n> --seconds <s> --trace <0|1>"
            );
            ExitCode::FAILURE
        }
    }
}
