//! Tests of the benchmark's own logic: the percentile rule, span self
//! time, metric naming, and `BENCHMARK.json` against the workloads and
//! metrics the benchmark measures.

use mbu_gefin::json::Json;
use mbu_refbench::drivers::{slices, Kind, SLICES};
use mbu_refbench::ledger::{self, Schema};
use mbu_refbench::stats::{percentile, tail_percentile, Distribution};
use mbu_refbench::trace::{self, Span};

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    for (n, expected) in [
        (0, None),
        (19, None),
        (20, Some(50)),
        (49, Some(50)),
        (50, Some(80)),
        (54, Some(80)),
        (99, Some(80)),
        (100, Some(90)),
        (199, Some(90)),
        (200, Some(95)),
        (999, Some(95)),
        (1000, Some(99)),
    ] {
        assert_eq!(tail_percentile(n), expected, "n = {n}");
        if let Some(p) = expected {
            assert!(n as f64 * f64::from(100 - p) / 100.0 >= 10.0);
        }
    }
}

#[test]
fn percentiles_interpolate_between_ranks() {
    let xs = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(percentile(&xs, 0.0), 1.0);
    assert_eq!(percentile(&xs, 50.0), 2.5);
    assert_eq!(percentile(&xs, 100.0), 4.0);
    assert_eq!(percentile(&[], 50.0), 0.0);
    let samples: Vec<f64> = (1..=54).map(f64::from).collect();
    let d = Distribution::of(&samples);
    assert_eq!((d.n, d.p50), (54, 27.5));
    let (p, v) = d.tail.expect("54 samples admit a tail");
    assert_eq!(p, 80);
    assert!((v - 43.4).abs() < 1e-9, "p80 = {v}");
}

fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        name: "t",
        program: "",
        pass: 0,
        parent,
        start_ns,
        end_ns,
        cpu_s: None,
    }
}

#[test]
fn self_time_subtracts_nested_and_back_to_back_children() {
    let spans = [
        span(0, None, 0, 100),
        span(1, Some(0), 10, 30),
        span(2, Some(0), 30, 50),
        span(3, Some(1), 15, 20),
    ];
    assert_eq!(trace::self_times(&spans), vec![60, 15, 20, 5]);
    assert_eq!(trace::self_times(&spans).iter().sum::<u64>(), 100);
}

#[test]
fn self_time_counts_overlapping_children_once_and_clips_to_parent() {
    let spans = [
        span(0, None, 0, 100),
        span(1, Some(0), 10, 40),
        span(2, Some(0), 30, 60),
        span(3, Some(0), 90, 120),
    ];
    assert_eq!(trace::self_times(&spans)[0], 100 - 50 - 10);
}

#[test]
fn recorder_nests_spans_and_self_times_cover_the_root() {
    assert!(!trace::is_recording());
    {
        let _untraced = trace::enter("ignored", "");
    }
    let before = std::time::Instant::now();
    trace::start(7);
    {
        let _root = trace::enter("pass", "");
        {
            let _a = trace::enter("a", "sha");
            let _b = trace::enter("b", "sha");
        }
        {
            let _c = trace::enter_with_cpu("c", "");
        }
        // A phase rebuilt from timestamps taken outside its parent is
        // clipped to the parent's interval.
        let c = trace::last_id();
        trace::record("phase", c, before, std::time::Instant::now());
    }
    let spans = trace::finish();
    assert!(!trace::is_recording());
    let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
    assert_eq!(
        names,
        vec![
            ("pass", None),
            ("a", Some(0)),
            ("b", Some(1)),
            ("c", Some(0)),
            ("phase", Some(3))
        ]
    );
    assert!(spans.iter().all(|s| s.pass == 7 && s.end_ns >= s.start_ns));
    assert!(spans[3].cpu_s.is_some(), "cpu time read from /proc");
    assert_eq!(
        (spans[4].start_ns, spans[4].end_ns),
        (spans[3].start_ns, spans[3].end_ns)
    );
    let total: u64 = trace::self_times(&spans).iter().sum();
    assert_eq!(total, spans[0].duration_ns());
    assert!(trace::self_times_cover_roots(&spans));
    let mut escaped = spans.clone();
    escaped[2].end_ns = escaped[0].end_ns + 5;
    assert!(!trace::self_times_cover_roots(&escaped));
}

/// The workloads and metrics the benchmark measures, as its issue names
/// them: `BENCHMARK.json` must name exactly these.
const WORKLOADS: [&str; 3] = ["sampled", "exhaustive", "fabric"];
const END_TO_END: [&str; 3] = ["runs_per_s", "setup_s", "max_rss_mb"];
const PER_LAYER: [&str; 37] = [
    "workloads.program_s",
    "cpu.golden_s",
    "cpu.golden_cycles",
    "cpu.cycles_per_s",
    "snap.build_s",
    "snap.checkpoints",
    "snap.retained_mb",
    "snap.restores",
    "snap.early_masked",
    "snap.early_masked_frac",
    "ace.oracle_skips",
    "equiv.plan_s",
    "equiv.live_classes",
    "equiv.dead_frac",
    "gefin.campaign_s.p50",
    "gefin.campaign_s.p80",
    "gefin.campaign_s.n",
    "gefin.class_range_s",
    "gefin.runs",
    "gefin.cpu_util",
    "store.append_s.p50",
    "store.append_s.p80",
    "store.append_s.n",
    "store.appends",
    "store.bytes",
    "fabric.ready_s",
    "fabric.units",
    "fabric.retries",
    "fabric.steals",
    "fabric.workers_lost",
    "fabric.unit_s.p50",
    "fabric.unit_s.p95",
    "fabric.unit_s.n",
    "fabric.cpu_util",
    "fabric.merge_s",
    "fabric.shard_bytes",
    "trace.overhead_frac",
];

fn names(defs: &[ledger::Def]) -> Vec<&str> {
    defs.iter().map(|d| d.0.as_str()).collect()
}

#[test]
fn benchmark_json_names_exactly_the_measured_workloads_and_metrics() {
    let schema = Schema::embedded().expect("BENCHMARK.json parses");
    assert_eq!(schema.workloads, WORKLOADS);
    let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(kinds, WORKLOADS);
    assert_eq!(names(&schema.end_to_end), END_TO_END);
    assert_eq!(names(&schema.per_layer), PER_LAYER);

    let doc = Json::parse(ledger::BENCHMARK_JSON).expect("valid JSON");
    let Json::Obj(fields) = &doc else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    for m in doc.get("end_to_end").and_then(Json::as_arr).expect("list") {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    for m in ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|k| doc.get(k).and_then(Json::as_arr).expect("list"))
    {
        let better = m.get("better").and_then(Json::as_str);
        assert!(matches!(better, Some("lower" | "higher")), "{m:?}");
    }
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&run_seconds));
}

#[test]
fn metric_and_workload_names_are_valid_and_unique() {
    let schema = Schema::embedded().expect("BENCHMARK.json parses");
    let all: Vec<&str> = schema
        .workloads
        .iter()
        .map(String::as_str)
        .chain(names(&schema.end_to_end))
        .chain(names(&schema.per_layer))
        .collect();
    for name in &all {
        assert!(ledger::valid_name(name), "{name}");
    }
    let mut sorted = all.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "names are unique");
    for (_, unit) in schema.end_to_end.iter().chain(&schema.per_layer) {
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
    }
    for bad in ["", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
        assert!(!ledger::valid_name(bad), "{bad:?}");
    }
}

#[test]
fn result_line_is_json_with_every_metric_and_refuses_drift() {
    let defs = Schema::embedded().expect("schema").end_to_end;
    let line = ledger::result_line(
        true,
        10,
        0,
        &defs,
        &[
            ("runs_per_s", 1.5),
            ("setup_s", f64::NAN),
            ("max_rss_mb", 6.0),
        ],
    )
    .expect("every metric measured");
    let doc = Json::parse(&line).expect("valid JSON");
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(10));
    let metrics = doc.get("metrics").expect("metrics");
    for (name, unit) in &defs {
        let m = metrics.get(name).expect(name);
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
        assert!(m.get("value").and_then(Json::as_f64).is_some());
    }
    let rate = metrics
        .get("runs_per_s")
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64);
    assert_eq!(rate, Some(1.5));
    assert!(ledger::result_line(true, 1, 0, &defs, &[("runs_per_s", 1.0)]).is_err());
    let extra = [
        ("runs_per_s", 1.0),
        ("setup_s", 1.0),
        ("max_rss_mb", 1.0),
        ("x", 1.0),
    ];
    assert!(ledger::result_line(true, 1, 0, &defs, &extra).is_err());
}

#[test]
fn slices_are_evenly_spaced_and_clipped() {
    let s = slices(1000, 10);
    assert_eq!(s.len(), SLICES);
    assert_eq!(s[0], 0..10);
    assert_eq!(s[1].start, 1000 / SLICES);
    assert!(s.windows(2).all(|w| w[0].end <= w[1].start));
    assert!(slices(5, 10).iter().all(|r| r.end <= 5 && !r.is_empty()));
    assert!(slices(0, 10).is_empty());
}
