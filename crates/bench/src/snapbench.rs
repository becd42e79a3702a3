//! `repro snapbench` — campaign wall-clock with the snapshot fast path off
//! vs on, per component, emitted as `BENCH_snapshot.json`, plus the
//! golden-artifact-cache sweep benchmark emitted as `BENCH_sweep.json`.
//!
//! Each [`SnapbenchRow`] times one complete injection campaign twice with
//! identical configuration (same seed, same run count, same workload) —
//! first the plain path that re-simulates every run from cycle 0, then the
//! checkpoint/restore fast path — and cross-checks that both produce the
//! same per-class counts, so a speedup can never come from classifying
//! differently. [`SweepbenchReport`] applies the same discipline one level
//! up: a whole components × cardinalities sweep over one workload, timed
//! with the sweep-wide golden-artifact cache off (every campaign pays its
//! own golden + snapshot-recording runs) vs on (one shared
//! [`mbu_gefin::GoldenArtifacts`] build), with every
//! [`mbu_gefin::campaign::CampaignResult`] compared for bit-identity. The
//! feature-gated `benches/snapshot.rs` re-measures the campaign pairs
//! under the in-tree `tinybench` harness; this module keeps
//! the measurements available to the plain `repro` binary (built without
//! the `bench-harness` feature) and renders the machine-readable JSON.

use crate::experiments::Experiments;
use crate::store::{component_slug, ResultStore};
use mbu_cpu::HwComponent;
use mbu_gefin::campaign::Campaign;
use mbu_gefin::report::{factor, Table};
use mbu_workloads::Workload;
use std::time::Instant;

/// One off/on wall-clock pair for a single component.
#[derive(Debug, Clone)]
pub struct SnapbenchRow {
    /// The injected structure.
    pub component: HwComponent,
    /// Plain-path campaign wall-clock, seconds.
    pub off_secs: f64,
    /// Snapshot fast-path campaign wall-clock, seconds.
    pub on_secs: f64,
    /// Classified runs per campaign (identical off vs on).
    pub classified_runs: u64,
    /// Fast-path runs that restored a mid-run checkpoint.
    pub restores: u64,
    /// Fast-path runs classified `Masked` early by a reconvergence check.
    pub early_masked: u64,
    /// Whether both paths produced identical per-class counts.
    pub identical: bool,
}

impl SnapbenchRow {
    /// Wall-clock speedup of the fast path (plain / snapshot).
    pub fn speedup(&self) -> f64 {
        self.off_secs / self.on_secs.max(1e-9)
    }
}

/// The full off/on sweep over every injectable component.
#[derive(Debug, Clone)]
pub struct SnapbenchReport {
    /// The benchmarked workload.
    pub workload: Workload,
    /// Configured runs per campaign.
    pub runs: usize,
    /// Fault cardinality per injection.
    pub faults: usize,
    /// Campaign seed (both paths).
    pub seed: u64,
    /// One row per component.
    pub rows: Vec<SnapbenchRow>,
}

impl SnapbenchReport {
    /// The best speedup across components.
    pub fn max_speedup(&self) -> f64 {
        self.rows
            .iter()
            .map(SnapbenchRow::speedup)
            .fold(0.0, f64::max)
    }

    /// Whether every component classified identically off vs on.
    pub fn all_identical(&self) -> bool {
        self.rows.iter().all(|r| r.identical)
    }

    /// Renders the report as the `BENCH_snapshot.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"workload\": \"{}\",\n", self.workload.name()));
        out.push_str(&format!("  \"runs_per_campaign\": {},\n", self.runs));
        out.push_str(&format!("  \"faults\": {},\n", self.faults));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"components\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"component\": \"{}\", \"off_secs\": {:.6}, \"on_secs\": {:.6}, \
                 \"speedup\": {:.3}, \"classified_runs\": {}, \"snapshot_restores\": {}, \
                 \"early_masked\": {}, \"identical_classifications\": {}}}{}\n",
                component_slug(r.component),
                r.off_secs,
                r.on_secs,
                r.speedup(),
                r.classified_runs,
                r.restores,
                r.early_masked,
                r.identical,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"max_speedup\": {:.3},\n", self.max_speedup()));
        out.push_str(&format!("  \"all_identical\": {}\n", self.all_identical()));
        out.push_str("}\n");
        out
    }

    /// Renders the report as an ASCII table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            &format!(
                "Snapshot fast-path speedup — {} ({} runs x {}-bit per campaign)",
                self.workload, self.runs, self.faults
            ),
            &[
                "Component",
                "Plain (s)",
                "Snapshots (s)",
                "Speedup",
                "Restores",
                "Early-masked",
                "Identical",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.component.to_string(),
                format!("{:.3}", r.off_secs),
                format!("{:.3}", r.on_secs),
                factor(r.speedup()),
                r.restores.to_string(),
                r.early_masked.to_string(),
                if r.identical { "yes" } else { "NO" }.to_string(),
            ]);
        }
        t
    }
}

/// Injections per campaign in [`Experiments::sweepbench`] (an upper
/// bound; `MBU_RUNS` below it is respected).
pub const SWEEPBENCH_RUNS: usize = 20;

/// Wall-clock of one components × cardinalities sweep over a single
/// workload, with the sweep-wide golden-artifact cache off vs on —
/// rendered as `BENCH_sweep.json`.
#[derive(Debug, Clone)]
pub struct SweepbenchReport {
    /// The benchmarked workload.
    pub workload: Workload,
    /// The swept components.
    pub components: Vec<HwComponent>,
    /// Configured runs per campaign.
    pub runs: usize,
    /// Campaign seed (both paths).
    pub seed: u64,
    /// Campaigns per path (components × 3 cardinalities).
    pub campaigns: usize,
    /// Cache-off sweep wall-clock, seconds (per-campaign golden, snapshot
    /// recording and fingerprint runs).
    pub off_secs: f64,
    /// Cache-on sweep wall-clock, seconds (one shared artifact build).
    pub on_secs: f64,
    /// Whether both paths produced bit-identical campaign results and
    /// golden-run fingerprints.
    pub identical: bool,
}

impl SweepbenchReport {
    /// Wall-clock speedup of the cached sweep (off / on).
    pub fn speedup(&self) -> f64 {
        self.off_secs / self.on_secs.max(1e-9)
    }

    /// Renders the report as the `BENCH_sweep.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"workload\": \"{}\",\n", self.workload.name()));
        out.push_str("  \"components\": [");
        for (i, c) in self.components.iter().enumerate() {
            out.push_str(&format!(
                "\"{}\"{}",
                component_slug(*c),
                if i + 1 < self.components.len() {
                    ", "
                } else {
                    ""
                }
            ));
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"runs_per_campaign\": {},\n", self.runs));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"campaigns\": {},\n", self.campaigns));
        out.push_str(&format!(
            "  \"golden_cache_off_secs\": {:.6},\n",
            self.off_secs
        ));
        out.push_str(&format!(
            "  \"golden_cache_on_secs\": {:.6},\n",
            self.on_secs
        ));
        out.push_str(&format!("  \"speedup\": {:.3},\n", self.speedup()));
        out.push_str(&format!("  \"identical_results\": {}\n", self.identical));
        out.push_str("}\n");
        out
    }

    /// Renders the report as an ASCII table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            &format!(
                "Golden-artifact cache sweep speedup — {} ({} campaigns x {} runs, snapshots on)",
                self.workload, self.campaigns, self.runs
            ),
            &["Metric", "Value"],
        );
        t.row(vec![
            "components".into(),
            self.components
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(", "),
        ]);
        t.row(vec![
            "cache off (s)".into(),
            format!("{:.3}", self.off_secs),
        ]);
        t.row(vec!["cache on (s)".into(), format!("{:.3}", self.on_secs)]);
        t.row(vec!["speedup".into(), factor(self.speedup())]);
        t.row(vec![
            "identical results".into(),
            if self.identical { "yes" } else { "NO" }.into(),
        ]);
        t
    }
}

impl Experiments {
    /// Benchmarks every component's campaign with snapshots off then on,
    /// cross-checking that both paths classify identically.
    pub fn snapbench(&self, workload: Workload) -> SnapbenchReport {
        let faults = 2;
        let mut rows = Vec::new();
        for c in HwComponent::ALL {
            if self.verbose {
                eprintln!("  snapbench {c}/{workload}: plain path");
            }
            let base = self.campaign_config(c, workload, faults);
            let t0 = Instant::now();
            let off = Campaign::new(base.clone().use_snapshots(false)).run();
            let off_secs = t0.elapsed().as_secs_f64();
            if self.verbose {
                eprintln!("  snapbench {c}/{workload}: snapshot fast path");
            }
            let t1 = Instant::now();
            let on = Campaign::new(base.use_snapshots(true)).run();
            let on_secs = t1.elapsed().as_secs_f64();
            let stats = on.snapshot_stats.unwrap_or_default();
            rows.push(SnapbenchRow {
                component: c,
                off_secs,
                on_secs,
                classified_runs: off.counts.total(),
                restores: stats.restores,
                early_masked: stats.early_masked,
                identical: off.counts == on.counts,
            });
        }
        SnapbenchReport {
            workload,
            runs: self.runs,
            faults,
            seed: self.seed,
            rows,
        }
    }

    /// Benchmarks a components × 1/2/3-bit sweep over one workload with the
    /// golden-artifact cache off vs on (snapshots enabled on both sides),
    /// cross-checking that every campaign result and fingerprint is
    /// bit-identical. Both sides are [`Experiments::run_sweep`] without a
    /// checkpoint file.
    ///
    /// Campaigns are capped at [`SWEEPBENCH_RUNS`] injections: the cache
    /// removes a *fixed* per-campaign cost (golden + snapshot-recording
    /// runs), so its wall-clock share — and this benchmark — is defined by
    /// the exploratory-sweep regime of short campaigns (resumes, adaptive
    /// early stopping, quick scans). At paper-scale run counts the same
    /// absolute savings still apply but vanish into injection time; the
    /// emitted JSON records the run count used.
    ///
    /// # Panics
    ///
    /// Panics if a campaign fails.
    pub fn sweepbench(&self, workload: Workload, components: &[HwComponent]) -> SweepbenchReport {
        let bench = Experiments {
            workloads: vec![workload],
            max_cardinality: 3,
            use_snapshots: true,
            runs: self.runs.min(SWEEPBENCH_RUNS),
            deadline: None,
            ..self.clone()
        };
        // Cache off: every campaign pays its own golden + recording run,
        // plus the sweep's one per-workload fingerprint golden run. Cache
        // on: one shared artifact build covers the golden run, the snapshot
        // store and the fingerprint for every campaign.
        let sweep = |use_golden_cache: bool| {
            if bench.verbose {
                let state = if use_golden_cache { "on" } else { "off" };
                eprintln!("  sweepbench {workload}: golden cache {state}");
            }
            let e = Experiments {
                use_golden_cache,
                ..bench.clone()
            };
            let mut store = ResultStore::new();
            let t = Instant::now();
            let report = e
                .run_sweep(components, &mut store, None)
                .expect("a sweep without a checkpoint file does no I/O");
            assert!(
                report.failed.is_empty(),
                "campaigns failed: {:?}",
                report.failed
            );
            (store, t.elapsed().as_secs_f64())
        };
        let (off, off_secs) = sweep(false);
        let (on, on_secs) = sweep(true);
        SweepbenchReport {
            workload,
            components: components.to_vec(),
            runs: bench.runs,
            seed: bench.seed,
            campaigns: off.len(),
            off_secs,
            on_secs,
            identical: off.iter().eq(on.iter()) && off.to_csv() == on.to_csv(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapbench_rows_cover_all_components_and_classify_identically() {
        let e = Experiments {
            runs: 6,
            workloads: vec![Workload::Stringsearch],
            ..Experiments::default()
        };
        let report = e.snapbench(Workload::Stringsearch);
        assert_eq!(report.rows.len(), HwComponent::ALL.len());
        assert!(report.all_identical(), "off/on classifications must match");
        assert!(report.max_speedup() > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"components\": ["));
        assert!(json.contains("\"l2\""));
        assert!(json.contains("\"all_identical\": true"));
        assert_eq!(report.table().len(), HwComponent::ALL.len());
    }

    #[test]
    fn sweepbench_produces_identical_results_and_renders() {
        let e = Experiments {
            runs: 6,
            workloads: vec![Workload::Stringsearch],
            ..Experiments::default()
        };
        let report = e.sweepbench(
            Workload::Stringsearch,
            &[HwComponent::RegFile, HwComponent::DTlb],
        );
        assert_eq!(report.campaigns, 6, "2 components x 3 cardinalities");
        assert!(
            report.identical,
            "cache on/off results must be bit-identical"
        );
        assert!(report.off_secs > 0.0 && report.on_secs > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"campaigns\": 6"));
        assert!(json.contains("\"identical_results\": true"));
        assert!(json.contains("\"regfile\", \"dtlb\""));
        assert_eq!(report.table().len(), 5);
    }
}
