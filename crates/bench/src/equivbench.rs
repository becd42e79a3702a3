//! `repro equivbench` — run-count economics of equivalence-class
//! campaigns vs the paper's uniform 2 000-run sampling, emitted as
//! `BENCH_equiv.json`.
//!
//! Each [`EquivbenchRow`] compiles one structure's fault-equivalence
//! partition and runs the class-weighted stratified campaign to the
//! paper's 2.88 % @ 99 % target margin, recording how many *distinct
//! simulations* that took. The baseline is the paper's uniform protocol —
//! 2 000 independent runs, whose worst-case (p = 0.5) margin over the same
//! fault population is **computed** from the finite-population margin
//! formula, not re-run: the formula is exactly what sizes those campaigns
//! in the first place (Leveugle et al.), so running 2 000 injections would
//! only reproduce the number with sampling noise on top.
//!
//! The reduction factor is `baseline_runs / distinct_sims` at
//! equal-or-better margin. It is largest where the live fraction λ of the
//! fault space is small (the big data arrays): the dead stratum is proved
//! `Masked` outright, and the whole-population margin of the live stratum
//! scales by λ, so a handful of draws certifies what uniform sampling
//! needs thousands of runs for. The per-row class census (`live_classes`
//! vs `population`) also records what a *full* exhaustive enumeration
//! would cost — the `repro exhaustive` mode's price for margin exactly 0.

use crate::experiments::Experiments;
use crate::store::component_slug;
use crate::supervisor::{FabricConfig, Supervisor, SweepOptions, WorkerPool};
use mbu_cpu::HwComponent;
use mbu_gefin::report::{factor, pct, Table};
use mbu_gefin::stats::{error_margin, Z_99};
use mbu_gefin::ExhaustivePlan;
use mbu_workloads::Workload;
use std::time::Instant;

/// Runs of the uniform-sampling baseline the reduction is quoted against
/// (the paper's campaign size: 2 000 ⇒ 2.88 % at 99 % confidence).
pub const BASELINE_RUNS: u64 = 2000;

/// One structure's stratified-campaign economics.
#[derive(Debug, Clone)]
pub struct EquivbenchRow {
    /// The injected structure.
    pub component: HwComponent,
    /// Fault population (bits × cycles) of the structure.
    pub population: u64,
    /// Live equivalence classes (a full exhaustive enumeration's cost).
    pub live_classes: u64,
    /// Population mass of the live classes (λ = live_weight/population).
    pub live_weight: u64,
    /// Weight-proportional tickets drawn from the live stratum.
    pub draws: u64,
    /// Distinct classes simulated (memoized draws — the actual run cost).
    pub simulated: u64,
    /// Whole-population AVF of the stratified result.
    pub avf: f64,
    /// Achieved whole-population margin at stop.
    pub achieved_margin: f64,
    /// Computed margin of [`BASELINE_RUNS`] uniform runs over the same
    /// population at worst-case p = 0.5 (99 % confidence).
    pub baseline_margin: f64,
    /// Campaign wall-clock (partition + simulations), seconds.
    pub wall_secs: f64,
}

impl EquivbenchRow {
    /// Live fraction of the fault population.
    pub fn live_fraction(&self) -> f64 {
        self.live_weight as f64 / (self.population.max(1)) as f64
    }

    /// Run-count reduction vs the uniform baseline.
    pub fn reduction(&self, baseline_runs: u64) -> f64 {
        baseline_runs as f64 / self.simulated.max(1) as f64
    }

    /// Whether the stratified margin is equal-or-better than the baseline.
    pub fn at_margin(&self) -> bool {
        self.achieved_margin <= self.baseline_margin + 1e-9
    }
}

/// Distributed class-range scaling of one real exhaustive campaign
/// (`repro equivbench --workers N`): the same sweep through the fabric
/// with one worker and with `workers`, every worker single-threaded so
/// the ratio measures process scaling, not thread scaling. Wall-clock
/// scaling needs at least `workers` cores — `cores` records what this
/// machine actually had, so a ~1× ratio on a small box is attributable.
#[derive(Debug, Clone)]
pub struct FabricBench {
    /// The exhaustively-enumerated structure.
    pub component: HwComponent,
    /// The benchmarked workload.
    pub workload: Workload,
    /// Live classes the campaign simulates (per worker count, identical).
    pub live_classes: u64,
    /// Cores available to the benchmark process.
    pub cores: usize,
    /// Worker count of the scaled run.
    pub workers: usize,
    /// Wall-clock of the 1-worker sweep, seconds.
    pub secs_one: f64,
    /// Wall-clock of the `workers`-worker sweep, seconds.
    pub secs_many: f64,
    /// Whether the two merged exhaustive stores were byte-identical.
    pub bit_identical: bool,
}

impl FabricBench {
    /// Wall-clock speedup of `workers` workers over one.
    pub fn speedup(&self) -> f64 {
        self.secs_one / self.secs_many.max(1e-9)
    }
}

/// The full stratified sweep over the benchmarked components.
#[derive(Debug, Clone)]
pub struct EquivbenchReport {
    /// The benchmarked workload.
    pub workload: Workload,
    /// Campaign seed (ticket stream).
    pub seed: u64,
    /// Uniform-baseline campaign size.
    pub baseline_runs: u64,
    /// Stop target of the stratified sampler.
    pub target_margin: f64,
    /// One row per component.
    pub rows: Vec<EquivbenchRow>,
    /// Distributed scaling section (`--workers N`), absent by default.
    pub fabric: Option<FabricBench>,
}

impl EquivbenchReport {
    /// The best reduction among rows meeting the baseline margin.
    pub fn headline_reduction(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.at_margin())
            .map(|r| r.reduction(self.baseline_runs))
            .fold(0.0, f64::max)
    }

    /// Whether every row met the baseline margin.
    pub fn all_at_margin(&self) -> bool {
        self.rows.iter().all(EquivbenchRow::at_margin)
    }

    /// Renders the report as the `BENCH_equiv.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"workload\": \"{}\",\n", self.workload.name()));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"baseline_runs\": {},\n", self.baseline_runs));
        out.push_str(&format!(
            "  \"target_margin\": {:.6},\n",
            self.target_margin
        ));
        out.push_str("  \"components\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"component\": \"{}\", \"population\": {}, \"live_classes\": {}, \
                 \"live_weight\": {}, \"live_fraction\": {:.6}, \"draws\": {}, \
                 \"distinct_sims\": {}, \"avf\": {:.6}, \"achieved_margin\": {:.6}, \
                 \"baseline_margin\": {:.6}, \"reduction\": {:.3}, \"at_margin\": {}, \
                 \"wall_secs\": {:.6}}}{}\n",
                component_slug(r.component),
                r.population,
                r.live_classes,
                r.live_weight,
                r.live_fraction(),
                r.draws,
                r.simulated,
                r.avf,
                r.achieved_margin,
                r.baseline_margin,
                r.reduction(self.baseline_runs),
                r.at_margin(),
                r.wall_secs,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        if let Some(f) = &self.fabric {
            out.push_str(&format!(
                "  \"fabric\": {{\"component\": \"{}\", \"workload\": \"{}\", \
                 \"live_classes\": {}, \"cores\": {}, \"workers\": {}, \
                 \"secs_one_worker\": {:.3}, \"secs_n_workers\": {:.3}, \
                 \"speedup\": {:.3}, \"bit_identical\": {}}},\n",
                component_slug(f.component),
                f.workload.name(),
                f.live_classes,
                f.cores,
                f.workers,
                f.secs_one,
                f.secs_many,
                f.speedup(),
                f.bit_identical,
            ));
        }
        out.push_str(&format!(
            "  \"headline_reduction\": {:.3},\n",
            self.headline_reduction()
        ));
        out.push_str(&format!("  \"all_at_margin\": {}\n", self.all_at_margin()));
        out.push_str("}\n");
        out
    }

    /// Renders the report as an ASCII table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            &format!(
                "Equivalence-class run-count reduction — {} (baseline {} uniform runs)",
                self.workload, self.baseline_runs
            ),
            &[
                "Component",
                "Population",
                "Live classes",
                "Live %",
                "Sims",
                "AVF",
                "Margin",
                "Baseline",
                "Reduction",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.component.to_string(),
                r.population.to_string(),
                r.live_classes.to_string(),
                pct(r.live_fraction()),
                r.simulated.to_string(),
                pct(r.avf),
                pct(r.achieved_margin),
                pct(r.baseline_margin),
                factor(r.reduction(self.baseline_runs)),
            ]);
        }
        t
    }
}

impl Experiments {
    /// Benchmarks the class-weighted stratified campaign of every listed
    /// component against the computed uniform 2 000-run baseline margin.
    pub fn equivbench(&self, workload: Workload, components: &[HwComponent]) -> EquivbenchReport {
        let spec = self.stratified_spec();
        let mut rows = Vec::new();
        for &c in components {
            if self.verbose {
                eprintln!("  equivbench {c}/{workload}: partition + stratified campaign");
            }
            let t0 = Instant::now();
            let plan =
                ExhaustivePlan::try_new(self.equiv_config(c, workload), self.exhaustive_spec())
                    .expect("single-bit data-array stratified campaign must compile");
            let cov = plan.coverage();
            let r = plan
                .run_stratified(spec, None)
                .expect("stratified campaign must run");
            let wall_secs = t0.elapsed().as_secs_f64();
            let baseline_margin =
                error_margin(cov.population, BASELINE_RUNS.min(cov.population), Z_99, 0.5)
                    .expect("baseline margin over a nonempty population");
            rows.push(EquivbenchRow {
                component: c,
                population: cov.population,
                live_classes: cov.live_classes,
                live_weight: cov.live_weight,
                draws: r.draws,
                simulated: r.simulated,
                avf: r.campaign.avf(),
                achieved_margin: r.campaign.achieved_margin.unwrap_or(f64::NAN),
                baseline_margin,
                wall_secs,
            });
        }
        EquivbenchReport {
            workload,
            seed: spec.seed,
            baseline_runs: BASELINE_RUNS,
            target_margin: spec.target_margin,
            rows,
            fabric: None,
        }
    }

    /// Benchmarks distributed class-range scaling of one real exhaustive
    /// campaign: the full sweep through the fabric with one worker, then
    /// with `workers`, every worker pinned to a single thread so the
    /// ratio measures process scaling. Also checks the two merged stores
    /// byte for byte — the fabric's core promise.
    ///
    /// # Errors
    ///
    /// A degraded sweep (quarantined units, coverage gaps) or I/O failure
    /// as a string, per the `repro` binary's error convention.
    pub fn equivbench_fabric(
        &self,
        workload: Workload,
        component: HwComponent,
        workers: usize,
    ) -> Result<FabricBench, String> {
        let mut exp = self.clone();
        exp.workloads = vec![workload];
        exp.threads = 1;
        let base =
            std::env::temp_dir().join(format!("mbu-equivbench-fabric-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let mut csvs = Vec::new();
        let mut secs = Vec::new();
        let mut live_classes = 0;
        for (tag, n) in [("one", 1), ("many", workers)] {
            let dir = base.join(tag);
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            let config = FabricConfig {
                workers: n,
                ..FabricConfig::default()
            };
            let out_csv = dir.join("exhaustive.csv");
            let t0 = Instant::now();
            let (store, report) = Supervisor::run_equiv(
                &exp,
                &[component],
                &[],
                &config,
                &dir.join("shards"),
                &out_csv,
                WorkerPool::Spawn,
                SweepOptions::default(),
            )
            .map_err(|e| e.to_string())?;
            if !report.is_clean() {
                return Err(format!(
                    "fabric bench sweep with {n} worker(s) completed degraded \
                     (quarantined units or coverage gaps)"
                ));
            }
            secs.push(t0.elapsed().as_secs_f64());
            live_classes = store
                .exhaustive_meta(component, workload, 1)
                .map_or(0, |m| m.classes);
            csvs.push(std::fs::read_to_string(&out_csv).map_err(|e| e.to_string())?);
        }
        let bench = FabricBench {
            component,
            workload,
            live_classes,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers,
            secs_one: secs[0],
            secs_many: secs[1],
            bit_identical: !csvs[0].is_empty() && csvs[0] == csvs[1],
        };
        let _ = std::fs::remove_dir_all(&base);
        Ok(bench)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivbench_l2_meets_baseline_margin_with_fewer_sims() {
        let e = Experiments {
            workloads: vec![Workload::Stringsearch],
            ..Experiments::default()
        };
        let report = e.equivbench(Workload::Stringsearch, &[HwComponent::L2]);
        assert_eq!(report.rows.len(), 1);
        let r = &report.rows[0];
        assert!(r.population > 0 && r.live_classes > 0);
        assert!(r.live_weight < r.population, "L2 is mostly idle");
        assert!(r.simulated <= r.draws);
        // The mostly-dead stratum makes the λ-scaled margin beat even the
        // baseline's best case long before 2 000 simulations.
        assert!(
            r.at_margin(),
            "margin {} vs {}",
            r.achieved_margin,
            r.baseline_margin
        );
        assert!(
            report.headline_reduction() >= 5.0,
            "reduction {}",
            report.headline_reduction()
        );
        let json = report.to_json();
        assert!(json.contains("\"baseline_runs\": 2000"));
        assert!(json.contains("\"at_margin\": true"));
        assert!(json.contains("\"headline_reduction\""));
        assert_eq!(report.table().len(), 1);
    }
}
