//! The per-campaign fault source: the one place that knows how a
//! campaign's faults are drawn, and so how its unit space is sized and
//! split, how one unit runs, which shard-row flavour a unit writes and
//! the merge accepts, and how merged rows become a [`CampaignResult`].
//!
//! Every kind of campaign simulates a weighted list of faults against one
//! golden run:
//!
//! * [`FaultSource::Sampled`] — seed-derived injections of weight 1. The
//!   unit space is the campaign's runs; units are run ranges.
//! * [`FaultSource::Exhaustive`] — one representative per live
//!   equivalence class, weighted by its population, dead classes credited
//!   `Masked` exactly. The unit space is the plan's dense live-class
//!   order; units are class ranges.
//! * [`FaultSource::Stratified`] — class-weighted stratified sampling of
//!   the live classes. The sampler is indivisible, so the campaign is one
//!   `[0, 1)` unit whose row carries the achieved margin.
//!
//! A sweep is a list of `(campaign key, source)` pairs
//! ([`Experiments::sampled_campaigns`], [`Experiments::class_campaigns`])
//! run in process ([`Experiments::run_campaigns_with`]) or over the fabric
//! ([`crate::Supervisor::run_campaigns`]).

use crate::experiments::{Experiments, EXHAUSTIVE_COMPONENTS};
use crate::fabric::split_range;
use crate::protocol::EquivSpec;
use crate::store::{ExhaustiveMeta, Key, ShardExhaustive, ShardRow, ShardStratified};
use crate::supervisor::FabricConfig;
use mbu_cpu::HwComponent;
use mbu_gefin::campaign::{campaign_margin, AnomalyLog, Campaign, CampaignResult, UnitSpec};
use mbu_gefin::classify::{ClassCounts, FaultEffect};
use mbu_gefin::error::CampaignError;
use mbu_gefin::exhaustive::{ExhaustivePlan, ExhaustiveSpec};
use mbu_gefin::stats::Z_99;
use mbu_gefin::GoldenArtifacts;
use mbu_workloads::Workload;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// How one campaign's faults are drawn (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSource {
    /// Run ranges of seed-derived injections, weight 1 each.
    Sampled,
    /// Live-class ranges, each class weighted by its population.
    Exhaustive,
    /// One whole-campaign stratified-sampler unit carrying its margin.
    Stratified,
}

/// What planning found a campaign's unit space to be.
pub(crate) enum UnitSpace {
    /// This many units (runs, live classes, or the one stratified unit).
    Units(usize),
    /// Nothing to dispatch: every class is provably dead, so the campaign
    /// was resolved while planning.
    Resolved(Box<CampaignResult>, ExhaustiveMeta),
}

/// A unit's run hook, fired once per injection or class simulation.
pub(crate) type RunHook = Arc<dyn Fn(usize) + Send + Sync>;

/// A memoized build: a failure is kept too, so it costs one attempt.
type Memo<T> = Result<Arc<T>, CampaignError>;

/// A worker process's memo: golden artifacts per workload and compiled
/// [`ExhaustivePlan`]s per campaign, so the golden run, the liveness
/// capture and the partition are paid once and every later unit of the
/// campaign reuses them.
#[derive(Default)]
pub(crate) struct UnitCache {
    artifacts: BTreeMap<Workload, Memo<GoldenArtifacts>>,
    plans: BTreeMap<(HwComponent, Workload, ExhaustiveSpec), Memo<ExhaustivePlan>>,
}

impl FaultSource {
    /// The source of `component`'s campaign in an equivalence-class sweep:
    /// the small structures ([`EXHAUSTIVE_COMPONENTS`]) enumerate every
    /// live class, the big arrays sample stratified.
    pub(crate) fn for_class_campaign(component: HwComponent) -> Self {
        if EXHAUSTIVE_COMPONENTS.contains(&component) {
            Self::Exhaustive
        } else {
            Self::Stratified
        }
    }

    /// The source whose units write `row`'s flavour: no class columns
    /// (run range), class columns (class range), or class columns with
    /// the sampler annotation (stratified).
    pub(crate) fn of_row(row: &ShardRow) -> Self {
        match row.exhaustive {
            None => Self::Sampled,
            Some(ShardExhaustive {
                stratified: None, ..
            }) => Self::Exhaustive,
            Some(_) => Self::Stratified,
        }
    }

    /// The class spec a unit instruction carries on the wire (absent for
    /// sampled units), so a worker compiles exactly the supervisor's plan.
    pub(crate) fn wire(self, exp: &Experiments) -> Option<EquivSpec> {
        (self != Self::Sampled).then(|| EquivSpec {
            exhaustive: exp.exhaustive_spec(),
            stratified: (self == Self::Stratified).then(|| exp.stratified_spec()),
        })
    }

    /// Sizes the unit space of the campaign `key`. An exhaustive campaign
    /// compiles its plan here, so the partition is proved exact before
    /// anything is dispatched; one without a live class resolves at once.
    pub(crate) fn unit_space(
        self,
        exp: &Experiments,
        key: Key,
    ) -> Result<UnitSpace, CampaignError> {
        let (component, workload, _) = key;
        match self {
            Self::Sampled => Ok(UnitSpace::Units(exp.runs)),
            Self::Stratified => Ok(UnitSpace::Units(1)),
            Self::Exhaustive => {
                let plan = ExhaustivePlan::try_new(
                    exp.equiv_config(component, workload),
                    exp.exhaustive_spec(),
                )?;
                if plan.live_classes() > 0 {
                    return Ok(UnitSpace::Units(plan.live_classes()));
                }
                let r = plan.run(None)?;
                let meta = ExhaustiveMeta {
                    classes: r.simulated,
                    weight: r.coverage.population,
                };
                Ok(UnitSpace::Resolved(Box::new(r.campaign), meta))
            }
        }
    }

    /// Splits the gap `range` of the campaign `key` into work units of
    /// [`FabricConfig::unit_size`] over the gap's own length, so a resumed
    /// sweep's tail spreads across the workers like a fresh campaign does.
    /// Adaptive sampled campaigns go whole — early stopping depends on the
    /// global run order — and so does the indivisible stratified sampler.
    pub(crate) fn split(
        self,
        exp: &Experiments,
        config: &FabricConfig,
        key: Key,
        range: Range<usize>,
    ) -> Vec<UnitSpec> {
        let whole = match self {
            Self::Sampled => exp.adaptive.is_some(),
            Self::Exhaustive => false,
            Self::Stratified => true,
        };
        let size = if whole {
            0
        } else {
            config.unit_size(range.len())
        };
        split_range(key, range.start, range.end, size)
    }

    /// Runs the whole campaign `key` in process against the workload's
    /// shared golden artifacts: the result, plus — for class campaigns —
    /// its coverage metadata and the population mass it proved dead
    /// without simulation.
    pub(crate) fn run_campaign(
        self,
        exp: &Experiments,
        (component, workload, faults): Key,
        artifacts: &GoldenArtifacts,
    ) -> Result<(CampaignResult, Option<(ExhaustiveMeta, u64)>), CampaignError> {
        if self == Self::Sampled {
            let r = exp.try_campaign_with_artifacts(component, workload, faults, artifacts)?;
            return Ok((r, None));
        }
        let plan =
            ExhaustivePlan::try_new(exp.equiv_config(component, workload), exp.exhaustive_spec())?;
        let (campaign, classes, coverage) = if self == Self::Exhaustive {
            let r = plan.run(Some(artifacts))?;
            (r.campaign, r.simulated, r.coverage)
        } else {
            let r = plan.run_stratified(exp.stratified_spec(), Some(artifacts))?;
            (r.campaign, r.simulated, r.coverage)
        };
        let meta = ExhaustiveMeta {
            classes,
            weight: coverage.population,
        };
        Ok((campaign, Some((meta, coverage.dead_weight))))
    }

    /// Turns `cover` — a complete campaign's shard rows summed into one,
    /// spanning its whole unit space — into the campaign's result. Class
    /// campaigns credit the pruned dead mass `Masked` once and carry
    /// margin 0 (exhaustive) or the sampler's achieved margin
    /// (stratified), bit-exactly.
    pub(crate) fn finish(
        self,
        exp: &Experiments,
        cover: &ShardRow,
    ) -> (CampaignResult, Option<ExhaustiveMeta>) {
        let (component, workload, faults) = cover.unit.campaign_key();
        let mut result = CampaignResult {
            workload,
            component,
            faults,
            counts: cover.counts,
            fault_free_cycles: cover.fault_free_cycles,
            fault_free_instructions: cover.fault_free_instructions,
            details: None,
            anomalies: AnomalyLog::new(),
            oracle_skips: 0,
            achieved_margin: None,
            snapshot_stats: None,
        };
        let Some(ex) = cover.exhaustive.filter(|_| self != Self::Sampled) else {
            let z = exp.adaptive.as_ref().map_or(Z_99, |a| a.z);
            result.achieved_margin =
                campaign_margin(component, &cover.counts, cover.fault_free_cycles, z).ok();
            return (result, None);
        };
        result.counts = ex.weighted;
        result
            .counts
            .record_weighted(FaultEffect::Masked, ex.pruned);
        result.achieved_margin = Some(ex.stratified.map_or(0.0, |s| s.margin()));
        let meta = ExhaustiveMeta {
            // An exhaustive cover spans every live class; the stratified
            // row carries its memoized distinct-class count.
            classes: ex
                .stratified
                .map_or(cover.unit.len() as u64, |s| s.simulated),
            weight: ex.weight_total,
        };
        (result, Some(meta))
    }
}

impl UnitCache {
    fn artifacts(
        &mut self,
        exp: &Experiments,
        workload: Workload,
    ) -> Result<Arc<GoldenArtifacts>, CampaignError> {
        self.artifacts
            .entry(workload)
            .or_insert_with(|| exp.golden_artifacts(workload).map(Arc::new))
            .clone()
    }

    fn plan(
        &mut self,
        exp: &Experiments,
        unit: &UnitSpec,
        spec: ExhaustiveSpec,
        hook: &RunHook,
    ) -> Result<Arc<ExhaustivePlan>, CampaignError> {
        self.plans
            .entry((unit.component, unit.workload, spec))
            .or_insert_with(|| {
                let hook = Arc::clone(hook);
                let cfg = exp
                    .equiv_config(unit.component, unit.workload)
                    .with_run_hook(move |i| hook(i));
                ExhaustivePlan::try_new(cfg, spec).map(Arc::new)
            })
            .clone()
    }
}

/// Executes one assigned unit of any source — the source `equiv` names
/// on the wire — and returns the shard row to persist plus the campaign's
/// anomaly count. The row's flavour is [`FaultSource::of_row`]'s inverse:
/// run-range rows carry no class columns, class-range rows carry the
/// weighted counts and the campaign-wide population and pruned mass, and
/// the stratified row also carries the sampler's margin.
pub(crate) fn run_unit(
    exp: &Experiments,
    unit: &UnitSpec,
    equiv: Option<&EquivSpec>,
    cache: &mut UnitCache,
    hook: &RunHook,
) -> Result<(ShardRow, usize), CampaignError> {
    let shared = cache.artifacts(exp, unit.workload)?;
    let mut row = ShardRow {
        unit: *unit,
        seed: exp.seed,
        counts: ClassCounts::new(),
        fault_free_cycles: 0,
        fault_free_instructions: shared.instructions(),
        fingerprint: exp.artifact_fingerprint(&shared),
        exhaustive: None,
    };
    let Some(eq) = equiv else {
        let hook = Arc::clone(hook);
        let cfg = exp
            .campaign_config(unit.component, unit.workload, unit.faults)
            .with_run_hook(move |i| hook(i));
        let result = Campaign::try_new(cfg)?.try_run_range(unit.range(), &shared)?;
        // An adaptive campaign may stop early; the row covers exactly the
        // runs that were classified.
        row.unit.end = unit.start + result.counts.total() as usize;
        row.counts = result.counts;
        row.fault_free_cycles = result.fault_free_cycles;
        row.fault_free_instructions = result.fault_free_instructions;
        return Ok((row, result.anomalies.len()));
    };
    let plan = cache.plan(exp, unit, eq.exhaustive, hook)?;
    let cov = plan.coverage();
    let mut weighted = ClassCounts::new();
    let mut stratified = None;
    row.fault_free_cycles = plan.partition().total_cycles();
    match eq.stratified {
        None => {
            for o in plan.run_class_range(unit.range(), Some(&shared))? {
                row.counts.record(o.effect);
                weighted.record_weighted(o.effect, o.weight);
            }
        }
        Some(spec) => {
            let r = plan.run_stratified(spec, Some(&shared))?;
            // The dead stratum is re-credited at merge from `pruned`; the
            // row's weighted counts carry only the scaled live mass.
            weighted = r.campaign.counts;
            weighted.masked -= cov.dead_weight;
            row.unit = UnitSpec {
                start: 0,
                end: 1,
                ..*unit
            };
            row.counts.record(FaultEffect::Masked);
            row.fault_free_cycles = r.campaign.fault_free_cycles;
            row.fault_free_instructions = r.campaign.fault_free_instructions;
            stratified = Some(ShardStratified {
                margin_bits: r.campaign.achieved_margin.unwrap_or(0.0).to_bits(),
                simulated: r.simulated,
            });
        }
    }
    row.exhaustive = Some(ShardExhaustive {
        weighted,
        weight_total: cov.population,
        pruned: cov.dead_weight,
        stratified,
    });
    Ok((row, 0))
}
