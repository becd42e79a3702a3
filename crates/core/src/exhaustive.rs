//! Exhaustive and stratified campaigns over fault-equivalence classes.
//!
//! The sampled campaign ([`crate::campaign::Campaign`]) draws (bit, cycle)
//! fault sites uniformly and reports a statistical margin. This module
//! replaces the draw with the `mbu-equiv` partition of the same fault
//! space:
//!
//! * **Exhaustive mode** ([`ExhaustivePlan::run`]) simulates *one
//!   representative per live equivalence class*, credits each outcome with
//!   the class weight, and credits every provably-dead class as `Masked`
//!   without simulation. The resulting [`CampaignResult`] covers 100% of
//!   the `bits × cycles` population — `achieved_margin` is exactly 0 — and
//!   flows through the same FIT/figure pipeline as any sampled campaign.
//!   Tractable for the small structures (ITLB/DTLB, register file); the
//!   live-class census is capped by [`ExhaustiveSpec::max_classes`].
//! * **Stratified mode** ([`ExhaustivePlan::run_stratified`]) keeps the
//!   dead stratum exact but *samples* the live stratum proportionally to
//!   class weight (live-interval mass), memoizing per-class outcomes: the
//!   achieved margin shrinks by the live-mass fraction λ (see
//!   [`crate::stats::stratified_margin`]), so big arrays reach the paper's
//!   margin with far fewer simulations than uniform 2 000-run sampling.
//!
//! Soundness of the weight-multiply rests on class-member invariance: the
//! pre-injection prefix is golden either way and the flipped bit is not
//! consulted before the class-terminating event, so *any* member produces
//! the identical effect and run length. That freedom also powers the
//! snapshot alignment: when a checkpoint cycle falls inside a class's
//! span, the representative moves onto it and the fast-forward restore
//! lands exactly on the injection point.
//!
//! Class simulations run on the sampled campaign's injection executor
//! ([`Campaign`]): the same thread pool, panic isolation and golden
//! reference; only the mapping from a position to a fault site differs.

use crate::campaign::{Campaign, CampaignConfig, CampaignResult, FaultSite, InjectionTarget};
use crate::classify::{ClassCounts, FaultEffect};
use crate::error::CampaignError;
use crate::golden::GoldenArtifacts;
use crate::stats;
use mbu_ace::{capture_component_segments, interleave_of};
use mbu_equiv::{physical_coord, CoverageReport, FaultClass, LiveIndex, Partition};
use std::collections::HashMap;

/// Default cap on live (must-simulate) classes — past this an exhaustive
/// campaign is refused as intractable ([`CampaignError::ClassCapExceeded`]).
/// Each live class costs one simulation, so the cap bounds run time; the
/// plan's own memory scales with access events, not live classes.
pub const DEFAULT_MAX_CLASSES: u64 = 4_000_000;

/// Knobs of the equivalence-class engine, on top of a [`CampaignConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ExhaustiveSpec {
    /// Representative-picker seed (`0` = class midpoint; any other value
    /// spreads picks deterministically per class). Class-member invariance
    /// makes the results identical for every seed — the differential suite
    /// varies it to prove exactly that.
    pub rep_seed: u64,
    /// Refuse exhaustive campaigns whose live-class census exceeds this
    /// (`MBU_EXHAUSTIVE_MAX_CLASSES`).
    pub max_classes: u64,
    /// Move each representative onto a golden checkpoint cycle when one
    /// falls inside the class span, minimizing the simulated suffix. Only
    /// effective with snapshots enabled; sound by class-member invariance.
    pub snap_align: bool,
}

impl Default for ExhaustiveSpec {
    fn default() -> Self {
        Self {
            rep_seed: 0,
            max_classes: DEFAULT_MAX_CLASSES,
            snap_align: true,
        }
    }
}

/// Stopping rule for the class-weighted stratified sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StratifiedSpec {
    /// Stop once the whole-population margin is at or below this.
    pub target_margin: f64,
    /// Confidence z-score used in the margin.
    pub z: f64,
    /// Minimum draws before the margin check (guards tiny-sample noise).
    pub min_draws: u64,
    /// Draws per batch between margin checks.
    pub batch: u64,
    /// Hard ceiling on draws (the sampler never exceeds the live mass).
    pub max_draws: u64,
    /// Ticket-stream seed; same seed ⇒ same draws ⇒ same results.
    pub seed: u64,
}

impl StratifiedSpec {
    /// The paper's sampling plan (±2.88% at 99% confidence) as a
    /// stratified stopping rule.
    pub fn paper() -> Self {
        Self {
            target_margin: 0.0288,
            z: stats::Z_99,
            min_draws: 100,
            batch: 100,
            max_draws: 2_000_000,
            seed: 0x6EF1_2019,
        }
    }

    fn validate(&self) -> Result<(), CampaignError> {
        if !(self.target_margin > 0.0 && self.target_margin < 1.0) {
            return Err(CampaignError::InvalidAdaptiveSpec {
                reason: "stratified target margin must be in (0, 1)",
            });
        }
        if self.min_draws == 0 || self.batch == 0 || self.max_draws < self.min_draws {
            return Err(CampaignError::InvalidAdaptiveSpec {
                reason: "stratified draw counts must be positive with max ≥ min",
            });
        }
        Ok(())
    }
}

/// One simulated class representative's outcome. `weight` members share it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassOutcome {
    /// Dense partition class id.
    pub class_id: u64,
    /// The member cycle actually injected.
    pub inject_cycle: u64,
    /// Members of the class (cycles).
    pub weight: u64,
    /// The class's (shared) classification.
    pub effect: FaultEffect,
    /// The class's (shared) run length.
    pub cycles: u64,
}

/// A full-coverage exhaustive campaign result.
#[derive(Debug, Clone)]
pub struct ExhaustiveResult {
    /// Weighted counts over the whole population (margin exactly 0),
    /// interchangeable with a sampled result in the FIT/figure pipeline.
    pub campaign: CampaignResult,
    /// The partition's exactness proof.
    pub coverage: CoverageReport,
    /// Live classes simulated (one run each).
    pub simulated: u64,
    /// Dead classes credited `Masked` without simulation.
    pub pruned_classes: u64,
    /// Population mass of the pruned classes.
    pub pruned_weight: u64,
    /// Unweighted per-class outcome counts of the simulated classes
    /// (`total() == simulated`; the shard-row invariant).
    pub class_counts: ClassCounts,
}

/// A class-weighted stratified campaign result.
#[derive(Debug, Clone)]
pub struct StratifiedResult {
    /// Population-scaled counts; `achieved_margin` is the stratified
    /// whole-population margin at stop.
    pub campaign: CampaignResult,
    /// The partition's exactness proof (the dead stratum is exact).
    pub coverage: CoverageReport,
    /// Weight-proportional draws taken from the live stratum.
    pub draws: u64,
    /// Distinct classes simulated (memoized; the actual run cost).
    pub simulated: u64,
}

/// A compiled exhaustive campaign: validated configuration + the
/// structure's fault-equivalence partition.
#[derive(Debug, Clone)]
pub struct ExhaustivePlan {
    campaign: Campaign,
    spec: ExhaustiveSpec,
    partition: Partition,
    interleave: usize,
    live: LiveIndex,
    coverage: CoverageReport,
}

impl ExhaustivePlan {
    /// Validates the configuration, captures the segment-recording golden
    /// run and compiles the partition.
    ///
    /// # Errors
    ///
    /// [`CampaignError::ExhaustiveUnsupported`] for multi-bit, tag-array
    /// or adaptive configurations; [`CampaignError::PartitionFailed`] when
    /// the observation run fails or the partition is not exact;
    /// [`CampaignError::ClassCapExceeded`] past
    /// [`ExhaustiveSpec::max_classes`].
    pub fn try_new(config: CampaignConfig, spec: ExhaustiveSpec) -> Result<Self, CampaignError> {
        if config.faults != 1 {
            return Err(CampaignError::ExhaustiveUnsupported {
                reason: "equivalence classes are defined per single bit (faults must be 1)",
            });
        }
        if config.target != InjectionTarget::DataArray {
            return Err(CampaignError::ExhaustiveUnsupported {
                reason: "segment capture probes the data array only",
            });
        }
        if config.adaptive.is_some() {
            return Err(CampaignError::ExhaustiveUnsupported {
                reason: "exhaustive campaigns enumerate classes, they are never adaptive",
            });
        }
        let campaign = Campaign::try_new(config)?;
        let cfg = campaign.config();
        let partition =
            capture_component_segments(cfg.core, cfg.workload.shared_program(), cfg.component)
                .map_err(|e| format!("segment capture failed: {e}"))
                .and_then(|(residency, _)| {
                    Partition::from_residency(&residency).map_err(|e| e.to_string())
                })
                .map_err(|reason| CampaignError::PartitionFailed { reason })?;
        let coverage = partition.coverage();
        if !coverage.exact() {
            return Err(CampaignError::PartitionFailed {
                reason: format!(
                    "partition is not exact ({} hole cycles, {} overlap cycles)",
                    coverage.holes, coverage.overlaps
                ),
            });
        }
        if coverage.live_classes > spec.max_classes {
            return Err(CampaignError::ClassCapExceeded {
                classes: coverage.live_classes,
                cap: spec.max_classes,
            });
        }
        let interleave = interleave_of(&cfg.core, cfg.component);
        let live = partition.live_index();
        Ok(Self {
            campaign,
            spec,
            partition,
            interleave,
            live,
            coverage,
        })
    }

    /// The underlying (validated) campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        self.campaign.config()
    }

    /// The partition's exactness proof.
    pub fn coverage(&self) -> CoverageReport {
        self.coverage
    }

    /// Live (must-simulate) classes.
    pub fn live_classes(&self) -> usize {
        self.live.len()
    }

    /// The compiled partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The live class at position `index` of the plan's dense live order
    /// (the unit space the fabric shards over).
    ///
    /// # Panics
    ///
    /// Panics when `index ≥ live_classes()`.
    pub fn live_class(&self, index: usize) -> FaultClass {
        self.live
            .id(index)
            .and_then(|id| self.partition.class(id))
            .expect("live position within the plan")
    }

    /// The member cycle the plan injects for `class`: the representative
    /// pick, snapped onto an in-span golden checkpoint when
    /// [`ExhaustiveSpec::snap_align`] is on and the artifacts carry a
    /// store (sound either way by class-member invariance).
    fn member_cycle(&self, class: &FaultClass, artifacts: &GoldenArtifacts) -> u64 {
        if self.spec.snap_align && self.campaign.config().use_snapshots {
            if let Some(store) = artifacts.snapshot_store() {
                if let Some(cycle) = store.nearest_cycle_in(class.start, class.end) {
                    return cycle;
                }
            }
        }
        class.representative(self.spec.rep_seed)
    }

    /// Builds (or validates) the golden artifacts for this plan.
    fn artifacts<'a>(
        &self,
        artifacts: Option<&'a GoldenArtifacts>,
        owned: &'a mut Option<GoldenArtifacts>,
    ) -> Result<&'a GoldenArtifacts, CampaignError> {
        match artifacts {
            Some(a) => {
                self.campaign.validate_artifacts(a)?;
                Ok(a)
            }
            None => {
                *owned = Some(self.campaign.build_artifacts()?);
                Ok(owned.as_ref().expect("just built"))
            }
        }
    }

    /// Execution order for the range's live positions: ascending member
    /// (injection) cycle when snapshot alignment is active — consecutive
    /// sims then restore the same or neighbouring checkpoints instead of
    /// cold-seeking across the store — plain range order otherwise. Pure
    /// scheduling: every class sim is independent and deterministic and
    /// [`ExhaustivePlan::run_class_range`] re-sorts outcomes by class id,
    /// so the order cannot change results.
    fn locality_order(
        &self,
        range: &std::ops::Range<usize>,
        artifacts: &GoldenArtifacts,
    ) -> Vec<usize> {
        let mut order: Vec<usize> = range.clone().collect();
        if self.spec.snap_align
            && self.campaign.config().use_snapshots
            && artifacts.snapshot_store().is_some()
        {
            order.sort_by_cached_key(|&i| {
                let class = self.live_class(i);
                (self.member_cycle(&class, artifacts), i)
            });
        }
        order
    }

    /// Simulates the live classes `range` (positions in the dense live
    /// order), one representative each, in parallel, scheduled in
    /// snapshot-locality order: ascending injection cycle when snapshot
    /// alignment is on, so consecutive sims resume from neighbouring
    /// checkpoints.
    /// Outcomes come back sorted by class id and are bit-identical for any
    /// thread count, representative seed, and snapshots on or off — the
    /// shard primitive behind distributed exhaustive sweeps. The
    /// campaign's per-run hook (when set) fires once per class sim with
    /// the live position index, so fabric workers get heartbeat progress
    /// and chaos injection at class granularity.
    ///
    /// # Errors
    ///
    /// [`CampaignError::InvalidClassRange`] for an empty or out-of-bounds
    /// range; artifact and golden-run errors as in the sampled path.
    pub fn run_class_range(
        &self,
        range: std::ops::Range<usize>,
        artifacts: Option<&GoldenArtifacts>,
    ) -> Result<Vec<ClassOutcome>, CampaignError> {
        if range.start >= range.end || range.end > self.live.len() {
            return Err(CampaignError::InvalidClassRange {
                start: range.start,
                end: range.end,
                classes: self.live.len(),
            });
        }
        let mut owned = None;
        let artifacts = self.artifacts(artifacts, &mut owned)?;
        let order = self.locality_order(&range, artifacts);
        let mut outcomes = self.simulate(artifacts, &order, |i| {
            let class = self.live_class(i);
            (class, self.member_cycle(&class, artifacts))
        })?;
        outcomes.sort_by_key(|o| o.class_id);
        Ok(outcomes)
    }

    /// Simulates the class member `member(p)` — a class and the cycle to
    /// inject its bit at — for each position `p` of `positions`, on the
    /// campaign's injection executor; outcomes come back in `positions`
    /// order. The run hook fires with each position. Class simulations
    /// run without a wall-clock budget, so an exact AVF never depends on
    /// host speed; one that panics, hook included, classifies its class
    /// `Assert` with 0 cycles, like a panicking sampled run.
    fn simulate(
        &self,
        artifacts: &GoldenArtifacts,
        positions: &[usize],
        member: impl Fn(usize) -> (FaultClass, u64) + Sync,
    ) -> Result<Vec<ClassOutcome>, CampaignError> {
        let runs = self.campaign.simulate(artifacts, positions, None, |p| {
            let (class, inject_at) = member(p);
            FaultSite {
                inject_at,
                coords: vec![physical_coord(class.row, class.col, self.interleave)],
                dead: false,
            }
        })?;
        let outcomes = positions.iter().zip(runs).map(|(&p, run)| {
            let (class, inject_cycle) = member(p);
            let (effect, cycles) = run.map_or((FaultEffect::Assert, 0), |r| (r.effect, r.cycles));
            ClassOutcome {
                class_id: class.id,
                inject_cycle,
                weight: class.weight(),
                effect,
                cycles,
            }
        });
        Ok(outcomes.collect())
    }

    /// Simulates one *specific member* of a class — the brute-force
    /// primitive the differential suite uses to enumerate whole classes
    /// and prove member invariance against the representative pick. The
    /// run hook fires with position 0.
    ///
    /// # Errors
    ///
    /// Artifact and golden-run errors as in the sampled path.
    ///
    /// # Panics
    ///
    /// Panics when `inject_cycle` is outside the class's member span.
    pub fn probe_member(
        &self,
        class: &FaultClass,
        inject_cycle: u64,
        artifacts: Option<&GoldenArtifacts>,
    ) -> Result<ClassOutcome, CampaignError> {
        assert!(
            (class.start..=class.end).contains(&inject_cycle),
            "cycle {inject_cycle} is not a member of class {} ({}..={})",
            class.id,
            class.start,
            class.end
        );
        let mut owned = None;
        let artifacts = self.artifacts(artifacts, &mut owned)?;
        let outcomes = self.simulate(artifacts, &[0], |_| (*class, inject_cycle))?;
        Ok(outcomes[0])
    }

    /// Folds per-class outcomes (every live class exactly once, in any
    /// order) plus the pruned dead mass into a full-coverage
    /// [`ExhaustiveResult`].
    ///
    /// # Errors
    ///
    /// [`CampaignError::IncompleteClassCover`] unless the outcomes cover
    /// the live classes exactly.
    pub fn finalize(
        &self,
        outcomes: &[ClassOutcome],
        fault_free_instructions: u64,
    ) -> Result<ExhaustiveResult, CampaignError> {
        let mut seen: Vec<u64> = outcomes.iter().map(|o| o.class_id).collect();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != outcomes.len() || !seen.iter().copied().eq(self.live.ids()) {
            let missing = self
                .live
                .ids()
                .filter(|id| seen.binary_search(id).is_err())
                .count() as u64
                + (outcomes.len() - seen.len()) as u64;
            return Err(CampaignError::IncompleteClassCover {
                missing: missing.max(1),
            });
        }
        let mut weighted = ClassCounts::new();
        let mut class_counts = ClassCounts::new();
        let pruned_weight = self.coverage.dead_weight;
        weighted.record_weighted(FaultEffect::Masked, pruned_weight);
        for o in outcomes {
            weighted.record_weighted(o.effect, o.weight);
            class_counts.record(o.effect);
        }
        debug_assert_eq!(weighted.total(), self.coverage.population);
        let cfg = self.campaign.config();
        let campaign = CampaignResult {
            workload: cfg.workload,
            component: cfg.component,
            faults: cfg.faults,
            counts: weighted,
            fault_free_cycles: self.partition.total_cycles(),
            fault_free_instructions,
            details: None,
            anomalies: crate::campaign::AnomalyLog::new(),
            oracle_skips: self.coverage.dead_classes,
            achieved_margin: Some(0.0),
            snapshot_stats: None,
        };
        Ok(ExhaustiveResult {
            campaign,
            coverage: self.coverage,
            simulated: outcomes.len() as u64,
            pruned_classes: self.coverage.dead_classes,
            pruned_weight,
            class_counts,
        })
    }

    /// Runs the whole exhaustive campaign: every live class simulated
    /// once, every dead class pruned, 100% coverage, margin 0.
    pub fn run(
        &self,
        artifacts: Option<&GoldenArtifacts>,
    ) -> Result<ExhaustiveResult, CampaignError> {
        let mut owned = None;
        let artifacts = self.artifacts(artifacts, &mut owned)?;
        let outcomes = if self.live.is_empty() {
            Vec::new()
        } else {
            self.run_class_range(0..self.live.len(), Some(artifacts))?
        };
        self.finalize(&outcomes, artifacts.instructions())
    }

    /// Runs the class-weighted stratified sampler: the dead stratum is
    /// exact, the live stratum is sampled proportionally to class weight
    /// with per-class memoization, and sampling stops once the
    /// whole-population margin meets [`StratifiedSpec::target_margin`]
    /// (or the draw ceiling is hit). Deterministic for a given spec seed
    /// regardless of thread count.
    pub fn run_stratified(
        &self,
        spec: StratifiedSpec,
        artifacts: Option<&GoldenArtifacts>,
    ) -> Result<StratifiedResult, CampaignError> {
        spec.validate()?;
        let mut owned = None;
        let artifacts = self.artifacts(artifacts, &mut owned)?;
        let cfg = self.campaign.config();
        let population = self.coverage.population;
        let live_weight = self.coverage.live_weight;
        let mut draw_counts = ClassCounts::new();
        let mut memo: HashMap<u64, FaultEffect> = HashMap::new();
        let mut draws = 0u64;
        let mut margin = 0.0;
        if live_weight > 0 {
            let mut rng = Xorshift64(spec.seed | 1);
            let draw_cap = spec.max_draws.min(live_weight);
            'sampling: loop {
                let batch_end = (draws + spec.batch).min(draw_cap);
                let tickets: Vec<u64> =
                    (draws..batch_end).map(|_| rng.below(live_weight)).collect();
                let ids: Vec<u64> = tickets
                    .iter()
                    .map(|&t| self.live.pick(t).expect("ticket below total weight"))
                    .collect();
                // Simulate the batch's *unseen* classes in parallel, then
                // fold the draws sequentially — deterministic either way.
                let mut fresh: Vec<u64> = ids
                    .iter()
                    .copied()
                    .filter(|id| !memo.contains_key(id))
                    .collect();
                fresh.sort_unstable();
                fresh.dedup();
                let positions: Vec<usize> = (0..fresh.len()).collect();
                let outcomes = self.simulate(artifacts, &positions, |k| {
                    let class = self.partition.class(fresh[k]).expect("live id");
                    (class, self.member_cycle(&class, artifacts))
                })?;
                for o in outcomes {
                    memo.insert(o.class_id, o.effect);
                }
                for id in ids {
                    draw_counts.record(memo[&id]);
                    draws += 1;
                }
                // Measured unmasked fraction of the live stratum, clamped
                // like the sampled path's margin readjustment.
                let p = draw_counts.avf().clamp(0.01, 0.99);
                margin = stats::stratified_margin(population, live_weight, draws, spec.z, p)?;
                if (draws >= spec.min_draws && margin <= spec.target_margin) || draws >= draw_cap {
                    break 'sampling;
                }
            }
        }
        // Scale the live stratum's draw histogram to its population mass
        // (largest-remainder rounding: the scaled counts sum exactly), then
        // add the exact dead stratum.
        let mut counts = scale_counts(&draw_counts, live_weight);
        counts.record_weighted(FaultEffect::Masked, self.coverage.dead_weight);
        debug_assert_eq!(counts.total(), population);
        let campaign = CampaignResult {
            workload: cfg.workload,
            component: cfg.component,
            faults: cfg.faults,
            counts,
            fault_free_cycles: self.partition.total_cycles(),
            fault_free_instructions: artifacts.instructions(),
            details: None,
            anomalies: crate::campaign::AnomalyLog::new(),
            oracle_skips: self.coverage.dead_classes,
            achieved_margin: Some(margin),
            snapshot_stats: None,
        };
        Ok(StratifiedResult {
            campaign,
            coverage: self.coverage,
            draws,
            simulated: memo.len() as u64,
        })
    }
}

/// Scales a draw histogram to total exactly `mass` via largest-remainder
/// rounding (stable effect order breaks remainder ties).
fn scale_counts(draws: &ClassCounts, mass: u64) -> ClassCounts {
    let total = draws.total();
    let mut scaled = ClassCounts::new();
    if total == 0 || mass == 0 {
        // No draws: the caller only reaches this with zero live mass.
        return scaled;
    }
    let mut floors = [0u64; 5];
    let mut remainders = [(0u128, 0usize); 5];
    let mut assigned = 0u64;
    for (i, &effect) in FaultEffect::ALL.iter().enumerate() {
        let exact = draws.count(effect) as u128 * mass as u128;
        let floor = (exact / total as u128) as u64;
        floors[i] = floor;
        remainders[i] = (exact % total as u128, i);
        assigned += floor;
    }
    // Distribute the remaining units to the largest remainders.
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut leftover = mass - assigned;
    for &(rem, i) in &remainders {
        if leftover == 0 {
            break;
        }
        if rem > 0 {
            floors[i] += 1;
            leftover -= 1;
        }
    }
    for (i, &effect) in FaultEffect::ALL.iter().enumerate() {
        scaled.record_weighted(effect, floors[i]);
    }
    scaled
}

/// xorshift64* ticket stream — deterministic, dependency-free, and only
/// used to spread stratified draws over the live mass.
struct Xorshift64(u64);

impl Xorshift64 {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw below `bound` (> 0) by rejection of the biased tail.
    fn below(&mut self, bound: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let x = self.next();
            if x < zone {
                return x % bound;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbu_cpu::HwComponent;
    use mbu_workloads::Workload;

    fn config(component: HwComponent) -> CampaignConfig {
        CampaignConfig::new(Workload::Stringsearch, component, 1)
            .threads(2)
            .run_wall_budget(None)
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let spec = ExhaustiveSpec::default();
        let multi = CampaignConfig::new(Workload::Stringsearch, HwComponent::DTlb, 2);
        assert!(matches!(
            ExhaustivePlan::try_new(multi, spec),
            Err(CampaignError::ExhaustiveUnsupported { .. })
        ));
        let tag = config(HwComponent::L1D).target(InjectionTarget::TagArray);
        assert!(matches!(
            ExhaustivePlan::try_new(tag, spec),
            Err(CampaignError::ExhaustiveUnsupported { .. })
        ));
        let adaptive =
            config(HwComponent::DTlb).adaptive(Some(crate::campaign::AdaptiveSpec::paper()));
        assert!(matches!(
            ExhaustivePlan::try_new(adaptive, spec),
            Err(CampaignError::ExhaustiveUnsupported { .. })
        ));
        let capped = ExhaustiveSpec {
            max_classes: 10,
            ..spec
        };
        assert!(matches!(
            ExhaustivePlan::try_new(config(HwComponent::DTlb), capped),
            Err(CampaignError::ClassCapExceeded { cap: 10, .. })
        ));
    }

    #[test]
    fn plan_reports_exact_coverage() {
        let plan =
            ExhaustivePlan::try_new(config(HwComponent::DTlb), ExhaustiveSpec::default()).unwrap();
        let cov = plan.coverage();
        assert!(cov.exact());
        assert_eq!(cov.live_classes as usize, plan.live_classes());
        assert!(plan.live_classes() > 0);
        // Class-range bounds are typed errors.
        assert!(matches!(
            plan.run_class_range(0..0, None),
            Err(CampaignError::InvalidClassRange { .. })
        ));
        let n = plan.live_classes();
        assert!(matches!(
            plan.run_class_range(n..n + 1, None),
            Err(CampaignError::InvalidClassRange { .. })
        ));
    }

    #[test]
    fn live_positions_follow_the_partition_and_finalize_takes_each_class_once() {
        // No simulation: the plan's dense live order against the
        // partition's own walk, then `finalize` over synthetic outcomes.
        let plan =
            ExhaustivePlan::try_new(config(HwComponent::DTlb), ExhaustiveSpec::default()).unwrap();
        let n = plan.live_classes();
        assert!(n >= 2);
        let mut walked = 0;
        for (i, class) in plan.partition().live_classes().enumerate() {
            assert_eq!(plan.live_class(i), class, "live position {i}");
            walked += 1;
        }
        assert_eq!(walked, n);
        let cover: Vec<ClassOutcome> = plan
            .partition()
            .live_classes()
            .map(|c| ClassOutcome {
                class_id: c.id,
                inject_cycle: c.start,
                weight: c.weight(),
                effect: FaultEffect::Masked,
                cycles: 0,
            })
            .collect();
        let result = plan.finalize(&cover, 0).expect("every live class once");
        assert_eq!(result.simulated, n as u64);
        assert_eq!(result.campaign.counts.masked, plan.coverage().population);
        let reversed: Vec<ClassOutcome> = cover.iter().rev().copied().collect();
        assert!(plan.finalize(&reversed, 0).is_ok(), "any order covers");
        // Same length, one class twice and its neighbour missing.
        let mut duplicated = cover;
        duplicated[n / 2] = duplicated[n / 2 - 1];
        assert!(matches!(
            plan.finalize(&duplicated, 0),
            Err(CampaignError::IncompleteClassCover { .. })
        ));
    }

    #[test]
    fn class_range_outcomes_are_deterministic_across_threads_and_seeds() {
        // A restricted class range keeps the debug-build cost tiny; the
        // full-structure differential lives in the bench suite.
        let plan =
            ExhaustivePlan::try_new(config(HwComponent::DTlb), ExhaustiveSpec::default()).unwrap();
        let artifacts = plan.campaign.build_artifacts().unwrap();
        let range = 0..16.min(plan.live_classes());
        let one = {
            let p = ExhaustivePlan::try_new(
                config(HwComponent::DTlb).threads(1),
                ExhaustiveSpec::default(),
            )
            .unwrap();
            p.run_class_range(range.clone(), Some(&artifacts)).unwrap()
        };
        let four = plan
            .run_class_range(range.clone(), Some(&artifacts))
            .unwrap();
        assert_eq!(one, four, "thread count must not change outcomes");
        // A different representative seed picks different member cycles but
        // identical class outcomes — the equivalence guarantee.
        let other = ExhaustivePlan::try_new(
            config(HwComponent::DTlb),
            ExhaustiveSpec {
                rep_seed: 0xDEAD_BEEF,
                snap_align: false,
                ..ExhaustiveSpec::default()
            },
        )
        .unwrap();
        let reseeded = other.run_class_range(range, Some(&artifacts)).unwrap();
        for (a, b) in one.iter().zip(&reseeded) {
            assert_eq!(a.class_id, b.class_id);
            assert_eq!(a.weight, b.weight);
            assert_eq!((a.effect, a.cycles), (b.effect, b.cycles));
        }
        // Partial outcomes do not finalize.
        assert!(matches!(
            plan.finalize(&one, artifacts.instructions()),
            Err(CampaignError::IncompleteClassCover { .. })
        ));
    }

    #[test]
    fn panicking_hook_classifies_only_its_class_assert() {
        // The hook fires inside the executor's isolation boundary, so a
        // panic in it costs its own class, not the whole range.
        let plain =
            ExhaustivePlan::try_new(config(HwComponent::DTlb), ExhaustiveSpec::default()).unwrap();
        assert!(plain.live_classes() >= 8);
        let artifacts = plain.campaign.build_artifacts().unwrap();
        let victim = 5;
        let hooked = ExhaustivePlan::try_new(
            config(HwComponent::DTlb).with_run_hook(move |i| {
                if i == victim {
                    panic!("mock simulator invariant violated at live position {i}");
                }
            }),
            ExhaustiveSpec::default(),
        )
        .unwrap();
        let want = plain.run_class_range(0..8, Some(&artifacts)).unwrap();
        let got = hooked.run_class_range(0..8, Some(&artifacts)).unwrap();
        let victim_id = plain.live_class(victim).id;
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            if g.class_id == victim_id {
                assert_eq!((g.effect, g.cycles), (FaultEffect::Assert, 0));
                assert_eq!((g.inject_cycle, g.weight), (w.inject_cycle, w.weight));
            } else {
                assert_eq!(g, w, "an unhooked class must not change");
            }
        }
    }

    #[test]
    fn locality_order_is_a_cycle_sorted_permutation() {
        let plan = ExhaustivePlan::try_new(
            config(HwComponent::DTlb).use_snapshots(true),
            ExhaustiveSpec::default(),
        )
        .unwrap();
        let artifacts = plan.campaign.build_artifacts().unwrap();
        assert!(
            artifacts.snapshot_store().is_some(),
            "snapshot capture must be on for this test to exercise locality"
        );
        let n = 24.min(plan.live_classes());
        let range = 0..n;
        let order = plan.locality_order(&range, &artifacts);
        // A permutation of the range…
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        // …visited in ascending member (injection) cycle, so consecutive
        // sims restore the same or neighbouring checkpoints.
        let cycles: Vec<u64> = order
            .iter()
            .map(|&i| plan.member_cycle(&plan.live_class(i), &artifacts))
            .collect();
        assert!(
            cycles.windows(2).all(|w| w[0] <= w[1]),
            "member cycles must be non-decreasing along the schedule: {cycles:?}"
        );
        // Without a snapshot store scheduling falls back to range order.
        let plain =
            ExhaustivePlan::try_new(config(HwComponent::DTlb), ExhaustiveSpec::default()).unwrap();
        let cold = plain.campaign.build_artifacts().unwrap();
        assert_eq!(
            plain.locality_order(&range, &cold),
            (0..n).collect::<Vec<_>>()
        );
    }

    #[test]
    fn scale_counts_is_exact_largest_remainder() {
        let mut draws = ClassCounts::new();
        draws.record_weighted(FaultEffect::Masked, 2);
        draws.record_weighted(FaultEffect::Sdc, 1);
        // 2/3 and 1/3 of 100: 66.67 + 33.33 → 67 + 33.
        let scaled = scale_counts(&draws, 100);
        assert_eq!(scaled.total(), 100);
        assert_eq!(scaled.masked, 67);
        assert_eq!(scaled.sdc, 33);
        // Degenerate mass: nothing to scale.
        assert_eq!(scale_counts(&ClassCounts::new(), 100).total(), 0);
        assert_eq!(scale_counts(&draws, 0).total(), 0);
    }

    #[test]
    fn xorshift_below_is_in_range_and_deterministic() {
        let mut a = Xorshift64(42 | 1);
        let mut b = Xorshift64(42 | 1);
        for _ in 0..200 {
            let x = a.below(97);
            assert!(x < 97);
            assert_eq!(x, b.below(97));
        }
    }
}
