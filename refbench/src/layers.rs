//! The benchmark's only calls into the system under test: one small
//! adapter per layer, each wrapped in a trace span named after the layer.
//! An API change in a layer (e.g. fewer `Campaign` entry points) is edited
//! here and nowhere else.

use crate::trace;
use mbu_bench::supervisor::{FabricConfig, FabricError, FabricReport, Supervisor, SweepOptions};
use mbu_bench::{Experiments, ResultStore, StoreError, StoreIo, WorkerPool};
use mbu_cpu::{CoreConfig, HwComponent, RunEnd, RunResult, Simulator};
use mbu_gefin::exhaustive::{ClassOutcome, ExhaustivePlan, ExhaustiveSpec};
use mbu_gefin::{
    CampaignConfig, CampaignError, CampaignResult, GoldenArtifacts, GoldenFingerprint, SnapshotSpec,
};
use mbu_isa::Program;
use mbu_workloads::Workload;
use std::ops::Range;
use std::path::Path;

/// `mbu-workloads`: assembles a workload's program.
pub fn program(w: Workload) -> Program {
    let _span = trace::enter("workloads.program", w.name());
    w.program()
}

/// `mbu-cpu`: the fault-free run of `program` to completion.
pub fn golden_run(core: CoreConfig, program: &Program, w: Workload) -> RunResult {
    let _span = trace::enter("cpu.golden", w.name());
    Simulator::new(core, program).run(u64::MAX / 8)
}

/// `mbu-snap`: golden artifacts with a recorded snapshot store.
pub fn build_artifacts(
    core: CoreConfig,
    program: &Program,
    spec: SnapshotSpec,
    w: Workload,
) -> Result<GoldenArtifacts, RunEnd> {
    let _span = trace::enter("snap.build", w.name());
    GoldenArtifacts::build(core, program, Some(spec))
}

/// `mbu-equiv` (through `mbu-gefin`'s plan compiler): captures the
/// segment-recording run and compiles the fault-equivalence partition.
pub fn compile_plan(
    config: CampaignConfig,
    spec: ExhaustiveSpec,
) -> Result<ExhaustivePlan, CampaignError> {
    let _span = trace::enter("equiv.plan", config.workload.name());
    ExhaustivePlan::try_new(config, spec)
}

/// `mbu-gefin`: one sampled campaign against shared golden artifacts.
pub fn campaign(
    exp: &Experiments,
    component: HwComponent,
    w: Workload,
    faults: usize,
    artifacts: &GoldenArtifacts,
) -> Result<CampaignResult, CampaignError> {
    let _span = trace::enter_with_cpu("gefin.campaign", w.name());
    exp.try_campaign_with_artifacts(component, w, faults, artifacts)
}

/// `mbu-gefin`: simulates one slice of a plan's dense live-class order.
pub fn class_range(
    plan: &ExhaustivePlan,
    range: Range<usize>,
    artifacts: &GoldenArtifacts,
) -> Result<Vec<ClassOutcome>, CampaignError> {
    let _span = trace::enter_with_cpu("gefin.class_range", plan.config().workload.name());
    plan.run_class_range(range, Some(artifacts))
}

/// `mbu-bench` store: appends one campaign row to a checkpoint CSV.
pub fn append_row(
    io: &dyn StoreIo,
    path: &Path,
    r: &CampaignResult,
    fingerprint: GoldenFingerprint,
) -> Result<(), StoreError> {
    let _span = trace::enter("store.append", r.workload.name());
    ResultStore::append_row_with(io, path, r, Some(fingerprint))
}

/// `mbu-bench` fabric: a supervised sweep over spawned workers, merged
/// into `out_csv`.
pub fn fabric_sweep(
    exp: &Experiments,
    config: &FabricConfig,
    shard_dir: &Path,
    out_csv: &Path,
    opts: SweepOptions,
) -> Result<(ResultStore, FabricReport), FabricError> {
    let _span = trace::enter("fabric.sweep", "");
    Supervisor::run_with(
        exp,
        &HwComponent::ALL,
        config,
        shard_dir,
        out_csv,
        WorkerPool::Spawn,
        opts,
    )
}

/// `mbu-bench` fabric: serves one supervisor over stdin/stdout, writing
/// its shard to `shard` — what a spawned worker process runs.
pub fn fabric_worker(shard: &Path) -> Result<(), String> {
    let heartbeat = FabricConfig::from_env()
        .map_err(|e| e.to_string())?
        .heartbeat;
    mbu_bench::fabric::run_worker(
        std::io::stdin().lock(),
        std::io::stdout(),
        shard,
        heartbeat,
        None,
    )
    .map_err(|e| e.to_string())
}
