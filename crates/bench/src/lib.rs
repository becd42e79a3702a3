//! Experiment harness regenerating every table and figure of the paper.
//!
//! The `repro` binary (`cargo run -p mbu-bench --release --bin repro -- <id>`)
//! drives the functions in this crate. Performance is measured by the
//! reference benchmark in `refbench/`, which builds against this crate.
//!
//! Every sweep — sampled, exhaustive or stratified, in process or over
//! the distributed fabric — is a list of `(campaign key, FaultSource)`
//! pairs; the [`FaultSource`] sizes, splits, runs and merges each
//! campaign's units. Sweeps are crash-safe:
//! [`Experiments::run_campaigns`] skips campaigns the [`ResultStore`]
//! already holds and flushes each finished campaign to the checkpoint CSV
//! immediately, so an interrupted `measure` resumes where it stopped.
//!
//! Sweeps build one golden run (and snapshot store) per workload and share
//! it across campaigns, and every campaign fast-forwards each injection
//! from the nearest golden-run snapshot; both are bit-identical to a
//! private golden run on the plain executor, which the differential
//! suites keep as their reference.
//!
//! The `MBU_*` environment knobs — name, scope, default and meaning — are
//! tabulated once, in the README's "Configuration knobs" section;
//! `tests/knobs.rs` keeps that table in step with the code.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod experiments;
pub mod fabric;
pub mod io;
pub mod protocol;
pub mod service;
pub mod source;
pub mod store;
pub mod supervisor;

pub use chaos::{ChaosIo, ChaosPlan, WorkerChaos};
pub use experiments::{
    ComponentData, ConfigError, Experiments, SweepControl, SweepReport, EXHAUSTIVE_COMPONENTS,
    STRATIFIED_COMPONENTS,
};
pub use fabric::{MergeReport, ShardAudit, SweepPlan};
pub use io::{RealIo, RetryIo, RetryPolicy, StoreIo};
pub use protocol::{ExpSpec, Json, ProtocolError, ToSupervisor, ToWorker};
pub use service::{run_daemon, ServeConfig, SweepBackend};
pub use source::FaultSource;
pub use store::{
    AnalyticalRow, AnalyticalStore, LoadAudit, QuarantinedRow, ResultStore, RowDefect, ShardRow,
    ShardStore, StoreError, StoreVersion,
};
pub use supervisor::{
    FabricConfig, FabricError, FabricEvent, FabricReport, Supervisor, SweepOptions, WorkerPool,
};
