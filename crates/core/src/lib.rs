//! **mbu-gefin** — a GeFIN-style microarchitecture-level fault injector
//! extended with *spatial multi-bit fault* (sMBF) generation, plus the full
//! AVF / technology-node / FIT analysis pipeline of the paper
//! *"Multi-Bit Upsets Vulnerability Analysis of Modern Microprocessors"*
//! (IISWC 2019).
//!
//! The crate drives the `mbu-cpu` out-of-order simulator:
//!
//! 1. [`mask`] generates fault masks — `N` distinct bit flips inside an
//!    `X × Y` cluster placed at a random position of a structure's SRAM
//!    geometry (paper §III.B, Table II);
//! 2. [`campaign`] runs statistical fault-injection campaigns: a fault-free
//!    golden run, then one simulation per mask with the flip applied at a
//!    random cycle, classified per §III.C into
//!    Masked / SDC / Crash / Timeout / Assert;
//! 3. [`stats`] sizes campaigns and reports error margins per Leveugle
//!    et al. (2 000 runs ⇒ 2.88 % at 99 % confidence);
//! 4. [`avf`] turns class counts into AVFs, execution-time-weighted AVFs
//!    (Eq. 2) and the paper's Table IV/V derived views;
//! 5. [`tech`] and [`fit`] apply the per-node MBU rates (Table VI), raw FIT
//!    rates (Table VII) and structure sizes (Table VIII) to produce the
//!    aggregate multi-bit AVFs (Eq. 3, Fig. 7) and CPU FIT rates
//!    (Eq. 4, Fig. 8);
//! 6. [`paper`] embeds the paper's published measurements so the analysis
//!    stage can be validated against the paper's own derived numbers;
//! 7. [`report`] renders ASCII tables and CSV series for every table and
//!    figure.
//!
//! # Example: one small campaign
//!
//! ```no_run
//! use mbu_gefin::campaign::{Campaign, CampaignConfig};
//! use mbu_cpu::HwComponent;
//! use mbu_workloads::Workload;
//!
//! let config = CampaignConfig::new(Workload::Sha, HwComponent::L1D, 2)
//!     .runs(100)
//!     .seed(42);
//! let result = Campaign::new(config).run();
//! println!("AVF = {:.2}%", result.counts.avf() * 100.0);
//! ```

#![forbid(unsafe_code)]

pub mod avf;
pub mod beam;
pub mod campaign;
pub mod classify;
pub mod error;
pub mod exhaustive;
pub mod fit;
pub mod golden;
pub mod integrity;
pub mod json;
pub mod mask;
pub mod paper;
pub mod report;
pub mod rng;
pub mod stats;
pub mod tech;

pub use avf::{ClassBreakdown, ComponentAvf};
pub use campaign::{
    campaign_margin, AdaptiveSpec, Anomaly, AnomalyKind, AnomalyLog, Campaign, CampaignConfig,
    CampaignResult, RunHook, UnitSpec,
};
pub use classify::{ClassCounts, FaultEffect};
pub use error::CampaignError;
pub use exhaustive::{
    ClassOutcome, ExhaustivePlan, ExhaustiveResult, ExhaustiveSpec, StratifiedResult,
    StratifiedSpec,
};
pub use golden::GoldenArtifacts;
pub use integrity::{golden_fingerprint, GoldenFingerprint};
pub use mask::{ClusterSpec, FaultMask, MaskGenerator};
pub use mbu_snap::{SnapshotSpec, SnapshotStats, SnapshotStore};
pub use stats::StatsError;
pub use tech::TechNode;
