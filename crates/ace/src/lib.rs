//! ACE-style liveness analysis for the fault-injection stack.
//!
//! The injection campaigns measure AVF statistically (fraction of injected
//! runs that are not masked). This crate derives the same quantity
//! *analytically* from one fault-free observation run, following the ACE
//! methodology (Mukherjee et al., MICRO-36): instrument every storage
//! structure with [`mbu_sram::LivenessProbe`] hooks, record when each
//! field's bits are *live* (written and later read) versus *dead*
//! (overwritten before any read), and compute
//!
//! ```text
//! AVF ≈ live-bit-cycles / (total bits × total cycles)
//! ```
//!
//! Three consumers build on the recorded intervals:
//!
//! * **Analytical AVF** ([`capture()`] → [`StructureResidency::analytical_avf`])
//!   cross-validated against the injection-measured AVF per (component,
//!   workload);
//! * **Occupancy observability** ([`OccupancyStats`]) — per-cycle ROB /
//!   issue-queue / store-buffer occupancy summaries and time series;
//! * **Campaign fast path** ([`LivenessOracle`]) — a conservative
//!   provably-masked pre-filter that lets campaigns skip simulating faults
//!   whose flipped bits are dead, with bit-identical classifications;
//! * **Fault-equivalence segmentation** ([`capture_component_segments`] /
//!   [`StructureResidency::slot_events`]) — the exact per-field
//!   access-event boundaries that partition the (bit, cycle) fault space
//!   into provably-equivalent classes (consumed by `mbu-equiv`).

#![forbid(unsafe_code)]

pub mod capture;
pub mod oracle;
pub mod residency;

pub use capture::{
    capture, capture_component, capture_component_segments, AceStructure, CaptureError,
    LivenessMap, OccupancyPoint, OccupancyProbe, OccupancyStats,
};
pub use oracle::LivenessOracle;
pub use residency::{FieldMap, ResidencyRecorder, SegmentEvent, SegmentKind, StructureResidency};
