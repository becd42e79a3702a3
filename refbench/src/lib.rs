//! The repository's reference benchmark.
//!
//! Three workloads drive the public entry points of `mbu-gefin`,
//! `mbu-snap`, `mbu-equiv` and `mbu-bench` (see `README.md` next to this
//! crate for why each exists and which layer metric should move which
//! end-to-end metric):
//!
//! * `sampled` — the paper's protocol in one process;
//! * `exhaustive` — a fixed slice of equivalence-class simulations;
//! * `fabric` — the `sampled` matrix through the supervised worker fabric.
//!
//! Untraced runs report the end-to-end metrics; a traced run records
//! spans around every call the benchmark makes into a layer
//! ([`layers`]) and reports the per-layer ledger ([`ledger`]).

pub mod drivers;
pub mod layers;
pub mod ledger;
pub mod procfs;
pub mod stats;
pub mod trace;
