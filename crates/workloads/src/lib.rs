//! The 15 MiBench-like workloads of the reproduction (paper Table III).
//!
//! The paper runs 15 MiBench programs as ARM binaries under Linux on gem5.
//! This crate re-implements the same 15 algorithms as programs for the
//! `mbu-isa` architecture, with deterministic synthetic inputs scaled so a
//! fault-free run takes 10⁴–10⁶ cycles (the paper's runs are 10⁶–10⁸; the
//! scaling preserves workload *diversity* — memory footprint, compute mix,
//! output volume — which is what drives per-workload AVF differences).
//!
//! Every workload comes in two forms:
//!
//! * an **assembly program** ([`Workload::program`]) executed by the
//!   simulators, and
//! * a **Rust reference implementation** ([`Workload::reference_output`])
//!   that computes the expected output independently.
//!
//! The test suite checks `interpreter(program) == reference` and
//! `out-of-order simulator(program) == reference` for all 15 workloads,
//! which validates the assembler, both simulators and the workloads against
//! each other.
//!
//! # Example
//!
//! ```
//! use mbu_workloads::Workload;
//! use mbu_isa::interp::ArchInterpreter;
//!
//! let w = Workload::Sha;
//! let run = ArchInterpreter::new(&w.program()).run(50_000_000)?;
//! assert_eq!(run.output, w.reference_output());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod adpcm;
mod basicmath;
mod crc32;
mod dijkstra;
mod fft;
pub mod gen;
mod gsm;
mod jpeg;
mod qsort;
mod rijndael;
mod sha;
mod stringsearch;
mod susan;

use mbu_isa::Program;
use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

/// MiBench-style dataset size. Every workload ships two deterministic
/// input sets, like the original suite's `small`/`large` data files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum DataSet {
    /// The default inputs (10⁴–10⁵-cycle runs; used by the experiments).
    #[default]
    Small,
    /// ~4× larger inputs (longer runs, larger memory footprints).
    Large,
}

impl fmt::Display for DataSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataSet::Small => f.write_str("small"),
            DataSet::Large => f.write_str("large"),
        }
    }
}

/// One of the paper's 15 MiBench workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    /// Cyclic redundancy check over a byte stream (telecomm).
    Crc32,
    /// Fixed-point radix-2 FFT (telecomm).
    Fft,
    /// IMA ADPCM audio decoder (telecomm).
    AdpcmDec,
    /// Integer square roots, GCDs and angle conversions (automotive).
    Basicmath,
    /// JPEG-style forward DCT + quantization + RLE encode (consumer).
    Cjpeg,
    /// Single-source shortest paths on a dense graph (network).
    Dijkstra,
    /// JPEG-style dequantization + inverse DCT decode (consumer).
    Djpeg,
    /// GSM-style lattice synthesis filter decoder (telecomm).
    GsmDec,
    /// Quicksort over a word array (automotive).
    Qsort,
    /// AES-128 (Rijndael) ECB decryption (security).
    RijndaelDec,
    /// SHA-1 message digest (security).
    Sha,
    /// Boyer–Moore–Horspool string search (office).
    Stringsearch,
    /// SUSAN corner detection (automotive/image).
    SusanC,
    /// SUSAN edge detection (automotive/image).
    SusanE,
    /// SUSAN structure-preserving smoothing (automotive/image).
    SusanS,
}

impl Workload {
    /// All 15 workloads in the paper's Table III order.
    pub const ALL: [Workload; 15] = [
        Workload::Crc32,
        Workload::Fft,
        Workload::AdpcmDec,
        Workload::Basicmath,
        Workload::Cjpeg,
        Workload::Dijkstra,
        Workload::Djpeg,
        Workload::GsmDec,
        Workload::Qsort,
        Workload::RijndaelDec,
        Workload::Sha,
        Workload::Stringsearch,
        Workload::SusanC,
        Workload::SusanE,
        Workload::SusanS,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Crc32 => "CRC32",
            Workload::Fft => "FFT",
            Workload::AdpcmDec => "adpcm_dec",
            Workload::Basicmath => "basicmath",
            Workload::Cjpeg => "cjpeg",
            Workload::Dijkstra => "dijkstra",
            Workload::Djpeg => "djpeg",
            Workload::GsmDec => "gsm_dec",
            Workload::Qsort => "qsort",
            Workload::RijndaelDec => "rijndael_dec",
            Workload::Sha => "sha",
            Workload::Stringsearch => "stringsearch",
            Workload::SusanC => "susan_c",
            Workload::SusanE => "susan_e",
            Workload::SusanS => "susan_s",
        }
    }

    /// Builds the assembled program with the small (default) dataset.
    ///
    /// # Panics
    ///
    /// Panics only on internal assembly errors (a workload that fails to
    /// assemble is a bug, covered by tests).
    pub fn program(self) -> Program {
        self.program_with(DataSet::Small)
    }

    /// The small-dataset program ([`Workload::program`]), assembled once
    /// per process and shared: what to compare against, or load from,
    /// when the same workload's image is needed again and again.
    pub fn shared_program(self) -> &'static Program {
        static PROGRAMS: [OnceLock<Program>; Workload::ALL.len()] =
            [const { OnceLock::new() }; Workload::ALL.len()];
        PROGRAMS[self as usize].get_or_init(|| self.program())
    }

    /// Builds the assembled program with the chosen dataset.
    ///
    /// # Panics
    ///
    /// Panics only on internal assembly errors.
    pub fn program_with(self, ds: DataSet) -> Program {
        match self {
            Workload::Crc32 => crc32::program(ds),
            Workload::Fft => fft::program(ds),
            Workload::AdpcmDec => adpcm::program(ds),
            Workload::Basicmath => basicmath::program(ds),
            Workload::Cjpeg => jpeg::cjpeg_program(ds),
            Workload::Dijkstra => dijkstra::program(ds),
            Workload::Djpeg => jpeg::djpeg_program(ds),
            Workload::GsmDec => gsm::program(ds),
            Workload::Qsort => qsort::program(ds),
            Workload::RijndaelDec => rijndael::program(ds),
            Workload::Sha => sha::program(ds),
            Workload::Stringsearch => stringsearch::program(ds),
            Workload::SusanC => susan::corners_program(ds),
            Workload::SusanE => susan::edges_program(ds),
            Workload::SusanS => susan::smoothing_program(ds),
        }
    }

    /// The expected output for the small (default) dataset.
    pub fn reference_output(self) -> Vec<u8> {
        self.reference_with(DataSet::Small)
    }

    /// The expected program output for the chosen dataset, computed by an
    /// independent Rust implementation of the same algorithm on the same
    /// input.
    pub fn reference_with(self, ds: DataSet) -> Vec<u8> {
        match self {
            Workload::Crc32 => crc32::reference(ds),
            Workload::Fft => fft::reference(ds),
            Workload::AdpcmDec => adpcm::reference(ds),
            Workload::Basicmath => basicmath::reference(ds),
            Workload::Cjpeg => jpeg::cjpeg_reference(ds),
            Workload::Dijkstra => dijkstra::reference(ds),
            Workload::Djpeg => jpeg::djpeg_reference(ds),
            Workload::GsmDec => gsm::reference(ds),
            Workload::Qsort => qsort::reference(ds),
            Workload::RijndaelDec => rijndael::reference(ds),
            Workload::Sha => sha::reference(ds),
            Workload::Stringsearch => stringsearch::reference(ds),
            Workload::SusanC => susan::corners_reference(ds),
            Workload::SusanE => susan::edges_reference(ds),
            Workload::SusanS => susan::smoothing_reference(ds),
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown workload name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseWorkloadError(String);

impl fmt::Display for ParseWorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown workload `{}`", self.0)
    }
}

impl std::error::Error for ParseWorkloadError {}

impl FromStr for Workload {
    type Err = ParseWorkloadError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let needle = s.to_ascii_lowercase();
        Workload::ALL
            .into_iter()
            .find(|w| w.name().to_ascii_lowercase() == needle)
            .ok_or_else(|| ParseWorkloadError(s.to_string()))
    }
}

/// The standard exit epilogue shared by workload sources.
pub(crate) const EXIT0: &str = "\n    li r2, 0\n    li r3, 0\n    syscall\n";

#[cfg(test)]
mod tests {
    use super::*;
    use mbu_isa::interp::{ArchInterpreter, StopReason};

    #[test]
    fn shared_program_is_the_assembled_program_built_once() {
        for w in [Workload::Sha, Workload::Stringsearch] {
            let shared = w.shared_program();
            assert_eq!(*shared, w.program());
            assert!(std::ptr::eq(shared, w.shared_program()));
        }
    }

    #[test]
    fn all_names_parse_back() {
        for w in Workload::ALL {
            assert_eq!(w.name().parse::<Workload>().unwrap(), w);
        }
        assert!("nope".parse::<Workload>().is_err());
    }

    #[test]
    fn every_workload_matches_its_reference_on_the_interpreter() {
        for ds in [DataSet::Small, DataSet::Large] {
            for w in Workload::ALL {
                let p = w.program_with(ds);
                let run = ArchInterpreter::new(&p)
                    .run(400_000_000)
                    .unwrap_or_else(|t| panic!("{w}/{ds} trapped: {t}"));
                assert_eq!(
                    run.stop,
                    StopReason::Exited { code: 0 },
                    "{w}/{ds} must exit cleanly"
                );
                assert_eq!(run.output, w.reference_with(ds), "{w}/{ds} output mismatch");
                assert!(!run.output.is_empty(), "{w}/{ds} must produce output");
            }
        }
    }

    #[test]
    fn large_dataset_means_more_work() {
        for w in Workload::ALL {
            let small = ArchInterpreter::new(&w.program_with(DataSet::Small))
                .run(400_000_000)
                .unwrap();
            let large = ArchInterpreter::new(&w.program_with(DataSet::Large))
                .run(400_000_000)
                .unwrap();
            assert!(
                large.instructions > small.instructions * 2,
                "{w}: large {} vs small {}",
                large.instructions,
                small.instructions
            );
        }
    }
}
