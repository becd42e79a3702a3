//! Fault-free observation runs: capture per-structure residency and
//! pipeline occupancy for a (core, workload) pair.

use crate::residency::{FieldMap, ResidencyRecorder, StructureResidency};
use mbu_cpu::{CoreConfig, HwComponent, PipelineProbe, RunEnd, SimProbes, Simulator};
use mbu_isa::program::Program;
use mbu_mem::tlb::{ENTRY_BITS, PPN_SHIFT, VPN_SHIFT};
use mbu_sram::LivenessProbe;
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;

/// Cycle budget for an observation run. Fault-free workloads finish in well
/// under a million cycles; this bound only guards against a misconfigured
/// program wedging the capture.
const CAPTURE_CYCLE_BUDGET: u64 = u64::MAX / 8;

/// Cycles per occupancy time-series bucket.
const OCCUPANCY_CHUNK: u64 = 1024;

/// Every observable storage structure of the modeled core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AceStructure {
    /// L1 data cache data array.
    L1dData,
    /// L1 instruction cache data array.
    L1iData,
    /// Unified L2 data array.
    L2Data,
    /// L1 data cache tag array.
    L1dTag,
    /// L1 instruction cache tag array.
    L1iTag,
    /// Unified L2 tag array.
    L2Tag,
    /// Physical register file.
    RegFile,
    /// Data TLB entry array.
    Dtlb,
    /// Instruction TLB entry array.
    Itlb,
}

impl AceStructure {
    /// All structures, data arrays first.
    pub const ALL: [AceStructure; 9] = [
        AceStructure::L1dData,
        AceStructure::L1iData,
        AceStructure::L2Data,
        AceStructure::RegFile,
        AceStructure::Dtlb,
        AceStructure::Itlb,
        AceStructure::L1dTag,
        AceStructure::L1iTag,
        AceStructure::L2Tag,
    ];

    /// The injectable component this structure's *data* belongs to, if it
    /// is one of the paper's six injection targets (tag arrays map to their
    /// cache component only through the tag-array ablation path).
    pub fn component(self) -> Option<HwComponent> {
        match self {
            AceStructure::L1dData => Some(HwComponent::L1D),
            AceStructure::L1iData => Some(HwComponent::L1I),
            AceStructure::L2Data => Some(HwComponent::L2),
            AceStructure::RegFile => Some(HwComponent::RegFile),
            AceStructure::Dtlb => Some(HwComponent::DTlb),
            AceStructure::Itlb => Some(HwComponent::ITlb),
            _ => None,
        }
    }

    /// The structure observing a component's injectable data array.
    pub fn for_component(component: HwComponent) -> AceStructure {
        match component {
            HwComponent::L1D => AceStructure::L1dData,
            HwComponent::L1I => AceStructure::L1iData,
            HwComponent::L2 => AceStructure::L2Data,
            HwComponent::RegFile => AceStructure::RegFile,
            HwComponent::DTlb => AceStructure::Dtlb,
            HwComponent::ITlb => AceStructure::Itlb,
        }
    }

    /// Short stable identifier (CSV keys, CLI).
    pub fn slug(self) -> &'static str {
        match self {
            AceStructure::L1dData => "l1d",
            AceStructure::L1iData => "l1i",
            AceStructure::L2Data => "l2",
            AceStructure::L1dTag => "l1d-tag",
            AceStructure::L1iTag => "l1i-tag",
            AceStructure::L2Tag => "l2-tag",
            AceStructure::RegFile => "regfile",
            AceStructure::Dtlb => "dtlb",
            AceStructure::Itlb => "itlb",
        }
    }
}

impl fmt::Display for AceStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// Why a capture run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaptureError {
    /// The fault-free run did not exit cleanly.
    RunFailed {
        /// How the run actually ended.
        end: String,
    },
    /// A detached probe was not the recorder this crate attached.
    ProbeMismatch,
}

impl fmt::Display for CaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureError::RunFailed { end } => {
                write!(f, "fault-free observation run did not exit cleanly: {end}")
            }
            CaptureError::ProbeMismatch => f.write_str("detached probe was not a recorder"),
        }
    }
}

impl std::error::Error for CaptureError {}

/// One mean-occupancy point of the time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancyPoint {
    /// First cycle of the bucket.
    pub cycle: u64,
    /// Mean ROB entries over the bucket.
    pub rob: f64,
    /// Mean issue-queue entries over the bucket.
    pub iq: f64,
    /// Mean store-buffer (uncommitted stores in the ROB) entries.
    pub store_buffer: f64,
}

/// Occupancy summary + time series of the pipeline queue structures.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OccupancyStats {
    /// Cycles sampled.
    pub samples: u64,
    /// Mean ROB occupancy.
    pub mean_rob: f64,
    /// Peak ROB occupancy.
    pub max_rob: usize,
    /// Mean issue-queue occupancy.
    pub mean_iq: f64,
    /// Peak issue-queue occupancy.
    pub max_iq: usize,
    /// Mean store-buffer occupancy.
    pub mean_sb: f64,
    /// Peak store-buffer occupancy.
    pub max_sb: usize,
    /// Cycles per time-series bucket.
    pub chunk: u64,
    /// Bucketed mean-occupancy time series.
    pub series: Vec<OccupancyPoint>,
}

/// Chunked occupancy accumulator (bounded memory: one point per
/// 1,024-cycle chunk, running sums for the means).
#[derive(Debug, Default)]
pub struct OccupancyProbe {
    samples: u64,
    sum: [u64; 3],
    max: [usize; 3],
    chunk_start: u64,
    chunk_samples: u64,
    chunk_sum: [u64; 3],
    series: Vec<OccupancyPoint>,
}

impl OccupancyProbe {
    fn flush_chunk(&mut self) {
        if self.chunk_samples > 0 {
            let n = self.chunk_samples as f64;
            self.series.push(OccupancyPoint {
                cycle: self.chunk_start,
                rob: self.chunk_sum[0] as f64 / n,
                iq: self.chunk_sum[1] as f64 / n,
                store_buffer: self.chunk_sum[2] as f64 / n,
            });
        }
        self.chunk_samples = 0;
        self.chunk_sum = [0; 3];
    }

    /// Freezes the accumulator into summary statistics.
    pub fn finish(mut self) -> OccupancyStats {
        self.flush_chunk();
        let n = self.samples.max(1) as f64;
        OccupancyStats {
            samples: self.samples,
            mean_rob: self.sum[0] as f64 / n,
            max_rob: self.max[0],
            mean_iq: self.sum[1] as f64 / n,
            max_iq: self.max[1],
            mean_sb: self.sum[2] as f64 / n,
            max_sb: self.max[2],
            chunk: OCCUPANCY_CHUNK,
            series: self.series,
        }
    }
}

impl PipelineProbe for OccupancyProbe {
    fn on_cycle(&mut self, cycle: u64, rob: usize, iq: usize, store_buffer: usize) {
        if self.chunk_samples > 0 && cycle >= self.chunk_start + OCCUPANCY_CHUNK {
            self.flush_chunk();
        }
        if self.chunk_samples == 0 {
            self.chunk_start = cycle - cycle % OCCUPANCY_CHUNK;
        }
        for (i, v) in [rob, iq, store_buffer].into_iter().enumerate() {
            self.sum[i] += v as u64;
            self.chunk_sum[i] += v as u64;
            self.max[i] = self.max[i].max(v);
        }
        self.samples += 1;
        self.chunk_samples += 1;
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// The full liveness picture of one fault-free (core, workload) run.
#[derive(Debug)]
pub struct LivenessMap {
    /// Cycles of the fault-free run.
    pub total_cycles: u64,
    /// Instructions committed by the fault-free run.
    pub instructions: u64,
    /// Per-structure live intervals.
    pub structures: BTreeMap<AceStructure, StructureResidency>,
    /// Pipeline-queue occupancy.
    pub occupancy: OccupancyStats,
}

/// The field partition of a structure's rows.
fn field_map_for(structure: AceStructure, sim: &Simulator) -> FieldMap {
    let tlb_ranges = || {
        FieldMap::Ranges(vec![
            0..PPN_SHIFT as usize,
            PPN_SHIFT as usize..VPN_SHIFT as usize,
            VPN_SHIFT as usize..(ENTRY_BITS - 1) as usize,
            (ENTRY_BITS - 1) as usize..ENTRY_BITS as usize,
        ])
    };
    match structure {
        AceStructure::L1dData | AceStructure::L1iData | AceStructure::L2Data => FieldMap::Chunks {
            chunk: 8,
            cols: 256,
        },
        AceStructure::L1dTag => FieldMap::Row {
            cols: sim.tag_geometry(HwComponent::L1D).cols(),
        },
        AceStructure::L1iTag => FieldMap::Row {
            cols: sim.tag_geometry(HwComponent::L1I).cols(),
        },
        AceStructure::L2Tag => FieldMap::Row {
            cols: sim.tag_geometry(HwComponent::L2).cols(),
        },
        AceStructure::RegFile => FieldMap::Row { cols: 32 },
        AceStructure::Dtlb | AceStructure::Itlb => tlb_ranges(),
    }
}

/// Logical row count of a structure.
fn rows_for(structure: AceStructure, core: &CoreConfig) -> usize {
    match structure {
        AceStructure::L1dData | AceStructure::L1dTag => core.mem.l1d.lines() as usize,
        AceStructure::L1iData | AceStructure::L1iTag => core.mem.l1i.lines() as usize,
        AceStructure::L2Data | AceStructure::L2Tag => core.mem.l2.lines() as usize,
        AceStructure::RegFile => core.phys_regs as usize,
        AceStructure::Dtlb => core.mem.dtlb.entries,
        AceStructure::Itlb => core.mem.itlb.entries,
    }
}

fn recorder_for(
    structure: AceStructure,
    core: &CoreConfig,
    sim: &Simulator,
    with_segments: bool,
) -> ResidencyRecorder {
    let rows = rows_for(structure, core);
    let map = field_map_for(structure, sim);
    if with_segments {
        ResidencyRecorder::with_segments(rows, map)
    } else {
        ResidencyRecorder::new(rows, map)
    }
}

fn slot_mut(
    probes: &mut SimProbes,
    structure: AceStructure,
) -> &mut Option<Box<dyn LivenessProbe>> {
    match structure {
        AceStructure::L1dData => &mut probes.mem.l1d_data,
        AceStructure::L1iData => &mut probes.mem.l1i_data,
        AceStructure::L2Data => &mut probes.mem.l2_data,
        AceStructure::L1dTag => &mut probes.mem.l1d_tag,
        AceStructure::L1iTag => &mut probes.mem.l1i_tag,
        AceStructure::L2Tag => &mut probes.mem.l2_tag,
        AceStructure::RegFile => &mut probes.prf,
        AceStructure::Dtlb => &mut probes.mem.dtlb,
        AceStructure::Itlb => &mut probes.mem.itlb,
    }
}

fn run_with_probes(
    core: CoreConfig,
    program: &Program,
    structures: &[AceStructure],
    with_occupancy: bool,
    with_segments: bool,
) -> Result<LivenessMap, CaptureError> {
    let mut sim = Simulator::new(core, program);
    let mut probes = SimProbes::default();
    for &s in structures {
        *slot_mut(&mut probes, s) = Some(Box::new(recorder_for(s, &core, &sim, with_segments)));
    }
    if with_occupancy {
        probes.pipeline = Some(Box::new(OccupancyProbe::default()));
    }
    sim.attach_probes(probes);
    let end = sim.run_until_cycle(CAPTURE_CYCLE_BUDGET);
    if !matches!(end, Some(RunEnd::Exited { .. })) {
        return Err(CaptureError::RunFailed {
            end: format!("{end:?}"),
        });
    }
    let total_cycles = sim.cycle();
    let instructions = sim.instructions();
    let mut detached = sim.detach_probes();
    let mut out = BTreeMap::new();
    for &s in structures {
        let probe = slot_mut(&mut detached, s)
            .take()
            .ok_or(CaptureError::ProbeMismatch)?;
        let recorder = probe
            .into_any()
            .downcast::<ResidencyRecorder>()
            .map_err(|_| CaptureError::ProbeMismatch)?;
        out.insert(s, recorder.finish(total_cycles));
    }
    let occupancy = match detached.pipeline.take() {
        Some(p) => *p
            .into_any()
            .downcast::<OccupancyProbe>()
            .map_err(|_| CaptureError::ProbeMismatch)?,
        None => OccupancyProbe::default(),
    };
    Ok(LivenessMap {
        total_cycles,
        instructions,
        structures: out,
        occupancy: occupancy.finish(),
    })
}

/// Observes a full fault-free run of `program`, recording residency for
/// every structure in [`AceStructure::ALL`] plus pipeline occupancy.
///
/// # Errors
///
/// [`CaptureError::RunFailed`] if the fault-free run does not exit cleanly.
pub fn capture(core: CoreConfig, program: &Program) -> Result<LivenessMap, CaptureError> {
    run_with_probes(core, program, &AceStructure::ALL, true, false)
}

/// Observes a fault-free run recording only `component`'s data array — the
/// cheap path used to build a campaign oracle.
///
/// # Errors
///
/// [`CaptureError::RunFailed`] if the fault-free run does not exit cleanly.
pub fn capture_component(
    core: CoreConfig,
    program: &Program,
    component: HwComponent,
) -> Result<(StructureResidency, u64), CaptureError> {
    capture_component_inner(core, program, component, false)
}

/// Like [`capture_component`], but additionally records every access-event
/// boundary ([`crate::residency::SegmentEvent`]) so the returned residency
/// exposes the exact fault-equivalence segmentation of the component's
/// (bit, cycle) fault space — the input to `mbu-equiv` partitions.
///
/// # Errors
///
/// [`CaptureError::RunFailed`] if the fault-free run does not exit cleanly.
pub fn capture_component_segments(
    core: CoreConfig,
    program: &Program,
    component: HwComponent,
) -> Result<(StructureResidency, u64), CaptureError> {
    capture_component_inner(core, program, component, true)
}

fn capture_component_inner(
    core: CoreConfig,
    program: &Program,
    component: HwComponent,
    with_segments: bool,
) -> Result<(StructureResidency, u64), CaptureError> {
    let structure = AceStructure::for_component(component);
    let mut map = run_with_probes(core, program, &[structure], false, with_segments)?;
    let residency = map
        .structures
        .remove(&structure)
        .ok_or(CaptureError::ProbeMismatch)?;
    Ok((residency, map.total_cycles))
}
