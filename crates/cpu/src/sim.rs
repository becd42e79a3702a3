//! The cycle-level out-of-order simulator.
//!
//! Pipeline: fetch (2-wide, stalls on unresolved control flow) → decode →
//! rename/dispatch (into ROB + IQ) → issue (4-wide, out of order, operand
//! readiness + conservative store/load disambiguation) → execute (latency
//! per operation, memory through the cache hierarchy) → writeback (4-wide)
//! → commit (in order; faults, stores and syscalls take effect here).

use crate::component::HwComponent;
use crate::config::CoreConfig;
use crate::probe::{PipelineProbe, SimProbes};
use crate::regfile::{PhysReg, PhysRegFile};
use mbu_isa::instr::MemWidth;
use mbu_isa::interp::Trap;
use mbu_isa::program::Program;
use mbu_isa::{decode, sys, Instruction, Reg};
use mbu_mem::{MemFault, MemSnapshot, MemorySystem};
use mbu_sram::{BitCoord, Geometry, Injectable, LivenessProbe, Snapshot};
use std::collections::VecDeque;
use std::fmt;
use std::time::Instant;

/// Steps without a single committed instruction after which
/// [`Simulator::run_until_cycle`] gives up and reports [`RunEnd::CycleLimit`].
///
/// A fault-free workload commits continuously; the longest legitimate stall
/// (a chain of L2 misses) is a few hundred cycles. A fault that wedges the
/// pipeline (e.g. a corrupted ROB dependency) would otherwise burn the whole
/// `4 × T` budget one idle cycle at a time; the fuse converts such livelocks
/// into an early, still-deterministic `Timeout` classification.
const STALL_FUSE: u64 = 1 << 18;

/// How often (in cycles) [`Simulator::run_until_cycle`] checks the
/// wall-clock deadline. Power of two so the check compiles to a mask.
const DEADLINE_POLL_INTERVAL: u64 = 1 << 10;

/// A pipeline-recorded fault, raised precisely at commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Architectural trap — the program crashes (process crash).
    Trap(Trap),
    /// Physical address outside the system map — the simulator asserts
    /// (gem5's behaviour for corrupted translations, paper §IV.E).
    Assert {
        /// The impossible physical address.
        pa: u32,
    },
}

impl Fault {
    fn from_mem(pc: u32, fault: MemFault) -> Self {
        match fault {
            MemFault::PageFault { va } | MemFault::Protection { va, .. } => {
                Fault::Trap(Trap::Segfault { pc, addr: va })
            }
            MemFault::OutsideSystemMap { pa } => Fault::Assert { pa },
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Trap(t) => write!(f, "{t}"),
            Fault::Assert { pa } => write!(f, "simulator assert: pa 0x{pa:08x} outside system map"),
        }
    }
}

/// Why a simulation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// Clean exit through `SYS_EXIT`.
    Exited {
        /// The exit code.
        code: u32,
    },
    /// The program crashed (architectural trap at commit).
    Crashed(Trap),
    /// The simulator asserted (impossible physical address).
    Assert {
        /// The impossible physical address.
        pa: u32,
    },
    /// The cycle limit expired (deadlock or livelock).
    CycleLimit,
}

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Why the run ended.
    pub end: RunEnd,
    /// Program output bytes.
    pub output: Vec<u8>,
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub instructions: u64,
}

/// Microarchitectural counters of a run (performance-debugging aid and
/// input to the throughput benches; not part of the AVF methodology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineStats {
    /// L1I hits / misses.
    pub l1i: (u64, u64),
    /// L1D hits / misses.
    pub l1d: (u64, u64),
    /// L2 hits / misses.
    pub l2: (u64, u64),
    /// ITLB hits / misses.
    pub itlb: (u64, u64),
    /// DTLB hits / misses.
    pub dtlb: (u64, u64),
    /// Mispredicted (and squashed) conditional branches.
    pub mispredicts: u64,
}

impl PipelineStats {
    /// Hit rate of a `(hits, misses)` pair; 0 when untouched.
    pub fn hit_rate(pair: (u64, u64)) -> f64 {
        let total = pair.0 + pair.1;
        if total == 0 {
            0.0
        } else {
            pair.0 as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Waiting in the instruction queue.
    Waiting,
    /// Issued; completion scheduled.
    Executing,
    /// Complete; eligible for commit.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DestInfo {
    arch: Reg,
    new: PhysReg,
    prev: PhysReg,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StoreOp {
    addr: u32,
    width: u32,
    value: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct RobEntry {
    pc: u32,
    instr: Option<Instruction>,
    state: SlotState,
    fault: Option<Fault>,
    srcs: [Option<PhysReg>; 2],
    nsrcs: u8,
    dest: Option<DestInfo>,
    result: Option<u32>,
    store: Option<StoreOp>,
    syscall: Option<(u32, u32)>,
    /// Target to resume fetch at when this stalling control instruction
    /// completes.
    redirect: Option<u32>,
    /// For a predicted conditional branch: the pc fetch continued at.
    predicted_next: Option<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchStall {
    None,
    /// Waiting for the control instruction with this sequence number.
    Branch(u64),
    /// A fetch-path fault was enqueued; fetch stops until the run ends.
    Fault,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Decoded {
    pc: u32,
    result: Result<Instruction, Fault>,
    /// For a predicted conditional branch: the pc fetch continued at.
    predicted_next: Option<u32>,
}

/// The out-of-order CPU simulator.
///
/// See the [crate documentation](crate) for an end-to-end example.
pub struct Simulator {
    cfg: CoreConfig,
    mem: MemorySystem,
    prf: PhysRegFile,
    rob: VecDeque<RobEntry>,
    head_seq: u64,
    iq: Vec<u64>,
    decode_q: VecDeque<Decoded>,
    completions: Vec<(u64, u64)>,
    /// Scratch buffer reused by [`Simulator::writeback_stage`] every cycle;
    /// not architectural state (always drained), so excluded from snapshots.
    wb_due: Vec<u64>,
    fetch_pc: u32,
    fetch_stall: FetchStall,
    fetch_ready_at: u64,
    /// Bimodal 2-bit saturating direction counters (speculation extension).
    predictor: Vec<u8>,
    /// Mispredicted-and-squashed branch count.
    mispredicts: u64,
    commit_ready_at: u64,
    cycle: u64,
    committed: u64,
    output: Vec<u8>,
    end: Option<RunEnd>,
    /// Wall-clock deadline, checked by [`Simulator::run_until_cycle`].
    deadline: Option<Instant>,
    /// Whether the deadline stopped a run.
    deadline_stopped: bool,
    /// Register-file liveness probe (ACE analysis), if attached.
    prf_probe: Option<Box<dyn LivenessProbe>>,
    /// Pipeline-queue occupancy probe, if attached.
    pipeline_probe: Option<Box<dyn PipelineProbe>>,
    /// Whether any probe (core- or memory-side) is attached; gates the
    /// per-cycle probe bookkeeping so the unprobed hot path pays one branch.
    probes_attached: bool,
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("cycle", &self.cycle)
            .field("pc", &self.fetch_pc)
            .field("committed", &self.committed)
            .field("rob", &self.rob.len())
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Builds a simulator with `program` loaded (text/data in scattered
    /// physical frames, `sp` initialized to the stack top).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid ([`CoreConfig::validate`]).
    pub fn new(cfg: CoreConfig, program: &Program) -> Self {
        cfg.validate();
        let mem = MemorySystem::for_program(cfg.mem, program);
        let mut prf = PhysRegFile::new(cfg.phys_regs);
        let sp_phys = prf.rename(Reg::SP).expect("sp is renamed");
        prf.write(sp_phys, mbu_isa::STACK_TOP);
        Self {
            cfg,
            mem,
            prf,
            rob: VecDeque::with_capacity(cfg.rob_entries as usize),
            head_seq: 0,
            iq: Vec::with_capacity(cfg.iq_entries as usize),
            decode_q: VecDeque::with_capacity(cfg.decode_buffer as usize),
            completions: Vec::with_capacity(cfg.rob_entries as usize),
            wb_due: Vec::with_capacity(cfg.rob_entries as usize),
            fetch_pc: program.entry,
            fetch_stall: FetchStall::None,
            fetch_ready_at: 0,
            predictor: vec![1; 1024], // weakly not-taken
            mispredicts: 0,
            commit_ready_at: 0,
            cycle: 0,
            committed: 0,
            output: Vec::new(),
            end: None,
            deadline: None,
            deadline_stopped: false,
            prf_probe: None,
            pipeline_probe: None,
            probes_attached: false,
        }
    }

    /// Resumes the machine a checkpoint was captured from, under the `cfg`
    /// it was captured with: the result steps cycle for cycle like that
    /// machine. The caches, register values and DRAM start out sharing the
    /// checkpoint's copy-on-write state and the page table is the
    /// checkpoint's own, so nothing is loaded or rebuilt — an injection run
    /// pays only for the state it goes on to change. Queues get room for
    /// their configured bounds, so the hot loop never grows them. No
    /// deadline and no probes are set.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid ([`CoreConfig::validate`]),
    /// or if the checkpoint was captured under a different memory
    /// configuration or register count.
    pub fn from_snapshot(cfg: CoreConfig, state: &SimSnapshot) -> Self {
        cfg.validate();
        let mem = MemorySystem::from_snapshot(cfg.mem, &state.mem);
        assert_eq!(
            state.prf.len(),
            cfg.phys_regs as usize,
            "checkpoint was captured with a different register count"
        );
        let mut rob = VecDeque::with_capacity(cfg.rob_entries as usize);
        rob.extend(state.rob.iter().cloned());
        let mut iq = Vec::with_capacity(cfg.iq_entries as usize);
        iq.extend_from_slice(&state.iq);
        let mut decode_q = VecDeque::with_capacity(cfg.decode_buffer as usize);
        decode_q.extend(state.decode_q.iter().cloned());
        let mut completions = Vec::with_capacity(cfg.rob_entries as usize);
        completions.extend_from_slice(&state.completions);
        Self {
            cfg,
            mem,
            prf: state.prf.clone(),
            rob,
            head_seq: state.head_seq,
            iq,
            decode_q,
            completions,
            wb_due: Vec::with_capacity(cfg.rob_entries as usize),
            fetch_pc: state.fetch_pc,
            fetch_stall: state.fetch_stall,
            fetch_ready_at: state.fetch_ready_at,
            predictor: state.predictor.clone(),
            mispredicts: state.mispredicts,
            commit_ready_at: state.commit_ready_at,
            cycle: state.cycle,
            committed: state.committed,
            output: state.output.clone(),
            end: state.end,
            deadline: None,
            deadline_stopped: false,
            prf_probe: None,
            pipeline_probe: None,
            probes_attached: false,
        }
    }

    /// Attaches liveness/occupancy probes for a fault-free observation run.
    /// Probe events carry the simulator's cycle counter; detach with
    /// [`Simulator::detach_probes`] to recover the observers.
    pub fn attach_probes(&mut self, probes: SimProbes) {
        let SimProbes { mem, prf, pipeline } = probes;
        self.mem.attach_probes(mem);
        self.prf_probe = prf;
        self.pipeline_probe = pipeline;
        self.probes_attached = true;
    }

    /// Detaches all probes, returning the bundle for downcasting.
    pub fn detach_probes(&mut self) -> SimProbes {
        self.probes_attached = false;
        SimProbes {
            mem: self.mem.detach_probes().unwrap_or_default(),
            prf: self.prf_probe.take(),
            pipeline: self.pipeline_probe.take(),
        }
    }

    /// Sets a wall-clock deadline. [`Simulator::run_until_cycle`] checks it
    /// on entry and whenever the cycle counter reaches a multiple of 1,024
    /// (`DEADLINE_POLL_INTERVAL`); once it has passed, the call returns
    /// with the run still unfinished, which callers classify as a timeout.
    /// The check reads no machine state, so a run the deadline does not
    /// stop is cycle-identical to a run without one.
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = Some(deadline);
    }

    /// Whether the deadline set by [`Simulator::set_deadline`] stopped a run
    /// before it reached its target cycle or its end.
    pub fn stopped_by_deadline(&self) -> bool {
        self.deadline_stopped
    }

    /// The configuration this simulator was built with.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Instructions committed so far.
    pub fn instructions(&self) -> u64 {
        self.committed
    }

    /// Program output so far.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// The memory system (test introspection; mutable for injection tests).
    pub fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Microarchitectural counters accumulated so far.
    pub fn pipeline_stats(&self) -> PipelineStats {
        let c = |s: mbu_mem::CacheStats| (s.hits, s.misses);
        PipelineStats {
            l1i: c(self.mem.l1i.stats()),
            l1d: c(self.mem.l1d.stats()),
            l2: c(self.mem.l2.stats()),
            itlb: self.mem.itlb.stats(),
            dtlb: self.mem.dtlb.stats(),
            mispredicts: self.mispredicts,
        }
    }

    /// The physical register file (test introspection).
    pub fn regfile(&self) -> &PhysRegFile {
        &self.prf
    }

    /// Geometry of an injectable component's bit array
    /// ([`CoreConfig::component_geometry`]).
    pub fn component_geometry(&self, component: HwComponent) -> Geometry {
        self.cfg.component_geometry(component)
    }

    /// Flips the given bits of a component's storage array (the particle
    /// strike). Coordinates must be inside
    /// [`Simulator::component_geometry`].
    pub fn inject_flips(&mut self, component: HwComponent, coords: &[BitCoord]) {
        for &c in coords {
            match component {
                HwComponent::L1D => self.mem.l1d.inject_flip(c),
                HwComponent::L1I => self.mem.l1i.inject_flip(c),
                HwComponent::L2 => self.mem.l2.inject_flip(c),
                HwComponent::RegFile => self.prf.inject_flip(c),
                HwComponent::DTlb => self.mem.dtlb.inject_flip(c),
                HwComponent::ITlb => self.mem.itlb.inject_flip(c),
            }
        }
    }

    /// Geometry of a cache's *tag* array (extension/ablation target; the
    /// paper and the default campaigns inject into the data arrays).
    ///
    /// # Panics
    ///
    /// Panics for non-cache components ([`CoreConfig::tag_geometry`]).
    pub fn tag_geometry(&self, component: HwComponent) -> Geometry {
        self.cfg.tag_geometry(component)
    }

    /// Flips bits of a cache's tag array (tag, valid and dirty bits) —
    /// the ablation path for tag-protection studies.
    ///
    /// # Panics
    ///
    /// Panics for non-cache components or out-of-range coordinates.
    pub fn inject_tag_flips(&mut self, component: HwComponent, coords: &[BitCoord]) {
        for &c in coords {
            match component {
                HwComponent::L1D => self.mem.l1d.inject_tag_flip(c),
                HwComponent::L1I => self.mem.l1i.inject_tag_flip(c),
                HwComponent::L2 => self.mem.l2.inject_tag_flip(c),
                other => panic!("{other} has no tag array"),
            }
        }
    }

    /// Reads a source physical register, reporting the read to the probe.
    /// Wrong-path reads are included — conservative for ACE analysis (a bit
    /// observed speculatively is *possibly* live).
    fn prf_read(&mut self, phys: Option<PhysReg>) -> u32 {
        if let (Some(probe), Some(p)) = (self.prf_probe.as_deref_mut(), phys) {
            probe.on_read(self.cycle, p as usize, 0, 32);
        }
        self.prf.read_src(phys)
    }

    /// Writes a physical register, reporting the write to the probe.
    fn prf_write(&mut self, phys: PhysReg, value: u32) {
        if let Some(probe) = self.prf_probe.as_deref_mut() {
            probe.on_write(self.cycle, phys as usize, 0, 32);
        }
        self.prf.write(phys, value);
    }

    /// Reports a register returning to the free list (its value is dead).
    fn prf_invalidate(&mut self, phys: PhysReg) {
        if let Some(probe) = self.prf_probe.as_deref_mut() {
            probe.on_invalidate(self.cycle, phys as usize, 0, 32);
        }
    }

    fn entry(&self, seq: u64) -> &RobEntry {
        &self.rob[(seq - self.head_seq) as usize]
    }

    fn entry_mut(&mut self, seq: u64) -> &mut RobEntry {
        let idx = (seq - self.head_seq) as usize;
        &mut self.rob[idx]
    }

    /// Squashes every instruction younger than `seq`: walks the ROB tail
    /// backwards restoring the rename map and the free list, drops their IQ
    /// slots and scheduled completions, and clears the front end.
    fn squash_younger_than(&mut self, seq: u64) {
        while self.head_seq + self.rob.len() as u64 > seq + 1 {
            let entry = self.rob.pop_back().expect("tail exists");
            if let Some(d) = entry.dest {
                self.prf_invalidate(d.new);
                self.prf.unallocate(d.arch, d.new, d.prev);
            }
        }
        self.iq.retain(|&s| s <= seq);
        self.completions.retain(|&(_, s)| s <= seq);
        self.decode_q.clear();
    }

    fn commit_stage(&mut self) {
        let mut committed_now = 0;
        while committed_now < self.cfg.commit_width && !self.rob.is_empty() {
            if self.cycle < self.commit_ready_at {
                break;
            }
            if self.rob[0].state != SlotState::Done {
                break;
            }
            // Faults are precise: raise at head.
            if let Some(fault) = self.rob[0].fault {
                self.end = Some(match fault {
                    Fault::Trap(t) => RunEnd::Crashed(t),
                    Fault::Assert { pa } => RunEnd::Assert { pa },
                });
                return;
            }
            if let Some(st) = self.rob[0].store {
                let pc = self.rob[0].pc;
                match self.mem.write(st.addr, st.width, st.value) {
                    Ok(t) => {
                        if t.latency > self.cfg.mem.l1d.hit_latency {
                            self.commit_ready_at = self.cycle + t.latency as u64;
                        }
                    }
                    Err(mf) => {
                        self.end = Some(match Fault::from_mem(pc, mf) {
                            Fault::Trap(t) => RunEnd::Crashed(t),
                            Fault::Assert { pa } => RunEnd::Assert { pa },
                        });
                        return;
                    }
                }
            }
            if let Some((num, arg)) = self.rob[0].syscall {
                let pc = self.rob[0].pc;
                match num {
                    sys::EXIT => {
                        self.committed += 1;
                        self.end = Some(RunEnd::Exited { code: arg });
                        return;
                    }
                    sys::PUTC => self.output.push(arg as u8),
                    sys::PUTW => self.output.extend_from_slice(&arg.to_le_bytes()),
                    other => {
                        self.end = Some(RunEnd::Crashed(Trap::BadSyscall { pc, number: other }));
                        return;
                    }
                }
            }
            if let Some(d) = self.rob[0].dest {
                self.prf_invalidate(d.prev);
                self.prf.release(d.prev);
            }
            self.rob.pop_front();
            self.head_seq += 1;
            self.committed += 1;
            committed_now += 1;
        }
    }

    fn writeback_stage(&mut self) {
        // Collect completions due this cycle, oldest first, up to the width.
        // The scratch buffer is reused across cycles to avoid a per-cycle
        // heap allocation on this hot path.
        let mut due = std::mem::take(&mut self.wb_due);
        due.clear();
        due.extend(
            self.completions
                .iter()
                .filter(|(c, _)| *c <= self.cycle)
                .map(|(_, s)| *s),
        );
        due.sort_unstable();
        due.truncate(self.cfg.writeback_width as usize);
        if due.is_empty() {
            self.wb_due = due;
            return;
        }
        self.completions.retain(|(_, s)| !due.contains(s));
        for &seq in &due {
            // An older mispredicted branch processed earlier in this loop
            // may have squashed this instruction.
            if seq >= self.head_seq + self.rob.len() as u64 {
                continue;
            }
            let (dest, result, redirect) = {
                let e = self.entry_mut(seq);
                e.state = SlotState::Done;
                (e.dest, e.result, e.redirect)
            };
            if let (Some(d), Some(v)) = (dest, result) {
                self.prf_write(d.new, v);
            } else if let Some(d) = dest {
                // Faulted producer: mark ready so dependents can issue; they
                // will never commit past the fault.
                self.prf_write(d.new, 0);
            }
            if let Some(target) = redirect {
                let predicted = self.entry(seq).predicted_next;
                match predicted {
                    None => {
                        if self.fetch_stall == FetchStall::Branch(seq) {
                            self.fetch_pc = target;
                            self.fetch_stall = FetchStall::None;
                        }
                    }
                    Some(predicted_next) => {
                        // Update the direction counter with the real outcome.
                        let pc = self.entry(seq).pc;
                        let actually_taken = target != pc.wrapping_add(4);
                        let idx = ((pc >> 2) as usize) & (self.predictor.len() - 1);
                        let ctr = &mut self.predictor[idx];
                        if actually_taken {
                            *ctr = (*ctr + 1).min(3);
                        } else {
                            *ctr = ctr.saturating_sub(1);
                        }
                        if predicted_next != target {
                            self.squash_younger_than(seq);
                            self.fetch_pc = target;
                            self.fetch_stall = FetchStall::None;
                            self.fetch_ready_at = self.cycle;
                            self.mispredicts += 1;
                        }
                    }
                }
            }
        }
        self.wb_due = due;
    }

    /// Conservative store→load disambiguation. Returns `None` if the load
    /// must wait, `Some(Some(v))` to forward `v`, `Some(None)` to read the
    /// cache.
    fn load_may_issue(&self, load_seq: u64, addr: u32, width: u32) -> Option<Option<u32>> {
        let mut forward: Option<u32> = None;
        for seq in self.head_seq..load_seq {
            let e = self.entry(seq);
            let is_store = e.instr.map(|i| i.is_store()).unwrap_or(false);
            if !is_store {
                continue;
            }
            match e.store {
                None => {
                    // Older store address unknown (not yet executed, or it
                    // faulted — in the fault case the load never commits, so
                    // waiting is safe only if the store eventually "resolves";
                    // faulted stores are Done with store == None, so skip).
                    if e.fault.is_some() {
                        continue;
                    }
                    return None;
                }
                Some(st) => {
                    let a0 = addr;
                    let a1 = addr + width;
                    let b0 = st.addr;
                    let b1 = st.addr + st.width;
                    if a1 <= b0 || b1 <= a0 {
                        continue; // disjoint
                    }
                    if st.addr == addr && st.width == width {
                        forward = Some(st.value); // most recent wins
                    } else {
                        return None; // partial overlap: wait for commit
                    }
                }
            }
        }
        Some(forward)
    }

    fn execute(&mut self, seq: u64) {
        let (instr, pc, srcs, nsrcs) = {
            let e = self.entry(seq);
            (
                e.instr.expect("issued entries decoded"),
                e.pc,
                e.srcs,
                e.nsrcs,
            )
        };
        let s0 = self.prf_read(srcs[0]);
        let s1 = if nsrcs > 1 { self.prf_read(srcs[1]) } else { 0 };
        let mut latency = instr.latency();
        let mut result: Option<u32> = None;
        let mut fault: Option<Fault> = None;
        let mut store: Option<StoreOp> = None;
        let mut syscall: Option<(u32, u32)> = None;
        let mut redirect: Option<u32> = None;
        match instr {
            Instruction::Nop => {}
            Instruction::Alu { op, .. } => match op.apply(s0, s1) {
                Some(v) => result = Some(v),
                None => fault = Some(Fault::Trap(Trap::DivisionByZero { pc })),
            },
            Instruction::AluImm { op, imm, .. } => result = Some(op.apply(s0, imm)),
            Instruction::Lui { imm, .. } => result = Some((imm as u32) << 16),
            Instruction::Load {
                width,
                signed,
                offset,
                ..
            } => {
                let addr = s0.wrapping_add(offset as i32 as u32);
                let bytes = width.bytes();
                if !addr.is_multiple_of(bytes) {
                    fault = Some(Fault::Trap(Trap::Misaligned { pc, addr }));
                } else {
                    // Forwarding decision was made by the issue stage.
                    match self.load_may_issue(seq, addr, bytes) {
                        Some(Some(v)) => result = Some(extend(v, width, signed)),
                        Some(None) => match self.mem.read(addr, bytes) {
                            Ok(t) => {
                                latency = latency.max(t.latency);
                                result = Some(extend(t.value, width, signed));
                            }
                            Err(mf) => fault = Some(Fault::from_mem(pc, mf)),
                        },
                        None => unreachable!("issue stage checked disambiguation"),
                    }
                }
            }
            Instruction::Store { width, offset, .. } => {
                let addr = s0.wrapping_add(offset as i32 as u32);
                let bytes = width.bytes();
                if !addr.is_multiple_of(bytes) {
                    fault = Some(Fault::Trap(Trap::Misaligned { pc, addr }));
                } else {
                    store = Some(StoreOp {
                        addr,
                        width: bytes,
                        value: s1,
                    });
                }
            }
            Instruction::Branch { cond, offset, .. } => {
                let taken = cond.eval(s0, s1);
                redirect = Some(if taken {
                    pc.wrapping_add(4)
                        .wrapping_add((offset as i32 as u32).wrapping_mul(4))
                } else {
                    pc.wrapping_add(4)
                });
            }
            Instruction::J { .. } => {}
            Instruction::Jal { .. } => result = Some(pc.wrapping_add(4)),
            Instruction::Jr { .. } => redirect = Some(s0),
            Instruction::Jalr { .. } => {
                redirect = Some(s0);
                result = Some(pc.wrapping_add(4));
            }
            Instruction::Syscall => syscall = Some((s0, s1)),
        }
        let e = self.entry_mut(seq);
        e.state = SlotState::Executing;
        e.result = result;
        e.fault = fault;
        e.store = store;
        e.syscall = syscall;
        e.redirect = redirect;
        self.completions
            .push((self.cycle + latency.max(1) as u64, seq));
    }

    fn issue_stage(&mut self) {
        let mut issued = 0;
        let mut i = 0;
        while i < self.iq.len() && issued < self.cfg.issue_width {
            let seq = self.iq[i];
            let ready = {
                let e = self.entry(seq);
                let mut ok = true;
                for s in 0..e.nsrcs as usize {
                    if !self.prf.is_ready(e.srcs[s]) {
                        ok = false;
                        break;
                    }
                }
                ok
            };
            if !ready {
                if self.cfg.in_order {
                    break; // strictly in-order: the oldest must issue first
                }
                i += 1;
                continue;
            }
            // Loads additionally need disambiguation against older stores.
            let load_info = {
                let e = self.entry(seq);
                match e.instr {
                    Some(Instruction::Load { width, offset, .. }) => {
                        Some((e.srcs[0], width, offset))
                    }
                    _ => None,
                }
            };
            if let Some((src, width, offset)) = load_info {
                let addr = self.prf_read(src).wrapping_add(offset as i32 as u32);
                let bytes = width.bytes();
                if addr.is_multiple_of(bytes) && self.load_may_issue(seq, addr, bytes).is_none() {
                    if self.cfg.in_order {
                        break;
                    }
                    i += 1;
                    continue;
                }
            }
            self.iq.remove(i);
            self.execute(seq);
            issued += 1;
        }
    }

    fn dispatch_stage(&mut self) {
        let mut dispatched = 0;
        while dispatched < self.cfg.fetch_width {
            if self.rob.len() >= self.cfg.rob_entries as usize {
                break;
            }
            let Some(front) = self.decode_q.front() else {
                break;
            };
            let seq = self.head_seq + self.rob.len() as u64;
            match &front.result {
                Err(_) => {
                    let d = self.decode_q.pop_front().expect("peeked");
                    let fault = d.result.err();
                    self.rob.push_back(RobEntry {
                        pc: d.pc,
                        instr: None,
                        state: SlotState::Done,
                        fault,
                        srcs: [None, None],
                        nsrcs: 0,
                        dest: None,
                        result: None,
                        store: None,
                        syscall: None,
                        redirect: None,
                        predicted_next: None,
                    });
                }
                Ok(instr) => {
                    if self.iq.len() >= self.cfg.iq_entries as usize {
                        break;
                    }
                    let needs_dest = instr.dest().is_some();
                    if needs_dest && self.prf.free_count() == 0 {
                        break;
                    }
                    let instr = *instr;
                    let d = self.decode_q.pop_front().expect("peeked");
                    // Rename sources against the current map *before*
                    // allocating the destination (handles `add r1, r1, r1`).
                    let sources = instr.sources();
                    let srcs = sources.map(|r| r.and_then(|r| self.prf.rename(r)));
                    let nsrcs = sources.iter().flatten().count() as u8;
                    let dest = instr.dest().map(|arch| {
                        let (new, prev) = self.prf.allocate(arch).expect("free-list checked above");
                        DestInfo { arch, new, prev }
                    });
                    self.rob.push_back(RobEntry {
                        pc: d.pc,
                        instr: Some(instr),
                        state: SlotState::Waiting,
                        fault: None,
                        srcs,
                        nsrcs,
                        dest,
                        result: None,
                        store: None,
                        syscall: None,
                        redirect: None,
                        predicted_next: d.predicted_next,
                    });
                    self.iq.push(seq);
                }
            }
            dispatched += 1;
        }
    }

    fn fetch_stage(&mut self) {
        let mut fetched = 0;
        while fetched < self.cfg.fetch_width {
            if self.fetch_stall != FetchStall::None
                || self.cycle < self.fetch_ready_at
                || self.decode_q.len() >= self.cfg.decode_buffer as usize
            {
                break;
            }
            let pc = self.fetch_pc;
            if !pc.is_multiple_of(4) {
                self.decode_q.push_back(Decoded {
                    pc,
                    result: Err(Fault::Trap(Trap::Misaligned { pc, addr: pc })),
                    predicted_next: None,
                });
                self.fetch_stall = FetchStall::Fault;
                break;
            }
            match self.mem.fetch(pc) {
                Err(mf) => {
                    self.decode_q.push_back(Decoded {
                        pc,
                        result: Err(Fault::from_mem(pc, mf)),
                        predicted_next: None,
                    });
                    self.fetch_stall = FetchStall::Fault;
                    break;
                }
                Ok(t) => {
                    if t.latency > self.cfg.mem.l1i.hit_latency {
                        // I-cache miss / TLB walk: charge the latency to the
                        // front end.
                        self.fetch_ready_at = self.cycle + t.latency as u64;
                    }
                    match decode(t.value) {
                        Err(_) => {
                            self.decode_q.push_back(Decoded {
                                pc,
                                result: Err(Fault::Trap(Trap::UndefinedInstruction {
                                    pc,
                                    word: t.value,
                                })),
                                predicted_next: None,
                            });
                            self.fetch_stall = FetchStall::Fault;
                            break;
                        }
                        Ok(instr) => {
                            // Conditional branches: predict when speculation
                            // is enabled (targets are pc-relative, so no BTB
                            // is needed; indirect jumps still stall).
                            if self.cfg.branch_prediction {
                                if let Instruction::Branch { offset, .. } = instr {
                                    let idx = ((pc >> 2) as usize) & (self.predictor.len() - 1);
                                    let taken = self.predictor[idx] >= 2;
                                    let next = if taken {
                                        pc.wrapping_add(4)
                                            .wrapping_add((offset as i32 as u32).wrapping_mul(4))
                                    } else {
                                        pc.wrapping_add(4)
                                    };
                                    self.decode_q.push_back(Decoded {
                                        pc,
                                        result: Ok(instr),
                                        predicted_next: Some(next),
                                    });
                                    fetched += 1;
                                    self.fetch_pc = next;
                                    continue;
                                }
                            }
                            self.decode_q.push_back(Decoded {
                                pc,
                                result: Ok(instr),
                                predicted_next: None,
                            });
                            fetched += 1;
                            if instr.is_direct_jump() {
                                let target = match instr {
                                    Instruction::J { target } | Instruction::Jal { target } => {
                                        target << 2
                                    }
                                    _ => unreachable!(),
                                };
                                self.fetch_pc = target;
                                break; // redirected: stop fetching this cycle
                            } else if instr.is_control() {
                                // The sequence number it will get at dispatch:
                                let seq = self.head_seq
                                    + self.rob.len() as u64
                                    + self.decode_q.len() as u64
                                    - 1;
                                self.fetch_stall = FetchStall::Branch(seq);
                                break;
                            } else {
                                self.fetch_pc = pc.wrapping_add(4);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Advances the machine by one cycle. Returns the run end if the
    /// simulation finished during this cycle.
    pub fn step(&mut self) -> Option<RunEnd> {
        if let Some(end) = self.end {
            return Some(end);
        }
        if self.probes_attached {
            self.mem.set_probe_cycle(self.cycle);
            if let Some(p) = self.pipeline_probe.as_deref_mut() {
                let sb = self.rob.iter().filter(|e| e.store.is_some()).count();
                p.on_cycle(self.cycle, self.rob.len(), self.iq.len(), sb);
            }
        }
        self.commit_stage();
        if self.end.is_none() {
            self.writeback_stage();
            self.issue_stage();
            self.dispatch_stage();
            self.fetch_stage();
        }
        self.cycle += 1;
        self.end
    }

    /// Runs until the cycle counter reaches `cycle` or the program ends.
    ///
    /// Two safety rails bound the loop beyond the plain cycle budget:
    ///
    /// * a **stall fuse** — 2¹⁸ (`STALL_FUSE`) consecutive cycles without a
    ///   commit end the run as [`RunEnd::CycleLimit`] (a wedged pipeline is a
    ///   livelock; burning the remaining budget would only waste wall-clock);
    /// * a **deadline check** — once a deadline set with
    ///   [`Simulator::set_deadline`] has passed, the loop exits early with
    ///   the run unfinished (`None` end) and
    ///   [`Simulator::stopped_by_deadline`] turns `true`.
    pub fn run_until_cycle(&mut self, cycle: u64) -> Option<RunEnd> {
        let mut stalled: u64 = 0;
        self.run_until_cycle_resumable(cycle, &mut stalled)
    }

    /// Like [`Simulator::run_until_cycle`], but with a caller-owned stall
    /// counter so a run can be split into segments (e.g. pausing at
    /// checkpoint cycles for reconvergence checks) while keeping the stall
    /// fuse *continuous* across the segments. A sequence of calls with the
    /// same `stalled` counter behaves exactly like one uninterrupted
    /// [`Simulator::run_until_cycle`] call over the combined range — the
    /// fuse trips after 2¹⁸ (`STALL_FUSE`) consecutive commit-less cycles
    /// regardless of how the range was segmented, which is what keeps
    /// fast-forwarded injection runs classification-identical to full runs.
    /// The deadline is likewise checked on entry and at the same cycle
    /// multiples however the range is split, so segmenting cannot delay a
    /// stop either.
    pub fn run_until_cycle_resumable(&mut self, cycle: u64, stalled: &mut u64) -> Option<RunEnd> {
        let mut last_committed = self.committed;
        let mut poll = true;
        while self.end.is_none() && self.cycle < cycle {
            if poll && self.deadline.is_some_and(|d| Instant::now() >= d) {
                self.deadline_stopped = true;
                break;
            }
            self.step();
            if self.committed == last_committed {
                *stalled += 1;
                if *stalled >= STALL_FUSE {
                    self.end = Some(RunEnd::CycleLimit);
                    break;
                }
            } else {
                last_committed = self.committed;
                *stalled = 0;
            }
            poll = self.cycle.is_multiple_of(DEADLINE_POLL_INTERVAL);
        }
        self.end
    }

    /// Runs to completion or `max_cycles`, consuming the simulator.
    pub fn run(mut self, max_cycles: u64) -> RunResult {
        self.run_until_cycle(max_cycles);
        let end = self.end.unwrap_or(RunEnd::CycleLimit);
        RunResult {
            end,
            output: self.output,
            cycles: self.cycle,
            instructions: self.committed,
        }
    }

    /// Liveness-aware comparison against a checkpoint of the *fault-free*
    /// machine at the same cycle: `true` when every reachable bit of state —
    /// pipeline, register file, caches, TLBs, DRAM, pending output — matches.
    ///
    /// Because the simulator is deterministic, equality of all reachable
    /// state at cycle `c` implies every subsequent cycle is identical to the
    /// golden run, so the run is provably `Masked` and can stop early.
    /// Unreachable state (free physical registers, invalid cache lines and
    /// TLB entries) is excluded: it is always fully overwritten before it
    /// can be read, so a fault lingering there cannot change the future.
    pub fn converged_with(&self, golden: &SimSnapshot) -> bool {
        // Cheap scalar state first, memory arrays last.
        self.cycle == golden.cycle
            && self.committed == golden.committed
            && self.end == golden.end
            && self.head_seq == golden.head_seq
            && self.fetch_pc == golden.fetch_pc
            && self.fetch_stall == golden.fetch_stall
            && self.fetch_ready_at == golden.fetch_ready_at
            && self.commit_ready_at == golden.commit_ready_at
            && self.mispredicts == golden.mispredicts
            && self.output == golden.output
            && self.iq == golden.iq
            && same_completion_set(&self.completions, &golden.completions)
            && self.rob == golden.rob
            && self.decode_q == golden.decode_q
            && self.predictor == golden.predictor
            && self.prf.converged_with(&golden.prf)
            && self.mem.converged_with(&golden.mem)
    }
}

/// Writeback order depends only on the *set* of pending completions (they
/// are re-sorted by sequence number every cycle), so the comparison must not
/// be sensitive to insertion order.
fn same_completion_set(a: &[(u64, u64)], b: &[(u64, u64)]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    if a == b {
        return true;
    }
    // Sequence numbers are unique, so equal-length containment in one
    // direction is set equality; the sets are at most a few entries, so a
    // quadratic scan beats sorting two fresh allocations.
    a.iter().all(|x| b.contains(x))
}

/// A complete, bit-exact checkpoint of a [`Simulator`]: all pipeline state
/// (register file with rename map and free list, ROB, issue queue, decode
/// queue, in-flight completions, fetch/commit stall state, branch
/// predictor), the whole memory hierarchy ([`MemSnapshot`], with
/// copy-on-write DRAM pages), the syscall-shim output buffer and the
/// cycle/retire counters.
///
/// Non-architectural attachments — the deadline and liveness probes —
/// are deliberately excluded: [`Simulator::from_snapshot`] under the same
/// configuration reproduces execution cycle-for-cycle, with no program to
/// reload.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    mem: MemSnapshot,
    prf: PhysRegFile,
    rob: VecDeque<RobEntry>,
    head_seq: u64,
    iq: Vec<u64>,
    decode_q: VecDeque<Decoded>,
    completions: Vec<(u64, u64)>,
    fetch_pc: u32,
    fetch_stall: FetchStall,
    fetch_ready_at: u64,
    predictor: Vec<u8>,
    mispredicts: u64,
    commit_ready_at: u64,
    cycle: u64,
    committed: u64,
    output: Vec<u8>,
    end: Option<RunEnd>,
}

impl SimSnapshot {
    /// The cycle this checkpoint was captured at.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether the captured machine had already finished its run.
    pub fn ended(&self) -> bool {
        self.end.is_some()
    }

    /// Approximate retained heap bytes of this checkpoint. DRAM pages shared
    /// with `prev` (an already-retained checkpoint) are not charged again.
    pub fn retained_bytes(&self, prev: Option<&Self>) -> usize {
        use std::mem::size_of;
        self.mem.retained_bytes(prev.map(|p| &p.mem))
            + self.prf.snapshot_bytes()
            + self.rob.len() * size_of::<RobEntry>()
            + self.iq.len() * 8
            + self.decode_q.len() * size_of::<Decoded>()
            + self.completions.len() * 16
            + self.predictor.len()
            + self.output.len()
            + size_of::<Self>()
    }
}

impl Snapshot for Simulator {
    type State = SimSnapshot;

    fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            mem: self.mem.snapshot(),
            prf: self.prf.clone(),
            rob: self.rob.clone(),
            head_seq: self.head_seq,
            iq: self.iq.clone(),
            decode_q: self.decode_q.clone(),
            completions: self.completions.clone(),
            fetch_pc: self.fetch_pc,
            fetch_stall: self.fetch_stall,
            fetch_ready_at: self.fetch_ready_at,
            predictor: self.predictor.clone(),
            mispredicts: self.mispredicts,
            commit_ready_at: self.commit_ready_at,
            cycle: self.cycle,
            committed: self.committed,
            output: self.output.clone(),
            end: self.end,
        }
    }
}

fn extend(raw: u32, width: MemWidth, signed: bool) -> u32 {
    if !signed {
        return raw;
    }
    match width {
        MemWidth::Byte => raw as u8 as i8 as i32 as u32,
        MemWidth::Half => raw as u16 as i16 as i32 as u32,
        MemWidth::Word => raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbu_isa::asm::assemble;
    use mbu_isa::interp::{ArchInterpreter, StopReason};

    const EXIT0: &str = "li r2, 0\nli r3, 0\nsyscall\n";

    fn run_src(src: &str) -> RunResult {
        let p = assemble(src).expect("assemble");
        Simulator::new(CoreConfig::cortex_a9_like(), &p).run(1_000_000)
    }

    fn assert_matches_interpreter(src: &str) {
        let p = assemble(src).expect("assemble");
        let golden = ArchInterpreter::new(&p)
            .run(10_000_000)
            .expect("golden run");
        assert_eq!(
            golden.stop,
            StopReason::Exited { code: 0 },
            "golden must exit"
        );
        let r = Simulator::new(CoreConfig::cortex_a9_like(), &p).run(10_000_000);
        assert_eq!(
            r.end,
            RunEnd::Exited { code: 0 },
            "simulator must exit cleanly"
        );
        assert_eq!(
            r.output, golden.output,
            "outputs must match the golden model"
        );
    }

    #[test]
    fn exit_code_propagates() {
        let r = run_src(".text\nmain:\nli r2, 0\nli r3, 7\nsyscall\n");
        assert_eq!(r.end, RunEnd::Exited { code: 7 });
    }

    #[test]
    fn arithmetic_loop_matches_interpreter() {
        assert_matches_interpreter(&format!(
            ".text\nmain:\nli r1, 100\nli r4, 0\nloop:\nadd r4, r4, r1\naddi r1, r1, -1\nbnez r1, loop\nli r2, 2\nmv r3, r4\nsyscall\n{EXIT0}"
        ));
    }

    #[test]
    fn memory_traffic_matches_interpreter() {
        assert_matches_interpreter(&format!(
            r#".text
main:
    la   r1, buf
    li   r4, 64
    li   r5, 0
fill:
    mul  r6, r5, r5
    sw   r6, 0(r1)
    addi r1, r1, 4
    addi r5, r5, 1
    bne  r5, r4, fill
    la   r1, buf
    li   r5, 0
    li   r7, 0
sum:
    lw   r6, 0(r1)
    add  r7, r7, r6
    addi r1, r1, 4
    addi r5, r5, 1
    bne  r5, r4, sum
    li   r2, 2
    mv   r3, r7
    syscall
{EXIT0}
.data
buf: .space 256
"#
        ));
    }

    #[test]
    fn store_load_forwarding_is_correct() {
        assert_matches_interpreter(&format!(
            ".text\nmain:\nla r1, v\nli r4, 123\nsw r4, 0(r1)\nlw r5, 0(r1)\nli r2, 1\nmv r3, r5\nsyscall\n{EXIT0}\n.data\nv: .word 0\n"
        ));
    }

    #[test]
    fn partial_overlap_store_load() {
        // Byte store into a word then word load: partial overlap path.
        assert_matches_interpreter(&format!(
            ".text\nmain:\nla r1, v\nli r4, 0xAA\nsb r4, 1(r1)\nlw r5, 0(r1)\nli r2, 2\nmv r3, r5\nsyscall\n{EXIT0}\n.data\nv: .word 0x11223344\n"
        ));
    }

    #[test]
    fn function_calls_match() {
        assert_matches_interpreter(&format!(
            r#".text
main:
    li   r1, 9
    jal  square
    li   r2, 1
    mv   r3, r1
    syscall
{EXIT0}
square:
    mul  r1, r1, r1
    jr   ra
"#
        ));
    }

    #[test]
    fn undefined_instruction_crashes_precisely() {
        // A store writes 0xFF000000 (invalid opcode) over upcoming code? Text
        // is read-only, so instead jump into the data segment (no-exec).
        let r = run_src(".text\nmain:\nla r1, blob\njr r1\n.data\nblob: .word 0xFF000000\n");
        match r.end {
            RunEnd::Crashed(Trap::Segfault { .. }) => {} // no-exec page
            other => panic!("unexpected end {other:?}"),
        }
    }

    #[test]
    fn div_by_zero_crashes() {
        let r = run_src(".text\nmain:\nli r1, 5\nli r4, 0\ndiv r5, r1, r4\n");
        assert!(matches!(
            r.end,
            RunEnd::Crashed(Trap::DivisionByZero { .. })
        ));
    }

    #[test]
    fn misaligned_load_crashes() {
        let r = run_src(".text\nmain:\nla r1, v\nlw r5, 2(r1)\n.data\nv: .word 1, 2\n");
        assert!(matches!(r.end, RunEnd::Crashed(Trap::Misaligned { .. })));
    }

    #[test]
    fn unmapped_load_crashes() {
        let r = run_src(".text\nmain:\nli r1, 0x2F00\nlw r5, 0(r1)\n");
        assert!(matches!(r.end, RunEnd::Crashed(Trap::Segfault { .. })));
    }

    #[test]
    fn infinite_loop_hits_cycle_limit() {
        let p = assemble(".text\nmain:\nb main\n").unwrap();
        let r = Simulator::new(CoreConfig::cortex_a9_like(), &p).run(5_000);
        assert_eq!(r.end, RunEnd::CycleLimit);
        assert_eq!(r.cycles, 5_000);
    }

    #[test]
    fn tiny_config_still_correct_under_structural_hazards() {
        let src = format!(
            ".text\nmain:\nli r1, 30\nli r4, 1\nloop:\nmul r4, r4, r1\nrem r4, r4, r1\nadd r4, r4, r1\naddi r1, r1, -1\nbnez r1, loop\nli r2, 2\nmv r3, r4\nsyscall\n{EXIT0}"
        );
        let p = assemble(&src).unwrap();
        let golden = ArchInterpreter::new(&p).run(1_000_000).unwrap().output;
        let r = Simulator::new(CoreConfig::tiny(), &p).run(10_000_000);
        assert_eq!(r.end, RunEnd::Exited { code: 0 });
        assert_eq!(r.output, golden);
    }

    #[test]
    fn deterministic_across_runs() {
        let src =
            format!(".text\nmain:\nli r1, 50\nloop:\naddi r1, r1, -1\nbnez r1, loop\n{EXIT0}");
        let p = assemble(&src).unwrap();
        let a = Simulator::new(CoreConfig::cortex_a9_like(), &p).run(1_000_000);
        let b = Simulator::new(CoreConfig::cortex_a9_like(), &p).run(1_000_000);
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_order_overlap_beats_serial_latency() {
        // Independent long-latency chains overlap under OoO issue; a
        // dependent chain of the same operations cannot.
        let indep = format!(
            ".text\nmain:\nli r1, 700\nli r4, 9\ndiv r5, r1, r4\ndiv r6, r4, r1\ndiv r7, r1, r4\ndiv r8, r4, r1\n{EXIT0}"
        );
        let dep = format!(
            ".text\nmain:\nli r1, 700\nli r4, 9\ndiv r5, r1, r4\ndiv r6, r1, r5\ndiv r7, r1, r6\ndiv r8, r1, r7\n{EXIT0}"
        );
        let run = |src: &str| {
            let p = assemble(src).unwrap();
            let r = Simulator::new(CoreConfig::cortex_a9_like(), &p).run(100_000);
            assert_eq!(r.end, RunEnd::Exited { code: 0 });
            r.cycles
        };
        let (ci, cd) = (run(&indep), run(&dep));
        assert!(
            ci + 12 <= cd,
            "independent divs ({ci} cycles) must overlap vs dependent chain ({cd} cycles)"
        );
    }

    #[test]
    fn regfile_injection_before_use_corrupts_output() {
        // r1 is never written: it reads its initial physical register, whose
        // value we corrupt before the run.
        let src = format!(".text\nmain:\nmv r3, r1\nli r2, 1\nsyscall\n{EXIT0}");
        let p = assemble(&src).unwrap();
        let mut sim = Simulator::new(CoreConfig::cortex_a9_like(), &p);
        let r1_phys = sim.regfile().rename(mbu_isa::Reg::new(1)).unwrap();
        sim.inject_flips(HwComponent::RegFile, &[BitCoord::new(r1_phys as usize, 6)]);
        let r = sim.run(100_000);
        assert_eq!(r.end, RunEnd::Exited { code: 0 });
        assert_eq!(r.output, vec![64]);
    }

    #[test]
    fn component_geometries_exposed() {
        let p = assemble(".text\nmain: nop\n").unwrap();
        let sim = Simulator::new(CoreConfig::cortex_a9_like(), &p);
        // Scaled experimental memory config: 2 KB L1s, 8 KB L2,
        // 4-entry ITLB / 8-entry DTLB.
        assert_eq!(
            sim.component_geometry(HwComponent::L1D).total_bits(),
            16_384
        );
        assert_eq!(sim.component_geometry(HwComponent::L2).total_bits(), 65_536);
        assert_eq!(
            sim.component_geometry(HwComponent::RegFile).total_bits(),
            56 * 32
        );
        assert_eq!(
            sim.component_geometry(HwComponent::ITlb).total_bits(),
            4 * 44
        );
        assert_eq!(
            sim.component_geometry(HwComponent::DTlb).total_bits(),
            8 * 44
        );
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;
    use mbu_isa::asm::assemble;

    const EXIT0: &str = "li r2, 0\nli r3, 0\nsyscall\n";

    #[test]
    fn misaligned_jump_target_crashes_at_fetch() {
        let r = {
            let p = assemble(".text\nmain:\nli r1, 0x00400002\njr r1\n").unwrap();
            Simulator::new(CoreConfig::cortex_a9_like(), &p).run(100_000)
        };
        assert!(
            matches!(r.end, RunEnd::Crashed(Trap::Misaligned { .. })),
            "{:?}",
            r.end
        );
    }

    #[test]
    fn jump_into_unmapped_text_crashes() {
        let p = assemble(".text\nmain:\nli r1, 0x00500000\njr r1\n").unwrap();
        let r = Simulator::new(CoreConfig::cortex_a9_like(), &p).run(100_000);
        assert!(
            matches!(r.end, RunEnd::Crashed(Trap::Segfault { .. })),
            "{:?}",
            r.end
        );
    }

    #[test]
    fn bad_syscall_number_crashes() {
        let p = assemble(&format!(
            ".text\nmain:\nli r2, 99\nli r3, 0\nsyscall\n{EXIT0}"
        ))
        .unwrap();
        let r = Simulator::new(CoreConfig::cortex_a9_like(), &p).run(100_000);
        assert!(matches!(
            r.end,
            RunEnd::Crashed(Trap::BadSyscall { number: 99, .. })
        ));
    }

    #[test]
    fn faulting_instruction_in_untaken_shadow_never_crashes() {
        // The divide-by-zero sits after the exit syscall; precise faults
        // mean it must never be architecturally visible.
        let src = format!(
            ".text\nmain:\nli r1, 1\nbnez r1, out\ndiv r4, r1, zero\nout:\n{EXIT0}div r4, r1, zero\n"
        );
        let p = assemble(&src).unwrap();
        let r = Simulator::new(CoreConfig::cortex_a9_like(), &p).run(100_000);
        assert_eq!(r.end, RunEnd::Exited { code: 0 });
    }

    #[test]
    fn output_order_is_program_order() {
        // Interleaved PUTC/PUTW syscalls commit in order even when younger
        // ALU work completes first.
        let src = ".text\nmain:\nli r2, 1\nli r3, 65\nsyscall\nli r1, 700\nli r4, 7\ndiv r5, r1, r4\nli r3, 66\nsyscall\nli r2, 0\nli r3, 0\nsyscall\n";
        let p = assemble(src).unwrap();
        let r = Simulator::new(CoreConfig::cortex_a9_like(), &p).run(100_000);
        assert_eq!(r.output, b"AB");
    }

    #[test]
    fn in_order_mode_serializes_issue() {
        // A dependent add blocks a younger independent divide: the OoO
        // machine hoists the divide past the stalled add, the in-order
        // machine cannot.
        let src = format!(
            ".text\nmain:\nli r1, 700\nli r4, 9\ndiv r5, r1, r4\nadd r6, r5, r1\ndiv r7, r4, r1\nadd r8, r7, r4\n{EXIT0}"
        );
        let p = assemble(&src).unwrap();
        let ooo = Simulator::new(CoreConfig::cortex_a9_like(), &p).run(100_000);
        let ino = Simulator::new(CoreConfig::in_order_a9(), &p).run(100_000);
        assert_eq!(ooo.end, RunEnd::Exited { code: 0 });
        assert_eq!(ino.end, RunEnd::Exited { code: 0 });
        assert!(
            ino.cycles >= ooo.cycles + 10,
            "in-order {} vs OoO {}",
            ino.cycles,
            ooo.cycles
        );
    }

    #[test]
    fn tag_geometry_exposed_for_caches_only() {
        let p = assemble(".text\nmain: nop\n").unwrap();
        let sim = Simulator::new(CoreConfig::cortex_a9_like(), &p);
        let g = sim.tag_geometry(HwComponent::L1D);
        assert_eq!(g.rows(), 64, "2 KB / 32 B lines");
        assert!(g.cols() > 20, "tag + valid + dirty bits");
    }

    #[test]
    #[should_panic(expected = "no tag array")]
    fn tag_geometry_panics_for_regfile() {
        let p = assemble(".text\nmain: nop\n").unwrap();
        let sim = Simulator::new(CoreConfig::cortex_a9_like(), &p);
        let _ = sim.tag_geometry(HwComponent::RegFile);
    }

    #[test]
    fn stack_accesses_work_through_hierarchy() {
        let src = format!(
            ".text\nmain:\naddi sp, sp, -16\nli r1, 0xABCD\nsw r1, 0(sp)\nsw r1, 12(sp)\nlw r3, 12(sp)\nli r2, 2\nsyscall\n{EXIT0}"
        );
        let p = assemble(&src).unwrap();
        let r = Simulator::new(CoreConfig::cortex_a9_like(), &p).run(1_000_000);
        assert_eq!(r.end, RunEnd::Exited { code: 0 });
        assert_eq!(r.output, 0xABCDu32.to_le_bytes().to_vec());
    }
}

#[cfg(test)]
mod speculation_tests {
    use super::*;
    use mbu_isa::asm::assemble;

    const EXIT0: &str = "li r2, 0\nli r3, 0\nsyscall\n";

    fn loop_program() -> mbu_isa::Program {
        assemble(&format!(
            ".text\nmain:\nli r1, 200\nli r4, 0\nloop:\nadd r4, r4, r1\naddi r1, r1, -1\nbnez r1, loop\nli r2, 2\nmv r3, r4\nsyscall\n{EXIT0}"
        ))
        .unwrap()
    }

    #[test]
    fn speculation_preserves_architectural_results() {
        let p = loop_program();
        let base = Simulator::new(CoreConfig::cortex_a9_like(), &p).run(1_000_000);
        let spec = Simulator::new(CoreConfig::speculative_a9(), &p).run(1_000_000);
        assert_eq!(base.end, RunEnd::Exited { code: 0 });
        assert_eq!(spec.end, base.end);
        assert_eq!(spec.output, base.output);
        assert_eq!(
            spec.instructions, base.instructions,
            "committed count is architectural"
        );
    }

    #[test]
    fn speculation_speeds_up_loops() {
        let p = loop_program();
        let base = Simulator::new(CoreConfig::cortex_a9_like(), &p).run(1_000_000);
        let spec = Simulator::new(CoreConfig::speculative_a9(), &p).run(1_000_000);
        assert!(
            spec.cycles * 10 < base.cycles * 9,
            "predicted back-edges must beat stall-on-branch ({} vs {})",
            spec.cycles,
            base.cycles
        );
    }

    #[test]
    fn mispredicts_are_counted_and_recovered() {
        // A data-dependent alternating branch defeats the bimodal predictor.
        let src = format!(
            ".text\nmain:\nli r1, 100\nli r4, 0\nli r5, 0\nloop:\nandi r6, r1, 1\nbeqz r6, even\naddi r4, r4, 3\nb next\neven:\naddi r5, r5, 7\nnext:\naddi r1, r1, -1\nbnez r1, loop\nli r2, 2\nadd r3, r4, r5\nsyscall\n{EXIT0}"
        );
        let p = assemble(&src).unwrap();
        let mut sim = Simulator::new(CoreConfig::speculative_a9(), &p);
        let end = sim.run_until_cycle(1_000_000);
        assert_eq!(end, Some(RunEnd::Exited { code: 0 }));
        assert!(
            sim.mispredicts > 20,
            "alternating branch must mispredict ({})",
            sim.mispredicts
        );
        assert_eq!(
            sim.output(),
            0u32.wrapping_add(50 * 3 + 50 * 7).to_le_bytes().as_slice()
        );
    }

    #[test]
    fn wrong_path_faults_never_crash() {
        // The not-taken fall-through leads straight into a division by zero
        // and a wild load; a predictor that guesses wrong must squash them.
        let src = format!(
            ".text\nmain:\nli r1, 50\nloop:\nli r4, 1\nbnez r4, safe\ndiv r5, r4, zero\nlw r6, 0(zero)\nsafe:\naddi r1, r1, -1\nbnez r1, loop\n{EXIT0}"
        );
        let p = assemble(&src).unwrap();
        let r = Simulator::new(CoreConfig::speculative_a9(), &p).run(1_000_000);
        assert_eq!(
            r.end,
            RunEnd::Exited { code: 0 },
            "speculative faults must be squashed"
        );
    }

    #[test]
    fn free_list_survives_heavy_squashing() {
        // Alternating branch with register writes on both paths: every
        // mispredict squashes renamed instructions; the free list must not
        // leak (run long enough that a leak of one register per squash
        // would deadlock the 56-entry file).
        let src = format!(
            ".text\nmain:\nli r1, 400\nloop:\nandi r6, r1, 1\nbeqz r6, even\naddi r4, r4, 1\naddi r5, r5, 2\naddi r7, r7, 3\nb next\neven:\naddi r8, r8, 4\naddi r9, r9, 5\naddi r10, r10, 6\nnext:\naddi r1, r1, -1\nbnez r1, loop\n{EXIT0}"
        );
        let p = assemble(&src).unwrap();
        let r = Simulator::new(CoreConfig::speculative_a9(), &p).run(10_000_000);
        assert_eq!(r.end, RunEnd::Exited { code: 0 });
    }

    #[test]
    fn speculative_runs_are_deterministic() {
        let p = loop_program();
        let a = Simulator::new(CoreConfig::speculative_a9(), &p).run(1_000_000);
        let b = Simulator::new(CoreConfig::speculative_a9(), &p).run(1_000_000);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use mbu_isa::asm::assemble;

    #[test]
    fn pipeline_stats_accumulate_sensibly() {
        let src = ".text\nmain:\nli r1, 500\nla r5, buf\nloop:\nlw r6, 0(r5)\naddi r1, r1, -1\nbnez r1, loop\nli r2, 0\nli r3, 0\nsyscall\n.data\nbuf: .word 7\n";
        let p = assemble(src).unwrap();
        let mut sim = Simulator::new(CoreConfig::cortex_a9_like(), &p);
        sim.run_until_cycle(u64::MAX / 8);
        let st = sim.pipeline_stats();
        assert!(st.l1d.0 > 400, "hot loop load must hit L1D: {:?}", st.l1d);
        assert!(PipelineStats::hit_rate(st.l1d) > 0.99);
        assert!(PipelineStats::hit_rate(st.l1i) > 0.9);
        assert!(st.dtlb.0 > 400, "DTLB hot: {:?}", st.dtlb);
        assert_eq!(st.mispredicts, 0, "no speculation by default");
    }

    #[test]
    fn hit_rate_of_untouched_structure_is_zero() {
        assert_eq!(PipelineStats::hit_rate((0, 0)), 0.0);
        assert_eq!(PipelineStats::hit_rate((3, 1)), 0.75);
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;
    use mbu_isa::asm::assemble;

    fn busy_program() -> mbu_isa::Program {
        // A loop with loads, stores and branches so the ROB, store buffer,
        // caches and TLBs all carry in-flight state at most cycles.
        let src = ".text\nmain:\nli r1, 300\nla r5, buf\nloop:\nlw r6, 0(r5)\naddi r6, r6, 3\nsw r6, 0(r5)\naddi r5, r5, 4\nandi r7, r1, 63\nbnez r7, skip\nla r5, buf\nskip:\naddi r1, r1, -1\nbnez r1, loop\nli r2, 2\nmv r3, r6\nsyscall\nli r2, 0\nli r3, 0\nsyscall\n.data\nbuf: .space 512\n";
        assemble(src).unwrap()
    }

    #[test]
    fn snapshot_restore_resumes_cycle_identically() {
        let p = busy_program();
        let cfg = CoreConfig::cortex_a9_like();
        let uninterrupted = Simulator::new(cfg, &p).run(1_000_000);
        assert_eq!(uninterrupted.end, RunEnd::Exited { code: 0 });

        // Snapshot mid-flight, keep running: result must be unchanged.
        let mut sim = Simulator::new(cfg, &p);
        sim.run_until_cycle(137);
        let saved = sim.snapshot();
        assert_eq!(saved.cycle(), 137);
        assert!(!saved.ended());
        let resumed = sim.run(1_000_000);
        assert_eq!(resumed, uninterrupted);

        // Resume a *fresh* simulator from the checkpoint alone: identical
        // continuation, with no program to reload.
        let fresh = Simulator::from_snapshot(cfg, &saved);
        assert_eq!(fresh.snapshot(), saved, "roundtrip must be bit-exact");
        let replayed = fresh.run(1_000_000);
        assert_eq!(replayed, uninterrupted);
    }

    #[test]
    fn restore_rewinds_a_diverged_machine() {
        let p = busy_program();
        let cfg = CoreConfig::cortex_a9_like();
        let mut sim = Simulator::new(cfg, &p);
        sim.run_until_cycle(100);
        let saved = sim.snapshot();
        sim.inject_flips(HwComponent::L1D, &[BitCoord::new(0, 0)]);
        sim.run_until_cycle(500);
        assert!(!sim.converged_with(&saved), "cycle count alone differs");
        let sim = Simulator::from_snapshot(cfg, &saved);
        assert!(sim.converged_with(&saved));
        assert_eq!(sim.snapshot(), saved);
    }

    #[test]
    #[should_panic(expected = "different memory configuration")]
    fn resuming_under_another_memory_configuration_panics() {
        let p = busy_program();
        let saved = Simulator::new(CoreConfig::cortex_a9_like(), &p).snapshot();
        let mut other = CoreConfig::cortex_a9_like();
        other.mem = mbu_mem::MemorySystemConfig::table1();
        let _ = Simulator::from_snapshot(other, &saved);
    }

    #[test]
    fn segmented_run_matches_single_call() {
        let p = busy_program();
        let single = Simulator::new(CoreConfig::cortex_a9_like(), &p).run(1_000_000);

        let mut sim = Simulator::new(CoreConfig::cortex_a9_like(), &p);
        let mut stalled: u64 = 0;
        let mut at = 89;
        while sim.run_until_cycle_resumable(at, &mut stalled).is_none() {
            at += 89;
        }
        assert_eq!(sim.end, Some(single.end));
        assert_eq!(sim.cycle, single.cycles);
        assert_eq!(sim.committed, single.instructions);
        assert_eq!(sim.output, single.output);
    }

    #[test]
    fn convergence_ignores_dead_state_but_sees_live_faults() {
        let p = busy_program();
        let mut sim = Simulator::new(CoreConfig::cortex_a9_like(), &p);
        sim.run_until_cycle(200);
        let golden = sim.snapshot();
        assert!(sim.converged_with(&golden));

        // A flip in a free physical register is dead state: convergence
        // holds even though bit-exact equality does not.
        let free = sim.prf.free_count();
        assert!(free > 0, "busy loop still leaves free registers");
        let dead_row = sim.prf.len() - 1; // free list tail = highest reg
        sim.inject_flips(HwComponent::RegFile, &[BitCoord::new(dead_row, 13)]);
        assert!(sim.converged_with(&golden), "free-register flip is dead");
        assert_ne!(sim.snapshot(), golden);

        // A flip in DRAM-visible state (store target line) is live.
        sim.inject_flips(HwComponent::L1D, &[BitCoord::new(0, 0)]);
        let l1d_live = sim.converged_with(&golden);
        // Row 0 may or may not hold a valid line; flip it back and check a
        // committed-state divergence instead: the cycle counter.
        sim.inject_flips(HwComponent::L1D, &[BitCoord::new(0, 0)]);
        assert!(sim.converged_with(&golden) || !l1d_live);
        sim.step();
        assert!(
            !sim.converged_with(&golden),
            "cycle advanced: not converged"
        );
    }
}
