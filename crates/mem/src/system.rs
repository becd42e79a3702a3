//! The assembled memory system: split L1s, unified L2, two TLBs, page table
//! and physical DRAM — the memory side of Table I.

use crate::cache::{Cache, CacheConfig, DramBacking, LineStore, LINE_BYTES};
use crate::paging::{PagePerms, PageTable};
use crate::phys::{PhysicalMemory, UnmappedPhysical};
use crate::probe::{record_cache_access, Demand, MemProbes};
use crate::tlb::{Tlb, TlbConfig, ENTRY_BITS, PPN_SHIFT, VPN_SHIFT};
use crate::{AddressSpace, PAGE_SIZE, PPN_BITS, VA_BITS, VPN_BITS};
use mbu_isa::program::{Program, DATA_BASE, STACK_SIZE, STACK_TOP, TEXT_BASE};
use mbu_sram::Snapshot;
use std::fmt;
use std::sync::Arc;

/// A value annotated with the access latency that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed<T> {
    /// The accessed value.
    pub value: T,
    /// Total latency in cycles.
    pub latency: u32,
}

/// Kind of memory access, for permission checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (requires execute permission).
    Fetch,
    /// Data load (requires read permission).
    Read,
    /// Data store (requires write permission).
    Write,
}

/// A memory-system fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFault {
    /// Unmapped virtual address — a process-level fault (segfault).
    PageFault {
        /// Offending virtual address.
        va: u32,
    },
    /// Permission violation — a process-level fault.
    Protection {
        /// Offending virtual address.
        va: u32,
        /// The attempted access kind.
        kind: AccessKind,
    },
    /// Physical address outside the system map — in gem5 terms a simulator
    /// assertion (§IV.E); only reachable through corrupted TLB/tag bits.
    OutsideSystemMap {
        /// Offending physical address.
        pa: u32,
    },
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MemFault::PageFault { va } => write!(f, "page fault at va 0x{va:08x}"),
            MemFault::Protection { va, kind } => {
                write!(f, "protection fault ({kind:?}) at va 0x{va:08x}")
            }
            MemFault::OutsideSystemMap { pa } => {
                write!(f, "physical address 0x{pa:08x} outside system map")
            }
        }
    }
}

impl std::error::Error for MemFault {}

impl From<UnmappedPhysical> for MemFault {
    fn from(e: UnmappedPhysical) -> Self {
        MemFault::OutsideSystemMap { pa: e.pa }
    }
}

/// Configuration of the whole memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemorySystemConfig {
    /// L1 instruction cache shape.
    pub l1i: CacheConfig,
    /// L1 data cache shape.
    pub l1d: CacheConfig,
    /// Unified L2 shape.
    pub l2: CacheConfig,
    /// Instruction TLB shape.
    pub itlb: TlbConfig,
    /// Data TLB shape.
    pub dtlb: TlbConfig,
    /// DRAM frames in the system map.
    pub dram_frames: u32,
    /// DRAM access latency in cycles.
    pub dram_latency: u32,
}

impl MemorySystemConfig {
    /// The paper's full Table I memory configuration (32 KB L1s, 512 KB L2,
    /// 32-entry TLBs) over a 48 MB system map. Used for configuration
    /// fidelity tests and capacity-ablation benches; the injection
    /// experiments default to [`MemorySystemConfig::scaled`].
    pub fn table1() -> Self {
        Self {
            l1i: CacheConfig::l1(),
            l1d: CacheConfig::l1(),
            l2: CacheConfig::l2(),
            itlb: TlbConfig::default(),
            dtlb: TlbConfig::default(),
            dram_frames: 196_608, // 48 MB of 256 B frames
            dram_latency: 50,
        }
    }

    /// The scaled experimental configuration: cache and TLB capacities
    /// scaled with the ~100×-scaled-down workloads so that *occupancy and
    /// pressure* (live bits / capacity, live TLB entries / entries) match
    /// the paper's full-system runs. 2 KB L1I, 2 KB L1D, 8 KB L2; TLB
    /// entry counts chosen so each TLB's *reach* matches its working set
    /// (hot code ≈ 1 KB → 4 ITLB entries; hot data ≈ 2 KB → 8 DTLB
    /// entries), reproducing the resident-and-live entry pattern that
    /// drives the paper's TLB AVFs. (8 DTLB entries measured best against
    /// the paper's per-benchmark DTLB profiles; see EXPERIMENTS.md.)
    pub fn scaled() -> Self {
        Self {
            l1i: CacheConfig::l1i_scaled(),
            l1d: CacheConfig::l1d_scaled(),
            l2: CacheConfig::l2_scaled(),
            itlb: TlbConfig {
                entries: 4,
                walk_latency: 20,
            },
            dtlb: TlbConfig {
                entries: 8,
                walk_latency: 20,
            },
            dram_frames: 196_608,
            dram_latency: 50,
        }
    }
}

impl Default for MemorySystemConfig {
    /// The scaled experimental configuration ([`MemorySystemConfig::scaled`]).
    fn default() -> Self {
        Self::scaled()
    }
}

/// L2 + DRAM as the backing store for an L1.
struct L2Backing<'a> {
    l2: &'a mut Cache,
    mem: &'a mut PhysicalMemory,
    dram_latency: u32,
    probes: Option<&'a mut MemProbes>,
    now: u64,
}

impl LineStore for L2Backing<'_> {
    fn load_line(&mut self, pa_line: u32) -> Result<([u8; 32], u32), UnmappedPhysical> {
        let before = self.l2.stats();
        let (line, lat) = {
            let mut dram = DramBacking {
                mem: self.mem,
                latency: self.dram_latency,
            };
            self.l2.access(pa_line, false, &mut dram)?
        };
        if let Some(p) = self.probes.as_deref_mut() {
            record_cache_access(
                self.l2,
                &mut p.l2_data,
                &mut p.l2_tag,
                self.now,
                pa_line,
                line,
                before,
                Demand::Read {
                    offset: 0,
                    width: LINE_BYTES,
                },
            );
        }
        let mut bytes = [0u8; 32];
        bytes.copy_from_slice(self.l2.read_bytes(line, 0, LINE_BYTES));
        Ok((bytes, lat))
    }

    fn store_line(&mut self, pa_line: u32, line_bytes: &[u8; 32]) -> Result<u32, UnmappedPhysical> {
        let before = self.l2.stats();
        let (line, lat) = {
            let mut dram = DramBacking {
                mem: self.mem,
                latency: self.dram_latency,
            };
            self.l2.access(pa_line, true, &mut dram)?
        };
        if let Some(p) = self.probes.as_deref_mut() {
            record_cache_access(
                self.l2,
                &mut p.l2_data,
                &mut p.l2_tag,
                self.now,
                pa_line,
                line,
                before,
                Demand::Write {
                    offset: 0,
                    width: LINE_BYTES,
                },
            );
        }
        self.l2.write_bytes(line, 0, line_bytes);
        Ok(lat)
    }
}

/// The full memory hierarchy of the modeled CPU.
///
/// # Example
///
/// ```
/// use mbu_isa::asm::assemble;
/// use mbu_mem::{MemorySystem, MemorySystemConfig};
///
/// let p = assemble(".text\nmain: nop\n.data\nv: .word 7\n")?;
/// let mut ms = MemorySystem::for_program(MemorySystemConfig::default(), &p);
/// let word = ms.read(p.symbol("v").unwrap(), 4)?;
/// assert_eq!(word.value, 7);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct MemorySystem {
    config: MemorySystemConfig,
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified L2 cache.
    pub l2: Cache,
    /// Instruction TLB.
    pub itlb: Tlb,
    /// Data TLB.
    pub dtlb: Tlb,
    /// Immutable after construction, so every checkpoint shares it.
    page_table: Arc<PageTable>,
    phys: PhysicalMemory,
    probes: Option<Box<MemProbes>>,
    probe_cycle: u64,
}

/// Copies a program segment into physical memory through `aspace`'s
/// mapping, one virtual page — so one physical frame — at a time.
fn load_segment(aspace: &AddressSpace, phys: &mut PhysicalMemory, base: u32, bytes: &[u8]) {
    let mut offset = 0;
    while offset < bytes.len() {
        let va = base + offset as u32;
        let page_rest = (PAGE_SIZE - va % PAGE_SIZE) as usize;
        let chunk = &bytes[offset..bytes.len().min(offset + page_rest)];
        let pa = aspace.translate(va).expect("segment page mapped");
        phys.write_bytes(pa, chunk)
            .expect("segment inside system map");
        offset += chunk.len();
    }
}

impl fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemorySystem")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl MemorySystem {
    /// Creates a memory system over an existing page table and DRAM image.
    pub fn new(config: MemorySystemConfig, page_table: PageTable, phys: PhysicalMemory) -> Self {
        Self {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            itlb: Tlb::new(config.itlb),
            dtlb: Tlb::new(config.dtlb),
            page_table: Arc::new(page_table),
            phys,
            probes: None,
            probe_cycle: 0,
        }
    }

    /// Resumes a memory system from a checkpoint taken under `config`: the
    /// caches, TLBs and DRAM start out sharing the checkpoint's
    /// copy-on-write state, and the page table is the checkpoint's own, so
    /// nothing is loaded or rebuilt. No probes are attached.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's caches, TLBs or DRAM were built under a
    /// different configuration.
    pub fn from_snapshot(config: MemorySystemConfig, state: &MemSnapshot) -> Self {
        assert!(
            state.l1i.config() == config.l1i
                && state.l1d.config() == config.l1d
                && state.l2.config() == config.l2
                && state.itlb.config() == config.itlb
                && state.dtlb.config() == config.dtlb
                && state.phys.dram_frames() == config.dram_frames,
            "checkpoint was captured under a different memory configuration"
        );
        Self {
            config,
            l1i: state.l1i.clone(),
            l1d: state.l1d.clone(),
            l2: state.l2.clone(),
            itlb: state.itlb.clone(),
            dtlb: state.dtlb.clone(),
            page_table: Arc::clone(&state.page_table),
            phys: state.phys.clone(),
            probes: None,
            probe_cycle: 0,
        }
    }

    /// Builds the address space for `program` (text RX, data + 64 KB heap RW,
    /// stack RW), loads the segments into DRAM and returns the ready system.
    pub fn for_program(config: MemorySystemConfig, program: &Program) -> Self {
        let mut aspace = AddressSpace::new(config.dram_frames);
        aspace.map_segment(
            TEXT_BASE,
            (program.text.len().max(1) * 4) as u32,
            PagePerms::RX,
        );
        aspace.map_segment(
            DATA_BASE,
            program.data.len() as u32 + 64 * 1024,
            PagePerms::RW,
        );
        aspace.map_segment(STACK_TOP - STACK_SIZE, STACK_SIZE, PagePerms::RW);
        let mut phys = PhysicalMemory::new(config.dram_frames);
        let text: Vec<u8> = program.text.iter().flat_map(|w| w.to_le_bytes()).collect();
        load_segment(&aspace, &mut phys, TEXT_BASE, &text);
        load_segment(&aspace, &mut phys, DATA_BASE, &program.data);
        Self::new(config, aspace.page_table(), phys)
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> MemorySystemConfig {
        self.config
    }

    /// The underlying page table (read-only; not an injection target).
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// The physical DRAM (test introspection).
    pub fn phys(&self) -> &PhysicalMemory {
        &self.phys
    }

    /// Attaches liveness probes; subsequent accesses report their SRAM
    /// events at the cycle last given to [`MemorySystem::set_probe_cycle`].
    pub fn attach_probes(&mut self, probes: MemProbes) {
        self.probes = Some(Box::new(probes));
    }

    /// Detaches and returns the probes, if any were attached.
    pub fn detach_probes(&mut self) -> Option<MemProbes> {
        self.probes.take().map(|b| *b)
    }

    /// Whether any probe bundle is attached.
    pub fn probes_attached(&self) -> bool {
        self.probes.is_some()
    }

    /// Sets the cycle stamp attached to subsequent probe events. The owning
    /// core calls this once per simulated cycle while probes are attached.
    pub fn set_probe_cycle(&mut self, cycle: u64) {
        self.probe_cycle = cycle;
    }

    fn translate(&mut self, va: u32, kind: AccessKind) -> Result<Timed<u32>, MemFault> {
        if (va as u64) >= (1u64 << VA_BITS) {
            return Err(MemFault::PageFault { va });
        }
        let vpn = va / PAGE_SIZE;
        let now = self.probe_cycle;
        let is_fetch = matches!(kind, AccessKind::Fetch);
        let tlb = if is_fetch {
            &mut self.itlb
        } else {
            &mut self.dtlb
        };
        let mut probe = self.probes.as_deref_mut().and_then(|p| {
            if is_fetch {
                p.itlb.as_mut()
            } else {
                p.dtlb.as_mut()
            }
        });
        if let Some(p) = probe.as_mut() {
            // The fully-associative lookup compares valid + VPN of every
            // entry (conservative superset of the early-exit scan).
            for row in 0..tlb.config().entries {
                p.on_read(now, row, VPN_SHIFT as usize, (VPN_BITS + 1) as usize);
            }
        }
        let (ppn, perms, latency) = match tlb.lookup_indexed(vpn) {
            Some((row, t)) => {
                if let Some(p) = probe.as_mut() {
                    p.on_read(now, row, 0, (PPN_SHIFT + PPN_BITS) as usize);
                }
                (t.ppn, t.perms, 0)
            }
            None => {
                let walk = tlb.config().walk_latency;
                let pte = self
                    .page_table
                    .lookup(vpn)
                    .ok_or(MemFault::PageFault { va })?;
                let victim = tlb.victim_index();
                tlb.fill(vpn, pte.ppn, pte.perms);
                if let Some(p) = probe.as_mut() {
                    p.on_overwrite(now, victim, 0, ENTRY_BITS as usize);
                }
                (pte.ppn, pte.perms, walk)
            }
        };
        let allowed = match kind {
            AccessKind::Fetch => perms.exec,
            AccessKind::Read => perms.read,
            AccessKind::Write => perms.write,
        };
        if !allowed {
            return Err(MemFault::Protection { va, kind });
        }
        Ok(Timed {
            value: ppn * PAGE_SIZE + va % PAGE_SIZE,
            latency,
        })
    }

    /// Fetches an aligned instruction word through the ITLB and L1I.
    ///
    /// # Errors
    ///
    /// Any [`MemFault`] along the translation and cache path.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not 4-byte aligned (the core checks alignment).
    pub fn fetch(&mut self, va: u32) -> Result<Timed<u32>, MemFault> {
        assert_eq!(va % 4, 0, "fetch must be word-aligned");
        let t = self.translate(va, AccessKind::Fetch)?;
        let now = self.probe_cycle;
        let before = self.l1i.stats();
        let (line, lat) = {
            let mut next = L2Backing {
                l2: &mut self.l2,
                mem: &mut self.phys,
                dram_latency: self.config.dram_latency,
                probes: self.probes.as_deref_mut(),
                now,
            };
            self.l1i.access(t.value, false, &mut next)?
        };
        if let Some(p) = self.probes.as_deref_mut() {
            record_cache_access(
                &self.l1i,
                &mut p.l1i_data,
                &mut p.l1i_tag,
                now,
                t.value,
                line,
                before,
                Demand::Read {
                    offset: t.value % LINE_BYTES,
                    width: 4,
                },
            );
        }
        let bytes = self.l1i.read_bytes(line, t.value % LINE_BYTES, 4);
        let word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        Ok(Timed {
            value: word,
            latency: t.latency + lat,
        })
    }

    /// Loads `width` (1, 2 or 4) bytes through the DTLB and L1D.
    ///
    /// # Errors
    ///
    /// Any [`MemFault`] along the translation and cache path.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not `width`-aligned or `width` is not 1, 2 or 4.
    pub fn read(&mut self, va: u32, width: u32) -> Result<Timed<u32>, MemFault> {
        assert!(matches!(width, 1 | 2 | 4), "width must be 1, 2 or 4");
        assert_eq!(va % width, 0, "read must be width-aligned");
        let t = self.translate(va, AccessKind::Read)?;
        let now = self.probe_cycle;
        let before = self.l1d.stats();
        let (line, lat) = {
            let mut next = L2Backing {
                l2: &mut self.l2,
                mem: &mut self.phys,
                dram_latency: self.config.dram_latency,
                probes: self.probes.as_deref_mut(),
                now,
            };
            self.l1d.access(t.value, false, &mut next)?
        };
        if let Some(p) = self.probes.as_deref_mut() {
            record_cache_access(
                &self.l1d,
                &mut p.l1d_data,
                &mut p.l1d_tag,
                now,
                t.value,
                line,
                before,
                Demand::Read {
                    offset: t.value % LINE_BYTES,
                    width,
                },
            );
        }
        let bytes = self.l1d.read_bytes(line, t.value % LINE_BYTES, width);
        let mut value = 0u32;
        for (i, b) in bytes.iter().enumerate() {
            value |= (*b as u32) << (8 * i);
        }
        Ok(Timed {
            value,
            latency: t.latency + lat,
        })
    }

    /// Stores the low `width` bytes of `value` through the DTLB and L1D.
    ///
    /// # Errors
    ///
    /// Any [`MemFault`] along the translation and cache path.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not `width`-aligned or `width` is not 1, 2 or 4.
    pub fn write(&mut self, va: u32, width: u32, value: u32) -> Result<Timed<()>, MemFault> {
        assert!(matches!(width, 1 | 2 | 4), "width must be 1, 2 or 4");
        assert_eq!(va % width, 0, "write must be width-aligned");
        let t = self.translate(va, AccessKind::Write)?;
        let now = self.probe_cycle;
        let before = self.l1d.stats();
        let (line, lat) = {
            let mut next = L2Backing {
                l2: &mut self.l2,
                mem: &mut self.phys,
                dram_latency: self.config.dram_latency,
                probes: self.probes.as_deref_mut(),
                now,
            };
            self.l1d.access(t.value, true, &mut next)?
        };
        if let Some(p) = self.probes.as_deref_mut() {
            record_cache_access(
                &self.l1d,
                &mut p.l1d_data,
                &mut p.l1d_tag,
                now,
                t.value,
                line,
                before,
                Demand::Write {
                    offset: t.value % LINE_BYTES,
                    width,
                },
            );
        }
        let bytes = value.to_le_bytes();
        self.l1d
            .write_bytes(line, t.value % LINE_BYTES, &bytes[..width as usize]);
        Ok(Timed {
            value: (),
            latency: t.latency + lat,
        })
    }

    /// Liveness-aware comparison against a golden checkpoint: every
    /// reachable bit of every cache, both TLBs and DRAM must match. The page
    /// table is immutable after construction and is not compared; probe
    /// attachments are non-architectural and ignored.
    pub fn converged_with(&self, golden: &MemSnapshot) -> bool {
        self.l1i.converged_with(&golden.l1i)
            && self.l1d.converged_with(&golden.l1d)
            && self.l2.converged_with(&golden.l2)
            && self.itlb.converged_with(&golden.itlb)
            && self.dtlb.converged_with(&golden.dtlb)
            && self.phys == golden.phys
    }

    /// Drains all dirty cache state to DRAM (verification helper).
    ///
    /// # Errors
    ///
    /// Propagates faults from corrupted tags.
    pub fn flush_caches(&mut self) -> Result<(), MemFault> {
        {
            let mut next = L2Backing {
                l2: &mut self.l2,
                mem: &mut self.phys,
                dram_latency: self.config.dram_latency,
                probes: self.probes.as_deref_mut(),
                now: self.probe_cycle,
            };
            self.l1d.flush_dirty(&mut next)?;
        }
        let mut dram = DramBacking {
            mem: &mut self.phys,
            latency: self.config.dram_latency,
        };
        self.l2.flush_dirty(&mut dram)?;
        Ok(())
    }
}

/// A bit-exact checkpoint of the whole memory hierarchy: both L1s, the L2,
/// both TLBs (arrays, replacement metadata and counters) and the physical
/// DRAM (shared page-granular copy-on-write, so holding many checkpoints
/// costs only the pages that differ between them), plus the page table —
/// enough for [`MemorySystem::from_snapshot`] to resume the system under
/// the configuration it was taken with.
///
/// The page table is immutable after [`MemorySystem::for_program`], so a
/// checkpoint shares it ([`Arc`]) with the system it was taken from and
/// with every system resumed from it. Probe attachments are
/// non-architectural and are excluded.
#[derive(Debug, Clone, PartialEq)]
pub struct MemSnapshot {
    pub(crate) page_table: Arc<PageTable>,
    pub(crate) l1i: Cache,
    pub(crate) l1d: Cache,
    pub(crate) l2: Cache,
    pub(crate) itlb: Tlb,
    pub(crate) dtlb: Tlb,
    pub(crate) phys: PhysicalMemory,
}

impl MemSnapshot {
    /// Approximate retained heap bytes of this checkpoint. DRAM pages and
    /// copy-on-write cache arrays shared with `prev` (an already-retained
    /// checkpoint) are not charged again; the page table, shared by every
    /// checkpoint of a run, is never charged.
    pub fn retained_bytes(&self, prev: Option<&Self>) -> usize {
        self.l1i.retained_bytes(prev.map(|p| &p.l1i))
            + self.l1d.retained_bytes(prev.map(|p| &p.l1d))
            + self.l2.retained_bytes(prev.map(|p| &p.l2))
            + self.itlb.snapshot_bytes()
            + self.dtlb.snapshot_bytes()
            + self.phys.retained_bytes(prev.map(|p| &p.phys))
    }
}

impl Snapshot for MemorySystem {
    type State = MemSnapshot;

    fn snapshot(&self) -> MemSnapshot {
        MemSnapshot {
            page_table: Arc::clone(&self.page_table),
            l1i: self.l1i.snapshot(),
            l1d: self.l1d.snapshot(),
            l2: self.l2.snapshot(),
            itlb: self.itlb.snapshot(),
            dtlb: self.dtlb.snapshot(),
            phys: self.phys.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbu_isa::asm::assemble;
    use mbu_sram::{BitCoord, Injectable};

    fn system_for(src: &str) -> (MemorySystem, Program) {
        let p = assemble(src).unwrap();
        (
            MemorySystem::for_program(MemorySystemConfig::default(), &p),
            p,
        )
    }

    #[test]
    fn program_image_visible_through_hierarchy() {
        let (mut ms, p) = system_for(".text\nmain: nop\nsyscall\n.data\nv: .word 0xDEADBEEF\n");
        let f = ms.fetch(TEXT_BASE + 4).unwrap();
        assert_eq!(f.value, mbu_isa::encode(mbu_isa::Instruction::Syscall));
        let r = ms.read(p.symbol("v").unwrap(), 4).unwrap();
        assert_eq!(r.value, 0xDEADBEEF);
    }

    #[test]
    fn write_read_roundtrip_all_widths() {
        let (mut ms, _) = system_for(".text\nmain: nop\n");
        let base = DATA_BASE + 0x100;
        ms.write(base, 4, 0x11223344).unwrap();
        ms.write(base + 4, 2, 0xBEEF).unwrap();
        ms.write(base + 6, 1, 0x7F).unwrap();
        assert_eq!(ms.read(base, 4).unwrap().value, 0x11223344);
        assert_eq!(ms.read(base + 4, 2).unwrap().value, 0xBEEF);
        assert_eq!(ms.read(base + 6, 1).unwrap().value, 0x7F);
    }

    #[test]
    fn first_access_pays_walk_and_misses() {
        let (mut ms, _) = system_for(".text\nmain: nop\n");
        let t1 = ms.read(DATA_BASE, 4).unwrap();
        // Walk (20) + L1 miss (2) + L2 miss (8) + DRAM (50).
        assert_eq!(t1.latency, 80);
        let t2 = ms.read(DATA_BASE, 4).unwrap();
        assert_eq!(t2.latency, 2, "hot access is an L1 hit with TLB hit");
    }

    #[test]
    fn unmapped_va_page_faults() {
        let (mut ms, _) = system_for(".text\nmain: nop\n");
        assert_eq!(
            ms.read(0x2000_0000, 4),
            Err(MemFault::PageFault { va: 0x2000_0000 })
        );
        assert_eq!(
            ms.read(0x7000_0000, 4),
            Err(MemFault::PageFault { va: 0x7000_0000 }),
            "va outside 1 GB space"
        );
    }

    #[test]
    fn store_to_text_is_protection_fault() {
        let (mut ms, _) = system_for(".text\nmain: nop\n");
        match ms.write(TEXT_BASE, 4, 0) {
            Err(MemFault::Protection {
                kind: AccessKind::Write,
                ..
            }) => {}
            other => panic!("expected protection fault, got {other:?}"),
        }
    }

    #[test]
    fn fetch_from_data_is_protection_fault() {
        let (mut ms, _) = system_for(".text\nmain: nop\n");
        match ms.fetch(DATA_BASE) {
            Err(MemFault::Protection {
                kind: AccessKind::Fetch,
                ..
            }) => {}
            other => panic!("expected protection fault, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_dtlb_ppn_can_leave_system_map() {
        let (mut ms, _) = system_for(".text\nmain: nop\n");
        ms.read(DATA_BASE, 4).unwrap(); // fill DTLB entry 0
                                        // Flip the top PPN bit (col 3 + 13): likely leaves the 12288-frame map.
        ms.dtlb.inject_flip(BitCoord::new(0, 16));
        match ms.read(DATA_BASE, 4) {
            Err(MemFault::OutsideSystemMap { .. }) => {}
            Ok(t) => {
                // If the flipped frame stays in DRAM the access silently reads
                // wrong (zero) data instead.
                assert_eq!(t.value, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn corrupted_l1i_bit_changes_fetched_word() {
        let (mut ms, _) = system_for(".text\nmain: nop\nsyscall\n");
        let before = ms.fetch(TEXT_BASE).unwrap().value;
        // The fetch filled one L1I line; find the flipped word by flipping
        // every row's bit 0 (only the resident line affects this fetch).
        let rows = ms.l1i.injectable_geometry().rows();
        for r in 0..rows {
            ms.l1i.inject_flip(BitCoord::new(r, 0));
        }
        let after = ms.fetch(TEXT_BASE).unwrap().value;
        assert_eq!(after, before ^ 1);
    }

    #[test]
    fn snapshot_restore_rewinds_whole_hierarchy() {
        let (mut ms, _) = system_for(".text\nmain: nop\n");
        ms.write(DATA_BASE, 4, 0x1111).unwrap();
        let saved = ms.snapshot();
        assert!(ms.converged_with(&saved));
        ms.write(DATA_BASE, 4, 0x2222).unwrap();
        ms.write(DATA_BASE + 0x400, 4, 0x3333).unwrap(); // new TLB entry
        ms.flush_caches().unwrap();
        assert!(!ms.converged_with(&saved));
        let mut ms = MemorySystem::from_snapshot(MemorySystemConfig::default(), &saved);
        assert!(ms.converged_with(&saved));
        assert_eq!(ms.snapshot(), saved);
        assert!(
            Arc::ptr_eq(&ms.page_table, &saved.page_table),
            "a resumed system shares the checkpoint's page table"
        );
        assert_eq!(ms.read(DATA_BASE, 4).unwrap().value, 0x1111);
    }

    #[test]
    fn flush_caches_persists_stores_to_dram() {
        let (mut ms, _) = system_for(".text\nmain: nop\n");
        ms.write(DATA_BASE + 8, 4, 0xABCD).unwrap();
        ms.flush_caches().unwrap();
        let pa = {
            let pte = ms.page_table().lookup(DATA_BASE / PAGE_SIZE).unwrap();
            pte.ppn * PAGE_SIZE + 8
        };
        let lo = ms.phys().read_u8(pa).unwrap();
        let hi = ms.phys().read_u8(pa + 1).unwrap();
        assert_eq!(u16::from_le_bytes([lo, hi]), 0xABCD);
    }
}
