//! Memory-hierarchy substrate: physical memory, virtual memory (page tables),
//! TLBs and a two-level write-back cache hierarchy.
//!
//! This models the memory side of the paper's ARM Cortex-A9 configuration
//! (Table I):
//!
//! * 32 KB 4-way L1 instruction cache, 32 KB 4-way L1 data cache
//! * 512 KB 8-way unified L2 cache
//! * 32-entry instruction and data TLBs
//! * 32-byte lines, write-back + write-allocate, LRU replacement
//!
//! Every storage structure that the paper injects faults into is modeled
//! *bit-accurately* and implements [`mbu_sram::Injectable`]:
//!
//! * cache **data arrays** (the paper's Table VIII bit counts are the data
//!   arrays: 262,144 bits per L1, 4,194,304 bits for L2),
//! * cache **tag arrays** (tag + valid + dirty bits) — available as an
//!   extension/ablation target,
//! * **TLB entry arrays** (valid, VPN, PPN and permission bits packed into a
//!   36-bit entry, 32 entries).
//!
//! Fault propagation paths follow the paper's observations:
//!
//! * a corrupted cache *data* bit yields wrong data/instructions (SDC,
//!   crashes on decode),
//! * a corrupted cache *tag* can cause false hits/misses or write-backs to
//!   the wrong physical address,
//! * a corrupted TLB VPN/PPN redirects translations; if the resulting
//!   physical address falls outside the modeled DRAM ("not part of the
//!   system map"), the simulator raises an **assert-class** failure exactly
//!   like gem5 does in the paper (§IV.E).

#![forbid(unsafe_code)]

pub mod cache;
pub mod paging;
pub mod phys;
pub mod probe;
pub mod system;
pub mod tlb;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use paging::{AddressSpace, PagePerms, PageTable};
pub use phys::PhysicalMemory;
pub use probe::MemProbes;
pub use system::{AccessKind, MemFault, MemSnapshot, MemorySystem, MemorySystemConfig, Timed};
pub use tlb::{Tlb, TlbConfig};

/// Virtual page size in bytes.
///
/// The paper's full-system stack uses 4 KB pages with workloads that touch
/// hundreds of kilobytes; our workloads are scaled ~100× down in footprint,
/// so the page size is scaled to 256 B to keep the *TLB pressure* (live
/// entries / capacity) representative. See DESIGN.md §1.
pub const PAGE_SIZE: u32 = 256;
/// log2 of the page size.
pub const PAGE_BITS: u32 = 8;
/// Width of the virtual address space in bits (1 GB).
pub const VA_BITS: u32 = 30;
/// Width of a virtual page number in bits.
pub const VPN_BITS: u32 = VA_BITS - PAGE_BITS;
/// Width of a physical page number in bits (64 MB physical address space).
pub const PPN_BITS: u32 = 18;
