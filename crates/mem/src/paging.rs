//! Virtual memory: page tables and address-space construction.
//!
//! The page table is the OS-owned translation structure consulted on TLB
//! misses (a fixed-latency walk). It is *not* a fault-injection target — the
//! paper injects into the TLBs, which cache these translations.
//!
//! Address spaces scatter their physical frames across the DRAM with a
//! deterministic stride so that a corrupted TLB PPN rarely lands on another
//! mapped page of the same program — most corrupted translations hit
//! unrelated (zero) DRAM or leave the system map, reproducing the paper's
//! crash/assert-heavy TLB failure modes.

use crate::{PAGE_SIZE, VA_BITS};
use std::collections::BTreeMap;
use std::fmt;

/// Page permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PagePerms {
    /// Loads allowed.
    pub read: bool,
    /// Stores allowed.
    pub write: bool,
    /// Instruction fetch allowed.
    pub exec: bool,
}

impl PagePerms {
    /// Read-only data.
    pub const R: PagePerms = PagePerms {
        read: true,
        write: false,
        exec: false,
    };
    /// Read-write data.
    pub const RW: PagePerms = PagePerms {
        read: true,
        write: true,
        exec: false,
    };
    /// Read-execute (text).
    pub const RX: PagePerms = PagePerms {
        read: true,
        write: false,
        exec: true,
    };

    /// Packs into 3 bits (`exec<<2 | write<<1 | read`), the TLB entry format.
    pub fn to_bits(self) -> u32 {
        (self.read as u32) | (self.write as u32) << 1 | (self.exec as u32) << 2
    }

    /// Unpacks from 3 bits.
    pub fn from_bits(bits: u32) -> Self {
        Self {
            read: bits & 1 != 0,
            write: bits & 2 != 0,
            exec: bits & 4 != 0,
        }
    }
}

impl fmt::Display for PagePerms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.read { 'r' } else { '-' },
            if self.write { 'w' } else { '-' },
            if self.exec { 'x' } else { '-' }
        )
    }
}

/// A page-table entry: physical page number plus permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageTableEntry {
    /// Physical page number.
    pub ppn: u32,
    /// Access permissions.
    pub perms: PagePerms,
}

/// A sparse single-level page table mapping VPN → PTE.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageTable {
    entries: BTreeMap<u32, PageTableEntry>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the entry for a virtual page number.
    pub fn lookup(&self, vpn: u32) -> Option<PageTableEntry> {
        self.entries.get(&vpn).copied()
    }

    /// Installs a mapping.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` exceeds the virtual address width.
    pub fn map(&mut self, vpn: u32, entry: PageTableEntry) {
        assert!(
            vpn < (1 << crate::VPN_BITS),
            "vpn out of virtual address space"
        );
        self.entries.insert(vpn, entry);
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(vpn, entry)` pairs in VPN order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, PageTableEntry)> + '_ {
        self.entries.iter().map(|(k, v)| (*k, *v))
    }
}

/// Builder that lays out a program's address space, allocating scattered
/// physical frames.
///
/// # Example
///
/// ```
/// use mbu_mem::{AddressSpace, PagePerms};
/// let mut aspace = AddressSpace::new(12_288);
/// aspace.map_segment(0x0040_0000, 8192, PagePerms::RX);
/// let pt = aspace.page_table();
/// assert!(pt.lookup(0x0040_0000 / mbu_mem::PAGE_SIZE).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    table: PageTable,
    dram_frames: u32,
    used: BTreeMap<u32, ()>,
    cursor: u32,
}

/// Deterministic frame-scatter stride (co-prime with typical DRAM frame
/// counts so the probe sequence visits every frame).
const SCATTER_STRIDE: u32 = 2657;

impl AddressSpace {
    /// Creates an address-space builder for a DRAM of `dram_frames` frames.
    ///
    /// # Panics
    ///
    /// Panics if `dram_frames` is zero.
    pub fn new(dram_frames: u32) -> Self {
        assert!(dram_frames > 0);
        Self {
            table: PageTable::new(),
            dram_frames,
            used: BTreeMap::new(),
            cursor: 17,
        }
    }

    fn alloc_frame(&mut self) -> u32 {
        // Deterministic scatter: stride around the DRAM, skipping frames
        // already handed out.
        for _ in 0..self.dram_frames {
            let ppn = self.cursor % self.dram_frames;
            self.cursor = self.cursor.wrapping_add(SCATTER_STRIDE);
            if let std::collections::btree_map::Entry::Vacant(e) = self.used.entry(ppn) {
                e.insert(());
                return ppn;
            }
        }
        panic!("physical memory exhausted ({} frames)", self.dram_frames);
    }

    /// Maps `[base, base+len)` (page-granular, idempotent per page) with the
    /// given permissions, allocating scattered physical frames.
    ///
    /// # Panics
    ///
    /// Panics if the range leaves the virtual address space.
    pub fn map_segment(&mut self, base: u32, len: u32, perms: PagePerms) {
        if len == 0 {
            return;
        }
        let first = base / PAGE_SIZE;
        let last64 = (base as u64 + len as u64 - 1) / PAGE_SIZE as u64;
        assert!(
            (last64 + 1) << crate::PAGE_BITS as u64 <= (1u64 << VA_BITS),
            "segment leaves the virtual address space"
        );
        let last = last64 as u32;
        for vpn in first..=last {
            if self.table.lookup(vpn).is_none() {
                let ppn = self.alloc_frame();
                self.table.map(vpn, PageTableEntry { ppn, perms });
            }
        }
    }

    /// The completed page table.
    pub fn page_table(&self) -> PageTable {
        self.table.clone()
    }

    /// Translates a virtual address through the table (loader use).
    pub fn translate(&self, va: u32) -> Option<u32> {
        let e = self.table.lookup(va / PAGE_SIZE)?;
        Some(e.ppn * PAGE_SIZE + va % PAGE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perms_pack_roundtrip() {
        for bits in 0..8 {
            assert_eq!(PagePerms::from_bits(bits).to_bits(), bits);
        }
        assert_eq!(PagePerms::RX.to_bits(), 0b101);
        assert_eq!(format!("{}", PagePerms::RW), "rw-");
    }

    #[test]
    fn map_segment_allocates_distinct_scattered_frames() {
        let mut a = AddressSpace::new(1000);
        a.map_segment(0, 10 * PAGE_SIZE, PagePerms::RW);
        let pt = a.page_table();
        let mut ppns: Vec<u32> = pt.iter().map(|(_, e)| e.ppn).collect();
        assert_eq!(ppns.len(), 10);
        ppns.sort_unstable();
        ppns.dedup();
        assert_eq!(ppns.len(), 10, "frames must be distinct");
        // Scattered: not a contiguous run.
        let span = ppns.last().unwrap() - ppns.first().unwrap();
        assert!(span > 10, "frames should scatter across DRAM (span {span})");
    }

    #[test]
    fn map_segment_is_idempotent_per_page() {
        let mut a = AddressSpace::new(100);
        a.map_segment(0, PAGE_SIZE, PagePerms::RW);
        let first = a.page_table().lookup(0).unwrap();
        a.map_segment(0, PAGE_SIZE, PagePerms::RW);
        assert_eq!(a.page_table().lookup(0).unwrap(), first);
        assert_eq!(a.page_table().len(), 1);
    }

    #[test]
    fn translate_applies_offset() {
        let mut a = AddressSpace::new(100);
        a.map_segment(0x1000, PAGE_SIZE, PagePerms::RW);
        let pa = a.translate(0x1034).unwrap();
        assert_eq!(pa % PAGE_SIZE, 0x34);
        assert_eq!(a.translate(0x5000), None);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut a = AddressSpace::new(2);
        a.map_segment(0, 3 * PAGE_SIZE, PagePerms::RW);
    }

    #[test]
    #[should_panic(expected = "virtual address space")]
    fn oversized_va_panics() {
        let mut a = AddressSpace::new(10);
        a.map_segment(0xFFFF_F000, 2 * PAGE_SIZE, PagePerms::RW);
    }
}
