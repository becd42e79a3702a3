//! Translation look-aside buffers with bit-accurate, injectable entries.
//!
//! Each entry packs `perm(3) | ppn | vpn | valid(1)` LSB-first (perms at
//! bits 0–2, then the PPN and VPN fields, valid as the top bit); with the
//! crate's 18-bit PPN and 22-bit VPN an entry is 44 bits, so a 32-entry TLB
//! exposes a 32 × 44 injectable bit surface.
//!
//! Fault behaviour:
//!
//! * flipped **valid** bit: the entry vanishes (next access misses and
//!   refills — usually masked) or a stale/garbage entry becomes active;
//! * flipped **VPN** bit: the entry stops matching its page and may start
//!   matching a *different* page, silently redirecting that page's accesses;
//! * flipped **PPN** bit: translations of the page go to the wrong physical
//!   frame — wrong data if the frame is inside DRAM, a simulator assert if
//!   the address leaves the system map (paper §IV.E);
//! * flipped **perm** bit: spurious protection faults (process crash) or
//!   missed protection.
//!
//! Replacement is round-robin, which keeps fault-free runs deterministic.

use crate::paging::PagePerms;
use crate::{PPN_BITS, VPN_BITS};
use mbu_sram::{BitCoord, Geometry, Injectable, Restorable, Snapshot};

/// Bit position of the permission field within an entry.
pub const PERM_SHIFT: u32 = 0;
/// Bit position of the PPN field within an entry.
pub const PPN_SHIFT: u32 = 3;
/// Bit position of the VPN field within an entry.
pub const VPN_SHIFT: u32 = PPN_SHIFT + PPN_BITS;
/// Bit position of the valid bit within an entry.
pub const VALID_SHIFT: u32 = VPN_SHIFT + VPN_BITS;
/// Bits per TLB entry.
pub const ENTRY_BITS: u32 = VALID_SHIFT + 1;

/// TLB shape configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of (fully-associative) entries.
    pub entries: usize,
    /// Extra latency of a page-table walk on a miss, in cycles.
    pub walk_latency: u32,
}

impl TlbConfig {
    /// Geometry of the entry array: one row per entry, [`ENTRY_BITS`]
    /// columns.
    pub fn geometry(&self) -> Geometry {
        Geometry::new(self.entries, ENTRY_BITS as usize)
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        // Table I: 32-entry instruction and data TLBs.
        Self {
            entries: 32,
            walk_latency: 20,
        }
    }
}

/// A translation produced by a TLB hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Physical page number (possibly corrupted by an injected fault).
    pub ppn: u32,
    /// Page permissions.
    pub perms: PagePerms,
}

/// A fully-associative, round-robin TLB with a bit-accurate entry array.
///
/// # Example
///
/// ```
/// use mbu_mem::{Tlb, TlbConfig, PagePerms};
/// let mut tlb = Tlb::new(TlbConfig::default());
/// tlb.fill(0x400, 0x7F, PagePerms::RX);
/// assert_eq!(tlb.lookup(0x400).unwrap().ppn, 0x7F);
/// assert!(tlb.lookup(0x401).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tlb {
    config: TlbConfig,
    entries: Vec<u64>,
    next_victim: usize,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if `config.entries` is zero.
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.entries > 0, "TLB must have at least one entry");
        Self {
            config,
            entries: vec![0; config.entries],
            next_victim: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration this TLB was built with.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Looks up a virtual page number. Returns the first matching valid
    /// entry (a corrupted VPN can make an entry match a foreign page).
    pub fn lookup(&mut self, vpn: u32) -> Option<Translation> {
        self.lookup_indexed(vpn).map(|(_, t)| t)
    }

    /// Like [`Tlb::lookup`], but also reports *which* entry hit — the
    /// observability hook for liveness probes.
    pub fn lookup_indexed(&mut self, vpn: u32) -> Option<(usize, Translation)> {
        let vpn = vpn & ((1 << VPN_BITS) - 1);
        for (row, &e) in self.entries.iter().enumerate() {
            if (e >> VALID_SHIFT) & 1 == 1
                && ((e >> VPN_SHIFT) as u32 & ((1 << VPN_BITS) - 1)) == vpn
            {
                self.hits += 1;
                return Some((
                    row,
                    Translation {
                        ppn: (e >> PPN_SHIFT) as u32 & ((1 << PPN_BITS) - 1),
                        perms: PagePerms::from_bits((e >> PERM_SHIFT) as u32 & 0b111),
                    },
                ));
            }
        }
        self.misses += 1;
        None
    }

    /// The round-robin slot the next [`Tlb::fill`] will overwrite.
    pub fn victim_index(&self) -> usize {
        self.next_victim
    }

    /// Installs a translation in the round-robin victim slot.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` or `ppn` exceed their field widths.
    pub fn fill(&mut self, vpn: u32, ppn: u32, perms: PagePerms) {
        assert!(vpn < (1 << VPN_BITS), "vpn exceeds {VPN_BITS} bits");
        assert!(ppn < (1 << PPN_BITS), "ppn exceeds {PPN_BITS} bits");
        let e: u64 = (1u64 << VALID_SHIFT)
            | ((vpn as u64) << VPN_SHIFT)
            | ((ppn as u64) << PPN_SHIFT)
            | ((perms.to_bits() as u64) << PERM_SHIFT);
        self.entries[self.next_victim] = e;
        self.next_victim = (self.next_victim + 1) % self.entries.len();
    }

    /// Invalidates every entry.
    pub fn flush(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = 0);
        self.next_victim = 0;
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Raw entry word (test introspection).
    pub fn raw_entry(&self, index: usize) -> u64 {
        self.entries[index]
    }

    /// Approximate heap bytes retained by one snapshot of this TLB.
    pub fn snapshot_bytes(&self) -> usize {
        self.entries.len() * 8
    }

    /// Liveness-aware state comparison against a golden checkpoint: `true`
    /// when every *reachable* bit of this TLB equals `golden`.
    ///
    /// Valid bits, whole words of valid entries, the round-robin victim
    /// pointer and the hit/miss counters must match exactly. The non-valid
    /// bits of an **invalid** entry are skipped: lookups ignore them and a
    /// fill overwrites the entire entry word before setting the valid bit,
    /// so they can never influence future behaviour.
    pub fn converged_with(&self, golden: &Self) -> bool {
        if self.config != golden.config
            || self.next_victim != golden.next_victim
            || self.hits != golden.hits
            || self.misses != golden.misses
        {
            return false;
        }
        self.entries.iter().zip(&golden.entries).all(|(&e, &g)| {
            let valid = (e >> VALID_SHIFT) & 1;
            valid == (g >> VALID_SHIFT) & 1 && (valid == 0 || e == g)
        })
    }
}

impl Snapshot for Tlb {
    type State = Tlb;

    fn snapshot(&self) -> Tlb {
        self.clone()
    }
}

impl Restorable for Tlb {
    fn restore(&mut self, state: &Tlb) {
        self.clone_from(state);
    }
}

impl Injectable for Tlb {
    fn injectable_geometry(&self) -> Geometry {
        self.config.geometry()
    }

    fn inject_flip(&mut self, coord: BitCoord) {
        assert!(
            coord.row < self.entries.len() && coord.col < ENTRY_BITS as usize,
            "TLB injection coordinate out of bounds"
        );
        self.entries[coord.row] ^= 1u64 << coord.col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 4,
            walk_latency: 20,
        })
    }

    #[test]
    fn fill_lookup_roundtrip() {
        let mut t = tlb();
        t.fill(0x3FF, 0x1234, PagePerms::RW);
        let tr = t.lookup(0x3FF).unwrap();
        assert_eq!(tr.ppn, 0x1234);
        assert_eq!(tr.perms, PagePerms::RW);
    }

    #[test]
    fn round_robin_eviction() {
        let mut t = tlb();
        for i in 0..5 {
            t.fill(i, i, PagePerms::R);
        }
        // Entry 0 was evicted by the 5th fill.
        assert!(t.lookup(0).is_none());
        assert!(t.lookup(4).is_some());
        assert!(t.lookup(1).is_some());
    }

    #[test]
    fn valid_bit_flip_drops_entry() {
        let mut t = tlb();
        t.fill(7, 9, PagePerms::RX);
        t.inject_flip(BitCoord::new(0, VALID_SHIFT as usize));
        assert!(t.lookup(7).is_none());
    }

    #[test]
    fn vpn_bit_flip_redirects_match() {
        let mut t = tlb();
        t.fill(0b1000, 5, PagePerms::R);
        t.inject_flip(BitCoord::new(0, VPN_SHIFT as usize)); // vpn 0b1000 -> 0b1001
        assert!(t.lookup(0b1000).is_none());
        assert_eq!(t.lookup(0b1001).unwrap().ppn, 5);
    }

    #[test]
    fn ppn_bit_flip_corrupts_translation() {
        let mut t = tlb();
        t.fill(1, 0b0001, PagePerms::R);
        t.inject_flip(BitCoord::new(0, (PPN_SHIFT + 1) as usize));
        assert_eq!(t.lookup(1).unwrap().ppn, 0b0011);
    }

    #[test]
    fn perm_bit_flip_toggles_write() {
        let mut t = tlb();
        t.fill(1, 1, PagePerms::R);
        t.inject_flip(BitCoord::new(0, 1)); // write bit
        assert!(t.lookup(1).unwrap().perms.write);
    }

    #[test]
    fn geometry_matches_config() {
        let t = Tlb::new(TlbConfig::default());
        let g = t.injectable_geometry();
        assert_eq!(g.rows(), 32);
        assert_eq!(g.cols(), ENTRY_BITS as usize);
    }

    #[test]
    fn flush_clears_all() {
        let mut t = tlb();
        t.fill(1, 1, PagePerms::R);
        t.flush();
        assert!(t.lookup(1).is_none());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_ppn_panics() {
        let mut t = tlb();
        t.fill(0, 1 << PPN_BITS, PagePerms::R);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut t = tlb();
        t.fill(1, 2, PagePerms::RW);
        let saved = t.snapshot();
        t.fill(3, 4, PagePerms::R);
        t.lookup(1);
        assert_ne!(t, saved);
        t.restore(&saved);
        assert_eq!(t, saved);
    }

    #[test]
    fn convergence_ignores_invalid_entry_bits() {
        let mut t = tlb();
        t.fill(1, 2, PagePerms::RW);
        let golden = t.snapshot();
        // Flip a PPN bit of a never-filled (invalid) entry: dead state.
        t.inject_flip(BitCoord::new(2, PPN_SHIFT as usize));
        assert!(t.converged_with(&golden));
        // Flip a live entry's PPN bit: must block convergence.
        t.inject_flip(BitCoord::new(0, PPN_SHIFT as usize));
        assert!(!t.converged_with(&golden));
        t.inject_flip(BitCoord::new(0, PPN_SHIFT as usize));
        assert!(t.converged_with(&golden));
        // A valid-bit flip is always live.
        t.inject_flip(BitCoord::new(2, VALID_SHIFT as usize));
        assert!(!t.converged_with(&golden));
    }
}
