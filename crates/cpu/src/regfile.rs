//! The physical register file with register renaming.
//!
//! Architectural registers `r1`–`r15` are renamed onto a pool of physical
//! registers (56 in the Cortex-A9-like configuration). `r0` is never renamed
//! — reads of it are constant zero. The *value* array is the injectable
//! surface (`phys_regs × 32` bits); the ready bits, free list and rename map
//! are control logic, not SRAM cells, and are not injection targets (the
//! paper injects into the register file's storage cells).

use mbu_isa::Reg;
use mbu_sram::{BitCoord, CowVec, Geometry, Injectable, Snapshot};
use std::collections::VecDeque;

/// Identifier of a physical register.
pub type PhysReg = u8;

/// Physical register file + rename machinery.
///
/// # Example
///
/// ```
/// use mbu_cpu::PhysRegFile;
/// use mbu_isa::Reg;
///
/// let mut prf = PhysRegFile::new(56);
/// let r1 = Reg::new(1);
/// let (new, _prev) = prf.allocate(r1).unwrap();
/// prf.write(new, 42);
/// let cur = prf.rename(r1).unwrap();
/// assert_eq!(prf.read(cur), 42);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysRegFile {
    /// The injectable value array — copy-on-write, so a snapshot shares it
    /// until either side writes a register.
    values: CowVec<u32>,
    ready: Vec<bool>,
    free: VecDeque<PhysReg>,
    rename: [PhysReg; 16], // entry 0 unused (r0 is never renamed)
}

impl PhysRegFile {
    /// Creates a register file with `phys_regs` physical registers;
    /// `r1..r15` start mapped to physical registers `0..14` holding zero.
    ///
    /// # Panics
    ///
    /// Panics if `phys_regs` is not in `17..=64`.
    pub fn new(phys_regs: u32) -> Self {
        assert!(
            (17..=64).contains(&phys_regs),
            "phys_regs must be in 17..=64"
        );
        let n = phys_regs as usize;
        let mut rename = [0u8; 16];
        for (arch, slot) in rename.iter_mut().enumerate().skip(1) {
            *slot = (arch - 1) as PhysReg;
        }
        Self {
            values: CowVec::new(vec![0; n]),
            ready: vec![true; n],
            free: (15..phys_regs as u8).collect(),
            rename,
        }
    }

    /// Number of physical registers.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the register file is empty (never true; present for API
    /// completeness with `len`).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of free physical registers.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Current physical mapping of an architectural register; `None` for `r0`.
    pub fn rename(&self, arch: Reg) -> Option<PhysReg> {
        if arch.is_zero() {
            None
        } else {
            Some(self.rename[arch.index() as usize])
        }
    }

    /// Allocates a fresh physical register for a write to `arch`, returning
    /// `(new, previous)` — the previous mapping is freed when the writing
    /// instruction commits. Returns `None` if the free list is empty
    /// (dispatch must stall) or `arch` is `r0`.
    pub fn allocate(&mut self, arch: Reg) -> Option<(PhysReg, PhysReg)> {
        if arch.is_zero() {
            return None;
        }
        let new = self.free.pop_front()?;
        let prev = self.rename[arch.index() as usize];
        self.rename[arch.index() as usize] = new;
        self.ready[new as usize] = false;
        Some((new, prev))
    }

    /// Reverses an [`PhysRegFile::allocate`] during a pipeline squash:
    /// restores the previous mapping of `arch` and returns `new` to the
    /// free pool.
    ///
    /// # Panics
    ///
    /// Panics if `arch` is `r0` or the current mapping is not `new` (squash
    /// must walk the ROB youngest-first).
    pub fn unallocate(&mut self, arch: Reg, new: PhysReg, prev: PhysReg) {
        assert!(!arch.is_zero(), "r0 is never renamed");
        assert_eq!(
            self.rename[arch.index() as usize],
            new,
            "squash must restore mappings youngest-first"
        );
        self.rename[arch.index() as usize] = prev;
        self.ready[new as usize] = true;
        self.free.push_front(new);
    }

    /// Returns a physical register to the free pool (at commit of the
    /// overwriting instruction).
    ///
    /// # Panics
    ///
    /// Panics if `phys` is out of range.
    pub fn release(&mut self, phys: PhysReg) {
        assert!(
            (phys as usize) < self.values.len(),
            "physical register out of range"
        );
        self.free.push_back(phys);
    }

    /// Whether a source operand is available. `None` (the `r0` source) is
    /// always ready.
    pub fn is_ready(&self, phys: Option<PhysReg>) -> bool {
        match phys {
            None => true,
            Some(p) => self.ready[p as usize],
        }
    }

    /// Reads a physical register value (`None` reads as zero).
    pub fn read_src(&self, phys: Option<PhysReg>) -> u32 {
        match phys {
            None => 0,
            Some(p) => self.values[p as usize],
        }
    }

    /// Reads a physical register value.
    pub fn read(&self, phys: PhysReg) -> u32 {
        self.values[phys as usize]
    }

    /// Writes a result and marks the register ready (writeback stage).
    pub fn write(&mut self, phys: PhysReg, value: u32) {
        self.values.make_mut()[phys as usize] = value;
        self.ready[phys as usize] = true;
    }

    /// Reads the committed architectural value of `arch` through the rename
    /// map (used by the syscall layer and tests).
    pub fn arch_value(&self, arch: Reg) -> u32 {
        match self.rename(arch) {
            None => 0,
            Some(p) => self.values[p as usize],
        }
    }

    /// Approximate heap bytes retained by one snapshot (clone) of this file.
    pub fn snapshot_bytes(&self) -> usize {
        self.values.len() * 4 + self.ready.len() + self.free.len() + self.rename.len()
    }

    /// Liveness-aware comparison against a golden checkpoint: `true` when
    /// every *reachable* bit of rename state equals `golden`.
    ///
    /// The rename map, ready bits and the free list (as a sequence — it
    /// determines future allocation order) must match exactly. Values are
    /// compared only for registers **not** on the free list: a free
    /// register's value cannot be read until it is re-allocated (which
    /// clears its ready bit) and then written, so a fault lingering in a
    /// freed register is dead state and must not block convergence.
    pub fn converged_with(&self, golden: &Self) -> bool {
        if self.rename != golden.rename || self.ready != golden.ready || self.free != golden.free {
            return false;
        }
        if self.values.is_shared_with(&golden.values) {
            // Copy-on-write array never written since the restore: identical
            // by construction.
            return true;
        }
        let mut free_mask = [0u64; 4];
        for &p in &self.free {
            free_mask[p as usize / 64] |= 1 << (p % 64);
        }
        self.values
            .iter()
            .zip(golden.values.iter())
            .enumerate()
            .all(|(i, (v, g))| free_mask[i / 64] >> (i % 64) & 1 == 1 || v == g)
    }
}

impl Snapshot for PhysRegFile {
    type State = PhysRegFile;

    fn snapshot(&self) -> PhysRegFile {
        self.clone()
    }
}

impl Injectable for PhysRegFile {
    /// One row per physical register, 32 bit columns.
    fn injectable_geometry(&self) -> Geometry {
        Geometry::new(self.values.len(), 32)
    }

    fn inject_flip(&mut self, coord: BitCoord) {
        assert!(
            coord.row < self.values.len() && coord.col < 32,
            "register-file injection out of bounds"
        );
        self.values.make_mut()[coord.row] ^= 1 << coord.col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_maps_arch_regs() {
        let prf = PhysRegFile::new(56);
        assert_eq!(prf.rename(Reg::new(1)), Some(0));
        assert_eq!(prf.rename(Reg::new(15)), Some(14));
        assert_eq!(prf.rename(Reg::ZERO), None);
        assert_eq!(prf.free_count(), 41);
    }

    #[test]
    fn allocate_write_read_release_cycle() {
        let mut prf = PhysRegFile::new(18);
        let (n1, p1) = prf.allocate(Reg::new(3)).unwrap();
        assert_eq!(p1, 2);
        assert!(!prf.is_ready(Some(n1)));
        prf.write(n1, 99);
        assert!(prf.is_ready(Some(n1)));
        assert_eq!(prf.arch_value(Reg::new(3)), 99);
        prf.release(p1);
        // 18 regs: 3 free initially, one allocated, one released back.
        assert_eq!(prf.free_count(), 3);
    }

    #[test]
    fn free_list_exhaustion_returns_none() {
        let mut prf = PhysRegFile::new(17);
        assert!(prf.allocate(Reg::new(1)).is_some());
        assert!(prf.allocate(Reg::new(2)).is_some());
        assert!(prf.allocate(Reg::new(3)).is_none(), "only 2 free registers");
    }

    #[test]
    fn r0_never_allocates() {
        let mut prf = PhysRegFile::new(56);
        assert!(prf.allocate(Reg::ZERO).is_none());
        assert_eq!(prf.read_src(None), 0);
        assert!(prf.is_ready(None));
    }

    #[test]
    fn inject_flip_changes_value() {
        let mut prf = PhysRegFile::new(56);
        let p = prf.rename(Reg::new(5)).unwrap();
        prf.write(p, 0b100);
        prf.inject_flip(BitCoord::new(p as usize, 0));
        assert_eq!(prf.arch_value(Reg::new(5)), 0b101);
    }

    #[test]
    fn geometry_is_56x32() {
        let prf = PhysRegFile::new(56);
        let g = prf.injectable_geometry();
        assert_eq!((g.rows(), g.cols()), (56, 32));
    }

    #[test]
    fn convergence_ignores_free_register_values() {
        let prf = PhysRegFile::new(20);
        let golden = prf.snapshot();
        let mut faulty = prf.clone();
        // Registers 15.. are on the free list: a flip there is dead state.
        faulty.inject_flip(BitCoord::new(16, 5));
        assert!(faulty.converged_with(&golden));
        assert_ne!(faulty, golden, "bit-exact equality still sees the flip");
        // A flip in a mapped register is live.
        faulty.inject_flip(BitCoord::new(3, 5));
        assert!(!faulty.converged_with(&golden));
        faulty.inject_flip(BitCoord::new(3, 5));
        assert!(faulty.converged_with(&golden));
        // Allocating changes the rename map and free list: not converged.
        faulty.allocate(Reg::new(1)).unwrap();
        assert!(!faulty.converged_with(&golden));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut prf = PhysRegFile::new(18);
        let (n, _) = prf.allocate(Reg::new(2)).unwrap();
        prf.write(n, 77);
        let saved = prf.snapshot();
        prf.allocate(Reg::new(3)).unwrap();
        prf.inject_flip(BitCoord::new(0, 0));
        assert_ne!(prf, saved);
        prf.clone_from(&saved);
        assert_eq!(prf, saved);
    }
}
