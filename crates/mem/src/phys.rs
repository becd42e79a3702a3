//! Physical ("system map") memory.
//!
//! The modeled machine has a DRAM of `dram_frames × PAGE_SIZE` starting at
//! physical address 0. Frames are allocated lazily and read as zero until
//! first written. Physical addresses beyond the DRAM are **not part of the
//! system map**: accessing them is an impossible event in a fault-free run
//! and raises the simulator-assertion failure class, exactly like gem5 does
//! when a corrupted TLB or cache tag produces such an address (paper §IV.E).

use crate::PAGE_SIZE;
use mbu_sram::Snapshot;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Error raised when a physical access leaves the system map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnmappedPhysical {
    /// The offending physical address.
    pub pa: u32,
}

impl fmt::Display for UnmappedPhysical {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "physical address 0x{:08x} is outside the system map",
            self.pa
        )
    }
}

impl std::error::Error for UnmappedPhysical {}

/// Lazily-allocated physical DRAM.
///
/// # Example
///
/// ```
/// let mut m = mbu_mem::PhysicalMemory::new(1024); // 256 KB of DRAM
/// m.write_line(64, &[7; 32])?;
/// assert_eq!(m.read_line(64)?[0], 7);
/// assert!(m.read_line(0x0400_0000).is_err()); // beyond DRAM
/// # Ok::<(), mbu_mem::phys::UnmappedPhysical>(())
/// ```
/// Frames are reference-counted so that cloning the memory (checkpointing)
/// is page-granular copy-on-write: a clone shares every frame with its
/// source, and a subsequent write to either side copies only the affected
/// page ([`Arc::make_mut`]). N snapshots therefore cost far less than N full
/// DRAM copies.
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    dram_frames: u32,
    frames: BTreeMap<u32, Arc<[u8; PAGE_SIZE as usize]>>,
}

impl PhysicalMemory {
    /// Creates a DRAM of `dram_frames` page-sized frames (zero-filled, lazily
    /// allocated).
    ///
    /// # Panics
    ///
    /// Panics if `dram_frames` is zero.
    pub fn new(dram_frames: u32) -> Self {
        assert!(dram_frames > 0, "DRAM must have at least one frame");
        Self {
            dram_frames,
            frames: BTreeMap::new(),
        }
    }

    /// Number of DRAM frames in the system map.
    pub fn dram_frames(&self) -> u32 {
        self.dram_frames
    }

    /// Total DRAM bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_frames as u64 * PAGE_SIZE as u64
    }

    /// Whether `pa` lies inside the system map.
    pub fn contains(&self, pa: u32) -> bool {
        (pa / PAGE_SIZE) < self.dram_frames
    }

    fn check(&self, pa: u32, len: u32) -> Result<(), UnmappedPhysical> {
        let end = pa as u64 + len as u64 - 1;
        if end >= self.dram_bytes() {
            return Err(UnmappedPhysical { pa });
        }
        Ok(())
    }

    /// Reads one aligned 32-byte line.
    ///
    /// # Errors
    ///
    /// [`UnmappedPhysical`] if the line is outside the system map.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not 32-byte aligned.
    pub fn read_line(&self, pa: u32) -> Result<[u8; 32], UnmappedPhysical> {
        assert_eq!(pa % 32, 0, "line read must be 32-byte aligned");
        self.check(pa, 32)?;
        let mut line = [0u8; 32];
        if let Some(frame) = self.frames.get(&(pa / PAGE_SIZE)) {
            let off = (pa % PAGE_SIZE) as usize;
            line.copy_from_slice(&frame[off..off + 32]);
        }
        Ok(line)
    }

    /// Writes one aligned 32-byte line.
    ///
    /// # Errors
    ///
    /// [`UnmappedPhysical`] if the line is outside the system map.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not 32-byte aligned.
    pub fn write_line(&mut self, pa: u32, line: &[u8; 32]) -> Result<(), UnmappedPhysical> {
        assert_eq!(pa % 32, 0, "line write must be 32-byte aligned");
        self.check(pa, 32)?;
        let frame = self
            .frames
            .entry(pa / PAGE_SIZE)
            .or_insert_with(|| Arc::new([0; PAGE_SIZE as usize]));
        let off = (pa % PAGE_SIZE) as usize;
        Arc::make_mut(frame)[off..off + 32].copy_from_slice(line);
        Ok(())
    }

    /// Reads a single byte (test/loader convenience).
    ///
    /// # Errors
    ///
    /// [`UnmappedPhysical`] if outside the system map.
    pub fn read_u8(&self, pa: u32) -> Result<u8, UnmappedPhysical> {
        self.check(pa, 1)?;
        Ok(self
            .frames
            .get(&(pa / PAGE_SIZE))
            .map(|f| f[(pa % PAGE_SIZE) as usize])
            .unwrap_or(0))
    }

    /// Writes a single byte (loader convenience).
    ///
    /// # Errors
    ///
    /// [`UnmappedPhysical`] if outside the system map.
    pub fn write_u8(&mut self, pa: u32, value: u8) -> Result<(), UnmappedPhysical> {
        self.check(pa, 1)?;
        let frame = self
            .frames
            .entry(pa / PAGE_SIZE)
            .or_insert_with(|| Arc::new([0; PAGE_SIZE as usize]));
        Arc::make_mut(frame)[(pa % PAGE_SIZE) as usize] = value;
        Ok(())
    }

    /// Writes `bytes` to consecutive physical addresses from `pa`, one
    /// frame at a time (the program loader's bulk path). Every frame the
    /// range touches is allocated, exactly as byte-wise writes would.
    ///
    /// # Errors
    ///
    /// [`UnmappedPhysical`] if any byte of the range is outside the system
    /// map; nothing is written then.
    pub fn write_bytes(&mut self, pa: u32, bytes: &[u8]) -> Result<(), UnmappedPhysical> {
        if bytes.is_empty() {
            return Ok(());
        }
        let len = u32::try_from(bytes.len()).map_err(|_| UnmappedPhysical { pa })?;
        self.check(pa, len)?;
        let mut pa = pa;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (pa % PAGE_SIZE) as usize;
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_SIZE as usize - off));
            let frame = self
                .frames
                .entry(pa / PAGE_SIZE)
                .or_insert_with(|| Arc::new([0; PAGE_SIZE as usize]));
            Arc::make_mut(frame)[off..off + chunk.len()].copy_from_slice(chunk);
            pa += chunk.len() as u32;
            rest = tail;
        }
        Ok(())
    }

    /// Number of frames actually allocated (touched) so far.
    pub fn allocated_frames(&self) -> usize {
        self.frames.len()
    }

    /// Number of frames physically shared (same allocation) with `other` —
    /// the copy-on-write overlap between two checkpoints.
    pub fn frames_shared_with(&self, other: &Self) -> usize {
        self.frames
            .iter()
            .filter(|(pfn, frame)| other.frames.get(pfn).is_some_and(|o| Arc::ptr_eq(frame, o)))
            .count()
    }

    /// Approximate retained heap bytes of this memory image when `prev` is
    /// an already-retained checkpoint: only frames *not* shared with `prev`
    /// are charged. With `prev = None` every allocated frame is charged.
    pub fn retained_bytes(&self, prev: Option<&Self>) -> usize {
        let shared = prev.map_or(0, |p| self.frames_shared_with(p));
        (self.frames.len() - shared) * PAGE_SIZE as usize
    }
}

/// Semantic equality: two memories are equal when every physical byte reads
/// the same. A frame that was never allocated compares equal to an allocated
/// all-zero frame, and frames shared through copy-on-write compare by
/// pointer without touching their bytes.
impl PartialEq for PhysicalMemory {
    fn eq(&self, other: &Self) -> bool {
        const ZERO: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];
        if self.dram_frames != other.dram_frames {
            return false;
        }
        let mut a = self.frames.iter().peekable();
        let mut b = other.frames.iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (None, None) => return true,
                (Some((_, fa)), None) => {
                    if ***fa != ZERO {
                        return false;
                    }
                    a.next();
                }
                (None, Some((_, fb))) => {
                    if ***fb != ZERO {
                        return false;
                    }
                    b.next();
                }
                (Some((ka, fa)), Some((kb, fb))) => {
                    if ka < kb {
                        if ***fa != ZERO {
                            return false;
                        }
                        a.next();
                    } else if kb < ka {
                        if ***fb != ZERO {
                            return false;
                        }
                        b.next();
                    } else {
                        if !Arc::ptr_eq(fa, fb) && fa != fb {
                            return false;
                        }
                        a.next();
                        b.next();
                    }
                }
            }
        }
    }
}

impl Eq for PhysicalMemory {}

impl Snapshot for PhysicalMemory {
    type State = PhysicalMemory;

    fn snapshot(&self) -> PhysicalMemory {
        // Clone is copy-on-write: shares every frame with `self`.
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazily_zero_filled() {
        let m = PhysicalMemory::new(4);
        assert_eq!(m.read_line(0).unwrap(), [0u8; 32]);
        assert_eq!(m.allocated_frames(), 0);
    }

    #[test]
    fn line_roundtrip() {
        let mut m = PhysicalMemory::new(4);
        let mut line = [0u8; 32];
        line[5] = 0xAB;
        m.write_line(PAGE_SIZE + 32, &line).unwrap();
        assert_eq!(m.read_line(PAGE_SIZE + 32).unwrap()[5], 0xAB);
        assert_eq!(m.read_line(PAGE_SIZE).unwrap(), [0u8; 32]);
        assert_eq!(m.allocated_frames(), 1);
    }

    #[test]
    fn outside_system_map_errors() {
        let mut m = PhysicalMemory::new(2);
        assert_eq!(
            m.read_line(2 * PAGE_SIZE),
            Err(UnmappedPhysical { pa: 2 * PAGE_SIZE })
        );
        assert!(m.write_line(0x7FFF_FFE0, &[0; 32]).is_err());
        assert!(m.read_u8(2 * PAGE_SIZE).is_err());
    }

    #[test]
    fn byte_ops() {
        let mut m = PhysicalMemory::new(1);
        m.write_u8(100, 42).unwrap();
        assert_eq!(m.read_u8(100).unwrap(), 42);
        assert_eq!(m.read_u8(101).unwrap(), 0);
    }

    #[test]
    fn write_bytes_matches_byte_writes_across_frames() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(PAGE_SIZE as usize + 40).collect();
        let pa = 2 * PAGE_SIZE - 17;
        let mut bulk = PhysicalMemory::new(8);
        bulk.write_bytes(pa, &bytes).unwrap();
        let mut bytewise = PhysicalMemory::new(8);
        for (i, &b) in bytes.iter().enumerate() {
            bytewise.write_u8(pa + i as u32, b).unwrap();
        }
        assert_eq!(bulk, bytewise);
        assert_eq!(bulk.allocated_frames(), 3, "frames 1, 2 and 3 touched");
        assert_eq!(bulk.allocated_frames(), bytewise.allocated_frames());
        assert_eq!(
            bulk.read_u8(pa + PAGE_SIZE + 39).unwrap(),
            bytes[PAGE_SIZE as usize + 39]
        );
        // A range running off the system map writes nothing.
        let mut short = PhysicalMemory::new(2);
        assert!(short.write_bytes(2 * PAGE_SIZE - 4, &[1; 8]).is_err());
        assert_eq!(short.allocated_frames(), 0);
        assert!(short.write_bytes(0, &[]).is_ok());
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_line_panics() {
        let m = PhysicalMemory::new(1);
        let _ = m.read_line(16);
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut m = PhysicalMemory::new(8);
        for f in 0..4 {
            m.write_line(f * PAGE_SIZE, &[f as u8 + 1; 32]).unwrap();
        }
        let snap = m.snapshot();
        assert_eq!(snap.frames_shared_with(&m), 4);
        // Writing one page after the snapshot unshares only that page.
        m.write_u8(0, 0xEE).unwrap();
        assert_eq!(snap.frames_shared_with(&m), 3);
        assert_eq!(snap.read_u8(0).unwrap(), 1, "snapshot must be unaffected");
        assert_eq!(m.read_u8(0).unwrap(), 0xEE);
        assert_eq!(snap.retained_bytes(Some(&m)), PAGE_SIZE as usize);
    }

    #[test]
    fn restore_rewinds_contents() {
        let mut m = PhysicalMemory::new(4);
        m.write_line(0, &[9; 32]).unwrap();
        let snap = m.snapshot();
        m.write_line(0, &[1; 32]).unwrap();
        m.write_line(PAGE_SIZE, &[2; 32]).unwrap();
        m.clone_from(&snap);
        assert_eq!(m, snap);
        assert_eq!(m.read_line(0).unwrap(), [9; 32]);
        assert_eq!(m.read_line(PAGE_SIZE).unwrap(), [0; 32]);
    }

    #[test]
    fn equality_treats_zero_frames_as_absent() {
        let mut a = PhysicalMemory::new(4);
        let b = PhysicalMemory::new(4);
        a.write_line(PAGE_SIZE, &[0; 32]).unwrap(); // allocates a zero frame
        assert_eq!(a.allocated_frames(), 1);
        assert_eq!(a, b);
        a.write_u8(PAGE_SIZE, 1).unwrap();
        assert_ne!(a, b);
    }
}
