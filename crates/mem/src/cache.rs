//! Set-associative, write-back, write-allocate caches with bit-accurate,
//! injectable data and tag arrays.
//!
//! Lines are 32 bytes. Replacement is true LRU per set. A cache talks to the
//! next hierarchy level through the [`LineStore`] trait (the unified L2, or
//! physical DRAM), which lets the L1 → L2 → DRAM chain be composed without
//! reference cycles.
//!
//! Fault behaviour:
//!
//! * **data-array** flips corrupt program data or instruction words — the
//!   default injection target (the paper's Table VIII counts are data bits);
//! * **tag-array** flips (extension target) make lines unreachable, create
//!   false hits on foreign addresses, or redirect dirty write-backs to wrong
//!   physical addresses — potentially outside the system map, which
//!   surfaces as the assert failure class.

use crate::phys::{PhysicalMemory, UnmappedPhysical};
use mbu_sram::{BitCoord, CowVec, Geometry, Injectable, Restorable, Snapshot};

/// Cache line size in bytes (Cortex-A9 L1/L2).
pub const LINE_BYTES: u32 = 32;

/// Geometry/latency configuration of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes; must be a power of two multiple of
    /// `ways * LINE_BYTES`.
    pub size_bytes: u32,
    /// Associativity.
    pub ways: u32,
    /// Hit latency in cycles.
    pub hit_latency: u32,
    /// Physical column interleaving degree of the data array (1 = none).
    ///
    /// With interleaving `I`, each physical word line stores the bits of
    /// `I` logical lines interleaved column-by-column, the classic
    /// spatial-MBU protection (George et al., DSN 2010; the paper's
    /// refs \[39\]\[46\]): a multi-bit cluster then lands in *different*
    /// logical words, which turns one spatial multi-bit fault into several
    /// single-bit faults that per-word ECC could correct. Interleaving only
    /// changes the physical↔logical bit mapping seen by the injector; cache
    /// behaviour and timing are unchanged.
    pub interleave: u32,
}

impl CacheConfig {
    /// 32 KB, 4-way, 2-cycle L1 (Table I, full size).
    pub fn l1() -> Self {
        Self {
            size_bytes: 32 * 1024,
            ways: 4,
            hit_latency: 2,
            interleave: 1,
        }
    }

    /// 512 KB, 8-way, 8-cycle L2 (Table I, full size).
    pub fn l2() -> Self {
        Self {
            size_bytes: 512 * 1024,
            ways: 8,
            hit_latency: 8,
            interleave: 1,
        }
    }

    /// 2 KB, 4-way L1 data cache — the scaled experimental configuration
    /// (cache capacity scaled with the workload footprints so cache
    /// *occupancy and refill traffic* match the paper's full-system runs;
    /// see DESIGN.md §1).
    pub fn l1d_scaled() -> Self {
        Self {
            size_bytes: 2 * 1024,
            ways: 4,
            hit_latency: 2,
            interleave: 1,
        }
    }

    /// 2 KB, 4-way L1 instruction cache — the scaled experimental
    /// configuration.
    pub fn l1i_scaled() -> Self {
        Self {
            size_bytes: 2 * 1024,
            ways: 4,
            hit_latency: 2,
            interleave: 1,
        }
    }

    /// 8 KB, 8-way L2 — the scaled experimental configuration.
    pub fn l2_scaled() -> Self {
        Self {
            size_bytes: 8 * 1024,
            ways: 8,
            hit_latency: 8,
            interleave: 1,
        }
    }

    /// Returns the same configuration with the given data-array column
    /// interleaving degree.
    ///
    /// # Panics
    ///
    /// Panics (at `Cache::new`) unless the line count is divisible by the
    /// interleaving degree.
    pub fn with_interleave(mut self, interleave: u32) -> Self {
        assert!(interleave >= 1, "interleave degree must be >= 1");
        self.interleave = interleave;
        self
    }

    /// Number of lines.
    pub fn lines(&self) -> u32 {
        self.size_bytes / LINE_BYTES
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.lines() / self.ways
    }

    fn index_bits(&self) -> u32 {
        self.sets().trailing_zeros()
    }

    fn offset_bits(&self) -> u32 {
        LINE_BYTES.trailing_zeros()
    }

    fn tag_bits(&self) -> u32 {
        32 - self.index_bits() - self.offset_bits()
    }

    /// *Physical* geometry of the data array: with interleaving `I`, each
    /// physical word line holds `I` logical lines column-interleaved, so
    /// the surface is `lines/I` rows × `256·I` columns (same total bits).
    pub fn data_geometry(&self) -> Geometry {
        let i = self.interleave as usize;
        Geometry::new(self.lines() as usize / i, (LINE_BYTES * 8) as usize * i)
    }

    /// Geometry of the tag array (tag bits + valid + dirty per line).
    pub fn tag_geometry(&self) -> Geometry {
        Geometry::new(self.lines() as usize, self.tag_bits() as usize + 2)
    }
}

/// Which internal SRAM array of a cache to target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheArray {
    /// The line data array (default target; Table VIII bit counts).
    Data,
    /// The tag array (tag, valid and dirty bits) — ablation target.
    Tag,
}

/// Hit/miss/write-back counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back to the next level.
    pub writebacks: u64,
}

/// The next level of the hierarchy, at line granularity.
pub trait LineStore {
    /// Reads an aligned line; returns the bytes and the access latency.
    ///
    /// # Errors
    ///
    /// [`UnmappedPhysical`] if the address leaves the system map.
    fn load_line(&mut self, pa_line: u32) -> Result<([u8; 32], u32), UnmappedPhysical>;

    /// Writes an aligned line; returns the access latency.
    ///
    /// # Errors
    ///
    /// [`UnmappedPhysical`] if the address leaves the system map.
    fn store_line(&mut self, pa_line: u32, line: &[u8; 32]) -> Result<u32, UnmappedPhysical>;
}

/// DRAM as a line store with a fixed access latency.
#[derive(Debug)]
pub struct DramBacking<'a> {
    /// The physical memory.
    pub mem: &'a mut PhysicalMemory,
    /// Access latency in cycles.
    pub latency: u32,
}

impl LineStore for DramBacking<'_> {
    fn load_line(&mut self, pa_line: u32) -> Result<([u8; 32], u32), UnmappedPhysical> {
        Ok((self.mem.read_line(pa_line)?, self.latency))
    }

    fn store_line(&mut self, pa_line: u32, line: &[u8; 32]) -> Result<u32, UnmappedPhysical> {
        self.mem.write_line(pa_line, line)?;
        Ok(self.latency)
    }
}

const VALID_BIT: u64 = 1 << 62;
const DIRTY_BIT: u64 = 1 << 63;

/// A set-associative write-back cache.
///
/// # Example
///
/// ```
/// use mbu_mem::{Cache, CacheConfig, PhysicalMemory};
/// use mbu_mem::cache::DramBacking;
///
/// let mut mem = PhysicalMemory::new(256);
/// let mut l1 = Cache::new(CacheConfig::l1());
/// let mut next = DramBacking { mem: &mut mem, latency: 50 };
/// let (line, miss_lat) = l1.access(0x40, true, &mut next)?;
/// l1.write_bytes(line, 0, &42u32.to_le_bytes());
/// let (line, hit_lat) = l1.access(0x40, false, &mut next)?;
/// assert_eq!(l1.read_bytes(line, 0, 4), [42, 0, 0, 0]);
/// assert!(hit_lat < miss_lat);
/// # Ok::<(), mbu_mem::phys::UnmappedPhysical>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    config: CacheConfig,
    /// Per line: `tag | VALID_BIT | DIRTY_BIT`. Copy-on-write: a snapshot
    /// shares the array until either side writes it.
    tags: CowVec<u64>,
    /// `lines × LINE_BYTES` bytes (copy-on-write).
    data: CowVec<u8>,
    /// LRU rank per line (0 = most recently used within its set;
    /// copy-on-write).
    lru: CowVec<u8>,
    stats: CacheStats,
}

/// Index of a resident line (opaque handle returned by [`Cache::access`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineIdx(u32);

impl LineIdx {
    /// The line's row index in the cache's logical geometry (0-based).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not a power-of-two geometry.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.size_bytes.is_multiple_of(config.ways * LINE_BYTES),
            "size must be a multiple of ways*line"
        );
        assert!(
            config.sets().is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(
            config.interleave >= 1 && config.lines().is_multiple_of(config.interleave),
            "line count must be divisible by the interleave degree"
        );
        let lines = config.lines() as usize;
        // LRU ranks form a permutation 0..ways within each set.
        let lru = (0..lines).map(|l| (l as u32 % config.ways) as u8).collect();
        Self {
            config,
            tags: CowVec::new(vec![0; lines]),
            data: CowVec::new(vec![0; lines * LINE_BYTES as usize]),
            lru: CowVec::new(lru),
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Access counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The set index a physical address maps to.
    pub fn set_of(&self, pa: u32) -> u32 {
        self.set_and_tag(pa).0
    }

    fn set_and_tag(&self, pa: u32) -> (u32, u64) {
        let set = (pa >> self.config.offset_bits()) & (self.config.sets() - 1);
        let tag = (pa >> (self.config.offset_bits() + self.config.index_bits())) as u64;
        (set, tag)
    }

    fn promote(&mut self, set: u32, way: u32) {
        let base = (set * self.config.ways) as usize;
        let old = self.lru[base + way as usize];
        if old == 0 {
            // Already most recently used: the ranks are unchanged, so don't
            // unshare a snapshot-shared array for a no-op.
            return;
        }
        let lru = self.lru.make_mut();
        for w in 0..self.config.ways as usize {
            if lru[base + w] < old {
                lru[base + w] += 1;
            }
        }
        lru[base + way as usize] = 0;
    }

    /// Ensures the line containing `pa` is resident and returns its handle
    /// plus the access latency. `is_write` marks the line dirty.
    ///
    /// # Errors
    ///
    /// Propagates [`UnmappedPhysical`] from the next level — either for the
    /// demanded line or for a dirty victim whose (possibly corrupted) tag
    /// reconstructs to an address outside the system map.
    pub fn access(
        &mut self,
        pa: u32,
        is_write: bool,
        next: &mut dyn LineStore,
    ) -> Result<(LineIdx, u32), UnmappedPhysical> {
        let (set, tag) = self.set_and_tag(pa);
        let base = set * self.config.ways;
        // Hit check.
        for way in 0..self.config.ways {
            let line = (base + way) as usize;
            let t = self.tags[line];
            if t & VALID_BIT != 0 && (t & !(VALID_BIT | DIRTY_BIT)) == tag {
                if is_write && t & DIRTY_BIT == 0 {
                    self.tags.make_mut()[line] |= DIRTY_BIT;
                }
                self.promote(set, way);
                self.stats.hits += 1;
                return Ok((LineIdx(line as u32), self.config.hit_latency));
            }
        }
        self.stats.misses += 1;
        // Victim: first invalid way, else LRU-max.
        let victim = (0..self.config.ways)
            .find(|way| self.tags[(base + way) as usize] & VALID_BIT == 0)
            .unwrap_or_else(|| {
                (0..self.config.ways)
                    .max_by_key(|way| self.lru[(base + way) as usize])
                    .expect("cache has at least one way")
            });
        let line = (base + victim) as usize;
        let mut latency = self.config.hit_latency;
        // Write back a dirty victim.
        let t = self.tags[line];
        if t & VALID_BIT != 0 && t & DIRTY_BIT != 0 {
            let victim_tag = t & !(VALID_BIT | DIRTY_BIT);
            let victim_pa = ((victim_tag as u32)
                << (self.config.offset_bits() + self.config.index_bits()))
                | (set << self.config.offset_bits());
            let bytes: [u8; 32] = self.line_bytes(line);
            latency += next.store_line(victim_pa, &bytes)?;
            self.stats.writebacks += 1;
        }
        // Fetch the demanded line.
        let pa_line = pa & !(LINE_BYTES - 1);
        let (bytes, fetch_lat) = next.load_line(pa_line)?;
        latency += fetch_lat;
        let off = line * LINE_BYTES as usize;
        self.data.make_mut()[off..off + LINE_BYTES as usize].copy_from_slice(&bytes);
        self.tags.make_mut()[line] = tag | VALID_BIT | if is_write { DIRTY_BIT } else { 0 };
        self.promote(set, victim);
        Ok((LineIdx(line as u32), latency))
    }

    fn line_bytes(&self, line: usize) -> [u8; 32] {
        let off = line * LINE_BYTES as usize;
        let mut out = [0u8; 32];
        out.copy_from_slice(&self.data[off..off + LINE_BYTES as usize]);
        out
    }

    /// Reads `width` bytes at `offset` within a resident line, borrowed
    /// straight from the data array.
    ///
    /// # Panics
    ///
    /// Panics if the range leaves the line.
    pub fn read_bytes(&self, line: LineIdx, offset: u32, width: u32) -> &[u8] {
        assert!(offset + width <= LINE_BYTES, "read crosses line boundary");
        let base = line.0 as usize * LINE_BYTES as usize + offset as usize;
        &self.data[base..base + width as usize]
    }

    /// Writes bytes at `offset` within a resident line (caller must have
    /// accessed with `is_write = true`).
    ///
    /// # Panics
    ///
    /// Panics if the range leaves the line.
    pub fn write_bytes(&mut self, line: LineIdx, offset: u32, bytes: &[u8]) {
        assert!(
            offset as usize + bytes.len() <= LINE_BYTES as usize,
            "write crosses line boundary"
        );
        let base = line.0 as usize * LINE_BYTES as usize + offset as usize;
        self.data.make_mut()[base..base + bytes.len()].copy_from_slice(bytes);
    }

    /// Writes back every dirty line and marks it clean (drain at simulation
    /// boundaries or for verification).
    ///
    /// # Errors
    ///
    /// Propagates [`UnmappedPhysical`] from corrupted victim tags.
    pub fn flush_dirty(&mut self, next: &mut dyn LineStore) -> Result<(), UnmappedPhysical> {
        for line in 0..self.tags.len() {
            let t = self.tags[line];
            if t & VALID_BIT != 0 && t & DIRTY_BIT != 0 {
                let set = line as u32 / self.config.ways;
                let tag = t & !(VALID_BIT | DIRTY_BIT);
                let pa = ((tag as u32) << (self.config.offset_bits() + self.config.index_bits()))
                    | (set << self.config.offset_bits());
                let bytes = self.line_bytes(line);
                next.store_line(pa, &bytes)?;
                self.tags.make_mut()[line] &= !DIRTY_BIT;
            }
        }
        Ok(())
    }

    /// Geometry of the tag array (tag bits + valid + dirty per line).
    pub fn tag_geometry(&self) -> Geometry {
        self.config.tag_geometry()
    }

    /// Flips one bit of the tag array. Columns `0..tag_bits` are tag bits,
    /// then valid, then dirty.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside [`Cache::tag_geometry`].
    pub fn inject_tag_flip(&mut self, coord: BitCoord) {
        let g = self.tag_geometry();
        assert!(
            g.contains(coord.row, coord.col),
            "tag injection out of bounds"
        );
        let tag_bits = self.config.tag_bits() as usize;
        let mask = if coord.col < tag_bits {
            1u64 << coord.col
        } else if coord.col == tag_bits {
            VALID_BIT
        } else {
            DIRTY_BIT
        };
        self.tags.make_mut()[coord.row] ^= mask;
    }

    /// Approximate heap bytes retained by one snapshot of this cache.
    pub fn snapshot_bytes(&self) -> usize {
        self.tags.len() * 8 + self.data.len() + self.lru.len()
    }

    /// Retained heap bytes of this cache image when `prev` is an
    /// already-retained checkpoint: arrays still sharing their allocation
    /// with `prev` (copy-on-write, untouched between the two checkpoints)
    /// are charged zero. With `prev = None` every array is charged.
    pub fn retained_bytes(&self, prev: Option<&Self>) -> usize {
        self.tags.retained_bytes(prev.map(|p| &p.tags))
            + self.data.retained_bytes(prev.map(|p| &p.data))
            + self.lru.retained_bytes(prev.map(|p| &p.lru))
    }

    /// Liveness-aware state comparison against a golden checkpoint: `true`
    /// when every *reachable* bit of this cache equals `golden`.
    ///
    /// Valid bits, tag words of valid lines, data of valid lines, LRU ranks
    /// and access counters must all match exactly. The data and tag-word
    /// remainder of an **invalid** line are skipped: a fill overwrites the
    /// entire 32-byte line and the whole tag word before setting the valid
    /// bit, so those bits can never influence future behaviour. This is what
    /// lets a run whose injected flip landed in a dead line be declared
    /// reconverged once all *live* state matches the fault-free machine.
    pub fn converged_with(&self, golden: &Self) -> bool {
        if self.config != golden.config || self.stats != golden.stats || self.lru != golden.lru {
            return false;
        }
        // Arrays still sharing their allocation with the golden checkpoint
        // (copy-on-write, never written since the restore) are identical by
        // construction: skip the per-line scan.
        if self.tags.is_shared_with(&golden.tags) && self.data.is_shared_with(&golden.data) {
            return true;
        }
        for (line, (&t, &g)) in self.tags.iter().zip(golden.tags.iter()).enumerate() {
            if (t & VALID_BIT) != (g & VALID_BIT) {
                return false;
            }
            if t & VALID_BIT != 0 {
                if t != g {
                    return false;
                }
                let off = line * LINE_BYTES as usize;
                let end = off + LINE_BYTES as usize;
                if self.data[off..end] != golden.data[off..end] {
                    return false;
                }
            }
        }
        true
    }

    /// Geometry of one internal array.
    pub fn array_geometry(&self, array: CacheArray) -> Geometry {
        match array {
            CacheArray::Data => self.injectable_geometry(),
            CacheArray::Tag => self.tag_geometry(),
        }
    }

    /// Flips one bit of the chosen internal array.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the array geometry.
    pub fn inject_array_flip(&mut self, array: CacheArray, coord: BitCoord) {
        match array {
            CacheArray::Data => self.inject_flip(coord),
            CacheArray::Tag => self.inject_tag_flip(coord),
        }
    }
}

impl Injectable for Cache {
    /// The data array's physical geometry ([`CacheConfig::data_geometry`]).
    fn injectable_geometry(&self) -> Geometry {
        self.config.data_geometry()
    }

    /// Maps the physical strike coordinate through the interleaving to the
    /// logical (line, bit) cell and flips it.
    fn inject_flip(&mut self, coord: BitCoord) {
        let g = self.injectable_geometry();
        assert!(
            g.contains(coord.row, coord.col),
            "data injection out of bounds"
        );
        let i = self.config.interleave as usize;
        // Physical column c belongs to logical line (row*I + c mod I),
        // logical bit c / I.
        let line = coord.row * i + coord.col % i;
        let bit = coord.col / i;
        let byte = line * LINE_BYTES as usize + bit / 8;
        self.data.make_mut()[byte] ^= 1 << (bit % 8);
    }
}

impl Snapshot for Cache {
    type State = Cache;

    fn snapshot(&self) -> Cache {
        self.clone()
    }
}

impl Restorable for Cache {
    fn restore(&mut self, state: &Cache) {
        self.clone_from(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 8 lines, 2-way, 4 sets.
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            hit_latency: 2,
            interleave: 1,
        })
    }

    fn mem() -> PhysicalMemory {
        PhysicalMemory::new(64)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache();
        let mut m = mem();
        m.write_line(0x40, &[9; 32]).unwrap();
        let mut next = DramBacking {
            mem: &mut m,
            latency: 50,
        };
        let (line, lat) = c.access(0x44, false, &mut next).unwrap();
        assert_eq!(lat, 52);
        assert_eq!(c.read_bytes(line, 4, 2), [9, 9]);
        let (_, lat2) = c.access(0x44, false, &mut next).unwrap();
        assert_eq!(lat2, 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn writeback_on_eviction() {
        let mut c = small_cache();
        let mut m = mem();
        // 4 sets -> addresses 0x000, 0x080, 0x100 map to set 0 (stride = sets*32 = 128).
        {
            let mut next = DramBacking {
                mem: &mut m,
                latency: 50,
            };
            let (l, _) = c.access(0x000, true, &mut next).unwrap();
            c.write_bytes(l, 0, &[0xAA; 4]);
            c.access(0x080, false, &mut next).unwrap();
            // Third distinct line in set 0 evicts the dirty 0x000 line.
            c.access(0x100, false, &mut next).unwrap();
        }
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(m.read_line(0x000).unwrap()[0], 0xAA);
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut c = small_cache();
        let mut m = mem();
        let mut next = DramBacking {
            mem: &mut m,
            latency: 50,
        };
        c.access(0x000, false, &mut next).unwrap(); // set 0 way A
        c.access(0x080, false, &mut next).unwrap(); // set 0 way B
        c.access(0x000, false, &mut next).unwrap(); // touch A -> MRU
        c.access(0x100, false, &mut next).unwrap(); // evicts B (LRU)
        let hits_before = c.stats().hits;
        c.access(0x000, false, &mut next).unwrap(); // must still hit
        assert_eq!(c.stats().hits, hits_before + 1);
    }

    #[test]
    fn data_flip_corrupts_read() {
        let mut c = small_cache();
        let mut m = mem();
        let mut next = DramBacking {
            mem: &mut m,
            latency: 50,
        };
        let (line, _) = c.access(0x00, false, &mut next).unwrap();
        assert_eq!(c.read_bytes(line, 0, 1), [0]);
        // The handle row equals the internal line index.
        c.inject_flip(BitCoord::new(0, 3));
        let (line, _) = c.access(0x00, false, &mut next).unwrap();
        assert_eq!(c.read_bytes(line, 0, 1), [8]);
    }

    #[test]
    fn tag_valid_flip_causes_miss_refetch() {
        let mut c = small_cache();
        let mut m = mem();
        m.write_line(0, &[7; 32]).unwrap();
        let mut next = DramBacking {
            mem: &mut m,
            latency: 50,
        };
        c.access(0x00, false, &mut next).unwrap();
        let tag_bits = c.config().tag_bits() as usize;
        // Find which line holds set 0 way 0 == line 0.
        c.inject_tag_flip(BitCoord::new(0, tag_bits)); // valid bit
        let (_, lat) = c.access(0x00, false, &mut next).unwrap();
        assert!(lat > 2, "must refetch after valid-bit flip");
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn corrupted_dirty_tag_writeback_can_leave_system_map() {
        let mut c = small_cache();
        let mut m = PhysicalMemory::new(2); // tiny system map
        let mut next = DramBacking {
            mem: &mut m,
            latency: 50,
        };
        let (l, _) = c.access(0x00, true, &mut next).unwrap();
        c.write_bytes(l, 0, &[1]);
        // Flip a high tag bit -> reconstructed write-back address far away.
        let tag_bits = c.config().tag_bits() as usize;
        c.inject_tag_flip(BitCoord::new(0, tag_bits - 1));
        // Force eviction of set 0 (two more lines in set 0).
        let mut next = DramBacking {
            mem: &mut m,
            latency: 50,
        };
        c.access(0x080, false, &mut next).unwrap();
        let err = c.access(0x100, false, &mut next).unwrap_err();
        assert!(
            err.pa > 2 * 4096,
            "write-back must target the corrupted address"
        );
    }

    #[test]
    fn flush_dirty_writes_everything_back() {
        let mut c = small_cache();
        let mut m = mem();
        {
            let mut next = DramBacking {
                mem: &mut m,
                latency: 50,
            };
            let (l, _) = c.access(0x20, true, &mut next).unwrap();
            c.write_bytes(l, 0, &[5; 32]);
            c.flush_dirty(&mut next).unwrap();
        }
        assert_eq!(m.read_line(0x20).unwrap(), [5; 32]);
    }

    #[test]
    fn geometries_match_paper_sizes() {
        let l1 = Cache::new(CacheConfig::l1());
        assert_eq!(l1.injectable_geometry().total_bits(), 262_144);
        let l2 = Cache::new(CacheConfig::l2());
        assert_eq!(l2.injectable_geometry().total_bits(), 4_194_304);
    }

    #[test]
    fn snapshot_restore_roundtrip_mid_traffic() {
        let mut c = small_cache();
        let mut m = mem();
        let mut next = DramBacking {
            mem: &mut m,
            latency: 50,
        };
        let (l, _) = c.access(0x000, true, &mut next).unwrap();
        c.write_bytes(l, 0, &[0xAA; 4]);
        c.access(0x080, false, &mut next).unwrap();
        let saved = c.snapshot();
        c.access(0x100, false, &mut next).unwrap(); // evicts the dirty line
        assert_ne!(c, saved);
        c.restore(&saved);
        assert_eq!(c, saved);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn convergence_ignores_dead_line_flips_only() {
        let mut c = small_cache();
        let mut m = mem();
        let mut next = DramBacking {
            mem: &mut m,
            latency: 50,
        };
        c.access(0x000, false, &mut next).unwrap(); // line 0 valid
        let golden = c.snapshot();
        // A flip in a never-filled (invalid) line is unreachable state.
        c.inject_flip(BitCoord::new(7, 0));
        assert!(c.converged_with(&golden));
        // A flip in the valid line is live and must block convergence.
        c.inject_flip(BitCoord::new(0, 0));
        assert!(!c.converged_with(&golden));
        c.inject_flip(BitCoord::new(0, 0));
        assert!(c.converged_with(&golden));
        // A valid-bit flip changes reachability and must block convergence.
        let tag_bits = c.config().tag_bits() as usize;
        c.inject_tag_flip(BitCoord::new(0, tag_bits));
        assert!(!c.converged_with(&golden));
    }

    #[test]
    fn false_hit_after_tag_flip_serves_wrong_data() {
        let mut c = small_cache();
        let mut m = mem();
        m.write_line(0x000, &[1; 32]).unwrap();
        m.write_line(0x080, &[2; 32]).unwrap();
        let mut next = DramBacking {
            mem: &mut m,
            latency: 50,
        };
        c.access(0x000, false, &mut next).unwrap(); // tag 0 in set 0
                                                    // Flip tag bit 0 -> stored tag becomes 1, which matches PA 0x080.
        c.inject_tag_flip(BitCoord::new(0, 0));
        let (line, lat) = c.access(0x080, false, &mut next).unwrap();
        assert_eq!(lat, 2, "false hit");
        assert_eq!(c.read_bytes(line, 0, 1), [1], "serves stale wrong data");
    }
}

#[cfg(test)]
mod interleave_tests {
    use super::*;
    use mbu_sram::{BitCoord, Injectable};

    fn interleaved_cache(i: u32) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            hit_latency: 2,
            interleave: i,
        })
    }

    #[test]
    fn geometry_preserves_total_bits() {
        for i in [1, 2, 4, 8] {
            let c = interleaved_cache(i);
            assert_eq!(c.injectable_geometry().total_bits(), 256 * 8);
        }
    }

    #[test]
    fn interleave_1_is_identity_mapping() {
        let mut a = interleaved_cache(1);
        a.inject_flip(BitCoord::new(3, 17));
        let line = LineIdx(3);
        assert_eq!(a.read_bytes(line, 2, 1), [1 << 1]); // bit 17 = byte 2 bit 1
    }

    #[test]
    fn row_burst_spreads_across_logical_lines() {
        // With interleave 4, four horizontally adjacent physical cells land
        // in four *different* logical lines, at the same logical bit.
        let mut c = interleaved_cache(4);
        for col in 0..4 {
            c.inject_flip(BitCoord::new(0, col));
        }
        for line in 0..4u32 {
            assert_eq!(
                c.read_bytes(LineIdx(line), 0, 1),
                [1],
                "logical line {line} must hold exactly bit 0"
            );
        }
    }

    #[test]
    fn mapping_is_a_bijection() {
        // Flipping every physical cell once must flip every logical bit once.
        let mut c = interleaved_cache(4);
        let g = c.injectable_geometry();
        for r in 0..g.rows() {
            for col in 0..g.cols() {
                c.inject_flip(BitCoord::new(r, col));
            }
        }
        for line in 0..8u32 {
            assert_eq!(c.read_bytes(LineIdx(line), 0, 32), [0xFF; 32]);
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn bad_interleave_rejected() {
        let _ = interleaved_cache(3); // 8 lines not divisible by 3
    }
}
