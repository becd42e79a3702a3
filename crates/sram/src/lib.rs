//! Bit-accurate SRAM array modeling for microarchitecture-level fault injection.
//!
//! Every hardware structure that the fault injector can target (cache data
//! arrays, cache tag arrays, TLB entry arrays, the physical register file) is
//! backed by a [`BitArray`]: a two-dimensional grid of bits with an explicit
//! *physical geometry* (rows × columns). The geometry is what makes **spatial**
//! multi-bit faults meaningful — a particle strike upsets a cluster of
//! physically adjacent cells, so the injector needs to know which bits are
//! neighbours.
//!
//! The paper (§III.B) models a fault as a set of bit flips inside an `X × Y`
//! cluster placed at a random position of the SRAM array; this crate provides
//! the array side of that contract (addressing, flipping, geometry queries)
//! while the cluster/mask logic lives in the `mbu-gefin` crate.
//!
//! # Example
//!
//! ```
//! use mbu_sram::{BitArray, Geometry};
//!
//! let mut array = BitArray::new(Geometry::new(4, 8));
//! array.write_word(1, 0, 8, 0xA5);
//! assert_eq!(array.read_word(1, 0, 8), 0xA5);
//! array.flip(1, 0); // particle strike on bit (row 1, col 0)
//! assert_eq!(array.read_word(1, 0, 8), 0xA4);
//! ```

#![forbid(unsafe_code)]

pub mod cow;
pub mod probe;

pub use cow::CowVec;
pub use probe::LivenessProbe;

use std::fmt;

/// Physical geometry of an SRAM array: `rows × cols` bit cells.
///
/// The geometry determines spatial adjacency for multi-bit upset modeling.
/// Bits in the same row and neighbouring columns (or the same column and
/// neighbouring rows) are physically adjacent.
///
/// # Example
///
/// ```
/// use mbu_sram::Geometry;
/// let g = Geometry::new(256, 1024);
/// assert_eq!(g.total_bits(), 262_144); // a 32 KB cache data array
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    rows: usize,
    cols: usize,
}

impl Geometry {
    /// Creates a geometry of `rows × cols` bits.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "geometry dimensions must be nonzero");
        Self { rows, cols }
    }

    /// Number of bit rows (word lines).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bit columns (bit lines).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of bits in the array.
    pub fn total_bits(&self) -> usize {
        self.rows * self.cols
    }

    /// Maps a `(row, col)` coordinate to a linear bit index (row-major).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn linear_index(&self, row: usize, col: usize) -> usize {
        assert!(
            row < self.rows && col < self.cols,
            "bit coordinate out of bounds"
        );
        row * self.cols + col
    }

    /// Maps a linear bit index back to a `(row, col)` coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `index >= total_bits()`.
    pub fn coordinate(&self, index: usize) -> (usize, usize) {
        assert!(index < self.total_bits(), "linear bit index out of bounds");
        (index / self.cols, index % self.cols)
    }

    /// Returns `true` if `(row, col)` lies inside the array.
    pub fn contains(&self, row: usize, col: usize) -> bool {
        row < self.rows && col < self.cols
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} bits", self.rows, self.cols)
    }
}

/// A coordinate of a single bit cell inside a [`BitArray`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitCoord {
    /// Row (word line) of the cell.
    pub row: usize,
    /// Column (bit line) of the cell.
    pub col: usize,
}

impl BitCoord {
    /// Creates a bit coordinate.
    pub fn new(row: usize, col: usize) -> Self {
        Self { row, col }
    }
}

impl fmt::Display for BitCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.row, self.col)
    }
}

/// A two-dimensional, bit-addressable SRAM array.
///
/// Storage is row-major and packed into `u64` words. All bit addressing is in
/// `(row, col)` physical coordinates so that fault clusters can be placed at
/// physically meaningful positions.
///
/// # Example
///
/// ```
/// use mbu_sram::{BitArray, Geometry};
/// let mut a = BitArray::new(Geometry::new(2, 64));
/// a.write_word(0, 0, 64, u64::MAX);
/// assert_eq!(a.count_ones(), 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitArray {
    geometry: Geometry,
    words: Vec<u64>,
}

impl BitArray {
    /// Creates a zero-initialized array with the given geometry.
    pub fn new(geometry: Geometry) -> Self {
        let nwords = geometry.total_bits().div_ceil(64);
        Self {
            geometry,
            words: vec![0; nwords],
        }
    }

    /// The physical geometry of this array.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    #[inline]
    fn locate(&self, row: usize, col: usize) -> (usize, u32) {
        let idx = self.geometry.linear_index(row, col);
        (idx / 64, (idx % 64) as u32)
    }

    /// Reads the bit at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        let (w, b) = self.locate(row, col);
        (self.words[w] >> b) & 1 == 1
    }

    /// Sets the bit at `(row, col)` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        let (w, b) = self.locate(row, col);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Flips (inverts) the bit at `(row, col)` — the particle-strike primitive.
    ///
    /// Returns the *new* value of the bit.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn flip(&mut self, row: usize, col: usize) -> bool {
        let (w, b) = self.locate(row, col);
        self.words[w] ^= 1 << b;
        (self.words[w] >> b) & 1 == 1
    }

    /// Flips every coordinate in `coords`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    pub fn flip_all<I>(&mut self, coords: I)
    where
        I: IntoIterator<Item = BitCoord>,
    {
        for c in coords {
            self.flip(c.row, c.col);
        }
    }

    /// Reads `width` bits (≤ 64) starting at `(row, col)` within a single row,
    /// least-significant bit first.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or > 64, or if `col + width` exceeds the row.
    pub fn read_word(&self, row: usize, col: usize, width: usize) -> u64 {
        assert!(width > 0 && width <= 64, "width must be in 1..=64");
        assert!(
            col + width <= self.geometry.cols,
            "word read crosses row boundary"
        );
        let mut v = 0u64;
        for i in 0..width {
            if self.get(row, col + i) {
                v |= 1 << i;
            }
        }
        v
    }

    /// Writes the low `width` bits (≤ 64) of `value` starting at `(row, col)`
    /// within a single row, least-significant bit first.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or > 64, or if `col + width` exceeds the row.
    pub fn write_word(&mut self, row: usize, col: usize, width: usize, value: u64) {
        assert!(width > 0 && width <= 64, "width must be in 1..=64");
        assert!(
            col + width <= self.geometry.cols,
            "word write crosses row boundary"
        );
        for i in 0..width {
            self.set(row, col + i, (value >> i) & 1 == 1);
        }
    }

    /// Reads an entire row as bytes (little-endian bit order within bytes).
    ///
    /// The row width must be a multiple of 8.
    ///
    /// # Panics
    ///
    /// Panics if the row is out of bounds or the width is not byte-aligned.
    pub fn read_row_bytes(&self, row: usize) -> Vec<u8> {
        assert!(
            self.geometry.cols.is_multiple_of(8),
            "row width must be byte-aligned"
        );
        let mut out = Vec::with_capacity(self.geometry.cols / 8);
        for byte in 0..self.geometry.cols / 8 {
            out.push(self.read_word(row, byte * 8, 8) as u8);
        }
        out
    }

    /// Writes an entire row from bytes (little-endian bit order within bytes).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` does not exactly fill the row.
    pub fn write_row_bytes(&mut self, row: usize, bytes: &[u8]) {
        assert!(
            self.geometry.cols.is_multiple_of(8),
            "row width must be byte-aligned"
        );
        assert_eq!(
            bytes.len() * 8,
            self.geometry.cols,
            "bytes must exactly fill the row"
        );
        for (byte, &b) in bytes.iter().enumerate() {
            self.write_word(row, byte * 8, 8, b as u64);
        }
    }

    /// Number of set bits in the whole array.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Resets every bit to zero.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }
}

/// Trait implemented by hardware structures that expose an injectable SRAM
/// surface to the fault injector.
///
/// The injector only needs two capabilities: discovering the physical geometry
/// (so fault clusters can be placed in bounds) and flipping a set of bit
/// cells. Structures with multiple internal arrays (e.g. a cache with data and
/// tag arrays) expose a single logical geometry and map coordinates
/// internally.
pub trait Injectable {
    /// Geometry of the injectable bit surface.
    fn injectable_geometry(&self) -> Geometry;

    /// Flips the bit at the given coordinate of the injectable surface.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the coordinate is outside
    /// [`Self::injectable_geometry`].
    fn inject_flip(&mut self, coord: BitCoord);
}

impl Injectable for BitArray {
    fn injectable_geometry(&self) -> Geometry {
        self.geometry
    }

    fn inject_flip(&mut self, coord: BitCoord) {
        self.flip(coord.row, coord.col);
    }
}

/// Trait implemented by hardware structures whose complete mutable state can
/// be captured as an owned, bit-exact checkpoint.
///
/// A snapshot must cover *every* bit of state that influences future
/// behaviour — array contents, replacement metadata, counters — so that
/// restoring it and continuing is cycle-for-cycle identical to never having
/// stopped. Structures built from smaller `Snapshot` pieces (a memory
/// hierarchy, a whole core) compose their states structurally.
pub trait Snapshot {
    /// The owned checkpoint type.
    type State;

    /// Captures a bit-exact copy of all mutable state.
    fn snapshot(&self) -> Self::State;
}

impl Snapshot for BitArray {
    type State = BitArray;

    fn snapshot(&self) -> BitArray {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_linear_roundtrip() {
        let g = Geometry::new(7, 13);
        for r in 0..7 {
            for c in 0..13 {
                assert_eq!(g.coordinate(g.linear_index(r, c)), (r, c));
            }
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn geometry_rejects_zero() {
        let _ = Geometry::new(0, 4);
    }

    #[test]
    fn set_get_flip() {
        let mut a = BitArray::new(Geometry::new(3, 70));
        assert!(!a.get(2, 69));
        a.set(2, 69, true);
        assert!(a.get(2, 69));
        assert!(!a.flip(2, 69));
        assert!(!a.get(2, 69));
        assert!(a.flip(2, 69));
        assert_eq!(a.count_ones(), 1);
    }

    #[test]
    fn word_roundtrip_across_u64_boundary() {
        // Row width 100 -> second row starts mid-u64-word.
        let mut a = BitArray::new(Geometry::new(4, 100));
        a.write_word(1, 90, 10, 0x3FF);
        assert_eq!(a.read_word(1, 90, 10), 0x3FF);
        a.write_word(2, 0, 64, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(a.read_word(2, 0, 64), 0xDEAD_BEEF_CAFE_F00D);
        // Neighbouring rows untouched.
        assert_eq!(a.read_word(0, 90, 10), 0);
        assert_eq!(a.read_word(3, 0, 64), 0);
    }

    #[test]
    fn row_bytes_roundtrip() {
        let mut a = BitArray::new(Geometry::new(2, 32));
        a.write_row_bytes(1, &[0x12, 0x34, 0x56, 0x78]);
        assert_eq!(a.read_row_bytes(1), vec![0x12, 0x34, 0x56, 0x78]);
        assert_eq!(a.read_row_bytes(0), vec![0, 0, 0, 0]);
    }

    #[test]
    fn flip_all_applies_each_coord() {
        let mut a = BitArray::new(Geometry::new(3, 3));
        a.flip_all([
            BitCoord::new(0, 0),
            BitCoord::new(1, 1),
            BitCoord::new(2, 2),
        ]);
        assert_eq!(a.count_ones(), 3);
        assert!(a.get(1, 1));
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut a = BitArray::new(Geometry::new(2, 9));
        a.write_word(0, 0, 9, 0x1FF);
        a.clear();
        assert_eq!(a.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_get_panics() {
        let a = BitArray::new(Geometry::new(2, 2));
        a.get(2, 0);
    }

    #[test]
    #[should_panic(expected = "crosses row boundary")]
    fn word_crossing_row_panics() {
        let a = BitArray::new(Geometry::new(2, 16));
        a.read_word(0, 10, 8);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut a = BitArray::new(Geometry::new(4, 100));
        a.write_word(1, 90, 10, 0x2AB);
        let saved = a.snapshot();
        a.clear();
        a.write_word(3, 0, 64, u64::MAX);
        a.clone_from(&saved);
        assert_eq!(a, saved);
        assert_eq!(a.read_word(1, 90, 10), 0x2AB);
    }
}
