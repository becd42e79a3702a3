//! Spatial multi-bit fault-mask generation (paper §III.B).
//!
//! A fault is modeled as `N` distinct bit flips inside an `X × Y` cluster of
//! physically adjacent SRAM cells. The cluster is placed at a uniformly
//! random position of the target structure's bit array; the flipped cells
//! are chosen uniformly inside the cluster. Patterns whose flips happen to
//! fit a smaller window are deliberately *kept* — as the paper notes, this
//! includes all smaller sub-clusters in the analysis, unlike the MBU coding
//! of Ibe et al. which normalizes to the minimal bounding box.

use crate::rng::Rng64;
use mbu_sram::{BitCoord, Geometry};
use std::fmt;

/// Cluster window dimensions (rows × cols).
///
/// The paper uses a 3 × 3 cluster: quadruple-bit and larger upsets have
/// virtually zero rates in the technology data (Table VI), so 1–3 flips in
/// a 3 × 3 window cover the realistic patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterSpec {
    /// Cluster rows (X).
    pub rows: usize,
    /// Cluster columns (Y).
    pub cols: usize,
}

impl ClusterSpec {
    /// The paper's default 3 × 3 cluster.
    pub const DEFAULT: ClusterSpec = ClusterSpec { rows: 3, cols: 3 };

    /// Creates a cluster spec.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "cluster dimensions must be nonzero");
        Self { rows, cols }
    }

    /// Number of cells in the cluster.
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl fmt::Display for ClusterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// A concrete fault mask: the absolute coordinates to flip in the target
/// structure, plus the cluster-relative pattern for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultMask {
    /// Absolute bit coordinates in the target structure's geometry.
    pub coords: Vec<BitCoord>,
    /// Cluster origin (top-left) in the target geometry.
    pub origin: BitCoord,
    /// Cluster window this mask was drawn in.
    pub cluster: ClusterSpec,
}

impl FaultMask {
    /// Number of flipped bits (the fault cardinality).
    pub fn cardinality(&self) -> usize {
        self.coords.len()
    }

    /// Renders the cluster-relative pattern as an ASCII grid (`X` = flipped
    /// cell), in the style of the paper's Table II.
    pub fn pattern(&self) -> String {
        let mut grid = vec![vec!['.'; self.cluster.cols]; self.cluster.rows];
        for c in &self.coords {
            grid[c.row - self.origin.row][c.col - self.origin.col] = 'X';
        }
        grid.into_iter()
            .map(|row| row.into_iter().collect::<String>())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl fmt::Display for FaultMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-bit fault at {} in a {} cluster",
            self.cardinality(),
            self.origin,
            self.cluster
        )
    }
}

/// The sMBF mask generator.
///
/// # Example
///
/// ```
/// use mbu_gefin::mask::{ClusterSpec, MaskGenerator};
/// use mbu_sram::Geometry;
///
/// let mut gen = MaskGenerator::seeded(7, ClusterSpec::DEFAULT);
/// let mask = gen.generate(Geometry::new(256, 1024), 3);
/// assert_eq!(mask.cardinality(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct MaskGenerator {
    rng: Rng64,
    cluster: ClusterSpec,
}

impl MaskGenerator {
    /// Creates a generator with a deterministic seed.
    pub fn seeded(seed: u64, cluster: ClusterSpec) -> Self {
        Self {
            rng: Rng64::seed_from_u64(seed),
            cluster,
        }
    }

    /// The cluster window used by this generator.
    pub fn cluster(&self) -> ClusterSpec {
        self.cluster
    }

    /// Generates a mask with `cardinality` distinct flips inside a randomly
    /// placed cluster. If the target geometry is smaller than the cluster in
    /// a dimension, the window shrinks to fit.
    ///
    /// # Panics
    ///
    /// Panics if `cardinality` is zero or exceeds the (possibly shrunk)
    /// cluster capacity.
    pub fn generate(&mut self, geometry: Geometry, cardinality: usize) -> FaultMask {
        let (origin, window) = self.window(geometry);
        assert!(
            cardinality >= 1 && cardinality <= window.cells(),
            "cardinality {cardinality} does not fit a {window} cluster"
        );
        // Partial Fisher–Yates over the window cells.
        let mut cells: Vec<usize> = (0..window.cells()).collect();
        let mut coords = Vec::with_capacity(cardinality);
        for k in 0..cardinality {
            let pick = self.rng.gen_range(k..cells.len());
            cells.swap(k, pick);
            let cell = cells[k];
            coords.push(BitCoord::new(
                origin.row + cell / window.cols,
                origin.col + cell % window.cols,
            ));
        }
        coords.sort_unstable();
        FaultMask {
            coords,
            origin,
            cluster: window,
        }
    }

    /// Places the cluster window uniformly at random in `geometry`: its
    /// origin (top-left cell) and its shape, the cluster shrunk to fit in
    /// any dimension where the geometry is smaller. This is the first draw
    /// of [`MaskGenerator::generate`], so masks of every cardinality drawn
    /// from equal generator states flip cells of one window, the larger
    /// masks a superset of the smaller.
    pub(crate) fn window(&mut self, geometry: Geometry) -> (BitCoord, ClusterSpec) {
        let window = ClusterSpec::new(
            self.cluster.rows.min(geometry.rows()),
            self.cluster.cols.min(geometry.cols()),
        );
        let origin = BitCoord::new(
            self.rng.gen_range(0..=geometry.rows() - window.rows),
            self.rng.gen_range(0..=geometry.cols() - window.cols),
        );
        (origin, window)
    }

    /// Draws a uniformly random injection cycle in `[0, fault_free_cycles)`.
    ///
    /// # Panics
    ///
    /// Panics if `fault_free_cycles` is zero.
    pub fn injection_cycle(&mut self, fault_free_cycles: u64) -> u64 {
        assert!(
            fault_free_cycles > 0,
            "fault-free run must take at least one cycle"
        );
        self.rng.gen_range(0..fault_free_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::new(64, 128)
    }

    #[test]
    fn masks_have_requested_cardinality_and_distinct_cells() {
        let mut g = MaskGenerator::seeded(1, ClusterSpec::DEFAULT);
        for n in 1..=9 {
            let m = g.generate(geom(), n);
            assert_eq!(m.cardinality(), n);
            let mut c = m.coords.clone();
            c.dedup();
            assert_eq!(c.len(), n, "flips must be distinct");
        }
    }

    #[test]
    fn flips_stay_inside_the_cluster_window() {
        let mut g = MaskGenerator::seeded(2, ClusterSpec::DEFAULT);
        for _ in 0..500 {
            let m = g.generate(geom(), 3);
            for c in &m.coords {
                assert!(c.row >= m.origin.row && c.row < m.origin.row + 3);
                assert!(c.col >= m.origin.col && c.col < m.origin.col + 3);
                assert!(geom().contains(c.row, c.col));
            }
        }
    }

    #[test]
    fn cardinalities_from_equal_seeds_nest_in_one_window() {
        for seed in 0..200 {
            let draw = |k| MaskGenerator::seeded(seed, ClusterSpec::DEFAULT).generate(geom(), k);
            let (origin, window) = MaskGenerator::seeded(seed, ClusterSpec::DEFAULT).window(geom());
            let masks: Vec<FaultMask> = (1..=3).map(draw).collect();
            for pair in masks.windows(2) {
                assert!(pair[0].coords.iter().all(|c| pair[1].coords.contains(c)));
            }
            for m in &masks {
                assert_eq!((m.origin, m.cluster), (origin, window));
            }
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = MaskGenerator::seeded(99, ClusterSpec::DEFAULT);
        let mut b = MaskGenerator::seeded(99, ClusterSpec::DEFAULT);
        for _ in 0..50 {
            assert_eq!(a.generate(geom(), 2), b.generate(geom(), 2));
            assert_eq!(a.injection_cycle(1000), b.injection_cycle(1000));
        }
    }

    #[test]
    fn cluster_placement_covers_the_array() {
        let mut g = MaskGenerator::seeded(3, ClusterSpec::DEFAULT);
        let mut seen_first_row = false;
        let mut seen_last_row = false;
        for _ in 0..2000 {
            let m = g.generate(geom(), 1);
            if m.origin.row == 0 {
                seen_first_row = true;
            }
            if m.origin.row == 64 - 3 {
                seen_last_row = true;
            }
        }
        assert!(
            seen_first_row && seen_last_row,
            "placement must span the array"
        );
    }

    #[test]
    fn window_shrinks_for_narrow_structures() {
        // A 2-row structure cannot host a 3-row cluster.
        let mut g = MaskGenerator::seeded(4, ClusterSpec::DEFAULT);
        let m = g.generate(Geometry::new(2, 100), 3);
        assert_eq!(m.cluster, ClusterSpec::new(2, 3));
        for c in &m.coords {
            assert!(c.row < 2);
        }
    }

    #[test]
    fn pattern_renders_like_table_ii() {
        let mut g = MaskGenerator::seeded(5, ClusterSpec::DEFAULT);
        let m = g.generate(geom(), 2);
        let p = m.pattern();
        assert_eq!(p.matches('X').count(), 2);
        assert_eq!(p.lines().count(), 3);
        assert!(p.lines().all(|l| l.len() == 3));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_cardinality_panics() {
        let mut g = MaskGenerator::seeded(6, ClusterSpec::DEFAULT);
        let _ = g.generate(geom(), 10);
    }

    #[test]
    fn injection_cycles_are_in_range() {
        let mut g = MaskGenerator::seeded(7, ClusterSpec::DEFAULT);
        for _ in 0..1000 {
            assert!(g.injection_cycle(123) < 123);
        }
    }
}
