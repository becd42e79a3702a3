//! Technology-node data and the aggregate multi-bit AVF (paper §V).
//!
//! The per-node multi-bit upset rates (Table VI) and raw FIT/bit rates
//! (Table VII) come from Ibe et al.'s neutron-beam characterization, the
//! same single source the paper uses for consistency. Component sizes
//! (Table VIII) are the bit counts of the six injected structures.

use crate::avf::ComponentAvf;
use mbu_cpu::HwComponent;
use std::fmt;

/// A fabrication technology node from 250 nm down to 22 nm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TechNode {
    /// 250 nm.
    N250,
    /// 180 nm.
    N180,
    /// 130 nm.
    N130,
    /// 90 nm.
    N90,
    /// 65 nm.
    N65,
    /// 45 nm.
    N45,
    /// 32 nm.
    N32,
    /// 22 nm.
    N22,
}

impl TechNode {
    /// All eight nodes, oldest (largest) first.
    pub const ALL: [TechNode; 8] = [
        TechNode::N250,
        TechNode::N180,
        TechNode::N130,
        TechNode::N90,
        TechNode::N65,
        TechNode::N45,
        TechNode::N32,
        TechNode::N22,
    ];

    /// Feature size in nanometres.
    pub fn nm(self) -> u32 {
        match self {
            TechNode::N250 => 250,
            TechNode::N180 => 180,
            TechNode::N130 => 130,
            TechNode::N90 => 90,
            TechNode::N65 => 65,
            TechNode::N45 => 45,
            TechNode::N32 => 32,
            TechNode::N22 => 22,
        }
    }

    /// Multi-bit upset rates `[single, double, triple]` for this node
    /// (paper Table VI; 4-bit-and-larger rates are folded into the triple
    /// class as in the paper).
    pub fn mbu_rates(self) -> [f64; 3] {
        match self {
            TechNode::N250 => [1.000, 0.000, 0.000],
            TechNode::N180 => [0.964, 0.036, 0.000],
            TechNode::N130 => [0.934, 0.044, 0.022],
            TechNode::N90 => [0.878, 0.096, 0.026],
            TechNode::N65 => [0.816, 0.161, 0.023],
            TechNode::N45 => [0.722, 0.230, 0.048],
            TechNode::N32 => [0.653, 0.291, 0.056],
            TechNode::N22 => [0.553, 0.344, 0.103],
        }
    }

    /// Raw soft-error FIT rate per bit (paper Table VII): rises to a peak
    /// at 130 nm, then falls as cell area shrinks faster than sensitivity
    /// grows.
    pub fn raw_fit_per_bit(self) -> f64 {
        let x = match self {
            TechNode::N250 => 47.0,
            TechNode::N180 => 85.0,
            TechNode::N130 => 106.0,
            TechNode::N90 => 100.0,
            TechNode::N65 => 85.0,
            TechNode::N45 => 58.0,
            TechNode::N32 => 38.0,
            TechNode::N22 => 23.0,
        };
        x * 1e-8
    }
}

impl fmt::Display for TechNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} nm", self.nm())
    }
}

/// Component sizes in bits (paper Table VIII), used by the FIT model.
pub fn component_bits(component: HwComponent) -> u64 {
    match component {
        HwComponent::L1D => 262_144,
        HwComponent::L1I => 262_144,
        HwComponent::L2 => 4_194_304,
        HwComponent::RegFile => 2_112,
        HwComponent::ITlb => 1_024,
        HwComponent::DTlb => 1_024,
    }
}

/// The aggregate multi-bit AVF of a component at a technology node
/// (paper Eq. 3):
///
/// ```text
/// Node_AVF(c) = Σᵢ AVFᵢ(c) · f(i),   i ∈ {1, 2, 3}
/// ```
pub fn node_avf(avf: &ComponentAvf, node: TechNode) -> f64 {
    let f = node.mbu_rates();
    avf.single * f[0] + avf.double * f[1] + avf.triple * f[2]
}

/// Aggregate AVF under arbitrary `[single, double, triple]` rates —
/// the general form of Eq. 3, usable with projected rates for nodes beyond
/// the paper's data (see [`projected`]).
///
/// # Panics
///
/// Panics if the rates do not sum to ~1.
pub fn node_avf_with_rates(avf: &ComponentAvf, rates: [f64; 3]) -> f64 {
    let sum: f64 = rates.iter().sum();
    assert!((sum - 1.0).abs() < 1e-6, "rates must sum to 1, got {sum}");
    avf.single * rates[0] + avf.double * rates[1] + avf.triple * rates[2]
}

/// Projected post-22 nm technology data (extension).
///
/// The paper deliberately stops at 22 nm to keep a single data source, but
/// its conclusion notes the method applies directly to newer nodes where
/// MBU rates are *higher*. These projections extrapolate the Table VI trend
/// (log-linear in feature size) and the FinFET raw-FIT reductions reported
/// by Seifert et al.; they are clearly marked as projections, not
/// measurements.
pub mod projected {
    /// Projected 14 nm FinFET MBU rates `[single, double, triple]`.
    pub fn finfet_14nm_rates() -> [f64; 3] {
        [0.47, 0.38, 0.15]
    }

    /// Projected 14 nm FinFET raw FIT/bit (FinFETs are markedly less
    /// sensitive than planar CMOS).
    pub fn finfet_14nm_raw_fit() -> f64 {
        10.0e-8
    }
}

/// The *assessment gap*: the relative error of a single-bit-only analysis
/// at this node, `(Node_AVF − AVF₁) / AVF₁` (e.g. 35 % for the register
/// file at 22 nm).
pub fn assessment_gap(avf: &ComponentAvf, node: TechNode) -> f64 {
    (node_avf(avf, node) - avf.single) / avf.single
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_sum_to_one() {
        for node in TechNode::ALL {
            let s: f64 = node.mbu_rates().iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "{node}: {s}");
        }
    }

    #[test]
    fn mbu_share_grows_monotonically() {
        let mut prev = -1.0;
        for node in TechNode::ALL {
            let mbu = 1.0 - node.mbu_rates()[0];
            assert!(mbu > prev, "{node}");
            prev = mbu;
        }
    }

    #[test]
    fn raw_fit_peaks_at_130nm() {
        let peak = TechNode::N130.raw_fit_per_bit();
        for node in TechNode::ALL {
            assert!(node.raw_fit_per_bit() <= peak);
        }
        assert!(TechNode::N22.raw_fit_per_bit() < TechNode::N250.raw_fit_per_bit());
    }

    #[test]
    fn component_bits_match_table_viii() {
        let total: u64 = HwComponent::ALL.iter().map(|&c| component_bits(c)).sum();
        assert_eq!(total, 262_144 * 2 + 4_194_304 + 2_112 + 1_024 * 2);
    }

    #[test]
    fn node_avf_at_250nm_is_single_bit_avf() {
        let a = ComponentAvf::new(0.20, 0.30, 0.36);
        assert!((node_avf(&a, TechNode::N250) - 0.20).abs() < 1e-12);
    }

    #[test]
    fn node_avf_is_convex_and_monotone_in_node() {
        let a = ComponentAvf::new(0.20, 0.30, 0.36);
        let mut prev = 0.0;
        for node in TechNode::ALL {
            let v = node_avf(&a, node);
            assert!(v >= a.single && v <= a.triple, "convex combination bounds");
            assert!(
                v >= prev,
                "AVF grows toward denser nodes when AVF₂,₃ > AVF₁"
            );
            prev = v;
        }
    }

    #[test]
    fn register_file_gap_is_35_percent_at_22nm() {
        // Paper: Fig. 7 reports up to 35 % AVF difference for the register
        // file at 22 nm; verify with the paper's own Table V numbers.
        let rf = ComponentAvf::new(0.1095, 0.1865, 0.2301);
        let gap = assessment_gap(&rf, TechNode::N22);
        assert!((gap - 0.355).abs() < 0.01, "got {gap}");
    }

    #[test]
    fn l1i_matches_fig7_caption() {
        // Fig. 7 caption: L1I single-bit AVF 12 %, 22 nm multi-bit ~16 %, a
        // ~33 % difference.
        let l1i = ComponentAvf::new(0.1201, 0.1957, 0.2514);
        let v = node_avf(&l1i, TechNode::N22);
        assert!((v - 0.16).abs() < 0.005, "got {v}");
        assert!((assessment_gap(&l1i, TechNode::N22) - 0.33).abs() < 0.01);
    }
}

#[cfg(test)]
mod projected_tests {
    use super::*;

    #[test]
    fn projected_rates_are_a_distribution_beyond_22nm() {
        let r = projected::finfet_14nm_rates();
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Strictly more multi-bit share than the last measured node.
        assert!(r[0] < TechNode::N22.mbu_rates()[0]);
        assert!(projected::finfet_14nm_raw_fit() < TechNode::N22.raw_fit_per_bit());
    }

    #[test]
    fn node_avf_with_rates_generalizes_eq3() {
        let a = ComponentAvf::new(0.2, 0.3, 0.4);
        for node in TechNode::ALL {
            assert!((node_avf_with_rates(&a, node.mbu_rates()) - node_avf(&a, node)).abs() < 1e-12);
        }
        let v = node_avf_with_rates(&a, projected::finfet_14nm_rates());
        assert!(
            v > node_avf(&a, TechNode::N22),
            "projected node has higher aggregate AVF"
        );
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_rates_rejected() {
        let _ = node_avf_with_rates(&ComponentAvf::new(0.1, 0.1, 0.1), [0.5, 0.2, 0.1]);
    }
}
