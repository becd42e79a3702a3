//! Order statistics for timing samples.

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [u32; 5] = [99, 95, 90, 80, 50];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten of
/// `n` samples beyond it (`n × (100 − p) / 100 ≥ 10`), or `None` when even
/// the median has fewer than ten samples above it.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n as u64 * u64::from(100 - p) >= 1000)
}

/// The `p`-th percentile (0–100) of `samples`, linearly interpolated
/// between closest ranks; `0.0` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples` (`0.0` for none).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// A timing distribution as the ledger reports it: the median, the
/// highest percentile with at least ten samples beyond it, and the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Distribution {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile chosen by [`tail_percentile`], if any.
    pub tail: Option<(u32, f64)>,
}

impl Distribution {
    /// Summarises `samples`.
    pub fn of(samples: &[f64]) -> Self {
        Self {
            n: samples.len(),
            p50: median(samples),
            tail: tail_percentile(samples.len()).map(|p| (p, percentile(samples, f64::from(p)))),
        }
    }
}
