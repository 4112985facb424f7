//! Statistics toolkit recomputing Table 3 / Fig. 1 quantities from a
//! sample of name lengths.

/// Summary statistics of a length sample (one Table 3 row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LengthStats {
    /// Sample size.
    pub n: usize,
    /// Minimum.
    pub min: usize,
    /// Maximum.
    pub max: usize,
    /// Most frequent value (smallest on ties).
    pub mode: usize,
    /// Mean (μ).
    pub mean: f64,
    /// Population standard deviation (σ).
    pub sigma: f64,
    /// First quartile (nearest-rank).
    pub q1: usize,
    /// Median (nearest-rank).
    pub q2: usize,
    /// Third quartile (nearest-rank).
    pub q3: usize,
}

impl LengthStats {
    /// Compute from raw lengths.
    ///
    /// # Panics
    /// Panics on an empty sample.
    pub fn from_lengths(lengths: &[usize]) -> Self {
        assert!(!lengths.is_empty(), "empty sample");
        let mut sorted = lengths.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let mean = sorted.iter().sum::<usize>() as f64 / n as f64;
        let var = sorted
            .iter()
            .map(|&x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        // Nearest-rank quantiles.
        let rank = |p: f64| -> usize {
            let r = (p * n as f64).ceil() as usize;
            sorted[r.clamp(1, n) - 1]
        };
        // Mode via frequency count.
        let max_len = *sorted.last().expect("non-empty");
        let mut freq = vec![0usize; max_len + 1];
        for &l in &sorted {
            freq[l] += 1;
        }
        let mode = freq
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| c)
            .map(|(l, _)| l)
            .expect("non-empty");
        LengthStats {
            n,
            min: sorted[0],
            max: max_len,
            mode,
            mean,
            sigma: var.sqrt(),
            q1: rank(0.25),
            q2: rank(0.50),
            q3: rank(0.75),
        }
    }
}

/// Normalized density histogram (percent per length) over `0..=max_len`
/// — the y-axis of Fig. 1.
pub fn density_histogram(lengths: &[usize], max_len: usize) -> Vec<f64> {
    let mut hist = vec![0.0f64; max_len + 1];
    if lengths.is_empty() {
        return hist;
    }
    for &l in lengths {
        if l <= max_len {
            hist[l] += 1.0;
        }
    }
    let total = lengths.len() as f64;
    for h in hist.iter_mut() {
        *h = *h / total * 100.0;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_stats() {
        let s = LengthStats::from_lengths(&[1, 2, 2, 3, 4]);
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert_eq!(s.mode, 2);
        assert!((s.mean - 2.4).abs() < 1e-9);
        assert_eq!(s.q2, 2);
    }

    #[test]
    fn quartiles_nearest_rank() {
        let data: Vec<usize> = (1..=100).collect();
        let s = LengthStats::from_lengths(&data);
        assert_eq!(s.q1, 25);
        assert_eq!(s.q2, 50);
        assert_eq!(s.q3, 75);
    }

    #[test]
    fn sigma_population() {
        let s = LengthStats::from_lengths(&[2, 4, 4, 4, 5, 5, 7, 9]);
        assert!((s.sigma - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_panics() {
        LengthStats::from_lengths(&[]);
    }

    #[test]
    fn histogram_density_sums_to_100() {
        let data = vec![5usize, 5, 10, 20, 20, 20];
        let h = density_histogram(&data, 85);
        let total: f64 = h.iter().sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert!((h[20] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_ignores_overflow() {
        let h = density_histogram(&[5, 200], 85);
        assert!((h[5] - 50.0).abs() < 1e-9);
        assert!((h.iter().sum::<f64>() - 50.0).abs() < 1e-9);
    }
}
