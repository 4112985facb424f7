//! Order statistics over per-segment samples.

/// Nearest-rank quantile `q` in `[0, 1]` of `values` (sorted in place).
/// Zero for an empty sample.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Nearest-rank quantile of integer samples (sorted in place).
pub fn quantile_u64(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 0.25), 3.0);
        assert_eq!(median(&mut v), 5.0);
        assert_eq!(quantile(&mut v, 1.0), 10.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(quantile_u64(&mut [7, 1, 3], 0.99), 7);
    }
}
