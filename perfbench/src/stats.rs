//! Order statistics shared by every workload.

/// A nearest-rank percentile together with the sample count it was taken
/// over, so a reader can tell a p99 of 14 samples from one of 2000.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `values`:
/// the smallest sample with at least `p`% of the samples at or below it.
/// `None` for an empty slice.
pub fn nearest_rank(values: &[f64], p: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, sorted.len());
    Some(Percentile { value: sorted[rank - 1], samples: sorted.len() })
}

/// The median (mean of the two middle samples for an even count); `0.0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The geometric mean of strictly positive values; `0.0` when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or `0.0` when nothing was counted.
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
    fn nearest_rank_reports_the_sample_and_its_count() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(Percentile { value: 50.0, samples: 100 }));
        assert_eq!(nearest_rank(&v, 99.0), Some(Percentile { value: 99.0, samples: 100 }));
        assert_eq!(nearest_rank(&v, 100.0).map(|p| p.value), Some(100.0));
        // Fourteen samples: p99 is the maximum, and the count says so.
        let small: Vec<f64> = (1..=14).map(f64::from).collect();
        assert_eq!(nearest_rank(&small, 99.0), Some(Percentile { value: 14.0, samples: 14 }));
        assert_eq!(nearest_rank(&small, 50.0).map(|p| p.value), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
