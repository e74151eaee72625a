//! Exact quantiles: every sample is kept, nothing is read off buckets.

/// Every recorded value of one timing, in nanoseconds (or any integer unit).
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: u64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> u64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sum() as f64 / self.values.len() as f64
    }

    /// The median, p99 and count, for a pass's figures.
    pub fn summary(&mut self) -> Summary {
        Summary {
            p50: self.quantile(0.5),
            p99: self.quantile(0.99),
            len: self.len(),
        }
    }

    /// Nearest-rank quantile: the smallest value with at least `q·n`
    /// samples at or below it. 0 when empty.
    pub fn quantile(&mut self, q: f64) -> u64 {
        if self.values.is_empty() {
            return 0;
        }
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
        self.values[rank(q, self.values.len()) - 1]
    }
}

/// A sample set reduced to what the report uses, so the raw samples can be
/// dropped when a pass ends.
#[derive(Debug, Default, Clone, Copy)]
pub struct Summary {
    pub p50: u64,
    pub p99: u64,
    pub len: usize,
}

impl Summary {
    pub fn p50_us(&self) -> f64 {
        self.p50 as f64 / 1e3
    }

    pub fn p99_us(&self) -> f64 {
        self.p99 as f64 / 1e3
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the `q` quantile's rank.
pub fn beyond(q: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(q, n)
    }
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it (`None` when even p50 has not).
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.95, 0.9, 0.5]
        .into_iter()
        .find(|&q| beyond(q, n) >= 10)
}

/// Median of a small set of per-pass values (mean of the middle two for an
/// even count). 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank lower quartile of a small set of per-pass values. 0 when
/// empty.
pub fn lower_quartile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(0.25, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in (1..=100).rev() {
            s.push(v);
        }
        assert_eq!(s.quantile(0.5), 50);
        assert_eq!(s.quantile(0.99), 99);
        assert_eq!(s.quantile(1.0), 100);
        assert_eq!(beyond(0.99, 100), 1);
        assert_eq!(beyond(0.99, 1000), 10);
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(5), None);
    }

    #[test]
    fn median_of_passes() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(lower_quartile(&[7.0, 1.0, 3.0, 5.0, 2.0, 6.0, 4.0]), 2.0);
        assert_eq!(lower_quartile(&[3.0]), 3.0);
        assert_eq!(lower_quartile(&[]), 0.0);
    }
}
