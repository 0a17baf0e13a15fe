//! Order statistics and failure accounting shared by every workload.

/// Percentiles the benchmark may report, from the median upward.
const LADDER: [f64; 5] = [0.50, 0.90, 0.99, 0.999, 0.9999];

/// Fewest samples that must lie beyond a percentile for it to be
/// reported: below that, the value is a handful of outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in a sorted sample of `n` (the
/// epsilon keeps `0.99 × 1000` from rounding up past rank 990).
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(p, n)
    }
}

/// Percentile `p` of `sorted`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || beyond(p, sorted.len()) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank(p, sorted.len())])
}

/// The highest percentile of the ladder (p50, p90, p99, p99.9, p99.99)
/// that a sample of `n` can report.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .take_while(|&p| beyond(p, n) >= MIN_BEYOND)
        .last()
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Attempted and failed operations of one run. Every operation the
/// benchmark issues passes through [`Tally::record`], so a failure can
/// never leave the denominator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations issued, successful or not.
    pub attempted: u64,
    /// Operations that failed (error, timeout, abort, wrong bytes, or
    /// an outcome the workload forbids).
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted.
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0)); // exactly 10 beyond
        assert_eq!(percentile(&v[..999], 0.99), None); // only 9 beyond
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(15), None);
        assert_eq!(tail_percentile(20), Some(0.50));
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(999), Some(0.90));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(10_000_000), Some(0.9999));
    }

    #[test]
    fn error_rate_denominator_counts_failed_ops() {
        let mut t = Tally::default();
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!(t.attempted, 4);
        assert_eq!(t.failed, 1);
        assert!((t.error_rate() - 0.25).abs() < 1e-12);
        let mut all_failed = Tally::default();
        all_failed.record(false);
        assert_eq!(all_failed.error_rate(), 1.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
