//! Order statistics for latency samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method) so a spread computed here matches one
//! computed from the printed values. Tail percentiles use the nearest-rank
//! definition and are refused unless at least [`MIN_BEYOND`] samples lie
//! beyond them: a p95 over 40 samples is the second-slowest sample, not a
//! percentile.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The tail percentiles [`highest_tail`] chooses from, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Sorts a copy of `values` (total order; NaN never occurs in timings).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of sorted samples (mean of the middle two for even n).
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile of sorted samples, by
/// Python's exclusive method. Needs at least two samples.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64, f64)> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Nearest-rank index (0-based) of percentile `p` over `n` samples, in
/// integer arithmetic on tenths of a percent (`0.99 * 1000` is not exact
/// in floating point).
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    let r = (tenths * n).div_ceil(1000);
    r.clamp(1, n) - 1
}

/// Percentile `p` of sorted samples by nearest rank, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let r = rank(n, p);
    (n - 1 - r >= MIN_BEYOND).then(|| sorted[r])
}

/// The highest percentile of the ladder (99.9, 99, 95, 90) that `n`
/// samples support, or `None` when not even p90 has [`MIN_BEYOND`]
/// samples beyond it.
pub fn highest_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && n - 1 - rank(n, p) >= MIN_BEYOND)
}

/// Median, quartiles, sample count and the highest supported tail of a
/// set of samples, as printed in the stderr summary.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile (the median itself for one sample).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(percentile, value)` of the highest supported tail.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Self> {
        let s = sorted(values);
        let median = median(&s)?;
        let (q1, _, q3) = quartiles(&s).unwrap_or((median, median, median));
        let tail = highest_tail(s.len()).and_then(|p| Some((p, percentile(&s, p)?)));
        Some(Self {
            n: s.len(),
            median,
            q1,
            q3,
            tail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_ties() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        assert_eq!(median(&[2.0, 2.0, 2.0, 2.0]), Some(2.0));
        assert_eq!(median(&sorted(&[5.0, 1.0, 5.0, 1.0, 5.0])), Some(5.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 3.0, 4.5)));
        // Even n, two samples: statistics.quantiles([1, 2], n=4) ==
        // [0.75, 1.5, 2.25] (exclusive extrapolates past the ends).
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // Ties collapse the spread.
        assert_eq!(quartiles(&[4.0; 6]), Some((4.0, 4.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // n < 10: no tail at all, not even p90.
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(percentile(&nine, 50.0), None);
        assert_eq!(highest_tail(9), None);
        // p95 needs n >= 200; p90 needs n >= 100.
        assert_eq!(highest_tail(99), None);
        assert_eq!(highest_tail(100), Some(90.0));
        assert_eq!(highest_tail(199), Some(90.0));
        assert_eq!(highest_tail(200), Some(95.0));
        assert_eq!(highest_tail(1000), Some(99.0));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&v, 50.0), Some(100.0));
    }

    #[test]
    fn summary_reports_count_and_tail() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.n, 200);
        assert_eq!(s.median, 100.5);
        assert_eq!(s.tail, Some((95.0, 190.0)));
        assert!(s.q1 < s.median && s.median < s.q3);
        let small = Summary::of(&[2.0, 2.0, 7.0]).unwrap();
        assert_eq!((small.n, small.median, small.tail), (3, 2.0, None));
        assert_eq!(Summary::of(&[]), None);
    }
}
