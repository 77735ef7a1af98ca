//! Order statistics over measured samples.

/// Median of `xs` (mean of the two middle values for even counts);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest-ranked sample with at least ten samples beyond it, never
/// below the median rank: `(value, percentile)`. With fewer than eleven
/// samples it is the median.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let rank = n.saturating_sub(11).max((n - 1) / 2);
    (v[rank], 100.0 * (rank + 1) as f64 / n as f64)
}
