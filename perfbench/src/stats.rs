//! Order statistics for the benchmark's timings.

/// The median of `values` (mean of the middle pair for even counts).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The arithmetic mean of `values`; `NaN` for an empty slice.
///
/// Set-up times are averaged, not taken as a median: the 2-vCPU VM this
/// benchmark was tuned on switches between two speeds about 1.5× apart
/// every few seconds, and a median of a few milliseconds' work jumps
/// between them where a mean of samples spread over the run moves with
/// the share of time spent in each.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The `q`-quantile of `values`, `q` in `[0, 1]`, by linear interpolation
/// between closest ranks. `NaN` for an empty slice.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `values`: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples strictly above its rank, as `(percent, value)`.
///
/// With `n` samples sorted ascending, the value at 0-based rank `r` has
/// `n - 1 - r` samples beyond it, so the tail rank is `n - 1 - TAIL_BEYOND`
/// and its percentile is `100 · r / (n - 1)`, floored to a whole percent
/// (and the rank moved down to match) so the label never overstates it.
/// `None` when fewer than `TAIL_BEYOND + 1` samples exist.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let max_rank = n - 1 - TAIL_BEYOND;
    let percent = (100 * max_rank / (n - 1)) as u32;
    // the first rank at or above that whole percentile, capped at
    // `max_rank` so at least TAIL_BEYOND samples stay beyond it
    let rank = (percent as usize * (n - 1)).div_ceil(100).min(max_rank);
    Some((percent, sorted[rank]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beyond(values: &[f64], v: f64) -> usize {
        values.iter().filter(|&&x| x > v).count()
    }

    #[test]
    fn median_of_odd_and_even_counts_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        // only the minimum has ten samples beyond it
        assert_eq!(tail(&eleven), Some((0, 0.0)));
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        for n in 11..2000 {
            let values: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let (percent, v) = tail(&values).expect("enough samples");
            assert!(beyond(&values, v) >= TAIL_BEYOND, "n={n}: too few beyond {v}");
            assert!(percent <= 100);
            // one more whole percent would leave fewer than ten beyond
            let next = ((percent as usize + 1) * (n - 1)).div_ceil(100);
            if percent < 100 && next < n {
                assert!(n - 1 - next < TAIL_BEYOND, "n={n}: p{percent} is not the highest");
            }
        }
    }

    #[test]
    fn tail_of_a_thousand_samples_is_p98() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (percent, v) = tail(&values).unwrap();
        assert_eq!(percent, 98);
        assert_eq!(beyond(&values, v), 1000 - v as usize);
        assert!(beyond(&values, v) >= 10);
    }
}
