//! Order statistics for timings.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The nearest-rank `q` quantile of `values`, but only when at least
/// [`MIN_BEYOND`] samples lie strictly above its rank. A tail percentile
/// read from fewer samples is noise, so it is not reported at all.
pub fn tail_quantile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(values)[rank - 1])
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Splits `n` samples, in the order they were taken, into consecutive
/// blocks of `block`; the remainder joins the last block, so there is one
/// block when `n < 2 * block`.
pub fn blocks(n: usize, block: usize) -> Vec<std::ops::Range<usize>> {
    let count = (n / block.max(1)).max(1);
    (0..count)
        .map(|i| i * block..if i + 1 == count { n } else { (i + 1) * block })
        .collect()
}

/// The `q` tail quantile of each block of `block` consecutive samples
/// (see [`blocks`]), then the median over blocks: a burst of host
/// contention in one part of a run moves that block's tail, not the one
/// reported. `None` when a block is too small for the quantile.
pub fn blocked_tail_quantile(values: &[f64], q: f64, block: usize) -> Option<f64> {
    let tails: Option<Vec<f64>> = blocks(values.len(), block)
        .into_iter()
        .map(|r| tail_quantile(&values[r], q))
        .collect();
    tails.map(|t| median(&t))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            tail_quantile(&v, 0.9),
            None,
            "99 samples leave only 9 beyond p90"
        );
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_quantile(&v, 0.9), Some(90.0));
        let v: Vec<f64> = (1..=250).map(f64::from).collect();
        assert_eq!(tail_quantile(&v, 0.9), Some(225.0));
        assert_eq!(tail_quantile(&[], 0.5), None);
    }

    #[test]
    fn blocks_cover_every_sample_once() {
        assert_eq!(blocks(250, 100), vec![0..100, 100..250]);
        assert_eq!(blocks(99, 100), vec![0..99]);
        assert_eq!(blocks(300, 100), vec![0..100, 100..200, 200..300]);
    }

    #[test]
    fn a_burst_in_one_block_does_not_move_the_blocked_tail() {
        let steady: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        assert_eq!(blocked_tail_quantile(&steady, 0.9, 100), Some(89.0));
        let mut burst = steady.clone();
        for v in &mut burst[200..] {
            *v += 1000.0;
        }
        assert_eq!(blocked_tail_quantile(&burst, 0.9, 100), Some(89.0));
        assert!(tail_quantile(&burst, 0.9).is_some_and(|p| p > 1000.0));
        assert_eq!(blocked_tail_quantile(&steady[..99], 0.9, 100), None);
    }
}
