//! Percentile, slice and fast-decile helpers.
//!
//! Host wall time on a shared box is only ever inflated by interference,
//! never deflated, so host costs are estimated from the *fast decile* of
//! equal-work slices rather than from the whole window or its median.

/// Slices a measured window (or a replay) is cut into.
pub const SLICES: usize = 40;

/// Nearest-rank percentile of an ascending-sorted sample; `q` in `(0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile position.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Mean of the order statistics between quantiles `lo` and `hi` of an
/// ascending-sorted sample (`band_mean(s, 0.25, 0.75)` is the interquartile
/// mean, `band_mean(s, 0.99, 0.999)` the mean between p99 and p999). Unlike
/// a single order statistic it moves continuously when the latency
/// distribution is a handful of discrete modes, as simulated time is; unlike
/// an open-ended tail mean it is not at the mercy of how many one-in-100k
/// events a run happened to contain.
pub fn band_mean(sorted: &[u64], lo: f64, hi: f64) -> f64 {
    assert!(!sorted.is_empty(), "band mean of an empty sample");
    let n = sorted.len();
    let a = ((lo * n as f64).floor() as usize).min(n - 1);
    let b = ((hi * n as f64).ceil() as usize).clamp(a + 1, n);
    sorted[a..b].iter().sum::<u64>() as f64 / (b - a) as f64
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The fast-decile estimate: the `len/10`-th fastest value (the 4th
/// fastest of 40 slices). Falls back to the fastest for short samples.
pub fn fast_decile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fast decile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() / 10).max(1) - 1]
}

/// Interquartile range over the median (nearest-rank quartiles).
pub fn iqr_frac(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1];
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (at(0.75) - at(0.25)) / med
    }
}

/// Cuts per-item costs (in time order) into chunks of `len / SLICES` items
/// (so [`SLICES`] chunks, a few more when the length does not divide) and
/// returns each chunk's mean cost per unit of work; `work_per_item`
/// converts items to ops (32 for a 32-key pipelined call). A trailing
/// remainder shorter than a chunk is dropped.
pub fn slice_means(costs_ns: &[u64], work_per_item: f64) -> Vec<f64> {
    if costs_ns.is_empty() {
        return Vec::new();
    }
    let chunk = (costs_ns.len() / SLICES).max(1);
    costs_ns
        .chunks_exact(chunk)
        .map(|c| c.iter().sum::<u64>() as f64 / (c.len() as f64 * work_per_item))
        .collect()
}

/// Fast-decile cost per unit of work of a time-ordered cost series;
/// `0.0` for an empty series.
pub fn fast_decile_cost(costs_ns: &[u64], work_per_item: f64) -> f64 {
    let s = slice_means(costs_ns, work_per_item);
    if s.is_empty() {
        0.0
    } else {
        fast_decile(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.99), 990);
        assert_eq!(percentile(&v, 0.999), 999);
        assert_eq!(percentile(&v, 1.0), 1000);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(samples_beyond(1000, 0.999), 1);
        assert_eq!(samples_beyond(200_000, 0.999), 200);
    }

    #[test]
    fn band_mean_averages_a_rank_band() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(band_mean(&v, 0.25, 0.75), 500.5);
        assert_eq!(band_mean(&v, 0.99, 1.0), 995.5);
        assert_eq!(band_mean(&v, 0.999, 1.0), 1000.0);
        assert_eq!(band_mean(&[7], 0.999, 1.0), 7.0);
        // Two discrete modes: the band mean tracks their shares, the
        // nearest-rank median does not.
        let mut modes = vec![10u64; 480];
        modes.extend(vec![20u64; 520]);
        assert_eq!(percentile(&modes, 0.5), 20);
        assert_eq!(
            band_mean(&modes, 0.25, 0.75),
            (230.0 * 10.0 + 270.0 * 20.0) / 500.0
        );
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fast_decile_is_fourth_fastest_of_forty() {
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(fast_decile(&v), 4.0);
        assert_eq!(fast_decile(&[9.0, 5.0, 7.0]), 5.0);
    }

    #[test]
    fn fast_decile_ignores_slow_outliers() {
        // Interference only adds time: 30 of 40 slices disturbed.
        let mut v = vec![100.0; 10];
        v.extend((0..30).map(|i| 150.0 + f64::from(i)));
        assert_eq!(fast_decile(&v), 100.0);
        assert!(median(&v) > 150.0);
    }

    #[test]
    fn iqr_frac_of_uniform_ramp() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let f = iqr_frac(&v);
        assert!((f - 50.0 / 50.5).abs() < 1e-9, "{f}");
        assert_eq!(iqr_frac(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn slices_are_equal_count_means() {
        // 80 items → 40 slices of 2; slice i holds {2i, 2i+1}.
        let costs: Vec<u64> = (0..80).collect();
        let s = slice_means(&costs, 1.0);
        assert_eq!(s.len(), SLICES);
        assert_eq!(s[0], 0.5);
        assert_eq!(s[39], 78.5);
        // Work per item divides the cost.
        assert_eq!(slice_means(&costs, 2.0)[39], 39.25);
        // Remainder dropped: 85 items still give 40 slices of 2.
        let costs: Vec<u64> = (0..85).collect();
        assert_eq!(slice_means(&costs, 1.0).len(), SLICES + 2);
        assert_eq!(fast_decile_cost(&[], 1.0), 0.0);
    }
}
