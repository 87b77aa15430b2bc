//! The benchmark's own statistics: medians, quartiles, tail percentiles,
//! geometric means and the run-set comparison that decides whether two sets
//! of runs agree within the bounds fixed in `BENCHMARK.json`.

/// Sorts a copy of `values` (NaNs are not expected; they sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(|a, b| a.total_cmp(b));
    out
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return [v; 3];
    }
    let (ld, m, n) = (ld as i64, ld as i64 + 1, 4i64);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (s[j as usize - 1], s[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    out
}

/// Interquartile range as a share of the median: the run-to-run spread the
/// acceptance rule compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Nearest-rank percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of the usual reporting percentiles (p50, p90, p99, p99.9,
/// p99.99) that still has at least ten samples beyond it, or `None` when
/// there are fewer than twenty samples.
pub fn highest_supported_percentile(count: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| count as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How one metric of one workload fared in a two-run-set comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub first_median: f64,
    pub second_median: f64,
    pub first_spread: f64,
    pub second_spread: f64,
    /// How much worse the second median is than the first, as a share of
    /// the first (negative when it is better).
    pub worsening: f64,
    /// Both spreads are within the bound.
    pub spread_ok: bool,
    /// The second median is not worse than the first by more than the bound.
    pub median_ok: bool,
}

impl Verdict {
    pub fn passed(&self) -> bool {
        self.spread_ok && self.median_ok
    }
}

/// Compares two sets of runs of one metric against its bound.
pub fn compare_sets(better: Better, bound: f64, first: &[f64], second: &[f64]) -> Verdict {
    let first_median = median(first);
    let second_median = median(second);
    let worsening = match better {
        Better::Lower => (second_median - first_median) / first_median.abs(),
        Better::Higher => (first_median - second_median) / first_median.abs(),
    };
    let first_spread = spread(first);
    let second_spread = spread(second);
    let spread_ok = first_spread <= bound && second_spread <= bound;
    Verdict {
        first_median,
        second_median,
        first_spread,
        second_spread,
        worsening,
        spread_ok,
        median_ok: worsening <= bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
        assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten);
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([7, 1, 3, 9, 5], n=4) == [2.0, 5.0, 8.0]
        let q = quartiles(&[7.0, 1.0, 3.0, 9.0, 5.0]);
        assert!(
            close(q[0], 2.0) && close(q[1], 5.0) && close(q[2], 8.0),
            "{q:?}"
        );
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = quartiles(&[10.0, 20.0]);
        assert!(
            close(q[0], 7.5) && close(q[1], 15.0) && close(q[2], 22.5),
            "{q:?}"
        );
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(spread(&ten), (8.25 - 2.75) / 5.5));
        assert!(close(spread(&[4.0; 10]), 0.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(close(percentile(&hundred, 50.0), 50.0));
        assert!(close(percentile(&hundred, 99.0), 99.0));
        assert!(close(percentile(&hundred, 100.0), 100.0));
        assert!(close(percentile(&[5.0], 99.0), 5.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn geometric_mean() {
        assert!(close(geomean(&[1.0, 100.0]), 10.0));
        assert!(close(geomean(&[2.0, 8.0, 4.0]), 4.0));
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn run_set_comparison_against_bounds() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        // Same distribution: passes.
        let v = compare_sets(Better::Lower, 0.1, &steady, &steady);
        assert!(v.passed() && close(v.worsening, 0.0), "{v:?}");
        // Second set 20 % slower: fails a 10 % bound, passes a 25 % one.
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert!(!compare_sets(Better::Lower, 0.1, &steady, &slower).median_ok);
        assert!(compare_sets(Better::Lower, 0.25, &steady, &slower).passed());
        // For a higher-is-better metric, a higher second median is fine.
        assert!(compare_sets(Better::Higher, 0.1, &steady, &slower).passed());
        assert!(!compare_sets(Better::Higher, 0.1, &slower, &steady).median_ok);
        // A wide set fails the spread rule, whichever side it is on.
        let wide = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert!(!compare_sets(Better::Lower, 0.1, &wide, &steady).spread_ok);
        assert!(!compare_sets(Better::Lower, 0.1, &steady, &wide).spread_ok);
        assert!(compare_sets(Better::Lower, 0.6, &wide, &wide).spread_ok);
    }
}
