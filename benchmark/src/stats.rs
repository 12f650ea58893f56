//! The few statistics every metric is built from: median, quartiles as
//! Python's `statistics.quantiles(values, n=4)` gives them (the spread
//! rule the benchmark is judged by), and the nearest-rank percentile a
//! slice's p50 is taken with.

/// Sorted copy; NaNs sort last so they can never become a median silently.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `values` (mean of the two middle values for even counts);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method
/// (`statistics.quantiles(values, n=4)`): positions `(n+1)·k/4` with
/// linear interpolation, clamped to the data range. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // 1-based position (n+1)·k/4 split into whole part and remainder.
        let j = ((n + 1) * k / 4).clamp(1, n - 1);
        let delta = ((n + 1) * k) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median — the spread of a metric.
/// 0 when fewer than two values or a zero median give nothing to compare.
pub fn iqr_rel(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 && m.is_finite() => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`; `NaN` if empty.
/// Failed operations enter as `f64::INFINITY`, so they push a percentile
/// up instead of vanishing from it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One metric's repetitions folded into what a run reports: median and
/// quartiles, the spread among the repetitions, and how many there were.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over repetitions or slices.
    pub median: f64,
    /// First and third quartile (both the median when there is one value).
    pub quartiles: (f64, f64),
    /// IQR / median among them (info field `<metric>.iqr_rel`).
    pub iqr_rel: f64,
    /// How many repetitions or slices (info field `<metric>.n`).
    pub n: usize,
}

impl Summary {
    /// Summarises `values`.
    pub fn of(values: &[f64]) -> Summary {
        let median = median(values);
        Summary {
            median,
            quartiles: quartiles(values).unwrap_or((median, median)),
            iqr_rel: iqr_rel(values),
            n: values.len(),
        }
    }

    /// The quartile on the metric's good side — the value a timing metric
    /// reports. What disturbs a repetition on a shared host (a co-tenant
    /// on the core, a descheduled vCPU) only ever slows it, so the
    /// undisturbed program sits at the good end of the samples: that
    /// quartile moves about half as much as the median when the host
    /// changes state between runs, and unlike the best sample it does not
    /// rest on a single repetition.
    pub fn good_quartile(&self, lower_is_better: bool) -> f64 {
        if lower_is_better {
            self.quartiles.0
        } else {
            self.quartiles.1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2, 8, 32]
        assert_eq!(
            quartiles(&[64.0, 1.0, 2.0, 32.0, 4.0, 8.0, 16.0]),
            Some((2.0, 32.0))
        );
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: with
        // the position index clamped as Python clamps it, the exclusive
        // method extrapolates past the two points.
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_rel_is_spread_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_rel(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_rel(&[7.0; 9]), 0.0);
        assert_eq!(iqr_rel(&[1.0]), 0.0);
    }

    #[test]
    fn a_summary_reports_the_quartile_on_the_good_side() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.median, s.n), (5.5, 10));
        assert_eq!(s.good_quartile(true), 2.75);
        assert_eq!(s.good_quartile(false), 8.25);
        // One slow repetition in seven moves neither the median nor q1.
        let calm = Summary::of(&[1.0, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06]);
        let hit = Summary::of(&[1.0, 1.01, 1.02, 1.03, 1.04, 1.05, 1.6]);
        assert_eq!(calm.good_quartile(true), hit.good_quartile(true));
        let one = Summary::of(&[4.0]);
        assert_eq!(one.good_quartile(true), 4.0);
    }

    #[test]
    fn percentile_is_nearest_rank_and_counts_failures() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 99.0), 198.0);
        assert_eq!(percentile(&[5.0], 50.0), 5.0);
        // Two of three failed: the median request failed.
        assert_eq!(
            percentile(&[1.0, f64::INFINITY, f64::INFINITY], 50.0),
            f64::INFINITY
        );
    }
}
