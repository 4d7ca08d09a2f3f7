//! Order statistics for the reported timings.

/// The median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The Harrell–Davis estimate of quantile `p` of ascending `sorted`:
/// the mean of all order statistics weighted by the
/// Beta((n+1)p, (n+1)(1-p)) distribution, taken here in its normal
/// approximation (mean `p`, variance p(1-p)/(n+2)). Where latencies form
/// clusters, or a tail holds few samples, a single order statistic jumps
/// from run to run; this estimate moves smoothly instead.
pub fn hd_quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n < 3 {
        return median(sorted);
    }
    let sd = (p * (1.0 - p) / (n as f64 + 2.0)).sqrt();
    let cdf = |q: f64| normal_cdf((q - p) / sd);
    let (mut prev, mut sum, mut weight) = (cdf(0.0), 0.0, 0.0);
    for (i, &v) in sorted.iter().enumerate() {
        let c = cdf((i + 1) as f64 / n as f64);
        sum += (c - prev) * v;
        weight += c - prev;
        prev = c;
    }
    sum / weight
}

/// The Harrell–Davis median of ascending `sorted`.
pub fn hd_median(sorted: &[f64]) -> f64 {
    hd_quantile(sorted, 0.5)
}

/// Standard normal CDF (Abramowitz–Stegun 7.1.26, error below 1e-7).
fn normal_cdf(z: f64) -> f64 {
    let x = z.abs() / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-x * x).exp();
    if z >= 0.0 {
        0.5 * (1.0 + erf)
    } else {
        0.5 * (1.0 - erf)
    }
}

/// A tail percentile together with how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// `p99.9`, `p99`, `p90`, or `p50` when even p90 is too thin.
    pub label: &'static str,
    /// The Harrell–Davis estimate of the percentile.
    pub value: f64,
    /// Samples ranked strictly after the percentile's nearest rank.
    pub beyond: usize,
}

/// How many of `n` samples rank after the nearest rank of percentile
/// `num/den`, the 1-based rank `ceil(n·num/den)`.
fn nearest_rank(n: usize, num: usize, den: usize) -> usize {
    n - (n * num).div_ceil(den).max(1)
}

/// Samples a tail percentile needs beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The highest of p99.9 / p99 / p90 with at least [`MIN_BEYOND`]
/// samples beyond its nearest rank; the median when the pool is too
/// small for any. `sorted` must be ascending and non-empty.
pub fn tail(sorted: &[f64]) -> Tail {
    let percentiles = [
        ("p99.9", 999, 1000),
        ("p99", 99, 100),
        ("p90", 9, 10),
        ("p50", 1, 2),
    ];
    let (label, num, den, beyond) = percentiles
        .iter()
        .map(|&(label, num, den)| (label, num, den, nearest_rank(sorted.len(), num, den)))
        .find(|&(label, .., beyond)| beyond >= MIN_BEYOND || label == "p50")
        .expect("p50 is always taken");
    Tail {
        label,
        value: hd_quantile(sorted, num as f64 / den as f64),
        beyond,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        let near = |a: f64, b: f64| (a - b).abs() < 1.0;
        // 10 000 samples: exactly 10 lie beyond p99.9.
        let t = tail(&ramp(10_000));
        assert_eq!((t.label, t.beyond), ("p99.9", 10));
        assert!(near(t.value, 9990.0), "{}", t.value);
        // One fewer and p99.9 has only 9 beyond: fall to p99.
        let t = tail(&ramp(9_999));
        assert_eq!((t.label, t.beyond), ("p99", 99));
        // 1000 samples: p99 has exactly 10 beyond.
        let t = tail(&ramp(1_000));
        assert_eq!((t.label, t.beyond), ("p99", 10));
        assert!(near(t.value, 990.0), "{}", t.value);
        // 132 samples (two kernel passes): p99 leaves 1, p90 leaves 13.
        let t = tail(&ramp(132));
        assert_eq!((t.label, t.beyond), ("p90", 13));
        assert!(near(t.value, 119.0), "{}", t.value);
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(tail(&ramp(100)).label, "p90");
    }

    #[test]
    fn tail_falls_back_to_the_median_on_thin_pools() {
        let t = tail(&ramp(50));
        assert_eq!((t.label, t.beyond), ("p50", 25));
        assert!((t.value - 25.5).abs() < 0.5, "{}", t.value);
        let t = tail(&[4.0]);
        assert_eq!((t.label, t.value, t.beyond), ("p50", 4.0, 0));
    }

    #[test]
    fn hd_tail_smooths_a_lone_outlier() {
        // 989 samples of 1.0 and 11 of 10.0: p99's nearest rank (990)
        // is the first 10.0, the rank below it the last 1.0. The estimate
        // sits between them, so one more sample crossing the gap moves
        // it a little, not by the whole gap.
        let mut xs = vec![1.0; 989];
        xs.extend(vec![10.0; 11]);
        let a = tail(&xs).value;
        xs[988] = 10.0;
        let b = tail(&xs).value;
        assert!(1.0 < a && a < b && b < 10.0, "{a} {b}");
        assert!(b - a < 4.5, "{a} {b}");
    }

    #[test]
    fn hd_median_matches_the_median_of_smooth_data_and_bridges_gaps() {
        let r = ramp(1001);
        assert!((hd_median(&r) - 501.0).abs() < 1e-6);
        // Two clusters with the split exactly at the middle: the plain
        // median is the mean of the two middle values; so is this one.
        let mut two: Vec<f64> = vec![1.0; 500];
        two.extend(vec![3.0; 500]);
        assert!((hd_median(&two) - 2.0).abs() < 1e-6);
        // Moving one sample across the gap moves the plain median by a
        // whole cluster step, but this estimate only a little.
        let mut shifted: Vec<f64> = vec![1.0; 499];
        shifted.extend(vec![3.0; 501]);
        assert_eq!(median(&shifted), 3.0);
        assert!((hd_median(&shifted) - 2.0).abs() < 0.1);
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-4);
    }

    #[test]
    fn median_of_odd_and_even_pools() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
