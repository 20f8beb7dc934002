//! Order statistics over timing samples.

/// Quartiles `[q1, q2, q3]` with the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, so the spreads this benchmark prints
/// are the ones a reader recomputes from its raw values. Needs two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = (n + 1) as f64;
    let at = |j: usize| {
        // Position j*m/4 (1-based); the bracketing pair is clamped into
        // the sample and the fraction is not, as in Python.
        let pos = j as f64 * m / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    Some([at(1), at(2), at(3)])
}

/// Interquartile distance as a share of the median (the run-to-run
/// spread the acceptance rule bounds).
pub fn spread(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2)
}

/// The highest percentile (among 99.9, 99, 90 and 50) that leaves at least
/// ten samples above it, with its value: a tail figure is only reported
/// where the sample supports it. `None` for fewer than ten samples.
pub fn high_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    [99.9, 99.0, 90.0, 50.0].into_iter().find_map(|p| {
        let rank = nearest_rank(p, n)?;
        (n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

/// The `p`-th percentile by nearest rank (1-based rank `ceil(p/100 * n)`).
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    nearest_rank(p, v.len()).map(|r| v[r - 1])
}

fn nearest_rank(p: f64, n: usize) -> Option<usize> {
    // The small tolerance keeps decimal percentiles such as 99.9 from
    // rounding a whole rank up (99.9% of 20,000 is rank 19,980).
    (n > 0).then(|| ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // outer quartiles extrapolate past a two-value sample.
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&xs).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn high_percentile_needs_ten_samples_beyond() {
        assert_eq!(high_percentile(&[1.0; 9]), None);
        // 20 samples: p50 leaves 10 above it, p90 only 2.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(high_percentile(&xs), Some((50.0, 10.0)));
        // 1000 samples: p99 leaves exactly 10 above it; p99.9 leaves 1.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(high_percentile(&xs), Some((99.0, 990.0)));
        // 20,000 samples: p99.9 leaves 20 above it.
        let xs: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(high_percentile(&xs), Some((99.9, 19_980.0)));
    }

    #[test]
    fn percentile_by_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
