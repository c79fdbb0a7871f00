//! Order statistics shared by every workload and by `compare`.

/// Sorted copy of `xs` (total order, so a NaN cannot panic the sort).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method)
/// computes them; `None` for fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative when the clamp raised `j` (two values): Python then
        // extrapolates, and so does this.
        #[allow(clippy::cast_precision_loss)]
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The percentile every tail metric reports: the p99 when ten samples lie
/// beyond it (the warm recompiles), else the highest percentile that has
/// ten beyond it (p97.8 of the 450 paced service jobs), else the maximum
/// (the cold passes).
pub const TAIL: u32 = 99;

/// A tail percentile reported with the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (`cap` when there are enough
    /// samples).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The `cap` percentile (such as 99) when at least ten samples lie beyond
/// it, otherwise the highest percentile that still has ten samples beyond
/// it; with ten or fewer samples there is no such percentile and the
/// maximum is reported.
pub fn tail(xs: &[f64], cap: u32) -> Tail {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return Tail {
            percentile: 0.0,
            value: 0.0,
            samples: 0,
        };
    }
    if n <= 10 {
        return Tail {
            percentile: 100.0,
            value: v[n - 1],
            samples: n,
        };
    }
    let beyond = (n * (100 - cap.min(100) as usize) / 100).max(10);
    let idx = n - 1 - beyond;
    #[allow(clippy::cast_precision_loss)]
    let percentile = 100.0 * (idx + 1) as f64 / n as f64;
    Tail {
        percentile,
        value: v[idx],
        samples: n,
    }
}

/// The nearest-rank `p`th percentile: the smallest sample with at least
/// `p`% of all samples at or below it; 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    match v.len() {
        0 => 0.0,
        n => v[rank.clamp(1, n) - 1],
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp)]
    use super::*;

    #[test]
    fn tail_is_p99_when_ten_samples_lie_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, TAIL);
        assert_eq!(t.samples, 1000);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        // p90 with 100 samples beyond it.
        let t = tail(&xs, 90);
        assert_eq!((t.percentile, t.value), (90.0, 900.0));
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&xs, 99);
        assert_eq!(t.samples, 200);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(t.percentile, 95.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=600).rev().map(f64::from).collect();
        // Six samples lie beyond the p99 of 600.
        assert_eq!(percentile(&xs, 99.0), 594.0);
        assert_eq!(percentile(&xs, 50.0), 300.0);
        assert_eq!(percentile(&xs, 100.0), 600.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let t = tail(&[3.0, 1.0, 2.0], 90);
        assert_eq!((t.value, t.percentile, t.samples), (3.0, 100.0, 3));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0]), Some([1.0, 3.0, 4.0]));
        // statistics.quantiles([2, 1], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
