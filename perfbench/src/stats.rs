//! Order statistics for timing samples.
//!
//! Timings are summarised by the lower quartile: contention on a shared
//! host only ever adds time, so p25 tracks the program while the median
//! tracks the neighbours (README, "How a run is timed").

/// Linear-interpolated quantile of an ascending slice (`q` in [0, 1]).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    v
}

/// p25 / median / p75 / n of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            p25: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            p75: quantile_sorted(&s, 0.75),
            n: s.len(),
        }
    }
}

/// Lower quartile of unsorted samples.
pub fn p25(samples: &[f64]) -> f64 {
    Summary::of(samples).p25
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) — the rule the driver applies to
/// repeated runs, so `--compare` and `aa.sh` report the same spread.
pub fn quartiles_exclusive(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need at least two runs");
    let s = sorted(samples);
    let n = s.len();
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let m = i + 1;
        // j = floor(m·(n+1)/4) clamped to [1, n−1]; delta = remainder.
        let j = (m * (n + 1) / 4).clamp(1, n - 1);
        let delta = (m * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median (the driver's
/// "spread" of a metric over repeated runs).
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles_exclusive(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantiles() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 0.25), 2.0);
        assert_eq!(quantile_sorted(&s, 0.5), 3.0);
        assert_eq!(quantile_sorted(&s, 1.0), 5.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile_sorted(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.p25, s.median, s.p75, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(p25(&[5.0, 1.0, 4.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn exclusive_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles_exclusive(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_exclusive(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
