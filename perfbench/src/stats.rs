//! Order statistics over latency samples.
//!
//! A timing is reported as its median and its *tail*: the highest
//! percentile on [`TAIL_LADDER`] that still has at least
//! [`TAIL_MIN_BEYOND`] samples beyond it. The tail's percentile and the
//! number of samples beyond it are reported with the value, so a reader
//! can see how much evidence it rests on.

/// Candidate tail percentiles, highest first.
pub const TAIL_LADDER: &[f64] = &[99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median and tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Value at the tail percentile.
    pub tail: f64,
    /// The tail percentile (100 when too few samples back any rung: the
    /// maximum is reported instead).
    pub tail_pct: f64,
    /// Samples strictly beyond the tail percentile's rank.
    pub beyond: usize,
}

impl Summary {
    /// Summarize `samples` (any order). Empty input yields zeros.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v: Vec<f64> = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Summary {
                n: 0,
                p50: 0.0,
                tail: 0.0,
                tail_pct: 100.0,
                beyond: 0,
            };
        }
        let (tail_pct, beyond) = tail_rung(n);
        Summary {
            n,
            p50: percentile_sorted(&v, 50.0),
            tail: percentile_sorted(&v, tail_pct),
            tail_pct,
            beyond,
        }
    }
}

/// The tail percentile for `n` samples and how many samples lie beyond it.
pub fn tail_rung(n: usize) -> (f64, usize) {
    for &p in TAIL_LADDER {
        let beyond = n - rank_count(n, p);
        if beyond >= TAIL_MIN_BEYOND {
            return (p, beyond);
        }
    }
    (100.0, 0)
}

/// Samples at or below percentile `p` of `n` (nearest-rank, at least 1).
fn rank_count(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Percentile `p` of an ascending slice by linear interpolation between
/// closest ranks.
pub fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = p / 100.0 * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `samples` (any order); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_rung(1000), (99.0, 10));
        assert_eq!(tail_rung(100), (90.0, 10));
        assert_eq!(tail_rung(40), (75.0, 10));
        assert_eq!(tail_rung(5), (100.0, 0));
    }

    #[test]
    fn summary_of_uniform_samples() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.p50, 51.0);
        assert_eq!(s.tail_pct, 90.0);
        assert!((s.tail - 91.0).abs() < 1e-9);
    }
}
