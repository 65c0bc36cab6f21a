//! Order statistics: nearest-rank percentiles with the ten-samples-beyond
//! rule, and the median/quartile summary reported over rounds.

/// Sort ascending (timings are never NaN, but `total_cmp` keeps this total).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(p/100 * n)`. `None` on an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The median by nearest rank; always reported, whatever the sample count.
pub fn median(sorted: &[f64]) -> Option<f64> {
    nearest_rank(sorted, 50.0)
}

/// The median of unsorted values; 0 when there are none.
pub fn med(values: Vec<f64>) -> f64 {
    median(&sorted(values)).unwrap_or(0.0)
}

/// A tail percentile is only as good as the samples beyond it: report
/// `p` only when at least ten samples lie above its rank.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if n == 0 || n - rank.clamp(1, n) < 10 {
        return None;
    }
    nearest_rank(sorted, p)
}

/// The highest of p99.9/p99/p95/p90 the sample supports, with its value.
pub fn highest_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find_map(|p| tail_percentile(sorted, p).map(|v| (p, v)))
}

/// Median and quartiles of a set of per-round (or per-run) values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
    /// them (the "exclusive" method), so the spread this program prints
    /// is the spread the driver computes. One value is its own quartiles.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let data = sorted(values.to_vec());
        let ld = data.len();
        match ld {
            0 => None,
            1 => Some(Summary {
                median: data[0],
                q1: data[0],
                q3: data[0],
                n: 1,
            }),
            _ => {
                let quartile = |i: usize| {
                    let m = ld + 1;
                    let j = (i * m / 4).clamp(1, ld - 1);
                    let delta = (i * m) as f64 - (j * 4) as f64;
                    (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
                };
                Some(Summary {
                    median: quartile(2),
                    q1: quartile(1),
                    q3: quartile(3),
                    n: ld,
                })
            }
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&v[..5], 50.0), Some(3.0));
        assert_eq!(nearest_rank(&v[..4], 50.0), Some(2.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 sits at rank 990: exactly ten beyond.
        assert_eq!(tail_percentile(&v, 99.0), Some(990.0));
        // One sample fewer and p99 is no longer supported; p95 is.
        assert_eq!(tail_percentile(&v[..999], 99.0), None);
        assert_eq!(highest_tail(&v[..999]), Some((95.0, 950.0)));
        assert_eq!(highest_tail(&v[..100]), Some((90.0, 90.0)));
        assert_eq!(highest_tail(&v[..99]), None);
        // The median needs no such support.
        assert_eq!(median(&v[..3]), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[4.0]).unwrap().spread(), 0.0);
        assert_eq!(Summary::of(&[]), None);
    }
}
