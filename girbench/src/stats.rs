//! Exact order statistics over raw nanosecond samples.
//!
//! Every timing the benchmark reports comes from its own samples, never
//! from the program's bucketed or per-batch percentiles: a cache hit of
//! 2–5 µs would otherwise move in 30 % steps.

/// Percentiles the tail rule may pick, highest first.
pub const TAIL_GRID: [f64; 3] = [99.9, 99.0, 90.0];

/// Samples that must lie strictly beyond a percentile for it to count
/// as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples: the smallest rank whose cumulative share reaches `p`.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    // Integer arithmetic in parts per million keeps ranks exact for
    // grid percentiles such as 99.9 (0.999 * 1000 is not 999.0 in f64).
    let ppm = (p * 10_000.0).round() as u128;
    let rank = (ppm * n as u128).div_ceil(1_000_000) as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// The highest percentile of [`TAIL_GRID`] with at least
/// [`TAIL_MIN_BEYOND`] samples strictly above its rank, and its value.
/// With too few samples for any grid point the median stands in.
pub fn tail(sorted: &[u64]) -> (f64, u64) {
    let n = sorted.len();
    for p in TAIL_GRID {
        if n - nearest_rank(p, n) >= TAIL_MIN_BEYOND {
            return (p, percentile(sorted, p));
        }
    }
    (50.0, percentile(sorted, 50.0))
}

/// Median, tail percentile and tail value of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Nearest-rank median, nanoseconds.
    pub p50_ns: u64,
    /// The percentile [`tail`] chose.
    pub tail_pct: f64,
    /// Its value, nanoseconds.
    pub tail_ns: u64,
}

impl Summary {
    /// Summarises `samples` (sorted in place); `None` when empty.
    pub fn of(samples: &mut [u64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let (tail_pct, tail_ns) = tail(samples);
        Some(Summary {
            count: samples.len(),
            p50_ns: percentile(samples, 50.0),
            tail_pct,
            tail_ns,
        })
    }
}

/// Median of unsorted floats (upper median for even counts, matching
/// nearest rank); `None` when empty.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    Some(v[nearest_rank(50.0, v.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0), 5);
        assert_eq!(percentile(&v, 90.0), 9);
        assert_eq!(percentile(&v, 99.0), 10);
        assert_eq!(percentile(&v, 100.0), 10);
        assert_eq!(percentile(&v, 0.1), 1);
        let w = [15, 20, 35, 40, 50];
        assert_eq!(percentile(&w, 30.0), 20);
        assert_eq!(percentile(&w, 40.0), 20);
        assert_eq!(percentile(&w, 50.0), 35);
        assert_eq!(percentile(&[7], 50.0), 7);
        // 99.9 % of 1000 is rank 999 exactly, not 1000.
        assert_eq!(nearest_rank(99.9, 1000), 999);
        assert_eq!(nearest_rank(99.0, 100), 99);
    }

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail(&v), (99.9, 9_990));
        let v: Vec<u64> = (1..=9_999).collect();
        assert_eq!(tail(&v), (99.0, 9_900));
        let v: Vec<u64> = (1..=1_000).collect();
        assert_eq!(tail(&v), (99.0, 990));
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(tail(&v), (90.0, 900));
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&v), (90.0, 90));
        let v: Vec<u64> = (1..=99).collect();
        assert_eq!(tail(&v), (50.0, 50));
    }

    #[test]
    fn summary_sorts_and_reports() {
        let mut v = vec![5_000, 1_000, 3_000, 2_000, 4_000];
        let s = Summary::of(&mut v).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.p50_ns, 3_000);
        assert_eq!((s.tail_pct, s.tail_ns), (50.0, 3_000));
        assert!(Summary::of(&mut []).is_none());
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 4.0]), Some(2.0));
    }
}
