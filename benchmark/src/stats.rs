//! Order statistics for the reported timings.

/// The percentiles, in per mille, a tail may be reported at. The tail is
/// the highest rung that still has at least [`TAIL_BEYOND`] samples
/// beyond it, so a run whose sample count moves a little keeps reporting
/// the same rung. In `publish`, 7–10% of the reads wait for a γ rebuild;
/// the p95 rung keeps that workload's tail inside the rebuild-bound
/// block instead of on its lower edge, where p90 flips between the two
/// blocks from run to run.
pub const TAIL_LADDER_PERMILLE: [usize; 5] = [500, 900, 950, 990, 999];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of the `permille` percentile among `n` samples.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille) - 1]
}

/// The highest ladder rung with at least [`TAIL_BEYOND`] samples beyond
/// it, or `None` when even the median has fewer.
pub fn tail_permille(n: usize) -> Option<usize> {
    TAIL_LADDER_PERMILLE
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - rank(n, p) >= TAIL_BEYOND)
}

/// Median of `values` (any order); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Median and tail of one latency population.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// `(percentile in per mille, value)` per the ≥10-beyond rule;
    /// `None` below 20 samples.
    pub tail: Option<(usize, f64)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let p50 = median(&v)?;
        let tail = tail_permille(v.len()).map(|p| (p, percentile(&v, p)));
        Some(Summary {
            count: v.len(),
            p50,
            tail,
        })
    }
}

/// `p99.9`-style label of a per-mille percentile.
pub fn percentile_label(permille: usize) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_permille(0), None);
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(99), Some(500));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(199), Some(900));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(999), Some(950));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(9999), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
        for n in 1..5000 {
            if let Some(p) = tail_permille(n) {
                assert!(n - rank(n, p) >= TAIL_BEYOND, "n={n} p={p}");
                let higher = TAIL_LADDER_PERMILLE.iter().find(|&&q| q > p);
                if let Some(&q) = higher {
                    assert!(n - rank(n, q) < TAIL_BEYOND, "n={n}: {q} also qualifies");
                }
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 950), 95.0);
        assert_eq!(percentile(&v, 999), 100.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn summary_reports_the_rung_it_used() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = Summary::of(&v).expect("non-empty");
        assert_eq!(s.count, 200);
        assert_eq!(s.p50, 100.5);
        assert_eq!(s.tail, Some((950, 190.0)));
        assert_eq!(percentile_label(950), "p95");
        assert_eq!(percentile_label(999), "p99.9");
    }
}
