//! The reductions every reported number goes through. They are kept
//! apart from the workloads so the unit tests below can pin them on
//! known vectors.

/// Median of a sample; the mean of the two middle values for an even
/// count. Panics on an empty sample: every caller reduces at least one
/// pass or one op.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The fixed 95th percentile by nearest rank: the smallest value with at
/// least 95 % of the sample at or below it. No interpolation and no
/// choice of percentile from the sample size.
pub fn p95(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "p95 of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * 95).div_ceil(100);
    v[rank.max(1) - 1]
}

/// Per-op latency: for each op, the median over passes of that op's wall
/// time. `passes[p][op]` is `None` where the op failed in pass `p`; an op
/// that failed in every pass has no latency and is left out.
pub fn per_op_median(passes: &[Vec<Option<f64>>]) -> Vec<f64> {
    let ops = passes.first().map_or(0, Vec::len);
    (0..ops)
        .filter_map(|op| {
            let seen: Vec<f64> = passes.iter().filter_map(|p| p[op]).collect();
            (!seen.is_empty()).then(|| median(&seen))
        })
        .collect()
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), which is what the acceptance check of this benchmark uses.
/// A single value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m == 1 {
        return [v[0]; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Whether `name` may name a metric or a workload: 1 to 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// FNV-1a over 64-bit words: the input digest of a workload's op list.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_latency_is_the_median_over_passes() {
        // Three passes of two ops; op 1 fails in the second pass and its
        // median is taken over the two passes that produced a latency.
        let passes = vec![
            vec![Some(3.0), Some(10.0)],
            vec![Some(1.0), None],
            vec![Some(2.0), Some(20.0)],
        ];
        assert_eq!(per_op_median(&passes), vec![2.0, 15.0]);
        // An op that never succeeded has no latency at all.
        let never = vec![vec![Some(1.0), None], vec![Some(3.0), None]];
        assert_eq!(per_op_median(&never), vec![2.0]);
    }

    #[test]
    fn p95_is_fixed_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p95(&v), 95.0);
        // 20 values: rank ceil(19.0) = 19, whatever the order.
        let mut w: Vec<f64> = (1..=20).map(f64::from).collect();
        w.reverse();
        assert_eq!(p95(&w), 19.0);
        // 438 ops leave 21 beyond the percentile.
        let big: Vec<f64> = (1..=438).map(f64::from).collect();
        assert_eq!(p95(&big), 417.0);
        assert_eq!(p95(&[7.0]), 7.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 2.0, 4.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn names_outside_the_alphabet_are_rejected() {
        for good in ["latency_ms_p95", "estimators.lw-nn.batch_us_p50", "7up"] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", "a b", "a/b", "a%", "_x", ".x", "naïve", &too_long] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }
}
