//! Estimators: the median and the quiet-time wall-clock estimator behind
//! `wall_kops_s`.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The quiet-time estimate of how long one pass over a deterministic op
/// stream takes on this host: the stream is cut into segments at fixed op
/// indices, every repeat times every segment, and the estimate is the sum
/// over segments of the fastest repeat of that segment.
///
/// A disturbance (another tenant of the box, a page-fault storm) slows the
/// segments it overlaps in one repeat; it would have to hit the same segment
/// in every repeat to reach the estimate. The minimum of whole-run totals
/// needs one entirely quiet repeat instead, which a shared 2-CPU box rarely
/// grants.
///
/// `repeats[r][s]` is repeat `r`'s time for segment `s`; all repeats must
/// have the same segment count. Returns 0 when there are no repeats.
pub fn quiet_total(repeats: &[Vec<u64>]) -> u64 {
    let Some(first) = repeats.first() else { return 0 };
    assert!(
        repeats.iter().all(|r| r.len() == first.len()),
        "every repeat must time the same segments"
    );
    (0..first.len()).map(|s| repeats.iter().map(|r| r[s]).min().unwrap_or(0)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quiet_total_takes_each_segment_from_its_fastest_repeat() {
        // Three repeats of four 100 ns segments, each disturbed somewhere else.
        let repeats =
            vec![vec![100, 900, 100, 100], vec![100, 100, 700, 100], vec![400, 100, 100, 100]];
        assert_eq!(quiet_total(&repeats), 400);
        // The minimum of totals would still carry a disturbance.
        let min_total: u64 = repeats.iter().map(|r| r.iter().sum()).min().unwrap();
        assert_eq!(min_total, 700);
        assert_eq!(quiet_total(&[]), 0);
        assert_eq!(quiet_total(&[vec![5, 6]]), 11);
    }

    #[test]
    #[should_panic(expected = "same segments")]
    fn quiet_total_rejects_ragged_repeats() {
        quiet_total(&[vec![1, 2], vec![1]]);
    }
}
