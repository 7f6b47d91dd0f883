//! Order statistics for the benchmark's timings.

/// Fewest samples that must lie beyond a reported percentile: a p95
/// over 20 samples would be the second-largest value, one outlier away
/// from a different number.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile (`0 < p < 100`) of `samples`.
///
/// Refuses (returns `Err`) when fewer than [`MIN_BEYOND`] samples lie
/// beyond the chosen rank, so a percentile is only reported where the
/// sample count supports it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of range");
    let n = samples.len();
    if n == 0 {
        return Err(format!("p{p}: no samples"));
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    let beyond = n - 1 - idx;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} over {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[idx])
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Smallest of `samples`: for a time on a shared host, where other
/// tenants can only add to it, the figure closest to the program's own.
pub fn fastest(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "fastest of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Interquartile range as a share of the median, with quartiles taken
/// the way Python's `statistics.quantiles(values, n=4)` takes them
/// (exclusive method).
pub fn iqr_share(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |q: f64| {
        let pos = q * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    let med = median(&sorted);
    if med == 0.0 {
        return 0.0;
    }
    (quartile(0.75) - quartile(0.25)) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn p95_of_204_has_exactly_ten_beyond() {
        // Three sweep passes: 68 campaigns each.
        let s = ramp(204);
        assert_eq!(percentile(&s, 95.0), Ok(194.0));
        assert_eq!(percentile(&s, 50.0), Ok(102.0));
    }

    #[test]
    fn refuses_percentile_with_fewer_than_ten_beyond() {
        let s = ramp(199);
        // rank ceil(189.05) = 190, so 9 samples lie beyond it.
        let err = percentile(&s, 95.0).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        assert!(percentile(&ramp(19), 50.0).is_err());
        assert!(percentile(&ramp(21), 50.0).is_ok());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut s = ramp(300);
        s.reverse();
        assert_eq!(percentile(&s, 95.0), Ok(285.0));
    }

    #[test]
    fn median_and_spread_match_python_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(fastest(&[4.0, 1.5, 3.0]), 1.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let share = iqr_share(&ramp(10));
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{share}");
        assert_eq!(iqr_share(&[7.0; 5]), 0.0);
    }
}
