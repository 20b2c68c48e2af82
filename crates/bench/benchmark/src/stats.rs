//! Order statistics shared by the measurement and the `compare` report.

/// The median; the mean of the two middle values for an even count.
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles with the interpolation Python's
/// `statistics.quantiles(values, n=4)` uses (its default "exclusive"
/// method), so spreads printed here match the ones a reviewer computes.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Nearest-rank percentile `q` of `samples` (the rank rule of
/// `Summary::percentile`), refusing a percentile that leaves fewer than
/// ten samples beyond it: a tail statistic read from fewer is noise.
pub fn tail_percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return Err("no samples".into());
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < 10 {
        return Err(format!(
            "p{} of {n} samples leaves {beyond} beyond it; at least 10 are needed",
            q * 100.0
        ));
    }
    Ok(v[rank - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_enforces_ten_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9), Ok(90.0));
        assert_eq!(tail_percentile(&hundred, 0.5), Ok(50.0));
        // p91 of 100 leaves 9 beyond: refused.
        assert!(tail_percentile(&hundred, 0.91).is_err());
        // p90 needs at least 100 samples.
        assert!(tail_percentile(&hundred[..99], 0.9).is_err());
        assert!(tail_percentile(&[], 0.5).is_err());
    }
}
