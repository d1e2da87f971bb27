//! Order statistics over timing samples.

/// Sorted copy of `values`; NaNs sort last so they cannot hide.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle values for an even count). `None` for
/// an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method,
/// with its index clamp), so spreads computed here match ones computed
/// from the printed results in Python. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative at the clamped ends: Python extrapolates there too.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Nearest-rank 90th percentile and the number of samples strictly
/// beyond its rank. `None` for an empty sample.
pub fn p90(values: &[f64]) -> Option<(f64, usize)> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = (v.len() * 9).div_ceil(10);
    Some((v[rank - 1], v.len() - rank))
}

/// Smallest sample count whose nearest-rank p90 has `beyond` samples
/// past it.
pub fn samples_for_p90(beyond: usize) -> usize {
    beyond * 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn p90_is_nearest_rank_with_tail_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90(&v), Some((90.0, 10)));
        assert_eq!(p90(&[7.0]), Some((7.0, 0)));
        assert_eq!(p90(&[]), None);
        let n = samples_for_p90(10);
        let w: Vec<f64> = (0..n).map(|i| i as f64).collect();
        assert!(p90(&w).unwrap().1 >= 10);
    }
}
