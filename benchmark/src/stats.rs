//! Order statistics the benchmark reports: medians, quartiles as
//! Python's `statistics.quantiles(values, n=4)` gives them, and sample
//! percentiles.

/// Sorts ascending; NaNs (never produced here) would sort last.
fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Less));
}

/// The median; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method, the default of
/// Python's `statistics.quantiles(values, n=4)`. With fewer than two
/// values both quartiles are the median.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    if values.len() < 2 {
        let m = median(values);
        return (m, m);
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median: the
/// run-to-run spread the agreement check compares against a bound.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// The `q`-quantile (`0.0..=1.0`) of a sample by linear interpolation
/// between closest ranks. Sorts `values` in place; 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    sort(values);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]), (15.0, 120.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let mut v = vec![40.0, 10.0, 30.0, 20.0];
        assert_eq!(quantile(&mut v, 0.0), 10.0);
        assert_eq!(quantile(&mut v, 1.0), 40.0);
        assert_eq!(quantile(&mut v, 0.5), 25.0);
        assert!((quantile(&mut v, 0.99) - 39.7).abs() < 1e-9);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
