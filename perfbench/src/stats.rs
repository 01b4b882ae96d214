//! Order statistics over short repeated units.
//!
//! Every timed metric is the mean of the fastest decile of many short,
//! identical units of work (the fastest unit when there are fewer than
//! ten). Host slow phases only ever lengthen a unit, so the fastest
//! decile repeats from run to run where a whole-run mean does not.

/// Mean of the smallest `ceil(n / 10)` values (the fastest decile of
/// unit times). `None` when `values` is empty.
pub fn fastest_decile(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len().div_ceil(10);
    Some(v[..k].iter().sum::<f64>() / k as f64)
}

/// Median of `values` (mean of the middle pair for even lengths).
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
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// The `q`-quantile (nearest rank) of `values`.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    Some(v[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_decile_takes_the_low_tenth() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(fastest_decile(&v), Some(1.5));
        assert_eq!(fastest_decile(&[3.0, 2.0]), Some(2.0));
        assert_eq!(fastest_decile(&[]), None);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 0.5), Some(50.0));
    }
}
