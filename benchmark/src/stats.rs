//! Order statistics over batch samples.

/// The `q`-quantile (0..=1) by linear interpolation between the two
/// nearest ranks; sorts `v` in place.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's spread
/// rule is stated in those terms); sorts `v` in place.
pub fn quartiles(v: &mut [f64]) -> (f64, f64) {
    assert!(v.len() >= 2, "quartiles need two samples");
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&mut [1.0, 2.0, 3.0], 1.0), 3.0);
    }
}
