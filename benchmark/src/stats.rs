//! Order statistics over timing samples: medians, quartiles and
//! nearest-rank percentiles, plus the `Sample` every reported metric
//! carries (value, quartiles, sample count).

use serde::Value;

/// Sorted copy of `values` (NaNs are a bug in the caller and sort last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Median of an unsorted slice (mean of the two middle values when the
/// count is even); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]` of an unsorted slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile with the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses, so spreads printed here can be
/// compared with the ones the acceptance procedure computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis, linearly interpolated and
        // clamped to the sample range.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// One reported number with the spread of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The reported value (a median unless the metric says otherwise).
    pub value: f64,
    /// First quartile of the samples behind `value`.
    pub q1: f64,
    /// Third quartile of the samples behind `value`.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Sample {
    /// A single observation (no spread).
    pub fn single(value: f64) -> Self {
        Sample {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Median and quartiles of `values`.
    pub fn median_of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Sample {
            value: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// JSON form used in child reports and result files.
    pub fn to_value(self, unit: &str) -> Value {
        Value::Object(vec![
            ("value".into(), Value::Float(self.value)),
            ("unit".into(), Value::String(unit.into())),
            ("q1".into(), Value::Float(self.q1)),
            ("q3".into(), Value::Float(self.q3)),
            ("n".into(), Value::UInt(self.n as u64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
