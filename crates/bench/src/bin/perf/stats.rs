//! Order statistics for timing samples.
//!
//! Every timing the benchmark reports is a median with its quartiles and
//! sample count; a tail percentile is reported only when at least ten
//! samples lie beyond it, so a "p99" of 40 samples can never appear.

use crate::jsonout::{Number, Value};

/// Median, quartiles and count of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarize `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Self {
            median: quantile_sorted(&v, 0.5),
            q1: quantile_sorted(&v, 0.25),
            q3: quantile_sorted(&v, 0.75),
            n: v.len(),
        })
    }

    /// Interquartile range as a share of the median (the spread the
    /// noise gate compares with a metric's bound).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }

    /// `{"value": median, "q1", "q3", "n"}` plus the unit.
    pub fn to_value(self, unit: &str) -> Value {
        Value::Object(vec![
            ("value".into(), num(self.median)),
            ("unit".into(), Value::String(unit.into())),
            ("q1".into(), num(self.q1)),
            ("q3".into(), num(self.q3)),
            ("n".into(), Value::Number(Number::U(self.n as u64))),
        ])
    }
}

/// A float as a JSON number.
pub fn num(x: f64) -> Value {
    Value::Number(Number::F(x))
}

/// Linear-interpolated quantile of an ascending slice (the "inclusive"
/// method: `q = 0` is the minimum, `q = 1` the maximum).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample (0 for an empty one, so optional probes
/// that did not run report 0 rather than poisoning the output with NaN).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// The tail percentile `p` (e.g. `0.99`) of `samples`, only when at
/// least ten samples lie beyond it — i.e. `n · (1 − p) ≥ 10`.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if (samples.len() as f64) * (1.0 - p) < 10.0 - 1e-9 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(quantile_sorted(&v, p))
}

/// The highest of p90/p99/p99.9 the sample count supports.
pub fn highest_tail(samples: &[f64]) -> Option<(&'static str, f64)> {
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)]
        .into_iter()
        .find_map(|(label, p)| tail_percentile(samples, p).map(|v| (label, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 2.0, 4.0, 5));
        let even = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(even.median, 2.5);
        assert_eq!(even.q1, 1.75);
        assert_eq!(even.q3, 3.25);
        assert!((even.spread() - 0.6).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
        assert_eq!(Summary::of(&[7.0]).unwrap().q3, 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(tail_percentile(&v, 0.99).is_none(), "9.99 samples beyond");
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = tail_percentile(&v, 0.99).unwrap();
        assert!((p99 - 989.01).abs() < 1e-9);
        assert!(tail_percentile(&v, 0.999).is_none());
        assert_eq!(highest_tail(&v).unwrap().0, "p99");
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(highest_tail(&few).is_none());
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(highest_tail(&hundred).unwrap().0, "p90");
    }
}
