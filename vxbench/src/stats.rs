//! Order statistics over repeated measurements, and the `Summary` every
//! reported metric is stored as.

use crate::json::Json;

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// pipeline's steadiness check uses. One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let n = data.len();
    match n {
        0 => return None,
        1 => return Some((data[0], data[0])),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// One reported metric: the median of `n` samples with their range and
/// quartiles. A count measured once has `n = 1` and all five values equal.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub unit: String,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64], unit: &str) -> Option<Summary> {
        let median = median(samples)?;
        let (q1, q3) = quartiles(samples)?;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(Summary { unit: unit.to_string(), median, min, max, q1, q3, n: samples.len() })
    }

    pub fn single(value: f64, unit: &str) -> Summary {
        Summary {
            unit: unit.to_string(),
            median: value,
            min: value,
            max: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Distance between the quartiles as a share of the median — the
    /// run-to-run spread `compare` holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("unit", Json::str(&self.unit)),
            ("median", Json::Num(self.median)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("n", Json::Num(self.n as f64)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Summary, String> {
        let num = |key: &str| {
            v.get(key).and_then(Json::as_f64).ok_or_else(|| format!("summary lacks number '{key}'"))
        };
        Ok(Summary {
            unit: v.get("unit").and_then(Json::as_str).ok_or("summary lacks 'unit'")?.to_string(),
            median: num("median")?,
            min: num("min")?,
            max: num("max")?,
            q1: num("q1")?,
            q3: num("q3")?,
            n: num("n")? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[2.0, 3.0, 1.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn summary_range_spread_and_round_trip() {
        let s = Summary::of(&[1.0, 1.1, 0.9, 1.05, 0.95], "s").unwrap();
        assert_eq!((s.min, s.max, s.median, s.n), (0.9, 1.1, 1.0, 5));
        assert!(s.q1 < s.median && s.median < s.q3);
        assert!((s.spread() - (s.q3 - s.q1)).abs() < 1e-12);
        assert_eq!(Summary::from_json(&Json::parse(&s.to_json().encode()).unwrap()).unwrap(), s);
        assert!(Summary::of(&[], "s").is_none());

        let one = Summary::single(42.0, "count");
        assert_eq!((one.min, one.max, one.q1, one.q3, one.n), (42.0, 42.0, 42.0, 42.0, 1));
        assert_eq!(one.spread(), 0.0);
        assert_eq!(Summary::single(0.0, "count").spread(), 0.0);
    }
}
