//! Latency percentiles and the result line.

/// The median of `sorted` (mean of the middle two for even lengths).
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Fewest samples that must lie strictly beyond a reported tail
/// percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest nearest-rank percentile no higher than `want` with at
/// least [`TAIL_BEYOND`] samples beyond it: `(percentile, value)`, or
/// `None` when there are too few samples for any.
pub fn tail(sorted: &[f64], want: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = ((want / 100.0 * n as f64).ceil() as usize).clamp(1, n - TAIL_BEYOND);
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// Latency summary of one set of samples (milliseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    pub n: usize,
    pub mean_ms: f64,
    pub p50_ms: f64,
    /// `(percentile, ms)` — see [`tail`].
    pub tail: Option<(f64, f64)>,
}

impl Latency {
    pub fn of(mut micros: Vec<f64>) -> Option<Latency> {
        micros.sort_by(f64::total_cmp);
        Some(Latency {
            n: micros.len(),
            mean_ms: micros.iter().sum::<f64>() / micros.len().max(1) as f64 / 1e3,
            p50_ms: median(&micros)? / 1e3,
            tail: tail(&micros, 99.0).map(|(p, us)| (p, us / 1e3)),
        })
    }
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 2000 samples: the true p99 (rank 1980) has 20 beyond it.
        assert_eq!(tail(&ramp(2000), 99.0), Some((99.0, 1980.0)));
        // 1000 samples: rank 990 leaves exactly 10 beyond.
        assert_eq!(tail(&ramp(1000), 99.0), Some((99.0, 990.0)));
        // 500 samples: p99 would leave 5; the highest percentile with
        // 10 beyond is rank 490, p98.
        assert_eq!(tail(&ramp(500), 99.0), Some((98.0, 490.0)));
        // 40 samples: rank 30, p75.
        assert_eq!(tail(&ramp(40), 99.0), Some((75.0, 30.0)));
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert_eq!(tail(&ramp(10), 99.0), None);
        assert_eq!(tail(&ramp(11), 99.0), Some((100.0 / 11.0, 1.0)));
    }

    #[test]
    fn latency_summary_counts_and_converts() {
        let l = Latency::of((1..=1000).rev().map(|i| i as f64 * 1000.0).collect()).unwrap();
        assert_eq!(l.n, 1000);
        assert_eq!(l.mean_ms, 500.5);
        assert_eq!(l.p50_ms, 500.5);
        assert_eq!(l.tail, Some((99.0, 990.0)));
        assert!(Latency::of(Vec::new()).is_none());
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric::new("setup_s", 0.25, "s"),
                Metric::new("x", f64::NAN, "ms"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"x\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }
}
