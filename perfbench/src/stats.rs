//! Quantiles and the result line.

use std::fmt::Write as _;

/// The `p`-quantile (`0 < p <= 1`) of `values` by nearest rank: the
/// smallest value with at least `p` of the samples at or below it.
/// Returns `None` on no samples.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Samples strictly beyond the `p`-quantile's rank, the count the tail
/// rule asks to be at least ten.
pub fn beyond(count: usize, p: f64) -> usize {
    count - ((p * count as f64).ceil() as usize).min(count)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metrics of one run.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The last stdout line: `{"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}`. A non-finite value (a
/// metric with no samples) is written as `null`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, value, m.unit
        );
    }
    out.push_str("}}");
    out
}
