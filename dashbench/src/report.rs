//! Order statistics and the result line.

use std::collections::BTreeMap;

/// The `q`-quantile (0..=1) of `xs` by nearest rank; 0 for no samples.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics with units, in name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    /// The driver's result object, with every value at full precision.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                // A failed request misses every latency limit.
                let value = if value.is_nan() {
                    0.0
                } else {
                    value.min(f64::MAX)
                };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.5), 50.0);
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(quantile(&mut xs, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_is_json() {
        let mut m = Metrics::default();
        m.set("a_ms", 1.25, "ms");
        m.set("b", 3.0, "count");
        let line = m.result_line(true, 10, 0);
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["metrics"]["a_ms"]["value"].as_f64(), Some(1.25));
        assert_eq!(v["metrics"]["b"]["unit"].as_str(), Some("count"));
        assert_eq!(v["attempted"].as_u64(), Some(10));
    }
}
