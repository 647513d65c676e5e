//! Order statistics, the process's peak memory, and the result line.

use std::fmt::Write as _;

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Time samples of one kind, each paired with a reference solve.
#[derive(Default, Clone)]
pub struct Paired {
    /// Per-pair ratios, operation ÷ reference.
    pub ratios: Vec<f64>,
    /// Raw operation seconds.
    pub op_s: Vec<f64>,
    /// Raw reference seconds.
    pub ref_s: Vec<f64>,
}

impl Paired {
    pub fn push(&mut self, op_s: f64, ref_s: f64) {
        self.ratios.push(op_s / ref_s);
        self.op_s.push(op_s);
        self.ref_s.push(ref_s);
    }

    pub fn extend(&mut self, other: &Paired) {
        self.ratios.extend_from_slice(&other.ratios);
        self.op_s.extend_from_slice(&other.op_s);
        self.ref_s.extend_from_slice(&other.ref_s);
    }

    pub fn len(&self) -> usize {
        self.ratios.len()
    }

    pub fn p50(&self) -> f64 {
        median(&self.ratios)
    }

    /// Mean cost per operation: Σ operation time ÷ Σ reference time.
    pub fn mean(&self) -> f64 {
        self.op_s.iter().sum::<f64>() / self.ref_s.iter().sum::<f64>()
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}
