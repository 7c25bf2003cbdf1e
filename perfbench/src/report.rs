//! Metric values, order statistics and the JSON result line.

use std::fmt::Write as _;

/// One reported number. `calls` is how many measurements it summarizes.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub calls: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, calls: usize) -> Self {
        Self {
            name,
            value,
            unit,
            calls,
        }
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
    v[idx.min(v.len() - 1)]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// One completed op of a measured loop. Single precision keeps serve's
/// million records small, so peak RSS does not grow with the request rate.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub ns: f32,
    /// Host probe time over the op (see [`crate::host`]).
    pub probe_ns: f32,
    /// Raw bytes the op moved, for throughput (0 when it does not count).
    pub bytes: f32,
    /// Group (mesh) whose latency distribution the op belongs to.
    pub group: u8,
    /// Whether the op counts toward the latency percentiles.
    pub timed: bool,
    /// When the op ended, in seconds since its loop started.
    pub at_s: f32,
}

impl OpRecord {
    pub fn new(ns: f64, probe_ns: f64, group: usize, timed: bool, bytes: f64, at_s: f64) -> Self {
        Self {
            ns: ns as f32,
            probe_ns: probe_ns as f32,
            bytes: bytes as f32,
            group: group as u8,
            timed,
            at_s: at_s as f32,
        }
    }

    /// The op's time at the reference host speed.
    pub fn adjusted_ns(&self) -> f64 {
        crate::host::adjust(f64::from(self.ns), f64::from(self.probe_ns))
    }
}

/// Mean over groups of each group's percentile `p` of the timed ops'
/// adjusted times; 0 when no op was timed.
pub fn grouped_percentile(ops: &[OpRecord], p: f64) -> f64 {
    let groups = ops.iter().map(|o| o.group + 1).max().unwrap_or(0);
    let per: Vec<f64> = (0..groups)
        .filter_map(|g| {
            let ns: Vec<f64> = ops
                .iter()
                .filter(|o| o.timed && o.group == g)
                .map(OpRecord::adjusted_ns)
                .collect();
            (!ns.is_empty()).then(|| percentile(&ns, p))
        })
        .collect();
    per.iter().sum::<f64>() / per.len().max(1) as f64
}

/// Latencies of the timed ops.
pub fn timed_ns(ops: &[OpRecord]) -> Vec<f64> {
    ops.iter()
        .filter(|o| o.timed)
        .map(|o| f64::from(o.ns))
        .collect()
}

/// Finite JSON number (JSON has no NaN or infinity).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Minimal JSON string escaping for names and paths.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        failed == 0,
        attempted.max(1),
        failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"value\":{},\"unit\":{}}}",
            quote(m.name),
            num(m.value),
            quote(m.unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(3, 0, &[Metric::new("a_ms", 1.5, "ms", 3)]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"a_ms\":{\"value\":1.5,\"unit\":\"ms\"}}}"
        );
    }
}
