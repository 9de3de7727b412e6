//! The run's result: metrics by name and unit, per-class operation
//! accounting, and the final JSON line.

use crate::hist::Hist;
use std::fmt::Write;

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// `(op class, attempted, failed)`.
    pub classes: Vec<(&'static str, u64, u64)>,
    /// Failed checks of the quiescent, final or recovered state.
    pub problems: Vec<String>,
    /// Extra facts for the provenance line.
    pub info: Vec<(&'static str, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    pub fn latency_us(&mut self, name: &'static str, hist: &Hist, q: f64) {
        self.metric(name, hist.quantile_ns(q) / 1e3, "us");
    }

    /// Adds to the counts of op class `name` (a run may have several
    /// phases).
    pub fn class(&mut self, name: &'static str, attempted: u64, failed: u64) {
        match self.classes.iter_mut().find(|c| c.0 == name) {
            Some(c) => {
                c.1 += attempted;
                c.2 += failed;
            }
            None => self.classes.push((name, attempted, failed)),
        }
    }

    pub fn info(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    pub fn attempted(&self) -> u64 {
        self.classes.iter().map(|c| c.1).sum()
    }

    pub fn failed(&self) -> u64 {
        self.classes.iter().map(|c| c.2).sum()
    }
}

/// `a / b`, or 0 when `b` is 0 (an absent layer reads as 0, not NaN).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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

/// The median of `values` (upper median for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}
