//! What one run of one workload produces, and how it is printed.

use crate::stats::Summary;
use dls_core::json::JsonValue;
use std::collections::BTreeMap;

/// The three end-to-end numbers every workload reports (see
/// `catalog::END_TO_END` for what each means on each workload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Typical time of the workload's unit of work, µs.
    pub unit_us: f64,
    /// The slow end of the unit-time distribution, µs.
    pub tail_us: f64,
    /// Sustained throughput in the workload's natural unit, per second.
    pub rate_per_s: f64,
}

/// One named number printed as `workload metric value unit`.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    /// Metric name.
    pub metric: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count, percentile, or how the number was made.
    pub note: String,
}

/// A stage-sum or ordering check printed by the traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What must hold.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The numbers it was decided on.
    pub detail: String,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (trainings, `schedule()` calls, requests).
    pub attempted: u64,
    /// Operations that failed: refused, timed out, not converged, or wrong.
    pub failed: u64,
    /// Failed operations whose output was wrong (the rest failed honestly).
    pub wrong: u64,
    /// Human-readable lines, in print order.
    pub lines: Vec<Line>,
    /// Per-layer metrics measured by this run (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Checks (traced runs only).
    pub checks: Vec<Check>,
}

impl Report {
    /// Adds a `workload metric value unit` line.
    pub fn line(&mut self, metric: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.lines.push(Line { metric: metric.to_string(), value, unit, note: note.into() });
    }

    /// Adds the median and supported-tail lines of one timing.
    pub fn timing(&mut self, metric: &str, s: &Summary, unit: &'static str) {
        self.line(&format!("{metric}.p50"), s.median, unit, format!("n={}", s.n));
        if s.tail_p > 0.5 {
            let p = format!("{}", s.tail_p * 100.0);
            self.line(&format!("{metric}.p{p}"), s.tail, unit, format!("n={}", s.n));
        }
    }

    /// Records a per-layer metric (and prints it as a line).
    pub fn layer(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        let unit = crate::catalog::layer(name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue"))
            .unit;
        self.layers.insert(name, value);
        self.line(name, value, unit, note);
    }

    /// Records a check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check { name: name.into(), ok, detail: detail.into() });
    }

    /// Counts one operation that can fail without its output being wrong.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts one operation whose output was checked: not `right` is wrong.
    pub fn count_checked(&mut self, right: bool) {
        self.count(right);
        self.wrong += u64::from(!right);
    }
}

/// `{"value": v, "unit": u}`.
pub fn metric_json(value: f64, unit: &str) -> JsonValue {
    JsonValue::obj([("value", JsonValue::Num(value)), ("unit", JsonValue::Str(unit.to_string()))])
}
