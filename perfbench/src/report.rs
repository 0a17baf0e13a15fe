//! Named metrics and the JSON the benchmark prints.

use crate::stats::Tally;

/// One measured value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or in the workload's
    /// detail report.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`, `ratio`.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Every operation issued and every one that failed.
    pub tally: Tally,
    /// Correctness gates that failed, one line each.
    pub gate_failures: Vec<String>,
    /// Everything measured, by name.
    pub metrics: Vec<Metric>,
    /// Extra facts for the detail report (key, JSON value).
    pub notes: Vec<(&'static str, String)>,
}

impl Run {
    /// Records a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a failed gate; the run counts it as one failed
    /// operation, so it also shows in `error_rate`.
    pub fn fail_gate(&mut self, why: String) {
        eprintln!("perfbench: correctness gate failed: {why}");
        self.gate_failures.push(why);
        self.tally.record(false);
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Whether every operation succeeded and every gate held.
    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.tally.failed == 0 && self.tally.attempted > 0
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in the given order.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(run: &Run, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.correct(),
        run.tally.attempted,
        run.tally.failed,
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut run = Run::default();
        run.tally.record(true);
        run.put("setup_s", 0.5, "s");
        let line = result_line(&run, &run.metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_gate_is_a_failed_operation() {
        let mut run = Run::default();
        run.tally.record(true);
        run.fail_gate("outputs differ".into());
        assert!(!run.correct());
        assert_eq!(run.tally.attempted, 2);
        assert_eq!(run.tally.failed, 1);
    }

    #[test]
    fn strings_and_numbers_are_valid_json() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(0.25), "0.25");
    }
}
