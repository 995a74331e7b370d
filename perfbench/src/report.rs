//! Metric names, units, and the one-line JSON result the benchmark prints.

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
}

/// Whether `name` is a legal metric name: it starts with a letter or a
/// digit and is at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The result of one benchmark run. It is correct when no check failed.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Evaluations attempted (uncached, as the engine counts them).
    pub attempted: u64,
    /// Evaluations that failed (quarantined).
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Why the run is not correct, one entry per failed check.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Add a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Record a failed correctness check.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// The result line: `{"correct": .., "attempted": .., "failed": ..,
    /// "metrics": {name: {"value": .., "unit": ..}}}`. A metric with an
    /// illegal name or unit, a duplicate name, or a non-finite value makes
    /// the run incorrect and is left out (JSON has no NaN).
    pub fn to_json(&self) -> String {
        let mut problems = self.problems.clone();
        let mut seen = std::collections::HashSet::new();
        let mut fields = Vec::new();
        for m in &self.metrics {
            if !valid_name(&m.name) || !valid_unit(m.unit) || !seen.insert(m.name.as_str()) {
                problems.push(format!("bad metric name or unit: {} {}", m.name, m.unit));
            } else if !m.value.is_finite() {
                problems.push(format!("metric {} is not finite", m.name));
            } else {
                fields.push(format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                ));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_character_set() {
        for ok in [
            "setup_s",
            "compiler.compile_ms.p95",
            "compiler.pass.regalloc_ms",
            "0x",
            "a-b_c.d",
            &"m".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/name",
            "pct%",
            "ünïcode",
            &"m".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MB", "ratio", "cycles/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "kilometres/second", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn json_line_refuses_bad_metrics() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.push("latency_ms", 1.25, "ms");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        o.push("latency_ms", 2.0, "ms");
        assert!(o.to_json().starts_with("{\"correct\": false"));
        let mut nan = Outcome::default();
        nan.push("x", f64::NAN, "ms");
        assert!(nan.to_json().starts_with("{\"correct\": false"));
    }
}
