//! What one benchmark run prints.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
}

/// Shorthand constructor.
#[must_use]
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks that failed a correctness check (each counted once).
    pub failed: u64,
    /// One line per failed input: its id and why.
    pub failures: Vec<String>,
    /// The metrics the last line reports.
    pub metrics: Vec<Metric>,
    /// Workload and environment properties printed with the results.
    pub properties: Vec<(String, String)>,
    /// The per-layer table of a traced run.
    pub table: Option<String>,
}

impl Outcome {
    /// Records a property.
    pub fn property(&mut self, key: &str, value: impl ToString) {
        self.properties.push((key.to_owned(), value.to_string()));
    }

    /// Share of attempted checks that failed.
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The lines printed before the result, then the result line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.properties {
            let _ = writeln!(out, "property {key} = {value}");
        }
        for failure in &self.failures {
            let _ = writeln!(out, "FAILED {failure}");
        }
        if let Some(table) = &self.table {
            out.push_str(table);
        }
        out.push_str(&self.result_line());
        out.push('\n');
        out
    }

    /// The single-line JSON result.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
///
/// # Panics
///
/// When `/proc/self/status` has no `VmHWM` line (not Linux).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![metric("latency_p50_ms", "ms", 1.25), metric("setup_s", "s", 0.5)],
            ..Outcome::default()
        };
        assert_eq!(
            outcome.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_ms\": \
             {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
