//! Correctness checks on what the program answered.

use seminal_core::SearchReport;
use seminal_corpus::CorpusFile;
use seminal_eval::judge_seminal;
use seminal_serve::{CheckResponse, Dispatched, PayloadEntry, Response, Status};
use seminal_typeck::check_program;

/// The parts of a `check` answer that every repeat of the same input
/// must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Suggestions as the wire carries them.
    pub payload: Vec<PayloadEntry>,
    /// The rendered report.
    pub rendered: String,
    /// Search-level oracle calls.
    pub oracle_calls: u64,
}

impl Answer {
    /// The answer a check response carries.
    #[must_use]
    pub fn of(response: &CheckResponse) -> Answer {
        Answer {
            payload: response.payload.clone(),
            rendered: response.rendered.clone(),
            oracle_calls: response.stats.oracle_calls,
        }
    }
}

/// Accepts only a complete, fault-free `check` answer for an ill-typed
/// program: anything else (another response kind, a degraded or
/// incomplete search, an isolated probe fault) is a failed check.
///
/// # Errors
///
/// Why the response is not acceptable.
pub fn check_response(response: &Response) -> Result<&CheckResponse, String> {
    let Response::Check(check) = response else {
        return Err(format!("{} response to a check", response.kind()));
    };
    if check.status != Status::TypeErrors {
        return Err(format!("status {}", check.status.tag()));
    }
    if check.completion != "complete" {
        return Err(format!("completion {}", check.completion));
    }
    let faults = check.metrics.counter("probe_faults");
    if faults > 0 {
        return Err(format!("{faults} probe fault(s)"));
    }
    Ok(check)
}

/// Re-checks every suggestion's variant with the scratch type checker.
///
/// # Errors
///
/// The first suggestion whose variant does not type-check.
pub fn check_variants(report: &SearchReport) -> Result<(), String> {
    for (rank, s) in report.suggestions().iter().enumerate() {
        if let Err(e) = check_program(&s.variant) {
            return Err(format!(
                "suggestion {} ({} -> {}) variant is ill-typed: {e:?}",
                rank + 1,
                s.original_str,
                s.replacement_str
            ));
        }
    }
    Ok(())
}

/// Verifies one in-process `dispatch` of `file`'s source: the response
/// is acceptable and every suggestion's variant type-checks. Returns the
/// answer and whether one of the top suggestions sits at one of `file`'s
/// faults, by the evaluation's location rule (the paper's "location
/// good").
///
/// # Errors
///
/// Why the check failed.
pub fn check_dispatched(
    file: &CorpusFile,
    dispatched: &Dispatched,
) -> Result<(Answer, bool), String> {
    let response = check_response(&dispatched.response)?;
    let report = dispatched.report.as_ref().ok_or("check ran no search")?;
    check_variants(report)?;
    Ok((Answer::of(response), judge_seminal(file, report).location_good))
}
