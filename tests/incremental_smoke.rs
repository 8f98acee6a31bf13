//! Tier-1 smoke for the checkpointed incremental oracle (PR 10).
//!
//! The tentpole claim is that probes cost O(edit-path), not O(program):
//! the oracle re-infers only from the edited declaration forward. The
//! measurable consequence pinned here on the checked-in `samples/` is
//! that `oracle.decls_recheck` — declarations actually re-inferred —
//! stays strictly below `oracle_calls × decls`, the scratch oracle's
//! cost, while the user-visible report stays byte-identical to the
//! scratch run's.

use seminal::core::{SearchConfig, SearchReport, SearchSession};
use seminal::ml::parser::parse_program;
use seminal::obs::keys;
use seminal::typeck::CheckpointedOracle;

/// The ill-typed Caml samples (figure10.cpp belongs to the C++
/// prototype; deadline_stress.ml is sized for deadline tests, not for
/// an unbounded tier-1 search).
const SAMPLES: &[&str] = &["samples/figure2.ml", "samples/figure8.ml", "samples/multi_error.ml"];

fn run(source: &str, incremental: bool) -> SearchReport {
    let prog = parse_program(source).expect("sample parses");
    let config =
        SearchConfig { deadline: None, incremental_oracle: incremental, ..SearchConfig::default() };
    SearchSession::builder(CheckpointedOracle::with_enabled(incremental))
        .config(config)
        .build()
        .expect("config is valid")
        .search(&prog)
}

#[test]
fn incremental_recheck_work_stays_under_the_scratch_bound_on_samples() {
    let root = env!("CARGO_MANIFEST_DIR");
    // Aggregated across the samples: a single-declaration file (like
    // multi_error.ml, one big `let go () = ...`) has no reusable prefix,
    // so its probes legitimately re-infer their one declaration — the
    // strict saving must show up in the whole-directory total.
    let (mut total_recheck, mut total_bound) = (0u64, 0u64);
    for sample in SAMPLES {
        let source = std::fs::read_to_string(format!("{root}/{sample}")).expect("sample reads");
        let decls = parse_program(&source).expect("sample parses").decls.len() as u64;
        let report = run(&source, true);
        let calls = report.stats.oracle_calls;
        let recheck = report.metrics.counter(keys::ORACLE_DECLS_RECHECK);
        assert!(calls > 0, "{sample}: the search never probed");
        assert!(
            recheck <= calls * decls,
            "{sample}: incremental oracle re-inferred {recheck} decls across {calls} calls — \
             above the scratch bound of {calls} x {decls}"
        );
        if decls > 1 {
            assert!(
                report.metrics.counter(keys::ORACLE_INCREMENTAL_HITS) > 0,
                "{sample}: no probe ever reused a checked prefix"
            );
        }
        total_recheck += recheck;
        total_bound += calls * decls;
    }
    assert!(
        total_recheck < total_bound,
        "across samples/: {total_recheck} decls re-inferred, \
         not strictly under the scratch bound of {total_bound}"
    );
}

#[test]
fn incremental_and_scratch_reports_agree_on_samples() {
    let root = env!("CARGO_MANIFEST_DIR");
    for sample in SAMPLES {
        let source = std::fs::read_to_string(format!("{root}/{sample}")).expect("sample reads");
        let incr = run(&source, true);
        let scratch = run(&source, false);
        assert_eq!(incr.payload(), scratch.payload(), "{sample}: payload depends on oracle mode");
        assert_eq!(incr.completion, scratch.completion, "{sample}: completion diverged");
        assert_eq!(
            incr.stats.oracle_calls, scratch.stats.oracle_calls,
            "{sample}: incremental reuse must save work inside calls, never calls"
        );
        // The scratch mode publishes zeroed counters (the wrapper is a
        // passthrough), so metric consumers never see stale reuse stats.
        assert_eq!(scratch.metrics.counter(keys::ORACLE_DECLS_RECHECK), 0, "{sample}");
        assert_eq!(scratch.metrics.counter(keys::ORACLE_INCREMENTAL_HITS), 0, "{sample}");
    }
}
