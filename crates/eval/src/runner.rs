//! Runs the three systems of §3 over a corpus: the baseline checker,
//! Seminal, and Seminal with triage disabled.
//!
//! ## Parallel evaluation
//!
//! Corpus files are independent, so [`evaluate_corpus_with`] parallelizes
//! at file granularity: `threads` scoped workers claim file indices from
//! an atomic counter and write into per-file slots, which are then
//! collected in corpus order. Each per-file search probes sequentially,
//! so the suggestions, judgments, and oracle-call counts are identical
//! at every worker count — only wall-clock changes.

use crate::category::{classify, Category};
use crate::judge::{judge_baseline, judge_seminal, Judgment};
use seminal_core::{SearchConfig, SearchSession};
use seminal_corpus::CorpusFile;
use seminal_ml::parser::parse_program;
use seminal_obs::MetricsSnapshot;
use seminal_typeck::{check_program, CheckpointedOracle};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Everything measured for one corpus file.
#[derive(Debug, Clone)]
pub struct FileResult {
    pub id: String,
    pub programmer: u8,
    pub assignment: u8,
    pub multi_error: bool,
    pub category: Category,
    pub full: Judgment,
    pub no_triage: Judgment,
    pub baseline: Judgment,
    /// Wall-clock of the full tool's search.
    pub full_time: Duration,
    /// Wall-clock with triage disabled.
    pub no_triage_time: Duration,
    /// Oracle calls made by the full tool.
    pub full_calls: u64,
    /// The full tool's per-search metrics snapshot (counters and latency
    /// histograms, schema `seminal-obs/metrics-v1`).
    pub metrics: seminal_obs::MetricsSnapshot,
}

/// A corpus file that produced no [`FileResult`], and why. A panicking
/// evaluation is isolated into one of these — it costs the run a single
/// record, never the whole corpus pass.
#[derive(Debug, Clone)]
pub struct SkippedFile {
    pub id: String,
    pub reason: String,
}

/// The outcome of a corpus pass: per-file results in corpus order, plus
/// a record for every file that produced none.
#[derive(Debug, Clone)]
pub struct CorpusRun {
    pub results: Vec<FileResult>,
    pub skipped: Vec<SkippedFile>,
}

impl CorpusRun {
    /// The corpus-wide metrics snapshot: every file's per-search
    /// snapshot merged, plus the `eval.files_skipped` counter so a run
    /// that silently lost files cannot masquerade as a full one.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut merged = crate::metrics::corpus_metrics(&self.results);
        merged.counters.insert("eval.files_skipped".to_owned(), self.skipped.len() as u64);
        merged
    }
}

/// Evaluates every file sequentially; files that unexpectedly
/// parse/type-check are skipped (the corpus generator prevents them by
/// construction). Equivalent to `evaluate_corpus_with(files, 1)`.
pub fn evaluate_corpus(files: &[CorpusFile]) -> Vec<FileResult> {
    evaluate_corpus_with(files, 1)
}

/// Evaluates every file using `threads` file-level workers. Results are
/// returned in corpus order and are identical at every `threads` value;
/// only wall-clock differs. Skip records are dropped; use
/// [`evaluate_corpus_run`] to keep them.
pub fn evaluate_corpus_with(files: &[CorpusFile], threads: usize) -> Vec<FileResult> {
    evaluate_corpus_run(files, threads).results
}

/// Evaluates every file using `threads` file-level workers, keeping a
/// [`SkippedFile`] record for each file that produced no result
/// (including files whose evaluation panicked — the panic is isolated
/// per file, so the rest of the corpus still runs).
pub fn evaluate_corpus_run(files: &[CorpusFile], threads: usize) -> CorpusRun {
    let workers = threads.max(1).min(files.len().max(1));
    let outcomes: Vec<Result<FileResult, String>> = if workers <= 1 {
        files.iter().map(guarded_evaluate).collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<FileResult, String>>>> =
            files.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(file) = files.get(i) else { break };
                    let outcome = guarded_evaluate(file);
                    // A panic between lock and store can poison a slot;
                    // recover the lock — the slot value itself is
                    // whatever was last stored, which is what we want.
                    *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .unwrap_or_else(|| Err("file was never evaluated".to_owned()))
            })
            .collect()
    };
    let mut run = CorpusRun { results: Vec::new(), skipped: Vec::new() };
    for (file, outcome) in files.iter().zip(outcomes) {
        match outcome {
            Ok(result) => run.results.push(result),
            Err(reason) => run.skipped.push(SkippedFile { id: file.id.clone(), reason }),
        }
    }
    run
}

/// [`evaluate_file`] under panic isolation: a file whose evaluation
/// panics yields a skip reason instead of unwinding into the worker (and
/// poisoning every slot mutex behind it).
fn guarded_evaluate(file: &CorpusFile) -> Result<FileResult, String> {
    catch_unwind(AssertUnwindSafe(|| evaluate_file(file)))
        .unwrap_or_else(|_| Err("evaluation panicked (isolated)".to_owned()))
}

/// Runs all three systems over one file. Per-file results do not
/// depend on the worker count of the surrounding corpus run: each file
/// gets its own sessions and oracles.
///
/// Both searching systems answer probes through the checkpointed
/// incremental oracle — the production default — so the
/// `BENCH_search.json` artifact's latency histograms and the
/// `oracle.decls_recheck` / `oracle.incremental_hits` counters measure
/// the path users actually run. The differential test layer pins the
/// reports byte-identical to the scratch oracle's, so judgments and
/// call counts are unchanged by this choice.
fn evaluate_file(file: &CorpusFile) -> Result<FileResult, String> {
    let full_session =
        SearchSession::builder(CheckpointedOracle::new()).build().expect("default config is valid");
    let nt_session = SearchSession::builder(CheckpointedOracle::new())
        .config(SearchConfig::without_triage())
        .build()
        .expect("no-triage config is valid");
    let prog = parse_program(&file.source).map_err(|e| format!("does not parse: {e}"))?;
    let Some(baseline_err) = check_program(&prog).err() else {
        return Err("unexpectedly type-checks".to_owned());
    };
    let full_report = full_session.search(&prog);
    let nt_report = nt_session.search(&prog);
    let full = judge_seminal(file, &full_report);
    let no_triage = judge_seminal(file, &nt_report);
    let baseline = judge_baseline(file, &baseline_err);
    Ok(FileResult {
        id: file.id.clone(),
        programmer: file.programmer,
        assignment: file.assignment,
        multi_error: file.is_multi_error(),
        category: classify(full, no_triage, baseline),
        full,
        no_triage,
        baseline,
        full_time: full_report.stats.elapsed,
        no_triage_time: nt_report.stats.elapsed,
        full_calls: full_report.stats.oracle_calls,
        metrics: full_report.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seminal_corpus::generate::{generate, small_config};
    use seminal_typeck::TypeCheckOracle;

    #[test]
    fn evaluation_produces_a_result_per_file() {
        let files = generate(&small_config(5));
        let results = evaluate_corpus(&files);
        assert_eq!(results.len(), files.len());
        for r in &results {
            assert!(r.full_calls > 0, "{} made no oracle calls", r.id);
        }
    }

    #[test]
    fn seminal_is_competitive_on_the_small_corpus() {
        // Shape check, not an exact number: Seminal should be no worse
        // than the checker on a clear majority of files (paper: 83%).
        let files = generate(&small_config(11));
        let results = evaluate_corpus(&files);
        let no_worse = results.iter().filter(|r| r.category != Category::CheckerBetter).count();
        assert!(
            no_worse * 10 >= results.len() * 6,
            "Seminal no-worse on only {no_worse}/{} files",
            results.len()
        );
    }

    #[test]
    fn unusable_files_become_skip_records_not_lost_results() {
        let mut files = generate(&small_config(4));
        files[1].source = "let let let (".to_owned(); // cannot parse
        files[2].source = "let x = 1".to_owned(); // type-checks
        for threads in [1, 4] {
            let run = evaluate_corpus_run(&files, threads);
            assert_eq!(run.results.len(), files.len() - 2, "threads={threads}");
            assert_eq!(run.skipped.len(), 2, "threads={threads}");
            assert_eq!(run.skipped[0].id, files[1].id);
            assert!(run.skipped[0].reason.contains("does not parse"), "{}", run.skipped[0].reason);
            assert_eq!(run.skipped[1].id, files[2].id);
            assert!(run.skipped[1].reason.contains("type-checks"), "{}", run.skipped[1].reason);
            assert_eq!(run.metrics().counter("eval.files_skipped"), 2);
        }
    }

    #[test]
    fn mcs_guidance_never_costs_more_oracle_calls() {
        // PR 6 acceptance: both localization backends are oracle-free
        // and guidance only reorders probes, so swapping blame guidance
        // for MCS guidance must not change `oracle_calls` (or the
        // suggestion payload) on any corpus file.
        let files = generate(&small_config(7));
        for file in &files {
            let Ok(prog) = parse_program(&file.source) else { continue };
            if check_program(&prog).is_ok() {
                continue;
            }
            let blame_report = SearchSession::builder(TypeCheckOracle::new())
                .build()
                .expect("default config is valid")
                .search(&prog);
            let mcs_report = SearchSession::builder(TypeCheckOracle::new())
                .config(SearchConfig::with_mcs_guidance())
                .build()
                .expect("mcs-guidance config is valid")
                .search(&prog);
            assert!(
                mcs_report.stats.oracle_calls <= blame_report.stats.oracle_calls,
                "{}: MCS guidance cost {} oracle calls vs blame's {}",
                file.id,
                mcs_report.stats.oracle_calls,
                blame_report.stats.oracle_calls
            );
            // Backend scores feed ranking tie-breaks, so suggestion
            // *order* may differ; the accepted *set* may not.
            let set = |r: &seminal_core::SearchReport| {
                r.payload().into_iter().collect::<std::collections::BTreeSet<_>>()
            };
            assert_eq!(
                set(&blame_report),
                set(&mcs_report),
                "{}: guidance backends must accept the same suggestion set",
                file.id
            );
            assert_eq!(
                mcs_report.metrics.counter("analysis.backend"),
                2,
                "{}: MCS run must stamp analysis.backend=2",
                file.id
            );
        }
    }

    #[test]
    fn parallel_evaluation_matches_sequential_in_order_and_content() {
        let files = generate(&small_config(6));
        let seq = evaluate_corpus_with(&files, 1);
        let par = evaluate_corpus_with(&files, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.id, b.id, "file order must be preserved");
            assert_eq!(a.full, b.full, "{}: full judgment differs", a.id);
            assert_eq!(a.no_triage, b.no_triage, "{}: no-triage judgment differs", a.id);
            assert_eq!(a.baseline, b.baseline, "{}: baseline judgment differs", a.id);
            assert_eq!(a.category, b.category, "{}: category differs", a.id);
            assert_eq!(a.full_calls, b.full_calls, "{}: oracle calls differ", a.id);
        }
    }
}
