//! The traced pipeline: the `check` path rebuilt from public pieces,
//! with timing wrappers around each layer boundary.
//!
//! `seminal_serve::dispatch` runs parse, then a `SearchSession` over a
//! `SharedMemoOracle` wrapping a `CheckpointedOracle`, then renders the
//! report. This module runs the same pieces with the same default
//! configuration, and times them from outside: a [`Timed`] oracle above
//! the memo sees every probe the search makes, and a second one below it
//! sees only the probes that reach the type checker. Nothing inside the
//! program is instrumented; the program's own published counters
//! (`blame_ns`, `oracle.decls_recheck`, `oracle.incremental_hits`) are
//! read from the report.

use seminal_analysis::BackendKind;
use seminal_core::obs::keys;
use seminal_core::{message, CrossRequestMemo, SearchConfig, SearchSession, SharedMemoOracle};
use seminal_ml::ast::Program;
use seminal_ml::parser::parse_program;
use seminal_serve::PayloadEntry;
use seminal_typeck::{CheckpointedOracle, IncrementalStats, Oracle, TypeError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Suggestions rendered per report, as `CheckRequest::new` asks.
pub const TOP: usize = 3;

/// An oracle wrapper that counts and times every `check` it forwards.
pub struct Timed<O> {
    inner: O,
    ns: AtomicU64,
    calls: AtomicU64,
    passes: AtomicU64,
}

impl<O: Oracle> Timed<O> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: O) -> Timed<O> {
        Timed { inner, ns: AtomicU64::new(0), calls: AtomicU64::new(0), passes: AtomicU64::new(0) }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Nanoseconds spent inside the wrapped oracle.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Calls forwarded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Calls whose program type-checked.
    pub fn passes(&self) -> u64 {
        self.passes.load(Ordering::Relaxed)
    }
}

impl<O: Oracle> Oracle for Timed<O> {
    fn check(&self, prog: &Program) -> Result<(), TypeError> {
        let clock = Instant::now();
        let verdict = self.inner.check(prog);
        self.ns.fetch_add(elapsed_ns(clock), Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        if verdict.is_ok() {
            self.passes.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }

    fn incremental_stats(&self) -> Option<IncrementalStats> {
        self.inner.incremental_stats()
    }
}

/// Nanoseconds since `clock`.
#[must_use]
pub fn elapsed_ns(clock: Instant) -> u64 {
    u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One traced check: what it answered and where its time went.
pub struct TracedCheck {
    /// Suggestions, as the wire response carries them.
    pub payload: Vec<PayloadEntry>,
    /// The rendered report.
    pub rendered: String,
    /// Search-level oracle calls (`stats.oracle_calls`).
    pub oracle_calls: u64,
    /// Probes that missed the shared memo and reached the type checker.
    pub real_calls: u64,
    /// Whole traced check, parse to rendered report.
    pub total_ns: u64,
    /// `parse_program`.
    pub parse_ns: u64,
    /// `SearchSession::search`.
    pub search_ns: u64,
    /// `message::render_report`.
    pub render_ns: u64,
    /// Inside the wrapper above the memo: memo keying plus type checking.
    pub above_memo_ns: u64,
    /// Inside the wrapper below the memo: type checking only.
    pub oracle_ns: u64,
    /// Probes the search made (calls above the memo).
    pub probes: u64,
    /// Probes whose variant type-checked.
    pub probe_passes: u64,
    /// Suggestions in the report.
    pub suggestions: u64,
    /// The report's own `blame_ns` counter.
    pub blame_ns: u64,
    /// The report's `oracle.decls_recheck` counter.
    pub decls_recheck: u64,
    /// The report's `oracle.incremental_hits` counter.
    pub incremental_hits: u64,
}

/// Runs one check through the traced pipeline over `memo`.
///
/// # Panics
///
/// When `source` does not parse; every benchmark input does.
#[must_use]
pub fn traced_check(source: &str, memo: &Arc<CrossRequestMemo>) -> TracedCheck {
    let start = Instant::now();
    let prog = parse_program(source).expect("benchmark inputs parse");
    let parse_ns = elapsed_ns(start);

    let below = Timed::new(CheckpointedOracle::new());
    let above = Timed::new(SharedMemoOracle::new(&below, memo.clone()));
    let session = SearchSession::builder(&above)
        .config(SearchConfig::default())
        .build()
        .expect("the default configuration is valid");
    let clock = Instant::now();
    let report = session.search(&prog);
    let search_ns = elapsed_ns(clock);

    let clock = Instant::now();
    let rendered = message::render_report(&report, source, TOP);
    let render_ns = elapsed_ns(clock);
    let payload = report
        .payload()
        .into_iter()
        .map(|(original, replacement, new_type, triaged)| PayloadEntry {
            original,
            replacement,
            new_type,
            triaged,
        })
        .collect();
    let total_ns = elapsed_ns(start);

    TracedCheck {
        payload,
        rendered,
        oracle_calls: report.stats.oracle_calls,
        real_calls: above.inner().misses(),
        total_ns,
        parse_ns,
        search_ns,
        render_ns,
        above_memo_ns: above.ns(),
        oracle_ns: below.ns(),
        probes: above.calls(),
        probe_passes: above.passes(),
        suggestions: report.suggestions().len() as u64,
        blame_ns: report.metrics.counter("blame_ns"),
        decls_recheck: report.metrics.counter(keys::ORACLE_DECLS_RECHECK),
        incremental_hits: report.metrics.counter(keys::ORACLE_INCREMENTAL_HITS),
    }
}

/// Times one search of `prog` with the default flight recorder on or
/// off, over its own `memo`, with no timing wrappers.
#[must_use]
pub fn recorder_search_ns(prog: &Program, memo: &Arc<CrossRequestMemo>, recorder: bool) -> u64 {
    let oracle = SharedMemoOracle::new(CheckpointedOracle::new(), memo.clone());
    let session = SearchSession::builder(&oracle)
        .config(SearchConfig::default())
        .flight_recorder(recorder)
        .build()
        .expect("the default configuration is valid");
    let clock = Instant::now();
    let report = session.search(prog);
    let ns = elapsed_ns(clock);
    std::hint::black_box(report);
    ns
}

/// Times `seminal_analysis::localize` on `prog` with the default
/// backend, the call the search makes once per ill-typed program.
#[must_use]
pub fn localize_ns(prog: &Program) -> u64 {
    let clock = Instant::now();
    let localization = seminal_analysis::localize(prog, BackendKind::Blame);
    let ns = elapsed_ns(clock);
    std::hint::black_box(localization);
    ns
}
