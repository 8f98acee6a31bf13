//! The single entry point mapping API requests onto searches.
//!
//! [`dispatch`] is the **only** place in the workspace that turns a
//! [`Request`]'s fields into a `SearchConfig`/`Budget` — both the
//! serve daemon's connection loop and the one-shot CLI subcommands
//! call it, so exit codes, degraded statuses, crash attachment, and
//! admission control cannot drift between the two front ends.
//! Configuration problems surface as the builder's own typed
//! `ConfigError`, wrapped in [`ApiError`], wrapped in an
//! [`ErrorResponse`] — never as an ad-hoc string.
//!
//! [`ServerState`] is what makes the daemon warm: the process-lifetime
//! [`CrossRequestMemo`] every clean request's oracle is wrapped over
//! (chaos requests bypass it — see `MemoUse`), plus the running
//! metrics aggregate a `metrics` request snapshots.

use crate::api::{
    AnalyzeRequest, AnalyzeResponse, ApiError, CheckRequest, CheckResponse, ErrorResponse,
    MetricsResponse, OverloadedResponse, PayloadEntry, Request, Response, ShutdownResponse,
    StatsSummary, Status,
};
use crate::overload::{Admission, OverloadPolicy};
use seminal_analysis::BackendKind;
use seminal_core::{
    message, CrossRequestMemo, Outcome, SearchConfig, SearchReport, SearchSession,
    SharedMemoOracle, DEFAULT_CROSS_MEMO_CAPACITY,
};
use seminal_ml::parser::parse_program;
use seminal_obs::{keys, MetricsSnapshot, TraceSink};
use seminal_typeck::{ChaosConfig, ChaosOracle, CheckpointedOracle, CountingOracle, Oracle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Construction-time server tuning: memo capacity plus the overload
/// policy the admission gate enforces.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Cross-request memo capacity (`--memo-capacity`).
    pub memo_capacity: usize,
    /// Admission-gate policy (`--max-inflight`).
    pub overload: OverloadPolicy,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            memo_capacity: DEFAULT_CROSS_MEMO_CAPACITY,
            overload: OverloadPolicy::default(),
        }
    }
}

/// Process-lifetime server state shared by every request.
pub struct ServerState {
    memo: Arc<CrossRequestMemo>,
    /// Running aggregate of every request's metrics (counters add,
    /// histograms combine — the eval runner's merge semantics).
    totals: Mutex<MetricsSnapshot>,
    requests: AtomicU64,
    admission: Admission,
    /// How long the last graceful drain took (`server.drain_ns`).
    drain_ns: AtomicU64,
}

impl ServerState {
    /// State with the default cross-request memo capacity.
    #[must_use]
    pub fn new() -> ServerState {
        ServerState::with_config(ServerConfig::default())
    }

    /// State with an explicit memo capacity (`--memo-capacity`).
    #[must_use]
    pub fn with_memo_capacity(capacity: usize) -> ServerState {
        ServerState::with_config(ServerConfig {
            memo_capacity: capacity,
            ..ServerConfig::default()
        })
    }

    /// State with full construction-time tuning.
    #[must_use]
    pub fn with_config(config: ServerConfig) -> ServerState {
        ServerState {
            memo: Arc::new(CrossRequestMemo::new(config.memo_capacity)),
            totals: Mutex::new(MetricsSnapshot::default()),
            requests: AtomicU64::new(0),
            admission: Admission::new(config.overload),
            drain_ns: AtomicU64::new(0),
        }
    }

    /// The admission gate (connection front ends use it to shed whole
    /// connections past `--max-connections` with an honest retry hint).
    #[must_use]
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Records how long the listener's graceful drain took.
    pub fn note_drain(&self, drain: Duration) {
        self.drain_ns.store(u64::try_from(drain.as_nanos()).unwrap_or(u64::MAX), Ordering::Relaxed);
    }

    /// The shared cross-request memo.
    #[must_use]
    pub fn memo(&self) -> &Arc<CrossRequestMemo> {
        &self.memo
    }

    /// Requests dispatched so far.
    #[must_use]
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// The process-wide `seminal-obs/metrics-v1` snapshot: the merged
    /// per-request metrics, with the cross-request memo counters and
    /// server counters re-stamped from their live process totals (they
    /// are gauges/process counters, not summable per-request deltas).
    #[must_use]
    pub fn process_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.totals.lock().expect("server totals poisoned").clone();
        snap.counters.insert(keys::CROSS_REQUEST_HITS.to_owned(), self.memo.hits());
        snap.counters.insert(keys::CROSS_REQUEST_MISSES.to_owned(), self.memo.misses());
        snap.counters.insert(keys::CROSS_REQUEST_EVICTIONS.to_owned(), self.memo.evictions());
        snap.counters.insert(keys::CROSS_REQUEST_ENTRIES.to_owned(), self.memo.entries() as u64);
        snap.counters.insert(keys::SERVER_REQUESTS.to_owned(), self.requests_served());
        snap.counters.insert(keys::SERVER_SHED.to_owned(), self.admission.shed());
        snap.counters.insert(keys::SERVER_INFLIGHT.to_owned(), self.admission.inflight() as u64);
        snap.counters
            .insert(keys::SERVER_DRAIN_NS.to_owned(), self.drain_ns.load(Ordering::Relaxed));
        snap
    }

    /// Folds one request's metrics and wall-clock cost into the totals.
    fn absorb(&self, per_request: Option<&MetricsSnapshot>, request_ns: u64) {
        let mut totals = self.totals.lock().expect("server totals poisoned");
        if let Some(snap) = per_request {
            totals.merge(snap);
        }
        totals
            .histograms
            .entry(keys::SERVER_REQUEST_NS.to_owned())
            .or_default()
            .observe(request_ns);
    }

    /// Records one admitted request's queue wait.
    fn observe_queue(&self, queued: Duration) {
        let mut totals = self.totals.lock().expect("server totals poisoned");
        totals
            .histograms
            .entry(keys::SERVER_QUEUE_DEPTH_NS.to_owned())
            .or_default()
            .observe(u64::try_from(queued.as_nanos()).unwrap_or(u64::MAX));
    }
}

impl Default for ServerState {
    fn default() -> ServerState {
        ServerState::new()
    }
}

/// Front-end attachments that are not part of the wire request: trace
/// sinks (`--trace-json`) and whether to capture the record stream in
/// the report (`--trace`/`--profile`/`--trace-chrome`).
#[derive(Default)]
pub struct DispatchHooks {
    /// Sinks every trace record is streamed to.
    pub sinks: Vec<Arc<dyn TraceSink>>,
    /// Capture records in the returned report (costs memory; the wire
    /// response never carries raw records).
    pub collect_trace: bool,
}

/// A dispatched request: the wire response, plus the in-process
/// [`SearchReport`] for front ends that render more than the wire form
/// carries (`--trace`, `--profile`, `--trace-chrome`).
pub struct Dispatched {
    /// What goes on the wire.
    pub response: Response,
    /// The full report, for `check` requests that ran a search.
    pub report: Option<SearchReport>,
}

/// Serves one request against the shared state. Never panics on bad
/// input: malformed configuration comes back as an
/// [`ErrorResponse`] with [`Status::InvalidRequest`].
pub fn dispatch(state: &ServerState, request: &Request) -> Dispatched {
    dispatch_with(state, request, DispatchHooks::default())
}

/// [`dispatch`] with front-end hooks attached.
pub fn dispatch_with(state: &ServerState, request: &Request, hooks: DispatchHooks) -> Dispatched {
    state.requests.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    let dispatched = match request {
        // Work requests pass the admission gate; `metrics` and
        // `shutdown` never do — a saturated server must still answer
        // health checks and must always be stoppable.
        Request::Check(c) => match state.admission.admit(c.deadline_ms) {
            Err(retry_after_ms) => overloaded(c.id, retry_after_ms),
            Ok(permit) => {
                state.observe_queue(permit.queued());
                run_check(state, c, &hooks, permit.queued())
                // `permit` drops here: slot freed, service time fed to
                // the shed estimator.
            }
        },
        Request::Analyze(a) => match state.admission.admit(a.deadline_ms) {
            Err(retry_after_ms) => overloaded(a.id, retry_after_ms),
            Ok(permit) => {
                state.observe_queue(permit.queued());
                run_analyze(a)
            }
        },
        Request::Metrics(m) => Dispatched {
            response: Response::Metrics(MetricsResponse {
                id: m.id,
                status: Status::Ok,
                metrics: state.process_snapshot(),
            }),
            report: None,
        },
        Request::Shutdown(s) => Dispatched {
            response: Response::Shutdown(ShutdownResponse {
                id: s.id,
                status: Status::Ok,
                requests_served: state.requests_served(),
            }),
            report: None,
        },
    };
    let per_request = match &dispatched.response {
        Response::Check(r) => Some(&r.metrics),
        _ => None,
    };
    state.absorb(per_request, started.elapsed().as_nanos() as u64);
    dispatched
}

fn error_response(id: u64, status: Status, error: String) -> Dispatched {
    Dispatched { response: Response::Error(ErrorResponse { id, status, error }), report: None }
}

/// The typed load-shedding response: the request was well-formed but
/// the server is saturated; `retry_after_ms` is its own estimate of
/// when a slot frees up.
fn overloaded(id: u64, retry_after_ms: u64) -> Dispatched {
    Dispatched {
        response: Response::Overloaded(OverloadedResponse {
            id,
            status: Status::Overloaded,
            retry_after_ms,
        }),
        report: None,
    }
}

/// How a `check` request's probes relate to the shared cross-request
/// memo. Chaos-flipped verdicts are ordinary `Ok`/`Err` returns (unlike
/// panics, which always propagate uncached), so letting a chaos request
/// share the memo would cache corrupted verdicts by fingerprint and
/// replay them to later clean requests — and, in the other direction, a
/// warm memo would answer chaos probes from cache and neutralize the
/// injection. Chaos requests therefore bypass the memo entirely.
enum MemoUse<'a> {
    /// Probes go through the shared memo; the wrapper's per-request
    /// counters are stamped into the response metrics.
    Shared(&'a SharedMemoOracle<CheckpointedOracle>),
    /// Probes never touch the shared memo (chaos injection active);
    /// `oracle.real_calls` comes from the counting wrapper instead.
    Bypassed(&'a CountingOracle<ChaosOracle<CheckpointedOracle>>),
}

/// `check`: assemble the oracle (chaos injection changes its type, so
/// the session is built in a generic helper) and run the search.
fn run_check(
    state: &ServerState,
    c: &CheckRequest,
    hooks: &DispatchHooks,
    queued: Duration,
) -> Dispatched {
    let prog = match parse_program(&c.source) {
        Ok(p) => p,
        Err(e) => return error_response(c.id, Status::ParseError, e.to_string()),
    };
    // The real checker for this request: checkpointed (incremental)
    // unless the client opted out. Chaos wraps *outside* the
    // checkpointed oracle — injection decisions are a pure function of
    // rendered text and seed, so they are identical whichever inner
    // path answers the clean probes.
    let checker = CheckpointedOracle::with_enabled(!c.no_incremental);
    if c.chaos_flip > 0 || c.chaos_panic > 0 {
        let mut chaos = ChaosConfig::flips(c.chaos_seed, c.chaos_flip);
        chaos.panic_per_mille = c.chaos_panic;
        let oracle = CountingOracle::new(ChaosOracle::new(checker, chaos));
        run_search(state, c, hooks, queued, &prog, &oracle, MemoUse::Bypassed(&oracle))
    } else {
        // Every probe goes through the process-lifetime memo; a warm
        // identical request is answered without touching the real
        // oracle.
        let oracle = SharedMemoOracle::new(checker, state.memo.clone());
        run_search(state, c, hooks, queued, &prog, &oracle, MemoUse::Shared(&oracle))
    }
}

fn run_search<O: Oracle>(
    state: &ServerState,
    c: &CheckRequest,
    hooks: &DispatchHooks,
    queued: Duration,
    prog: &seminal_ml::ast::Program,
    oracle: &O,
    memo: MemoUse<'_>,
) -> Dispatched {
    let mut config =
        if c.no_triage { SearchConfig::without_triage() } else { SearchConfig::default() };
    config.collect_trace = hooks.collect_trace;
    config.guidance_backend = c.backend;
    // `threads` is accepted for v1 compatibility and validated, but has
    // no other effect: probes always run sequentially, and v1 promises
    // identical payloads at every thread count.
    if c.threads == Some(0) {
        return error_response(
            c.id,
            Status::InvalidRequest,
            ApiError::BadValue { field: "threads", why: "must be >= 1".to_owned() }.to_string(),
        );
    }
    let mut builder = SearchSession::builder(oracle).config(config);
    if let Some(ms) = c.deadline_ms {
        // Admission control: the per-request deadline becomes the
        // search `Budget`'s wall-clock bound, and time already burned
        // queuing for an admission slot is charged against it so
        // `deadline_ms` bounds *end-to-end* latency, not just search.
        builder = builder.deadline_ms(ms).admission_lag(queued);
    }
    for sink in &hooks.sinks {
        builder = builder.sink(sink.clone());
    }
    // The builder's typed validation is the admission check for every
    // field the search reads — there is deliberately no second
    // hand-rolled validator here.
    let session = match builder.build() {
        Ok(s) => s,
        Err(e) => {
            return error_response(c.id, Status::InvalidRequest, ApiError::from(e).to_string())
        }
    };
    let report = session.search(prog);

    let mut metrics = report.metrics.clone();
    let (hits, misses, evictions, real_calls) = match memo {
        // Every cross-request miss is exactly one inner-oracle
        // invocation.
        MemoUse::Shared(shared) => {
            (shared.hits(), shared.misses(), shared.evictions(), shared.misses())
        }
        MemoUse::Bypassed(counting) => (0, 0, 0, counting.calls()),
    };
    metrics.counters.insert(keys::CROSS_REQUEST_HITS.to_owned(), hits);
    metrics.counters.insert(keys::CROSS_REQUEST_MISSES.to_owned(), misses);
    metrics.counters.insert(keys::CROSS_REQUEST_EVICTIONS.to_owned(), evictions);
    metrics.counters.insert(keys::CROSS_REQUEST_ENTRIES.to_owned(), state.memo.entries() as u64);
    metrics.counters.insert(keys::ORACLE_REAL_CALLS.to_owned(), real_calls);

    let status = match &report.outcome {
        Outcome::WellTyped => Status::Ok,
        _ if report.completion.is_complete() => Status::TypeErrors,
        _ => Status::Degraded,
    };
    let response = Response::Check(Box::new(CheckResponse {
        id: c.id,
        status,
        completion: report.completion.tag().to_owned(),
        baseline: report.baseline.as_ref().map(|e| e.render(&c.source)),
        rendered: message::render_report(
            &report,
            &c.source,
            usize::try_from(c.top).unwrap_or(usize::MAX),
        ),
        payload: report
            .payload()
            .into_iter()
            .map(|(original, replacement, new_type, triaged)| PayloadEntry {
                original,
                replacement,
                new_type,
                triaged,
            })
            .collect(),
        stats: StatsSummary {
            oracle_calls: report.stats.oracle_calls,
            elapsed_ns: report.stats.elapsed.as_nanos() as u64,
            triage_used: report.stats.triage_used,
        },
        metrics,
        crash: report.crash.clone(),
    }));
    Dispatched { response, report: Some(report) }
}

/// `analyze`: oracle-free localization. Rendered with the backend's
/// own report; the status comes from the backend-agnostic
/// localization, so "error found, nothing to rank" ([`Status::NoCore`])
/// stays distinct from "localized" ([`Status::TypeErrors`]).
fn run_analyze(a: &AnalyzeRequest) -> Dispatched {
    let prog = match parse_program(&a.source) {
        Ok(p) => p,
        Err(e) => return error_response(a.id, Status::ParseError, e.to_string()),
    };
    let top = usize::try_from(a.top).unwrap_or(usize::MAX);
    let (rendered, localization) = match a.backend {
        BackendKind::Blame => match seminal_analysis::analyze(&prog) {
            None => (None, None),
            Some(analysis) => (
                Some(seminal_analysis::render_report(&analysis, &a.source, top)),
                Some(analysis.into_localization()),
            ),
        },
        BackendKind::Mcs => match seminal_analysis::analyze_mcs(&prog) {
            None => (None, None),
            Some(analysis) => (
                Some(seminal_analysis::render_mcs_report(&analysis, &a.source, top)),
                Some(analysis.into_localization()),
            ),
        },
    };
    let response = match (rendered, localization) {
        (Some(report), Some(loc)) => Response::Analyze(AnalyzeResponse {
            id: a.id,
            status: if loc.is_empty() { Status::NoCore } else { Status::TypeErrors },
            backend: a.backend,
            rendered: report,
        }),
        _ => Response::Analyze(AnalyzeResponse {
            id: a.id,
            status: Status::Ok,
            backend: a.backend,
            rendered: String::new(),
        }),
    };
    Dispatched { response, report: None }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ILL_TYPED: &str = "let x = 1 + true";

    fn check_response(state: &ServerState, request: &Request) -> CheckResponse {
        match dispatch(state, request).response {
            Response::Check(r) => *r,
            other => panic!("check answered with a non-check response: {other:?}"),
        }
    }

    /// A saturated gate answers work requests with the typed
    /// `overloaded` response — counted as served, stamped into the
    /// process snapshot — while `metrics`/`shutdown` bypass the gate.
    #[test]
    fn saturated_gate_sheds_with_a_typed_response() {
        let state = ServerState::with_config(ServerConfig {
            overload: OverloadPolicy {
                max_inflight: 1,
                // A 1s service estimate makes any small deadline doomed.
                expected_service_ns: 1_000_000_000,
                ..OverloadPolicy::default()
            },
            ..ServerConfig::default()
        });
        let held = state.admission().admit(None).expect("free gate admits");

        let doomed = Request::Check(CheckRequest {
            deadline_ms: Some(5),
            ..CheckRequest::new(9, ILL_TYPED)
        });
        match dispatch(&state, &doomed).response {
            Response::Overloaded(o) => {
                assert_eq!(o.id, 9);
                assert_eq!(o.status, Status::Overloaded);
                assert!(o.retry_after_ms > 0, "shed must carry a retry hint");
            }
            other => panic!("saturated check must shed, got {other:?}"),
        }

        // Health checks are never shed, even at saturation.
        let metrics = dispatch(
            &state,
            &Request::Metrics(crate::api::MetricsRequest { id: 10, deadline_ms: None }),
        );
        let Response::Metrics(m) = metrics.response else { panic!("metrics must bypass the gate") };
        assert_eq!(m.metrics.counter(keys::SERVER_SHED), 1);
        assert_eq!(m.metrics.counter(keys::SERVER_INFLIGHT), 1);
        assert_eq!(state.requests_served(), 2, "shed requests still count as served");
        drop(held);
    }

    /// The memo.rs invariant: a chaotic oracle must not poison verdicts
    /// for later requests. Flipped verdicts are ordinary returns, so
    /// the only safe memo interaction for a chaos request is none at
    /// all — no reads (a warm memo would neutralize the injection) and
    /// no writes (a later clean request would replay corruption).
    #[test]
    fn chaos_requests_bypass_the_shared_memo() {
        let state = ServerState::new();
        let clean = Request::Check(CheckRequest::new(1, ILL_TYPED));
        let cold = check_response(&state, &clean);
        assert!(cold.metrics.counter("oracle.real_calls") > 0);
        let warmed_entries = state.memo().entries();
        assert!(warmed_entries > 0, "the clean request must warm the memo");
        let (hits, misses) = (state.memo().hits(), state.memo().misses());

        let chaos = Request::Check(CheckRequest {
            chaos_flip: 1000,
            chaos_seed: 7,
            ..CheckRequest::new(2, ILL_TYPED)
        });
        let flipped = check_response(&state, &chaos);
        assert_eq!(flipped.metrics.counter("memo.cross_request_hits"), 0);
        assert_eq!(flipped.metrics.counter("memo.cross_request_misses"), 0);
        assert!(
            flipped.metrics.counter("oracle.real_calls") > 0,
            "every chaos probe must reach the injected oracle"
        );
        assert_eq!(state.memo().hits(), hits, "chaos must not read the shared memo");
        assert_eq!(state.memo().misses(), misses, "chaos must not probe the shared memo");
        assert_eq!(
            state.memo().entries(),
            warmed_entries,
            "chaos must not write into the shared memo"
        );

        // A later identical clean request is still answered entirely
        // from the unpoisoned memo, matching the cold payload.
        let warm = check_response(&state, &Request::Check(CheckRequest::new(3, ILL_TYPED)));
        assert_eq!(warm.metrics.counter("oracle.real_calls"), 0);
        assert_eq!(warm.payload, cold.payload);
        assert_eq!(warm.rendered, cold.rendered);
    }
}
