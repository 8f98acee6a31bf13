//! The check path: one `dispatch` per check on a fresh `ServerState`,
//! the CLI `check` path without process spawn or file I/O. Untraced runs
//! time it alone; traced runs also rebuild it from public pieces and
//! charge its time to layers.

use crate::inputs::CheckInput;
use crate::report::{metric, Metric, Outcome};
use crate::stats::{mean, median, percentile, ratio, tail_percentile};
use crate::traced::{elapsed_ns, localize_ns, recorder_search_ns, traced_check};
use crate::verify::{check_dispatched, check_response, check_variants, Answer};
use seminal_core::{CrossRequestMemo, DEFAULT_CROSS_MEMO_CAPACITY};
use seminal_ml::parser::parse_program;
use seminal_serve::{dispatch, CheckRequest, Dispatched, Request, ServerState};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dispatches one `check` of `source` on `state`, timing the call.
#[must_use]
pub fn timed_dispatch(state: &ServerState, id: u64, source: &str) -> (Dispatched, u64) {
    let request = Request::Check(CheckRequest::new(id, source));
    let clock = Instant::now();
    let dispatched = dispatch(state, &request);
    (dispatched, elapsed_ns(clock))
}

/// Latency metrics of one run.
///
/// Checks of one class do identical work (a check workload's input on a
/// fresh state; a serve problem's cold send or warm repeat of one
/// homework file), so differences between them are the host's noise,
/// not the program's. Each check is charged its class's fastest time in
/// the run, and the median and tail are taken over those (`best_ms`, one
/// value per sample). The tail is the highest percentile, up to `cap`,
/// with at least ten samples beyond it. Throughput is the closed loop's
/// at those times: `concurrency` clients, each waiting for the mean
/// class-best time per check. The unfiltered median, tail and wall-clock
/// throughput are printed as properties.
pub fn latency_metrics(
    out: &mut Outcome,
    best_ms: &[f64],
    raw_ns: &[u64],
    wall: Duration,
    cap: f64,
    concurrency: u64,
) {
    let mut best = best_ms.to_vec();
    best.sort_by(f64::total_cmp);
    let mut raw: Vec<f64> = raw_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    raw.sort_by(f64::total_cmp);
    let tail = tail_percentile(best.len(), cap).unwrap_or(50.0);
    out.metrics.push(metric("latency_p50_ms", "ms", percentile(&best, 50.0)));
    out.metrics.push(metric("latency_tail_ms", "ms", percentile(&best, tail)));
    out.metrics.push(metric("checks_per_s", "1/s", concurrency as f64 * 1e3 / mean(&best)));
    out.property("tail_percentile", tail);
    out.property("latency_samples", best.len());
    out.property("checks_timed", raw.len());
    let raw_tail = tail_percentile(raw.len(), 99.9).unwrap_or(50.0);
    out.property("raw_p50_ms", percentile(&raw, 50.0));
    out.property(&format!("raw_p{raw_tail}_ms"), percentile(&raw, raw_tail));
    out.property("raw_checks_per_s", raw.len() as f64 / wall.as_secs_f64());
}

/// Untraced run: checks `inputs` in turn, each on a fresh server state,
/// until `window` has passed; then verifies every answer.
pub fn measure(inputs: &[CheckInput], window: Duration, cap: f64, out: &mut Outcome) {
    // One untimed check first, so lazy process set-up is not charged to
    // the first sample.
    let _ = timed_dispatch(&ServerState::new(), 0, inputs[0].source());

    let mut latencies = Vec::new();
    let mut best = vec![f64::INFINITY; inputs.len()];
    let mut checks = vec![0_u64; inputs.len()];
    let mut first: Vec<Option<Dispatched>> = (0..inputs.len()).map(|_| None).collect();
    let mut drifted = vec![0_u64; inputs.len()];
    let start = Instant::now();
    let mut n: u64 = 0;
    while n == 0 || start.elapsed() < window {
        let i = (n % inputs.len() as u64) as usize;
        let state = ServerState::new();
        let (dispatched, ns) = timed_dispatch(&state, n, inputs[i].source());
        latencies.push(ns);
        best[i] = best[i].min(ns as f64 / 1e6);
        checks[i] += 1;
        match &first[i] {
            None => first[i] = Some(dispatched),
            Some(reference) => {
                if answer(reference) != answer(&dispatched) {
                    drifted[i] += 1;
                }
            }
        }
        n += 1;
    }
    let wall = start.elapsed();

    let mut located_checks = 0;
    for (i, input) in inputs.iter().enumerate() {
        let Some(reference) = &first[i] else { continue };
        match check_dispatched(&input.file, reference) {
            Ok((_, located)) => {
                if located {
                    located_checks += checks[i];
                }
                if drifted[i] > 0 {
                    out.failed += drifted[i];
                    out.failures.push(format!(
                        "{}: {} repeat(s) answered differently",
                        input.file.id, drifted[i]
                    ));
                }
            }
            Err(why) => {
                out.failed += checks[i];
                out.failures.push(format!("{}: {why}", input.file.id));
            }
        }
    }
    out.attempted = n;
    best.retain(|b| b.is_finite());
    latency_metrics(out, &best, &latencies, wall, cap, 1);
    out.metrics.push(metric("success_share", "share", 1.0 - out.failed_share()));
    out.metrics.push(metric("located_share", "share", ratio(located_checks as f64, n as f64)));

    let weighted = |f: &dyn Fn(&CheckInput) -> f64| -> f64 {
        inputs.iter().zip(&checks).map(|(input, &c)| f(input) * c as f64).sum::<f64>() / n as f64
    };
    let probes: Vec<f64> = first
        .iter()
        .flatten()
        .filter_map(|d| check_response(&d.response).ok().map(|c| c.stats.oracle_calls as f64))
        .collect();
    out.property("inputs_in_pool", inputs.len());
    out.property("inputs_checked", first.iter().flatten().count());
    out.property("probes_per_check", mean(&probes));
    out.property("decls_per_check", weighted(&|i| i.decls as f64));
    out.property("bytes_per_check", weighted(&|i| i.source().len() as f64));
}

fn answer(d: &Dispatched) -> Option<Answer> {
    check_response(&d.response).ok().map(Answer::of)
}

/// Per-check sums of every traced layer, in nanoseconds or counts.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    checks: u64,
    parse: f64,
    source_bytes: f64,
    decls: f64,
    localize: f64,
    blame_reported: f64,
    oracle: f64,
    real_calls: f64,
    decls_recheck: f64,
    incremental_hits: f64,
    memo: f64,
    search_self: f64,
    probes: f64,
    probe_passes: f64,
    suggestions: f64,
    render: f64,
    recorder: f64,
    unattributed: f64,
    total: f64,
    /// Untraced `dispatch` times and traced totals, per check.
    untraced_ns: Vec<f64>,
    traced_ns: Vec<f64>,
}

/// The serve-side layers, measured only on `serve_replay` (see
/// `serve::Replay::serve_layers`); all 0 elsewhere.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeLayers {
    pub(crate) decode_ns: f64,
    pub(crate) encode_ns: f64,
    pub(crate) server_ns: f64,
    pub(crate) transport_ns: f64,
    pub(crate) queue_ns: f64,
    pub(crate) memo_hit_share: f64,
    pub(crate) memo_entries: f64,
    pub(crate) memo_evictions: f64,
}

impl Layers {
    /// The self times that must add up to the traced total.
    fn parts(&self) -> [(&'static str, f64); 8] {
        [
            ("ml.parse_ns", self.parse),
            ("analysis.localize_ns", self.localize),
            ("typeck.oracle_ns", self.oracle),
            ("core.memo_ns", self.memo),
            ("core.search_self_ns", self.search_self),
            ("obs.recorder_ns", self.recorder),
            ("core.render_ns", self.render),
            ("unattributed_ns", self.unattributed),
        ]
    }

    /// Sum of the self times minus the traced total, as a share of it.
    /// Zero up to rounding when the layers reconcile.
    #[must_use]
    pub fn reconcile_error(&self) -> f64 {
        let sum: f64 = self.parts().iter().map(|(_, v)| v).sum();
        ratio(sum - self.total, self.total)
    }

    /// Every per-layer metric, as means per traced check.
    #[must_use]
    pub fn metrics(&self, serve: &ServeLayers) -> Vec<Metric> {
        let n = self.checks.max(1) as f64;
        let per = |v: f64| v / n;
        let overhead = ratio(median(&self.traced_ns), median(&self.untraced_ns)) - 1.0;
        vec![
            metric("ml.parse_ns", "ns", per(self.parse)),
            metric("ml.source_bytes", "bytes", per(self.source_bytes)),
            metric("ml.decls", "count", per(self.decls)),
            metric("analysis.localize_ns", "ns", per(self.localize)),
            metric("analysis.blame_ns", "ns", per(self.blame_reported)),
            metric("typeck.oracle_ns", "ns", per(self.oracle)),
            metric("typeck.real_calls", "count", per(self.real_calls)),
            metric("typeck.ns_per_call", "ns", ratio(self.oracle, self.real_calls)),
            metric("typeck.decls_recheck", "count", per(self.decls_recheck)),
            metric("typeck.recheck_per_call", "count", ratio(self.decls_recheck, self.real_calls)),
            metric(
                "typeck.incremental_hit_share",
                "share",
                ratio(self.incremental_hits, self.real_calls),
            ),
            metric("core.memo_ns", "ns", per(self.memo)),
            metric("core.search_self_ns", "ns", per(self.search_self)),
            metric("core.probes", "count", per(self.probes)),
            metric("core.probe_pass_share", "share", ratio(self.probe_passes, self.probes)),
            metric("core.suggestions", "count", per(self.suggestions)),
            metric("core.render_ns", "ns", per(self.render)),
            metric("obs.recorder_ns", "ns", per(self.recorder)),
            metric("serve.decode_ns", "ns", serve.decode_ns),
            metric("serve.encode_ns", "ns", serve.encode_ns),
            metric("serve.server_ns", "ns", serve.server_ns),
            metric("serve.transport_ns", "ns", serve.transport_ns),
            metric("serve.queue_ns", "ns", serve.queue_ns),
            metric("serve.memo_hit_share", "share", serve.memo_hit_share),
            metric("serve.memo_entries", "count", serve.memo_entries),
            metric("serve.memo_evictions", "count", serve.memo_evictions),
            metric("unattributed_ns", "ns", per(self.unattributed)),
            metric("trace.total_ns", "ns", per(self.total)),
            metric("trace.overhead_share", "share", overhead),
        ]
    }

    /// The per-layer table: each self time per check and its share of
    /// the traced total.
    #[must_use]
    pub fn table(&self) -> String {
        let n = self.checks.max(1) as f64;
        let mut out = format!("per-layer self time, mean of {} traced checks\n", self.checks);
        for (name, v) in self.parts().into_iter().chain([("trace.total_ns", self.total)]) {
            let share = 100.0 * ratio(v, self.total);
            let _ = writeln!(out, "  {name:<30} {:>16.1} ns {share:5.1}%", v / n);
        }
        out
    }
}

/// Memos of one traced run: the traced pipeline's, and one each for
/// the recorder-on and recorder-off searches, so that all three see the
/// same sequence of requests.
struct Memos {
    traced: Arc<CrossRequestMemo>,
    recorder_on: Arc<CrossRequestMemo>,
    recorder_off: Arc<CrossRequestMemo>,
}

impl Memos {
    fn new() -> Memos {
        let memo = || Arc::new(CrossRequestMemo::new(DEFAULT_CROSS_MEMO_CAPACITY));
        Memos { traced: memo(), recorder_on: memo(), recorder_off: memo() }
    }
}

/// One input of a traced run: a verification key (inputs with the same
/// key answer the same way) and the source to check.
pub struct Job {
    /// Inputs sharing a key are verified once.
    pub key: usize,
    /// Program text.
    pub source: String,
}

/// Traced run over `next(i)` for `window`. With `shared` the server
/// state and memos persist across checks, as in the daemon; otherwise
/// every check starts fresh, as in the CLI.
///
/// Every traced check must reproduce `dispatch`'s payload, rendered
/// report, `oracle_calls` and `oracle.real_calls` exactly; each
/// mismatch, and each failed verification, counts as a failed check.
pub fn traced(
    window: Duration,
    shared: bool,
    mut next: impl FnMut(u64) -> Job,
    out: &mut Outcome,
) -> Layers {
    let mut layers = Layers::default();
    let mut state = ServerState::new();
    let mut memos = Memos::new();
    let mut verdicts: HashMap<usize, Result<(), String>> = HashMap::new();
    let start = Instant::now();
    let mut n: u64 = 0;
    while n == 0 || start.elapsed() < window {
        let job = next(n);
        if !shared {
            state = ServerState::new();
            memos = Memos::new();
        }
        let (dispatched, untraced_ns) = timed_dispatch(&state, n, &job.source);
        let trace = traced_check(&job.source, &memos.traced);
        let prog = parse_program(&job.source).expect("benchmark inputs parse");
        // Alternate which search runs first so neither side is always
        // the one that finds warm caches.
        let (on, off) = if n.is_multiple_of(2) {
            let on = recorder_search_ns(&prog, &memos.recorder_on, true);
            (on, recorder_search_ns(&prog, &memos.recorder_off, false))
        } else {
            let off = recorder_search_ns(&prog, &memos.recorder_off, false);
            (recorder_search_ns(&prog, &memos.recorder_on, true), off)
        };
        let localize = localize_ns(&prog) as f64;

        let verdict = verdicts.entry(job.key).or_insert_with(|| {
            check_response(&dispatched.response)?;
            check_variants(dispatched.report.as_ref().ok_or("check ran no search")?)
        });
        let reproduced = match check_response(&dispatched.response) {
            Ok(check) => {
                check.payload == trace.payload
                    && check.rendered == trace.rendered
                    && check.stats.oracle_calls == trace.oracle_calls
                    && check.metrics.counter("oracle.real_calls") == trace.real_calls
            }
            Err(_) => false,
        };
        if let Err(why) = verdict {
            out.failed += 1;
            out.failures.push(format!("job {n} (key {}): {why}", job.key));
        } else if !reproduced {
            out.failed += 1;
            out.failures
                .push(format!("job {n} (key {}): traced pipeline differs from dispatch", job.key));
        }

        let recorder = on as f64 - off as f64;
        let (search, above) = (trace.search_ns as f64, trace.above_memo_ns as f64);
        layers.checks += 1;
        layers.parse += trace.parse_ns as f64;
        layers.source_bytes += job.source.len() as f64;
        layers.decls += prog.decls.len() as f64;
        layers.localize += localize;
        layers.blame_reported += trace.blame_ns as f64;
        layers.oracle += trace.oracle_ns as f64;
        layers.real_calls += trace.real_calls as f64;
        layers.decls_recheck += trace.decls_recheck as f64;
        layers.incremental_hits += trace.incremental_hits as f64;
        layers.memo += above - trace.oracle_ns as f64;
        layers.search_self += search - above - localize - recorder;
        layers.probes += trace.probes as f64;
        layers.probe_passes += trace.probe_passes as f64;
        layers.suggestions += trace.suggestions as f64;
        layers.render += trace.render_ns as f64;
        layers.recorder += recorder;
        layers.unattributed +=
            (trace.total_ns as f64) - trace.parse_ns as f64 - search - trace.render_ns as f64;
        layers.total += trace.total_ns as f64;
        layers.untraced_ns.push(untraced_ns as f64);
        layers.traced_ns.push(trace.total_ns as f64);
        n += 1;
    }
    out.attempted += n;
    layers
}
