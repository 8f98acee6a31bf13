//! The repository's benchmark: four workloads of the search-based
//! type-error message system, measured end to end and, in a separate
//! traced run of the same inputs, layer by layer.
//!
//! Every layer is timed from outside, around calls into public
//! functions; nothing inside the program is instrumented. See
//! `perfbench/NOTES.md` for the metrics, the workloads and why each was
//! chosen.

pub mod checks;
pub mod inputs;
pub mod report;
pub mod serve;
pub mod stats;
pub mod traced;
pub mod verify;

use checks::{measure, traced, Job, ServeLayers};
use inputs::{CheckInput, Workload};
use report::{metric, peak_rss_mb, Outcome};
use seminal_serve::{ServeOptions, ServerState};
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Environment variables that change the search's default configuration
/// (`SearchConfig::default()` reads them): a stray value would switch
/// the parallel engine on or degrade searches, so the benchmark refuses
/// to run while either is set.
pub const PINNED_ENV: [&str; 2] = ["SEMINAL_THREADS", "SEMINAL_DEADLINE_MS"];

/// Times the inputs are set up in one run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// The first pinned variable that is set, if any.
#[must_use]
pub fn stray_env() -> Option<&'static str> {
    PINNED_ENV.into_iter().find(|v| std::env::var_os(v).is_some())
}

/// The inputs of a check workload.
#[must_use]
pub fn check_inputs(workload: Workload, seed: u64) -> Vec<CheckInput> {
    match workload {
        Workload::Homework | Workload::ServeReplay => inputs::homework(seed),
        Workload::LongFile => inputs::long_file(seed),
        Workload::WideExpr => inputs::wide_expr(seed),
    }
}

/// Runs `workload` on the inputs of `seed` for `window`: untraced it
/// reports the end-to-end metrics, traced the per-layer ones. Set-up is
/// repeated `setup_repeats` times and `setup_s` is the median.
///
/// # Errors
///
/// Transport failures of `serve_replay`.
pub fn run(
    workload: Workload,
    seed: u64,
    window: Duration,
    trace: bool,
    setup_repeats: usize,
) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    out.property("workload", workload.name());
    out.property("seed", seed);
    out.property("traced", trace);
    out.property(
        "nproc",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
    );
    out.property("search_threads", 1);
    let mut setups = Vec::with_capacity(setup_repeats);
    if workload == Workload::ServeReplay {
        serve_replay(seed, window, trace, setup_repeats, &mut setups, &mut out)?;
    } else {
        let mut pool = Vec::new();
        for _ in 0..setup_repeats.max(1) {
            let clock = Instant::now();
            pool = check_inputs(workload, seed);
            setups.push(clock.elapsed().as_secs_f64());
        }
        out.property("connections", 0);
        if trace {
            let next = |n: u64| {
                let key = (n % pool.len() as u64) as usize;
                Job { key, source: pool[key].source().to_owned() }
            };
            let layers = traced(window, false, next, &mut out);
            layers_out(&layers, &ServeLayers::default(), &mut out);
        } else {
            measure(&pool, window, workload.tail_cap(), &mut out);
        }
        let notes: Vec<&str> =
            pool.iter().map(|i| i.note.as_str()).filter(|n| !n.is_empty()).collect();
        if !notes.is_empty() {
            out.property("input_notes", notes.join(" "));
        }
    }
    out.property("failed_share", out.failed_share());
    if !trace {
        out.metrics.push(metric("peak_rss_mb", "MiB", peak_rss_mb()));
        out.metrics.push(metric("setup_s", "s", stats::median(&setups)));
    }
    Ok(out)
}

fn layers_out(layers: &checks::Layers, serve: &ServeLayers, out: &mut Outcome) {
    out.metrics = layers.metrics(serve);
    out.property("reconcile_error_share", layers.reconcile_error());
    out.table = Some(layers.table());
}

/// `serve_replay`: set-up (inputs, bind, start, first answer) repeated,
/// the last server kept for the measured replay.
fn serve_replay(
    seed: u64,
    window: Duration,
    trace: bool,
    repeats: usize,
    setups: &mut Vec<f64>,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let options = ServeOptions::default();
    for rep in 0..repeats.max(1) {
        let clock = Instant::now();
        let corpus = inputs::homework(seed);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let state = ServerState::new();
        std::thread::scope(|scope| -> std::io::Result<()> {
            let mut server = serve::start(scope, &state, &options, &listener)?;
            setups.push(clock.elapsed().as_secs_f64());
            let measured = if rep + 1 < repeats.max(1) {
                Ok(())
            } else if trace {
                replay_traced(&mut server, seed, &corpus, window, out)
            } else {
                replay(&mut server, seed, &corpus, window, out)
            };
            let stopped = server.stop();
            measured.and(stopped)
        })?;
    }
    Ok(())
}

fn replay(
    server: &mut serve::Server<'_>,
    seed: u64,
    corpus: &[CheckInput],
    window: Duration,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let references = serve::references(corpus);
    let replay = server.replay(seed, corpus, &references, window, false)?;
    let located = replay.verify(corpus, &references, out);
    let best = replay.best_ms(corpus.len());
    checks::latency_metrics(
        out,
        &best,
        &replay.rtt_ns,
        replay.wall,
        Workload::ServeReplay.tail_cap(),
        serve::CLIENTS,
    );
    out.metrics.push(metric("success_share", "share", 1.0 - out.failed_share()));
    out.metrics.push(metric("located_share", "share", located));
    Ok(())
}

/// Half the window replays over TCP for the serve layers; the other half
/// replays the same interleaved request sequence in process through the
/// traced pipeline, against `dispatch` on a state fed in the same order.
fn replay_traced(
    server: &mut serve::Server<'_>,
    seed: u64,
    corpus: &[CheckInput],
    window: Duration,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let references = serve::references(corpus);
    let replay = server.replay(seed, corpus, &references, window / 2, true)?;
    replay.verify(corpus, &references, out);
    let serve_layers = replay.serve_layers();
    let layers = traced(window / 2, true, serve::interleaved(seed, corpus), out);
    layers_out(&layers, &serve_layers, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names listed in `BENCHMARK.json` between `section` and the
    /// next top-level key (or the end of the file).
    fn listed(spec: &str, section: &str) -> Vec<String> {
        let start = spec.find(&format!("\"{section}\"")).expect("section present");
        let rest = &spec[start..];
        let end = rest[1..].find("\n  \"").map_or(rest.len(), |i| i + 1);
        rest[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("closing quote").to_owned())
            .collect()
    }

    /// A tiny run of every workload, untraced and traced, checks at least
    /// one input, fails none, and reports exactly the metrics the
    /// benchmark definition lists, in its order.
    #[test]
    fn every_workload_smoke_run_is_clean() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let end_to_end = listed(&spec, "end_to_end");
        let per_layer = listed(&spec, "per_layer");
        assert_eq!(end_to_end.len(), 7);
        for name in listed(&spec, "workloads") {
            assert!(Workload::parse(&name).is_some(), "BENCHMARK.json lists unknown {name}");
        }
        for workload in Workload::ALL {
            for trace in [false, true] {
                let out =
                    run(workload, 7, Duration::from_millis(1), trace, 1).expect("run completes");
                assert!(out.attempted >= 1, "{} checked nothing", workload.name());
                assert_eq!(out.failed, 0, "{} failures: {:?}", workload.name(), out.failures);
                let names: Vec<String> = out.metrics.iter().map(|m| m.name.to_owned()).collect();
                assert_eq!(
                    names,
                    *if trace { &per_layer } else { &end_to_end },
                    "{}",
                    workload.name()
                );
                assert!(out.result_line().starts_with("{\"correct\": true"));
            }
        }
    }
}
