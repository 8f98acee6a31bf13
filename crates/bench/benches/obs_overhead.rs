//! Tracing-overhead bench: the cost of the observability layer on the
//! Figure-5 bench set, in five configurations.
//!
//! Every search runs over a fresh `CheckpointedOracle`, the incremental
//! oracle `seminal serve` builds per request, so the overhead is
//! measured against the oracle cost users actually pay (a chain seeded
//! by another program would fall back to scratch checks).
//!
//! * `tracing_disabled` — the bare searcher: no sinks, no capture, and
//!   the flight recorder explicitly off. The tracer is inert (no clock
//!   reads, no allocation for targets); only the always-on metric
//!   counters and the per-probe latency measurement remain. This is the
//!   reference the < 2% overhead budget (DESIGN.md §9) applies to.
//! * `flight_ring` — the *default production path*: the always-on
//!   flight recorder's fixed-capacity ring as the only sink. Held to the
//!   same < 2% budget, since every user pays for it by default.
//! * `null_sink` — tracer enabled, records built and discarded: the
//!   marginal cost of record construction.
//! * `memory_capture` — `collect_trace`, ring-buffer capture.
//! * `jsonl_stream` — records serialized to an `io::sink()` writer.
//!
//! Run with `OBS_OVERHEAD_ASSERT=1` to fail if the null-sink or
//! flight-ring configuration exceeds the disabled one by more than 2%
//! (left off by default: sub-percent wall-clock comparisons are too
//! noisy for CI).

use seminal_bench::bench_corpus;
use seminal_core::{SearchConfig, SearchSession};
use seminal_ml::ast::Program;
use seminal_ml::parser::parse_program;
use seminal_obs::{JsonlSink, NullSink, TraceSink};
use seminal_typeck::CheckpointedOracle;
use std::sync::Arc;
use std::time::Instant;

/// One measured configuration: the search settings plus an optional
/// extra sink.
struct Setup {
    config: SearchConfig,
    sink: Option<Arc<dyn TraceSink>>,
}

impl Setup {
    fn new(config: SearchConfig, sink: Option<Arc<dyn TraceSink>>) -> Setup {
        Setup { config, sink }
    }

    /// Searches `prog` on a session built around a fresh oracle.
    fn search(&self, prog: &Program) -> u64 {
        let mut builder =
            SearchSession::builder(CheckpointedOracle::new()).config(self.config.clone());
        if let Some(sink) = &self.sink {
            builder = builder.sink(Arc::clone(sink));
        }
        builder.build().unwrap().search(prog).stats.oracle_calls
    }
}

/// Mean nanoseconds per corpus sweep over `iters` timed runs (after one
/// warmup sweep).
fn measure(iters: u32, progs: &[Program], setup: &Setup) -> u64 {
    let sweep = || progs.iter().map(|p| setup.search(p)).sum::<u64>();
    std::hint::black_box(sweep());
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(sweep());
    }
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX) / u64::from(iters)
}

fn main() {
    let corpus = bench_corpus();
    let progs: Vec<Program> = corpus.iter().filter_map(|f| parse_program(&f.source).ok()).collect();
    assert!(!progs.is_empty());
    let iters = 5;

    let recorder_off = SearchConfig { flight_recorder: false, ..SearchConfig::default() };
    let disabled = Setup::new(recorder_off.clone(), None);
    // The out-of-the-box default: flight recorder on, nothing else.
    let flight = Setup::new(SearchConfig::default(), None);
    let null_sink = Setup::new(recorder_off.clone(), Some(Arc::new(NullSink)));
    let capture = Setup::new(SearchConfig { collect_trace: true, ..recorder_off.clone() }, None);
    let jsonl = Setup::new(recorder_off, Some(Arc::new(JsonlSink::new(std::io::sink()))));

    println!("== obs_overhead ({} files, {iters} sweeps each) ==", progs.len());
    // One discarded sweep so the first measured configuration does not
    // absorb whole-process warmup (allocator growth, page faults).
    std::hint::black_box(measure(1, &progs, &disabled));
    let base_ns = measure(iters, &progs, &disabled);
    println!("tracing_disabled   mean {:>12} ns/sweep   (reference)", base_ns);
    for (name, setup) in [
        ("flight_ring", &flight),
        ("null_sink", &null_sink),
        ("memory_capture", &capture),
        ("jsonl_stream", &jsonl),
    ] {
        let ns = measure(iters, &progs, setup);
        let overhead_milli = (ns.saturating_sub(base_ns)) * 1000 / base_ns.max(1);
        println!(
            "{name:<18} mean {ns:>12} ns/sweep   (+{}.{}%)",
            overhead_milli / 10,
            overhead_milli % 10
        );
    }

    if std::env::var_os("OBS_OVERHEAD_ASSERT").is_some() {
        for (name, setup) in [("null_sink", &null_sink), ("flight_ring", &flight)] {
            let ns = measure(iters, &progs, setup);
            assert!(
                ns.saturating_sub(base_ns) * 50 <= base_ns,
                "{name} tracing overhead above 2%: {ns} vs {base_ns} ns/sweep"
            );
        }
        println!("overhead budget: OK (within 2%)");
    }
}
