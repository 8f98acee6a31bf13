//! # seminal-obs — observability substrate for the search system
//!
//! The paper's evaluation (§3, Figures 5–7) is an accounting exercise —
//! oracle calls, search time, suggestion quality per program — and the
//! ROADMAP's production goal needs the same numbers continuously. This
//! crate is the measurement layer every other crate reports through:
//!
//! * [`trace`] — hierarchical structured tracing: typed span/event
//!   records with parent/child nesting and monotonic timestamps, behind
//!   a pluggable [`TraceSink`] (in-memory ring buffer, JSONL writer,
//!   null). The same [`MemorySink`] ring serves as the searcher's
//!   always-on flight recorder of the most recent records;
//! * [`metrics`] — counters and power-of-two latency histograms with a
//!   stable, schema-versioned JSON snapshot
//!   ([`metrics::SCHEMA`]) whose decoder rejects unknown fields;
//! * [`crash`] — versioned crash reports bundling the flight-recorder
//!   tail with the final metrics snapshot for post-mortem replay;
//! * [`chrome`] — renders a captured trace as a Chrome `trace_event`
//!   document (one track per emitting thread) for `chrome://tracing`/Perfetto;
//! * [`baseline`] — the perf-trend gate comparing a snapshot against a
//!   committed baseline under counter/time tolerances;
//! * [`profile`] — attributes cumulative oracle cost to source spans and
//!   prints a text "flame" report;
//! * [`json`] — the dependency-free JSON layer underneath both (the
//!   workspace builds with zero network access).
//!
//! Design constraints, in order: **zero overhead when off** (a disabled
//! [`Tracer`] does no clock reads or allocation; the searcher's
//! always-on metrics are two clock reads and a couple of map bumps per
//! oracle call, where each oracle call is a full type-check), **no
//! dependencies** (usable from `seminal-typeck` up to the CLI without
//! cycles), and **stable artifacts** (the snapshot schema is versioned
//! and round-trip-checked in CI).

pub mod baseline;
pub mod chrome;
pub mod completion;
pub mod crash;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use baseline::{extract_snapshot, regressions, Tolerance};
pub use chrome::chrome_trace;
pub use completion::Completion;
pub use crash::CrashReport;
pub use json::{parse as parse_json, Json, JsonError};
pub use metrics::{keys, Histogram, MetricsSnapshot, SCHEMA};
pub use profile::{profile, render as render_profile, ProfileNode, SpanProfile};
pub use trace::{
    check_invariants, EventKind, JsonlSink, MemorySink, NullSink, ProbeKind, SpanKind, SrcSpan,
    TraceError, TraceRecord, TraceSink, Tracer,
};

/// FNV-1a (64-bit) over raw bytes: the one content hash of the
/// workspace — program fingerprints, memo shard selection, text-keyed
/// chaos injection, and crash-report file names all use it, so they
/// agree byte-for-byte and stay stable across processes (no
/// `RandomState`).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The SplitMix64 increment (2^64 / φ, rounded to odd): the Weyl step
/// of [`splitmix64`], also used to spread indices into independent seeds.
pub const SPLITMIX64_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One step of SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): advances
/// `state` by [`SPLITMIX64_GAMMA`] and returns the avalanche-mixed
/// result — the one mixer behind the corpus PRNG and both chaos layers.
#[inline]
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX64_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn splitmix64_matches_the_published_test_vectors() {
        // Reference outputs for seed 1234567.
        let mut state = 1_234_567;
        assert_eq!(super::splitmix64(&mut state), 6_457_827_717_110_365_317);
        assert_eq!(super::splitmix64(&mut state), 3_203_168_211_198_807_973);
        assert_eq!(state, super::SPLITMIX64_GAMMA.wrapping_mul(2).wrapping_add(1_234_567));
    }
}
