//! Tier-1 fuzzing gate: replay the golden regression corpus and run a
//! short clean campaign on every `cargo test -q`.
//!
//! The heavyweight campaigns live in CI (50-case release smoke per run,
//! 500-case nightly matrix); this gate keeps the corpus and the
//! invariant catalog on the default test path.

use seminal::testkit::golden::{default_dir, load_corpus};
use seminal::testkit::{run_cpp_fuzz, run_fuzz, CppFuzzConfig, FuzzConfig, GoldenKind};
use seminal::typeck::ChaosConfig;

#[test]
fn golden_corpus_replays_clean() {
    let corpus = load_corpus(&default_dir()).expect("checked-in corpus loads");
    assert!(corpus.entries.len() >= 10, "corpus has only {} entries", corpus.entries.len());
    assert!(
        corpus.entries.iter().any(|e| matches!(e.kind, GoldenKind::Caught { .. })),
        "corpus must include a chaos-interaction regression"
    );
    let problems = corpus.replay();
    assert!(problems.is_empty(), "golden corpus deviations:\n{}", problems.join("\n"));
}

#[test]
fn short_fuzz_campaigns_run_clean_on_both_front_ends() {
    let caml = run_fuzz(&FuzzConfig::new(42, 15));
    assert!(caml.ok(), "Caml campaign failures: {:#?}", caml.failures);
    assert!(caml.executed > 0, "no Caml case executed");
    let cpp = run_cpp_fuzz(&CppFuzzConfig::new(42, 15));
    assert!(cpp.ok(), "C++ campaign failures: {:#?}", cpp.failures);
    assert!(cpp.executed > 0, "no C++ case executed");
}

#[test]
fn injected_verdict_flips_are_caught() {
    // The invariants must keep their teeth: with every oracle verdict
    // inverted, a short campaign cannot come back clean.
    let cfg = FuzzConfig { chaos: Some(ChaosConfig::flips(1729, 1000)), ..FuzzConfig::new(42, 4) };
    let summary = run_fuzz(&cfg);
    assert!(!summary.ok(), "total verdict inversion went unnoticed");
}
