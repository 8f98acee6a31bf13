//! Chaos suite for the C++ front end: seeded, index-keyed panic
//! injection into the checker must degrade the search gracefully — an
//! honest fault count, the same payload however many threads search at
//! once, and no faulted probe ever accepted as a fix.

use seminal_cpp::{parse_cpp, CppChaos, CppReport, CppSearchSession};
use seminal_obs::Completion;
use std::sync::Once;
use std::time::{Duration, Instant};

mod common;
use common::SCENARIOS;

/// Silences the expected `"chaos"`-marked injected panics; everything
/// else still prints. Global and installed once, as hooks are global.
fn quiet_chaos_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("chaos"))
                .or_else(|| info.payload().downcast_ref::<String>().map(|s| s.contains("chaos")))
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

fn run_chaotic(src: &str, seed: u64) -> CppReport {
    quiet_chaos_panics();
    let prog = parse_cpp(src).unwrap_or_else(|e| panic!("parse: {e}"));
    CppSearchSession::builder()
        .chaos(CppChaos { seed, panic_per_mille: 100 })
        .build()
        .unwrap()
        .search(&prog)
}

#[test]
fn chaotic_cpp_searches_finish_with_honest_fault_counts() {
    let mut faulted_somewhere = false;
    for (name, src) in SCENARIOS {
        for seed in [1, 7, 42] {
            let report = run_chaotic(src, seed);
            match report.completion {
                Completion::Complete => {
                    assert_eq!(report.probe_faults, 0, "{name}/{seed}: hidden faults");
                }
                Completion::Degraded { faults } => {
                    assert!(faults > 0, "{name}/{seed}: degraded with zero faults");
                    assert_eq!(faults, report.probe_faults, "{name}/{seed}");
                    faulted_somewhere = true;
                }
                other => panic!("{name}/{seed}: unexpected completion {other}"),
            }
            assert_eq!(
                report.metrics.counter("probe_faults"),
                report.probe_faults,
                "{name}/{seed}: metrics disagree with the report"
            );
        }
    }
    assert!(faulted_somewhere, "a 10% panic rate never fired across the suite");
}

#[test]
fn chaotic_cpp_payloads_are_identical_across_thread_counts() {
    // Injection is keyed by probe index and the probe list is fixed
    // before any verdict lands, so the same probes fault however many
    // searches share the machine's workers at once.
    let key = |r: &CppReport| (r.payload(), r.completion, r.probe_faults, r.oracle_calls);
    for (name, src) in SCENARIOS {
        let base = key(&run_chaotic(src, 42));
        for threads in [1, 2, 8] {
            std::thread::scope(|scope| {
                for caller in
                    (0..threads).map(|_| scope.spawn(|| run_chaotic(src, 42))).collect::<Vec<_>>()
                {
                    let par = key(&caller.join().expect("caller thread panicked"));
                    assert_eq!(
                        base, par,
                        "{name}: payload, completion, faults or calls at {threads} threads"
                    );
                }
            });
        }
    }
}

#[test]
fn faulted_cpp_probes_stay_out_of_the_latency_histogram() {
    for (name, src) in SCENARIOS {
        let report = run_chaotic(src, 42);
        let observed = report.metrics.histograms.get("oracle.latency_ns").map_or(0, |h| h.count);
        assert_eq!(observed, report.oracle_calls, "{name}: histogram must hold real checks only");
    }
}

#[test]
fn cpp_deadline_expiry_degrades_without_leaking_workers() {
    for (name, src) in SCENARIOS {
        let prog = parse_cpp(src).unwrap();
        let started = Instant::now();
        let report = CppSearchSession::builder()
            .deadline(Some(Duration::from_nanos(1)))
            .build()
            .unwrap()
            .search(&prog);
        assert_eq!(report.completion, Completion::DeadlineExpired, "{name}: a 1ns deadline");
        assert!(started.elapsed() < Duration::from_secs(10), "{name}: workers did not stop");
        // Degraded runs still carry the baseline diagnosis.
        assert!(!report.baseline.is_empty(), "{name}: baseline must survive expiry");
    }
}
