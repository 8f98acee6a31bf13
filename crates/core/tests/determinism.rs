//! The search's determinism contract, as an executable specification:
//! the same input searched twice reports the same suggestions in the
//! same ranks with the same trace shape and probe accounting, and the
//! trace satisfies the structural invariants. Probes run one at a time
//! in the order the search decides them, so nothing about a run may
//! depend on timing — even under seeded fault injection.

use seminal_core::obs::{check_invariants, EventKind, SpanKind, TraceRecord};
use seminal_core::{Outcome, SearchConfig, SearchReport, SearchSession};
use seminal_ml::parser::parse_program;
use seminal_typeck::{ChaosConfig, ChaosOracle, TypeCheckOracle};

const SCENARIOS: &[(&str, &str)] = &[
    (
        "figure2",
        "let map2 f aList bList = List.map (fun (a, b) -> f a b) (List.combine aList bList)\n\
         let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n\
         let ans = List.filter (fun x -> x == 0) lst\n",
    ),
    (
        "figure8",
        "let add str lst = if List.mem str lst then lst else str :: lst\n\
         let vList1 = [\"a\"]\n\
         let s = \"b\"\n\
         let r = add vList1 s\n",
    ),
    (
        "multi_error_triage",
        "let go () =\n\
         let x = 3 + true in\n\
         let a = 1 + 2 in\n\
         let b = a * 3 in\n\
         let c = 4 + \"hi\" in\n\
         b + c\n",
    ),
    (
        "figure4_match",
        "let f x y =\n\
         match (x, y) with\n\
           0, [] -> []\n\
         | n, [] -> n\n\
         | _, 5 -> 5 + \"hi\"\n",
    ),
    ("list_comma", "let total = List.fold_left (fun a b -> a + b) 0 [1, 2, 3]"),
    ("unbound_variable", "let f x = print x; x + 1"),
    ("missing_rec", "let fact n = if n = 0 then 1 else n * fact (n - 1)"),
];

fn run(src: &str) -> SearchReport {
    let prog = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}"));
    SearchSession::builder(TypeCheckOracle::new())
        .config(SearchConfig { collect_trace: true, ..SearchConfig::default() })
        .build()
        .unwrap()
        .search(&prog)
}

/// One step of a trace's shape: what was recorded, without timestamps
/// or latencies (which vary run to run).
#[derive(Debug, PartialEq, Eq)]
enum Step {
    Open(u64, Option<u64>, SpanKind),
    Probe(u64, String, String, bool, bool),
    Prefix(u64, u32),
    Close(u64),
}

fn shape(report: &SearchReport) -> Vec<Step> {
    report
        .records
        .iter()
        .map(|rec| match rec {
            TraceRecord::Open { id, parent, kind, .. } => Step::Open(*id, *parent, kind.clone()),
            TraceRecord::Event {
                parent,
                kind: EventKind::OracleProbe { probe, target, outcome, faulted, .. },
                ..
            } => Step::Probe(
                *parent,
                probe.metric_key().to_owned(),
                target.clone(),
                *outcome,
                *faulted,
            ),
            TraceRecord::Event {
                parent,
                kind: EventKind::PrefixLocalized { first_bad, .. },
                ..
            } => Step::Prefix(*parent, *first_bad),
            TraceRecord::Close { id, .. } => Step::Close(*id),
        })
        .collect()
}

#[test]
fn repeated_searches_report_identical_payloads_ranks_and_trace_shape() {
    for (name, src) in SCENARIOS {
        let (a, b) = (run(src), run(src));
        assert_eq!(a.payload(), b.payload(), "{name}: suggestion set or ranks changed");
        assert_eq!(
            std::mem::discriminant(&a.outcome),
            std::mem::discriminant(&b.outcome),
            "{name}: outcome changed"
        );
        assert_eq!(a.completion, b.completion, "{name}");
        assert_eq!(a.stats.oracle_calls, b.stats.oracle_calls, "{name}");
        assert_eq!(a.stats.triage_used, b.stats.triage_used, "{name}");
        assert_eq!(a.stats.first_bad_decl, b.stats.first_bad_decl, "{name}");
        assert_eq!(shape(&a), shape(&b), "{name}: trace shape changed");
    }
}

#[test]
fn trace_invariants_hold_and_every_probe_is_one_event() {
    for (name, src) in SCENARIOS {
        let report = run(src);
        check_invariants(&report.records).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.records.iter().all(|r| r.thread() == 0), "{name}: one track only");
        let probes = report
            .records
            .iter()
            .filter(|r| matches!(r, TraceRecord::Event { kind: EventKind::OracleProbe { .. }, .. }))
            .count() as u64;
        assert_eq!(probes, report.stats.oracle_calls, "{name}");
    }
}

#[test]
fn well_typed_input_costs_exactly_one_check() {
    let report = run("let x = 1 + 2\nlet y = x * 3\n");
    assert!(matches!(report.outcome, Outcome::WellTyped));
    assert_eq!(report.stats.oracle_calls, 1, "one baseline check, nothing else");
}

#[test]
fn determinism_survives_seeded_fault_injection() {
    // Injections are keyed by program text, so the same variants fault
    // on every run: payloads, completion status, and the probe
    // accounting (`oracle_calls`, `probe_faults`) must all repeat
    // exactly.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for (name, src) in SCENARIOS {
        let prog = parse_program(src).unwrap();
        let run = || {
            let oracle = ChaosOracle::new(TypeCheckOracle::new(), ChaosConfig::panics(1729, 100));
            SearchSession::builder(oracle).build().unwrap().search(&prog)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.payload(), b.payload(), "{name}: payload");
        assert_eq!(a.completion, b.completion, "{name}: completion");
        assert_eq!(
            (a.stats.oracle_calls, a.stats.probe_faults),
            (b.stats.oracle_calls, b.stats.probe_faults),
            "{name}: probe accounting"
        );
    }
    std::panic::set_hook(prev);
}
