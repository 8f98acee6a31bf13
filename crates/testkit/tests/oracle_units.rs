//! Unit tests for each invariant oracle on hand-built known-violating
//! inputs.
//!
//! The fuzz campaigns exercise the catalog against live searches; these
//! tests instead take one genuine [`SearchReport`] and surgically break
//! it — a flipped outcome, a corrupted variant, a miscounted probe —
//! asserting that exactly the targeted oracle fires. That proves the
//! oracles have teeth independently of whether the search ever
//! misbehaves.

use seminal_core::{Outcome, SearchConfig, SearchReport, SearchSession};
use seminal_ml::ast::{Expr, Program};
use seminal_ml::edit;
use seminal_ml::parser::parse_program;
use seminal_obs::Completion;
use seminal_testkit::oracles::{
    blame_agreement, completion_consistency, incremental_scratch_identity, outcome_agreement,
    pretty_roundtrip, probe_accounting, suggestion_revalidates, INV_BLAME_AGREEMENT,
    INV_COMPLETION_CONSISTENCY, INV_INCREMENTAL_SCRATCH_IDENTITY, INV_OUTCOME_AGREEMENT,
    INV_PRETTY_ROUNDTRIP, INV_PROBE_ACCOUNTING, INV_SUGGESTION_REVALIDATES,
};
use seminal_typeck::{CountingOracle, TypeCheckOracle};

/// One genuine report for `src`, hermetic (deadline off).
fn real_report(src: &str) -> (Program, SearchReport) {
    let prog = parse_program(src).expect("test source parses");
    let config = SearchConfig { deadline: None, ..SearchConfig::default() };
    let report = SearchSession::builder(TypeCheckOracle::new())
        .config(config)
        .build()
        .expect("config is valid")
        .search(&prog);
    (prog, report)
}

const ILL_TYPED: &str = "let x = 1 + true";

#[test]
fn suggestion_revalidates_rejects_an_ill_typed_variant() {
    let (_, mut report) = real_report(ILL_TYPED);
    assert!(suggestion_revalidates(&report).is_none(), "genuine report must pass");
    let bogus = parse_program("let broken = \"s\" + 1").unwrap();
    let Outcome::Suggestions(suggestions) = &mut report.outcome else {
        panic!("search found no suggestions for the fixture");
    };
    suggestions[0].variant = bogus;
    let v = suggestion_revalidates(&report).expect("corrupted variant must be caught");
    assert_eq!(v.invariant, INV_SUGGESTION_REVALIDATES);
    assert!(v.detail.contains("rank-0"), "detail names the rank: {}", v.detail);
}

#[test]
fn outcome_agreement_rejects_verdicts_that_contradict_a_fresh_oracle() {
    let (prog, mut report) = real_report(ILL_TYPED);
    assert!(outcome_agreement(&prog, &report).is_none(), "genuine report must pass");
    report.outcome = Outcome::WellTyped;
    let v = outcome_agreement(&prog, &report).expect("flipped verdict must be caught");
    assert_eq!(v.invariant, INV_OUTCOME_AGREEMENT);

    // The other direction: a well-typed program whose report denies it.
    let (prog, mut report) = real_report("let y = 1 + 2");
    assert!(outcome_agreement(&prog, &report).is_none());
    report.outcome = Outcome::NoSuggestion;
    let v = outcome_agreement(&prog, &report).expect("denied well-typedness must be caught");
    assert_eq!(v.invariant, INV_OUTCOME_AGREEMENT);
}

#[test]
fn pretty_roundtrip_rejects_a_program_that_prints_unparseable_syntax() {
    let prog = parse_program("let z = 1 + 2").unwrap();
    assert!(pretty_roundtrip(&prog).is_none(), "plain program must round-trip");
    // A synthesized variable with an empty name prints to nothing, so
    // the rendering is not a parseable program — a hand-built AST the
    // surface syntax cannot represent.
    let mut target = None;
    prog.decls[0].for_each_expr(&mut |e| target = target.or(Some(e.id)));
    let holed =
        edit::replace_expr(&prog, target.unwrap(), Expr::var("", seminal_ml::span::Span::DUMMY));
    let v = pretty_roundtrip(&holed).expect("unprintable AST must break the round-trip");
    assert_eq!(v.invariant, INV_PRETTY_ROUNDTRIP);
}

#[test]
fn probe_accounting_rejects_an_unaccounted_oracle_call() {
    let prog = parse_program(ILL_TYPED).unwrap();
    let oracle = CountingOracle::new(TypeCheckOracle::new());
    let report = SearchSession::builder(&oracle).build().unwrap().search(&prog);
    assert!(probe_accounting(&report, oracle.calls()).is_none(), "genuine run must pass");
    // One more real call than the search accounted: a hidden cache
    // filled behind the search's back, or a speculative probe.
    let v = probe_accounting(&report, oracle.calls() + 1).expect("extra call must be caught");
    assert_eq!(v.invariant, INV_PROBE_ACCOUNTING);
    // One fewer: a probe answered without asking the oracle.
    let v = probe_accounting(&report, oracle.calls() - 1).expect("missing call must be caught");
    assert_eq!(v.invariant, INV_PROBE_ACCOUNTING);
}

#[test]
fn blame_agreement_rejects_a_dropped_suggestion() {
    let (_, guided) = real_report(ILL_TYPED);
    assert!(blame_agreement(&guided, &guided).is_none());
    let mut unguided = guided.clone();
    if let Outcome::Suggestions(s) = &mut unguided.outcome {
        s.pop();
    }
    let v = blame_agreement(&guided, &unguided).expect("set divergence must be caught");
    assert_eq!(v.invariant, INV_BLAME_AGREEMENT);
    assert!(v.detail.contains("extra"), "detail lists the extra key: {}", v.detail);
}

#[test]
fn incremental_scratch_identity_rejects_each_divergence() {
    let (_, scratch) = real_report(ILL_TYPED);
    assert!(
        incremental_scratch_identity(&scratch, &scratch).is_none(),
        "a report is identical to itself"
    );

    // Payload divergence: the incremental side dropped a suggestion, as
    // a stale checkpoint that mis-accepts a probe would cause.
    let mut incr = scratch.clone();
    if let Outcome::Suggestions(s) = &mut incr.outcome {
        s.pop();
    }
    let v = incremental_scratch_identity(&incr, &scratch).expect("dropped suggestion");
    assert_eq!(v.invariant, INV_INCREMENTAL_SCRATCH_IDENTITY);
    assert!(v.detail.contains("payload"), "detail blames the payload: {}", v.detail);

    // Rank divergence with the same suggestion *set*: swap the top two.
    let mut incr = scratch.clone();
    if let Outcome::Suggestions(s) = &mut incr.outcome {
        if s.len() >= 2 {
            s.swap(0, 1);
            assert!(
                incremental_scratch_identity(&incr, &scratch).is_some(),
                "rank swap must be caught"
            );
        }
    }

    // Completion divergence.
    let mut incr = scratch.clone();
    incr.completion = Completion::DeadlineExpired;
    let v = incremental_scratch_identity(&incr, &scratch).expect("completion divergence");
    assert!(v.detail.contains("completion"), "detail blames completion: {}", v.detail);

    // Probe-accounting divergence: a call the incremental path skipped
    // outright (reuse must save work inside a call, never a call).
    let mut incr = scratch.clone();
    incr.stats.oracle_calls -= 1;
    let v = incremental_scratch_identity(&incr, &scratch).expect("missing oracle call");
    assert!(v.detail.contains("accounting"), "detail blames accounting: {}", v.detail);
}

#[test]
fn completion_consistency_rejects_each_stat_contradiction() {
    let (_, clean) = real_report(ILL_TYPED);
    assert!(completion_consistency(&clean).is_none());
    assert_eq!(clean.completion, Completion::Complete, "fixture must finish cleanly");

    // Complete, yet the stats recorded an isolated fault.
    let mut r = clean.clone();
    r.stats.probe_faults = 1;
    let v = completion_consistency(&r).expect("Complete+faults must be caught");
    assert_eq!(v.invariant, INV_COMPLETION_CONSISTENCY);

    // Complete, yet the budget flag is set.
    let mut r = clean.clone();
    r.stats.budget_exhausted = true;
    assert!(completion_consistency(&r).is_some(), "Complete+budget must be caught");

    // Degraded must carry exactly the counted faults, and never zero.
    let mut r = clean.clone();
    r.completion = Completion::Degraded { faults: 0 };
    assert!(completion_consistency(&r).is_some(), "Degraded{{0}} must be caught");
    let mut r = clean.clone();
    r.completion = Completion::Degraded { faults: 3 };
    r.stats.probe_faults = 2;
    assert!(completion_consistency(&r).is_some(), "fault miscount must be caught");
    let mut r = clean.clone();
    r.completion = Completion::Degraded { faults: 2 };
    r.stats.probe_faults = 2;
    assert!(completion_consistency(&r).is_none(), "a consistent Degraded passes");

    // BudgetExhausted requires the stats flag.
    let mut r = clean.clone();
    r.completion = Completion::BudgetExhausted;
    assert!(completion_consistency(&r).is_some(), "BudgetExhausted without flag must be caught");
    r.stats.budget_exhausted = true;
    assert!(completion_consistency(&r).is_none(), "a consistent BudgetExhausted passes");
}
