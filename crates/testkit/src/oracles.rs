//! The differential invariant catalog.
//!
//! Each oracle is a pure check over search reports (plus, where needed,
//! a fresh run of the real type-checker), returning `None` when the
//! invariant holds. [`InvariantSuite::check_case`] runs the whole
//! catalog against one program: it performs the guided, unguided, and
//! opposite-oracle-mode searches itself so the individual oracles stay
//! unit-testable on hand-built reports.
//!
//! The catalog (names are the stable identifiers used in JSONL failure
//! artifacts and the golden-corpus manifest):
//!
//! | invariant | claim |
//! |---|---|
//! | `suggestion-revalidates` | every reported suggestion's variant re-typechecks under a fresh, chaos-free oracle |
//! | `outcome-agreement` | the report says `WellTyped` iff a fresh oracle accepts the input |
//! | `pretty-roundtrip` | pretty-print → reparse → pretty-print is a fixpoint of the input |
//! | `probe-accounting` | a counting oracle directly under the search sees exactly `oracle_calls + probe_faults` calls — no hidden cache, no speculation |
//! | `blame-agreement` | blame-guided and unguided search accept the same suggestion set |
//! | `backend-agreement` | the blame and MCS localization backends agree on well-typedness, baseline error, and core size; every MCS subset hits the blame core and its removal replays to SAT |
//! | `completion-consistency` | `Completion` agrees with the stats that justify it |
//! | `incremental-scratch-identity` | the checkpointed incremental oracle and a from-scratch oracle produce byte-identical payloads, ranks, and probe accounting |

use seminal_core::{Oracle, Outcome, SearchConfig, SearchReport, SearchSession};
use seminal_ml::ast::Program;
use seminal_ml::parser::parse_program;
use seminal_ml::pretty::program_to_string;
use seminal_obs::Completion;
use seminal_typeck::{check_program, ChaosConfig, ChaosOracle, CheckpointedOracle, CountingOracle};
use std::collections::BTreeSet;

/// Stable identifier: suggestions re-typecheck under a fresh oracle.
pub const INV_SUGGESTION_REVALIDATES: &str = "suggestion-revalidates";
/// Stable identifier: `WellTyped` verdicts agree with a fresh oracle.
pub const INV_OUTCOME_AGREEMENT: &str = "outcome-agreement";
/// Stable identifier: pretty-print → reparse fixpoint.
pub const INV_PRETTY_ROUNDTRIP: &str = "pretty-roundtrip";
/// Stable identifier: every oracle call is accounted by the search.
pub const INV_PROBE_ACCOUNTING: &str = "probe-accounting";
/// Stable identifier: guided/unguided suggestion-set agreement.
pub const INV_BLAME_AGREEMENT: &str = "blame-agreement";
/// Stable identifier: blame/MCS localization-backend agreement.
pub const INV_BACKEND_AGREEMENT: &str = "backend-agreement";
/// Stable identifier: `Completion` vs stats consistency.
pub const INV_COMPLETION_CONSISTENCY: &str = "completion-consistency";
/// Stable identifier: incremental vs from-scratch oracle identity.
pub const INV_INCREMENTAL_SCRATCH_IDENTITY: &str = "incremental-scratch-identity";

/// Every invariant name, in catalog order.
pub const ALL_INVARIANTS: &[&str] = &[
    INV_SUGGESTION_REVALIDATES,
    INV_OUTCOME_AGREEMENT,
    INV_PRETTY_ROUNDTRIP,
    INV_PROBE_ACCOUNTING,
    INV_BLAME_AGREEMENT,
    INV_BACKEND_AGREEMENT,
    INV_COMPLETION_CONSISTENCY,
    INV_INCREMENTAL_SCRATCH_IDENTITY,
];

/// One invariant violation: which oracle fired and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The catalog identifier (one of the `INV_*` constants).
    pub invariant: &'static str,
    /// Human-readable evidence for the triage log.
    pub detail: String,
}

impl Violation {
    fn new(invariant: &'static str, detail: impl Into<String>) -> Violation {
        Violation { invariant, detail: detail.into() }
    }
}

/// The configured catalog runner: what chaos (if any) wraps the
/// *search* oracle, and which oracle mode the primary runs use. The
/// revalidation oracle is always fresh and chaos-free — that asymmetry
/// is what lets injected verdict flips be caught.
#[derive(Debug, Clone, Copy)]
pub struct InvariantSuite {
    /// Optional fault injection around the search oracle only.
    pub chaos: Option<ChaosConfig>,
    /// Whether the primary runs use the checkpointed incremental oracle
    /// (the shipping default) or the from-scratch path. Either way the
    /// `incremental-scratch-identity` differential runs both modes and
    /// compares them.
    pub incremental: bool,
}

impl Default for InvariantSuite {
    fn default() -> InvariantSuite {
        InvariantSuite { chaos: None, incremental: true }
    }
}

impl InvariantSuite {
    /// A clean suite on the incremental oracle.
    pub fn new() -> InvariantSuite {
        InvariantSuite::default()
    }

    /// Wraps the search oracle (not the revalidation oracle) in `chaos`.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> InvariantSuite {
        self.chaos = Some(chaos);
        self
    }

    /// Selects the primary runs' oracle mode (incremental or scratch).
    pub fn with_incremental(mut self, incremental: bool) -> InvariantSuite {
        self.incremental = incremental;
        self
    }

    /// One search run in the suite's own oracle mode.
    fn run(&self, prog: &Program, guidance: bool) -> (SearchReport, u64) {
        self.run_mode(prog, guidance, self.incremental)
    }

    /// One search run, returning the report and the number of calls a
    /// [`CountingOracle`] directly under the search saw. Deadline is
    /// pinned off so fuzz results never depend on an ambient
    /// `SEMINAL_DEADLINE_MS`. Chaos, when configured, wraps *outside*
    /// the checkpointed oracle — injection decisions are a pure function
    /// of rendered text and seed, so they are identical in both oracle
    /// modes.
    fn run_mode(&self, prog: &Program, guidance: bool, incremental: bool) -> (SearchReport, u64) {
        let mut config =
            if guidance { SearchConfig::default() } else { SearchConfig::without_blame_guidance() };
        config.deadline = None;
        config.incremental_oracle = incremental;
        let checker = CheckpointedOracle::with_enabled(incremental);
        match self.chaos {
            Some(chaos) => search_counted(ChaosOracle::new(checker, chaos), config, prog),
            None => search_counted(checker, config, prog),
        }
    }

    /// Runs the whole catalog against `prog`, returning every violation
    /// (empty when all invariants hold).
    pub fn check_case(&self, prog: &Program) -> Vec<Violation> {
        let (base, raw_calls) = self.run(prog, true);
        let (unguided, _) = self.run(prog, false);
        // The incremental-vs-scratch differential: one extra run in the
        // *opposite* oracle mode, compared against `base`.
        let (other, _) = self.run_mode(prog, true, !self.incremental);
        let (incr, scratch) = if self.incremental { (&base, &other) } else { (&other, &base) };
        let mut out = Vec::new();
        out.extend(outcome_agreement(prog, &base));
        out.extend(suggestion_revalidates(&base));
        out.extend(pretty_roundtrip(prog));
        out.extend(probe_accounting(&base, raw_calls));
        out.extend(blame_agreement(&base, &unguided));
        out.extend(backend_agreement(prog));
        out.extend(completion_consistency(&base));
        out.extend(incremental_scratch_identity(incr, scratch));
        out
    }
}

fn search_counted<O: Oracle>(
    oracle: O,
    config: SearchConfig,
    prog: &Program,
) -> (SearchReport, u64) {
    let counted = CountingOracle::new(oracle);
    let report = SearchSession::builder(&counted)
        .config(config)
        .build()
        .expect("fuzz search config is valid")
        .search(prog);
    (report, counted.calls())
}

/// Every reported suggestion's variant must re-typecheck under a fresh
/// [`TypeCheckOracle`] — the paper's core promise. A memo bug, an
/// incremental-oracle bug, or an injected verdict flip all surface here.
pub fn suggestion_revalidates(report: &SearchReport) -> Option<Violation> {
    for (rank, s) in report.suggestions().iter().enumerate() {
        if check_program(&s.variant).is_err() {
            return Some(Violation::new(
                INV_SUGGESTION_REVALIDATES,
                format!(
                    "rank-{rank} suggestion `{}` -> `{}` does not re-typecheck",
                    s.original_str, s.replacement_str
                ),
            ));
        }
    }
    None
}

/// The report may claim `WellTyped` only when a fresh oracle agrees
/// (and must claim it when one does).
pub fn outcome_agreement(prog: &Program, report: &SearchReport) -> Option<Violation> {
    let fresh_ok = check_program(prog).is_ok();
    let reported_ok = matches!(report.outcome, Outcome::WellTyped);
    if fresh_ok == reported_ok {
        None
    } else {
        Some(Violation::new(
            INV_OUTCOME_AGREEMENT,
            format!("fresh oracle says well_typed={fresh_ok} but report says {reported_ok}"),
        ))
    }
}

/// Pretty-print → reparse → pretty-print must be a fixpoint: the search
/// probes variants through exactly this pipeline, so a non-fixpoint
/// means probes and suggestions describe a different program than the
/// one on disk.
pub fn pretty_roundtrip(prog: &Program) -> Option<Violation> {
    let printed = program_to_string(prog);
    match parse_program(&printed) {
        Err(e) => Some(Violation::new(
            INV_PRETTY_ROUNDTRIP,
            format!("pretty-printed program does not reparse: {e}"),
        )),
        Ok(reparsed) => {
            let again = program_to_string(&reparsed);
            if again == printed {
                None
            } else {
                Some(Violation::new(
                    INV_PRETTY_ROUNDTRIP,
                    "print -> reparse -> print is not a fixpoint".to_owned(),
                ))
            }
        }
    }
}

/// A [`CountingOracle`] placed directly under the search must have
/// seen exactly `oracle_calls + probe_faults` calls (when, as in the
/// fuzz harness, faults come only from the oracle): every call the
/// search makes is accounted once, so there is no hidden verdict cache
/// and no speculative probing.
pub fn probe_accounting(report: &SearchReport, raw_calls: u64) -> Option<Violation> {
    let accounted = report.stats.oracle_calls + report.stats.probe_faults;
    if raw_calls == accounted {
        None
    } else {
        Some(Violation::new(
            INV_PROBE_ACCOUNTING,
            format!(
                "the oracle saw {raw_calls} calls but the search accounted {} calls + {} faults",
                report.stats.oracle_calls, report.stats.probe_faults
            ),
        ))
    }
}

/// Blame guidance reorders work but never changes the accepted set: the
/// guided and unguided searches must report the same suggestions (as an
/// unordered set of message-visible keys).
pub fn blame_agreement(guided: &SearchReport, unguided: &SearchReport) -> Option<Violation> {
    let keys = |r: &SearchReport| -> BTreeSet<(String, String, bool)> {
        r.suggestions()
            .iter()
            .map(|s| (s.original_str.clone(), s.replacement_str.clone(), s.triaged))
            .collect()
    };
    let (on, off) = (keys(guided), keys(unguided));
    if on == off {
        None
    } else {
        let missing: Vec<_> = off.difference(&on).map(|k| format!("{k:?}")).collect();
        let extra: Vec<_> = on.difference(&off).map(|k| format!("{k:?}")).collect();
        Some(Violation::new(
            INV_BLAME_AGREEMENT,
            format!(
                "guided set != unguided set (missing: [{}], extra: [{}])",
                missing.join(", "),
                extra.join(", ")
            ),
        ))
    }
}

/// The two localization backends must agree wherever their theories
/// overlap. Both are deterministic functions of the same recorded
/// constraint trace, so:
///
/// * they agree on well-typedness (both `None` or both `Some`);
/// * they report the same baseline error span and the same
///   deletion-shrunk core size (it is literally the same shrinker);
/// * by MUS/MCS hitting-set duality, every enumerated correction subset
///   must contain at least one member overlapping a blame-positive span
///   (every MCS hits every MUS, and the blame core is a MUS);
/// * retracting any constraint-backed correction subset must replay to
///   SAT on a fresh trace — that is what "correction subset" claims.
pub fn backend_agreement(prog: &Program) -> Option<Violation> {
    let bad = |why: String| Some(Violation::new(INV_BACKEND_AGREEMENT, why));
    let (blame, mcs) = (seminal_analysis::analyze(prog), seminal_analysis::analyze_mcs(prog));
    let (blame, mcs) = match (blame, mcs) {
        (None, None) => return None,
        (Some(b), None) => {
            return bad(format!("blame localizes ({:?}) but MCS says well-typed", b.error.kind))
        }
        (None, Some(m)) => {
            return bad(format!("MCS localizes ({:?}) but blame says well-typed", m.error.kind))
        }
        (Some(b), Some(m)) => (b, m),
    };
    if blame.error.span != mcs.error.span {
        return bad(format!(
            "baseline error spans diverge: blame {:?} vs MCS {:?}",
            blame.error.span, mcs.error.span
        ));
    }
    if blame.core_size != mcs.core_size {
        return bad(format!(
            "core sizes diverge: blame {} vs MCS {}",
            blame.core_size, mcs.core_size
        ));
    }
    if mcs.core_size == 0 {
        // Naming error: no constraint system, nothing further to cross-check
        // (MCS subsets there are heuristic near-name hints).
        return None;
    }
    let trace = seminal_typeck::trace_program(prog);
    for (rank, subset) in mcs.subsets.iter().enumerate() {
        if !subset.members.iter().any(|m| blame.score_at(m.span) > 0.0) {
            return bad(format!(
                "MCS subset #{rank} misses every blame-positive span (hitting-set duality)"
            ));
        }
        let mut keep = vec![true; trace.constraints.len()];
        let mut constraint_backed = false;
        for m in &subset.members {
            if let Some(i) = m.constraint {
                keep[i] = false;
                constraint_backed = true;
            }
        }
        if constraint_backed && !trace.subset_sat(&keep) {
            return bad(format!("retracting MCS subset #{rank} does not restore SAT"));
        }
    }
    None
}

/// The checkpointed incremental oracle must be observationally invisible:
/// against a from-scratch oracle on the same program, the user-visible
/// payload must be byte-identical (the ordered comparison also pins
/// suggestion ranks), the completion must match, and the probe accounting
/// (`oracle_calls`, `probe_faults`) must be identical —
/// prefix reuse saves *inference work inside* a call, never a call.
pub fn incremental_scratch_identity(
    incr: &SearchReport,
    scratch: &SearchReport,
) -> Option<Violation> {
    let bad = |why: String| Some(Violation::new(INV_INCREMENTAL_SCRATCH_IDENTITY, why));
    if incr.payload() != scratch.payload() {
        return bad(format!(
            "payload diverged: {} incremental vs {} scratch suggestions (or rank order changed)",
            incr.suggestions().len(),
            scratch.suggestions().len()
        ));
    }
    if incr.completion != scratch.completion {
        return bad(format!(
            "completion diverged: {} incremental vs {} scratch",
            incr.completion, scratch.completion
        ));
    }
    let count =
        |r: &SearchReport| (r.stats.oracle_calls, r.stats.probe_faults, r.stats.first_bad_decl);
    if count(incr) != count(scratch) {
        return bad(format!(
            "probe accounting diverged: {:?} incremental vs {:?} scratch \
             (oracle_calls, probe_faults, first_bad_decl)",
            count(incr),
            count(scratch)
        ));
    }
    None
}

/// `Completion` must agree with the stats that justify it: `Complete`
/// means no faults and no exhausted budget, `Degraded` carries exactly
/// the fault count, `BudgetExhausted` implies the stats flag, and a set
/// stats flag forbids `Complete`.
pub fn completion_consistency(report: &SearchReport) -> Option<Violation> {
    let stats = &report.stats;
    let bad = |why: String| Some(Violation::new(INV_COMPLETION_CONSISTENCY, why));
    match report.completion {
        Completion::Complete => {
            if stats.probe_faults > 0 {
                return bad(format!("Complete with {} probe faults", stats.probe_faults));
            }
            if stats.budget_exhausted {
                return bad("Complete with budget_exhausted set".to_owned());
            }
        }
        Completion::Degraded { faults } => {
            if faults == 0 || faults != stats.probe_faults {
                return bad(format!(
                    "Degraded reports {faults} faults but stats counted {}",
                    stats.probe_faults
                ));
            }
            if stats.budget_exhausted {
                return bad("Degraded outranked by budget_exhausted".to_owned());
            }
        }
        Completion::BudgetExhausted => {
            if !stats.budget_exhausted {
                return bad("BudgetExhausted but stats.budget_exhausted is false".to_owned());
            }
        }
        // Deadline/cancel carry no dedicated stats flags; their
        // consistency is covered by the fault-tolerance suite.
        Completion::DeadlineExpired | Completion::Cancelled => {}
    }
    if stats.budget_exhausted && report.completion.is_complete() {
        return bad("stats.budget_exhausted set on a Complete run".to_owned());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_scenarios_satisfy_the_whole_catalog() {
        let suite = InvariantSuite::new();
        for src in [
            "let x = 1 + true",
            "let add str lst = if List.mem str lst then lst else str :: lst\n\
             let vList1 = [\"a\"]\n\
             let s = \"b\"\n\
             let r = add vList1 s\n",
        ] {
            let prog = parse_program(src).unwrap();
            let violations = suite.check_case(&prog);
            assert!(violations.is_empty(), "{src}: {violations:?}");
        }
    }

    #[test]
    fn backend_agreement_holds_on_representative_cases() {
        for src in [
            "let x = 1 + 2",              // well-typed: both None
            "let x = 1 + true",           // single-MCS mismatch
            "let f g = (g 1) + (g true)", // multi-MCS mismatch
            "let main = print_",          // naming error
            "let xs = [1; true; 3]",      // list element conflict
        ] {
            let prog = parse_program(src).unwrap();
            assert_eq!(backend_agreement(&prog), None, "{src}");
        }
    }

    #[test]
    fn flip_chaos_is_caught_by_the_catalog() {
        // With every verdict inverted, the search either trusts a bogus
        // acceptance (suggestion-revalidates) or declares an ill-typed
        // program well-typed (outcome-agreement). Either way the catalog
        // must fire — this is the intentionally-injected violation of
        // the acceptance criteria.
        let suite = InvariantSuite::new().with_chaos(ChaosConfig::flips(1729, 1000));
        let prog = parse_program("let x = 1 + true").unwrap();
        let violations = suite.check_case(&prog);
        assert!(
            violations.iter().any(|v| v.invariant == INV_SUGGESTION_REVALIDATES
                || v.invariant == INV_OUTCOME_AGREEMENT),
            "flip chaos went unnoticed: {violations:?}"
        );
    }
}
