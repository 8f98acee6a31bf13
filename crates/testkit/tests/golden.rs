//! Golden-corpus gate: replay the checked-in shrunk regressions.
//!
//! `golden_corpus_replays_clean` runs on every `cargo test -q` (tier-1).
//! `regenerate_golden_corpus` is `#[ignore]`d: it deterministically
//! rebuilds `crates/testkit/golden/` from fixed seeds and is only run
//! explicitly —
//!
//! ```text
//! cargo test -p seminal-testkit --test golden -- --ignored
//! ```

use seminal_ml::parser::parse_program;
use seminal_testkit::gen::generate_case;
use seminal_testkit::golden::{default_dir, load_corpus, save_corpus, GoldenEntry, GoldenKind};
use seminal_testkit::oracles::{InvariantSuite, INV_OUTCOME_AGREEMENT, INV_SUGGESTION_REVALIDATES};
use seminal_testkit::shrink::shrink;
use seminal_typeck::{check_program, ChaosConfig};
use std::collections::BTreeMap;

#[test]
fn golden_corpus_replays_clean() {
    let corpus = load_corpus(&default_dir()).expect("checked-in corpus loads");
    assert!(corpus.entries.len() >= 10, "corpus has only {} entries", corpus.entries.len());
    assert!(
        corpus
            .entries
            .iter()
            .any(|e| matches!(e.kind, GoldenKind::Caught { .. }) && e.chaos.is_some()),
        "corpus must include a chaos-interaction regression"
    );
    assert!(
        corpus.entries.iter().filter(|e| e.name.contains("checkpoint-stress")).count() >= 2,
        "corpus must include two shrunk checkpoint-stress regressions"
    );
    let problems = corpus.replay();
    assert!(problems.is_empty(), "golden corpus deviations:\n{}", problems.join("\n"));
}

/// PR 6 acceptance gate: the MCS backend must rank at least two
/// alternative correction subsets on at least 8 of the golden-corpus
/// regressions. The backend is oracle-free by construction — analysis
/// runs on the recorded constraint trace with no `Oracle` in reach —
/// so the "zero oracle calls" half of the criterion is structural.
#[test]
fn mcs_backend_ranks_alternatives_on_golden_corpus() {
    let corpus = load_corpus(&default_dir()).expect("checked-in corpus loads");
    let total = corpus.entries.len();
    let mut qualifying = 0usize;
    let mut report = Vec::new();
    for entry in &corpus.entries {
        let source =
            std::fs::read_to_string(default_dir().join(&entry.file)).expect("entry file reads");
        let prog = parse_program(&source).expect("entry parses");
        let subsets =
            seminal_analysis::analyze_mcs(&prog).map_or(0, |analysis| analysis.subsets.len());
        if subsets >= 2 {
            qualifying += 1;
        }
        report.push(format!("{}: {subsets} subset(s)", entry.name));
    }
    assert!(total >= 12, "corpus has only {total} entries");
    assert!(
        qualifying >= 8,
        "MCS ranked >=2 alternatives on only {qualifying}/{total} entries:\n{}",
        report.join("\n")
    );
}

/// Deterministically rebuilds the corpus: two shrunk ill-typed
/// regressions per generator family (replayed clean), plus two chaos
/// verdict-flip regressions shrunk to ≤ 20 nodes while the
/// caught invariant still fires.
#[test]
#[ignore = "rewrites crates/testkit/golden; run explicitly to regenerate"]
fn regenerate_golden_corpus() {
    let mut entries: Vec<(GoldenEntry, String)> = Vec::new();

    // Two shrunk regressions per family — including `checkpoint-stress`,
    // whose entries pin the incremental oracle's prefix-reuse paths.
    let clean_target = 2 * u32::try_from(seminal_testkit::gen::Family::ALL.len()).unwrap();
    let mut per_family: BTreeMap<&str, u32> = BTreeMap::new();
    let mut index = 0u64;
    while per_family.values().sum::<u32>() < clean_target {
        assert!(index < 4000, "generator never yielded {clean_target} clean-corpus cases");
        let case = generate_case(42, index);
        index += 1;
        let Ok(prog) = parse_program(&case.source) else { continue };
        if check_program(&prog).is_ok() {
            continue;
        }
        let fam = case.family.label();
        let seen = per_family.entry(fam).or_insert(0);
        if *seen >= 2 {
            continue;
        }
        *seen += 1;
        let out = shrink(&prog, 2000, &mut |p| check_program(p).is_err());
        entries.push((
            GoldenEntry {
                name: format!("clean-{fam}-{}", case.index),
                file: format!("clean-{fam}-{}.ml", case.index),
                chaos: None,
                kind: GoldenKind::Clean,
            },
            out.source,
        ));
    }

    let mut caught = 0u32;
    'seeds: for chaos_seed in [1729u64, 9001, 7, 99, 1234, 5555] {
        let chaos = ChaosConfig::flips(chaos_seed, 1000);
        let suite = InvariantSuite::new().with_chaos(chaos);
        // Offset later seeds' scans so the caught entries come from
        // different generated programs, not the same index twice.
        for index in (u64::from(caught) * 10)..40u64 {
            let case = generate_case(42, index);
            let Ok(prog) = parse_program(&case.source) else { continue };
            if check_program(&prog).is_ok() {
                continue;
            }
            let Some(invariant) = suite
                .check_case(&prog)
                .iter()
                .map(|v| v.invariant)
                .find(|&i| i == INV_SUGGESTION_REVALIDATES || i == INV_OUTCOME_AGREEMENT)
            else {
                continue;
            };
            // Stay ill-typed while shrinking: the harness only feeds
            // ill-typed programs to the catalog, so the regression must
            // not drift into (vacuous) well-typed territory where flip
            // chaos fires trivially.
            let out = shrink(&prog, 300, &mut |p| {
                p.size() <= 40
                    && check_program(p).is_err()
                    && suite.check_case(p).iter().any(|v| v.invariant == invariant)
            });
            if out.program.size() > 20 {
                continue;
            }
            entries.push((
                GoldenEntry {
                    name: format!("caught-flip-{chaos_seed}-{index}"),
                    file: format!("caught-flip-{chaos_seed}-{index}.ml"),
                    chaos: Some(chaos),
                    kind: GoldenKind::Caught { invariant: invariant.to_owned() },
                },
                out.source,
            ));
            caught += 1;
            if caught >= 2 {
                break 'seeds;
            }
            continue 'seeds;
        }
    }
    assert!(caught >= 2, "could not mint two caught chaos regressions");
    assert!(entries.len() >= 14);

    let dir = default_dir();
    save_corpus(&dir, &entries).expect("corpus written");

    // Self-validate: the freshly minted corpus must replay clean.
    let corpus = load_corpus(&dir).expect("fresh corpus loads");
    let problems = corpus.replay();
    assert!(problems.is_empty(), "fresh corpus deviations:\n{}", problems.join("\n"));
}
