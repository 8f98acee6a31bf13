//! Cross-crate integration tests: corpus → search → judge → figures.

use seminal::core::{ChangeKind, SearchConfig, SearchSession};
use seminal::corpus::generate::{generate, CorpusConfig};
use seminal::corpus::session::{group_sizes, histogram, summarize};
use seminal::eval::{evaluate_corpus, figure5, render_figure5, Category};
use seminal::ml::parser::parse_program;
use seminal::typeck::{CountingOracle, TypeCheckOracle};

fn small_corpus(seed: u64) -> Vec<seminal::corpus::CorpusFile> {
    generate(&CorpusConfig {
        seed,
        programmers: 3,
        assignments: 5,
        problems_per_cell: 2,
        multi_error_rate: 0.3,
    })
}

#[test]
fn full_pipeline_produces_figure5() {
    let corpus = small_corpus(1);
    let results = evaluate_corpus(&corpus);
    assert_eq!(results.len(), corpus.len());
    let fig = figure5(&results);
    assert_eq!(fig.total.total(), corpus.len());
    // Render sanity.
    let text = render_figure5(&fig);
    assert!(text.contains("TOTAL"));
    assert!(text.contains("ours better"));
}

#[test]
fn evaluation_shape_matches_paper_directionally() {
    let corpus = small_corpus(2);
    let results = evaluate_corpus(&corpus);
    let total = results.len();
    let checker_better = results.iter().filter(|r| r.category == Category::CheckerBetter).count();
    let ours_better = results
        .iter()
        .filter(|r| matches!(r.category, Category::BetterNoTriage | Category::BetterWithTriage))
        .count();
    // Paper: no worse 83%, ours better 19%. Directional targets only.
    assert!(
        (total - checker_better) * 10 >= total * 6,
        "no-worse too low: {}/{total}",
        total - checker_better
    );
    assert!(ours_better > 0, "Seminal should win on some files");
}

#[test]
fn triage_changes_outcomes_on_multi_error_files() {
    let corpus = small_corpus(3);
    let multi: Vec<_> = corpus.iter().filter(|f| f.is_multi_error()).cloned().collect();
    assert!(!multi.is_empty(), "corpus must contain multi-error files");
    let results = evaluate_corpus(&multi);
    // On at least one multi-error file, the triage-enabled judgment must
    // beat the triage-disabled one.
    let improved = results.iter().any(|r| r.full.score() > r.no_triage.score());
    assert!(improved, "triage never helped on multi-error files");
}

#[test]
fn figure6_totals_scale_like_the_paper() {
    let sizes = group_sizes(1075, 2007);
    let s = summarize(&sizes);
    assert_eq!(s.analyzed, 1075);
    // Paper: 2122 collected from 1075 problems.
    assert!(s.collected > 1500 && s.collected < 3500, "collected = {}", s.collected);
    let h = histogram(&sizes);
    assert_eq!(h[0].0, 1);
    assert!(h[0].1 > h.last().unwrap().1, "singletons must dominate the tail");
}

#[test]
fn oracle_call_counts_ordered_across_configs() {
    // Disabling features can only reduce oracle traffic.
    let corpus = small_corpus(4);
    for f in corpus.iter().take(6) {
        let prog = parse_program(&f.source).unwrap();
        let count = |cfg: SearchConfig| {
            let oracle = CountingOracle::new(TypeCheckOracle::new());
            SearchSession::builder(&oracle).config(cfg).build().unwrap().search(&prog);
            oracle.calls()
        };
        let full = count(SearchConfig::default());
        let no_triage = count(SearchConfig::without_triage());
        let removal = count(SearchConfig::removal_only());
        assert!(no_triage <= full, "{}: no_triage {no_triage} > full {full}", f.id);
        assert!(removal <= no_triage, "{}: removal {removal} > no_triage {no_triage}", f.id);
    }
}

#[test]
fn slow_match_reassoc_costs_more_on_nested_matches() {
    let src = "\
let classify a b c =
  match a with
    0 -> (match b with 1 -> 10 | 2 -> 20 | 3 -> 30 | _ -> 40)
  | 1 -> (match c with 4 -> 50 | 5 -> 60 | 6 -> 70 | _ -> 80)
  | _ -> match b with 7 -> \"ninety\" | _ -> 100
";
    let prog = parse_program(src).unwrap();
    let count = |cfg: SearchConfig| {
        let oracle = CountingOracle::new(TypeCheckOracle::new());
        SearchSession::builder(&oracle).config(cfg).build().unwrap().search(&prog);
        oracle.calls()
    };
    let fast = count(SearchConfig::default());
    let slow = count(SearchConfig::with_slow_match_reassoc());
    assert!(
        slow > fast,
        "exhaustive reassociation should cost more oracle calls: slow {slow} vs fast {fast}"
    );
}

#[test]
fn evaluation_is_deterministic() {
    let corpus = small_corpus(5);
    let a = evaluate_corpus(&corpus);
    let b = evaluate_corpus(&corpus);
    let cats = |rs: &[seminal::eval::FileResult]| {
        rs.iter().map(|r| (r.id.clone(), r.category)).collect::<Vec<_>>()
    };
    assert_eq!(cats(&a), cats(&b));
}

#[test]
fn ml_and_cpp_searchers_agree_on_philosophy() {
    // Both searchers treat the checker as an oracle and prefer
    // constructive changes; this exercises both ends on their flagship
    // examples in one test.
    let ml_src = "let lst = List.map (fun (x, y) -> x + y) (List.combine [1] [2])\nlet n = lst\nlet bad = List.map (fun (a, b) -> a ^ b) lst";
    let prog = parse_program(ml_src).unwrap();
    let ml_report = SearchSession::builder(TypeCheckOracle::new()).build().unwrap().search(&prog);
    // lst : (int) list after combine/map — `a ^ b` over int pairs fails.
    assert!(ml_report.best().is_some());

    let cpp_src = "void f(vector<long>& v) { transform(v.begin(), v.end(), v.begin(), compose1(negate<long>(), labs)); }";
    let cprog = seminal::cpp::parse_cpp(cpp_src).unwrap();
    let cpp_report = seminal::cpp::search_cpp(&cprog);
    let best = cpp_report.best().expect("cpp suggestion");
    assert!(matches!(best.kind, seminal::cpp::CppChangeKind::Constructive(_)));
    assert_eq!(best.replacement, "ptr_fun(labs)");
}

#[test]
fn corpus_files_report_provenance() {
    let corpus = small_corpus(6);
    for f in &corpus {
        assert!(f.id.contains(&format!("p{:02}", f.programmer)));
        assert!(f.id.contains(&format!("a{}", f.assignment)));
        assert!(!f.truths.is_empty());
        for t in &f.truths {
            assert!(!t.original.is_empty());
        }
    }
}

#[test]
fn best_suggestion_often_matches_ground_truth_fragment() {
    // Not a universal law (several fixes can be equally valid), but the
    // exact-inverse rate should be well above zero.
    let corpus = small_corpus(7);
    let searcher = SearchSession::builder(TypeCheckOracle::new()).build().unwrap();
    let mut exact = 0;
    let mut total = 0;
    for f in &corpus {
        let prog = parse_program(&f.source).unwrap();
        let report = searcher.search(&prog);
        if let Some(best) = report.best() {
            total += 1;
            let norm = |s: &str| s.split_whitespace().collect::<String>().replace(['(', ')'], "");
            if f.truths.iter().any(|t| norm(&t.original) == norm(&best.replacement_str)) {
                exact += 1;
            }
        }
    }
    assert!(total > 0);
    assert!(exact * 4 >= total, "exact-inverse fixes too rare: {exact}/{total}");
}

#[test]
fn removal_only_is_strictly_weaker_but_still_localizes() {
    let corpus = small_corpus(8);
    let removal = SearchSession::builder(TypeCheckOracle::new())
        .config(SearchConfig::removal_only())
        .build()
        .unwrap();
    for f in corpus.iter().take(5) {
        let prog = parse_program(&f.source).unwrap();
        let report = removal.search(&prog);
        for s in report.suggestions() {
            assert!(matches!(s.kind, ChangeKind::Removal));
        }
    }
}
