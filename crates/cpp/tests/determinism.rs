//! The C++ prototype honors the same determinism contract as the Caml
//! engine: the report is identical however many threads search at once.

use seminal_cpp::{parse_cpp, CppReport, CppSearchSession};

mod common;
use common::SCENARIOS;

#[test]
fn cpp_reports_are_identical_at_every_thread_count() {
    let key = |r: &CppReport| {
        let rendered: Vec<String> = r.suggestions.iter().map(|s| s.render()).collect();
        (rendered, r.baseline.len(), r.completion, r.oracle_calls)
    };
    for (name, src) in SCENARIOS {
        let prog = parse_cpp(src).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
        let session = CppSearchSession::builder().build().unwrap();
        let base = key(&session.search(&prog));
        assert!(!base.0.is_empty(), "{name}: no suggestions");
        for threads in [1, 2, 8] {
            std::thread::scope(|scope| {
                for caller in
                    (0..threads).map(|_| scope.spawn(|| session.search(&prog))).collect::<Vec<_>>()
                {
                    let par = key(&caller.join().expect("caller thread panicked"));
                    assert_eq!(base, par, "{name}: report changed at {threads} threads");
                }
            });
        }
    }
}
