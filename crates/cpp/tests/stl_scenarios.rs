//! Further STL misuse scenarios for the C++ prototype, beyond Figure 10:
//! binary-vs-unary functor confusion, wrong argument order, and the
//! checker's behaviour on the extended prelude.

use seminal_cpp::{check, parse_cpp, search_cpp, CppChangeKind};

#[test]
fn for_each_accepts_unary_functor() {
    let src = "\
void f(vector<long>& v) {
  for_each(v.begin(), v.end(), negate<long>());
}
";
    let prog = parse_cpp(src).unwrap();
    assert!(check(&prog).is_empty());
}

#[test]
fn for_each_rejects_binary_functor() {
    // multiplies<long> is binary; for_each applies it to one element.
    let src = "\
void f(vector<long>& v) {
  for_each(v.begin(), v.end(), multiplies<long>());
}
";
    let prog = parse_cpp(src).unwrap();
    let errors = check(&prog);
    assert!(!errors.is_empty());
    assert!(errors.iter().any(|e| e.message.contains("no match for call")));
    // The error chain reaches back into the user's call.
    assert!(errors.iter().any(|e| !e.chain.is_empty()));
    // bind1st turns the binary functor into a unary one — a constructive
    // change the search should not need here, but removal/adaptation of
    // the functor argument must localize the problem.
    let report = search_cpp(&prog);
    assert!(report.suggestions.iter().any(|s| s.original.contains("multiplies")));
}

#[test]
fn count_if_requires_predicate() {
    // A binary functor cannot be a unary predicate. (negate<long> would
    // be fine: C++ converts long to bool, and so do we.)
    let bad = "\
void f(vector<long>& v) {
  int n = count_if(v.begin(), v.end(), multiplies<long>());
  print_long(n);
}
";
    let prog = parse_cpp(bad).unwrap();
    let errors = check(&prog);
    assert!(
        errors.iter().any(|e| e.message.contains("no match for call")),
        "{:?}",
        errors.iter().map(|e| &e.message).collect::<Vec<_>>()
    );

    let good = "\
void f(vector<long>& v) {
  int n = count_if(v.begin(), v.end(), bind1st(less<long>(), 0));
  print_long(n);
}
";
    let prog = parse_cpp(good).unwrap();
    assert!(check(&prog).is_empty(), "{:?}", check(&prog));
}

#[test]
fn accumulate_deduces_init_type() {
    let src = "\
void f(vector<long>& v) {
  long total = accumulate(v.begin(), v.end(), 0);
  print_long(total);
}
";
    // int 0 deduces T = int; assigning to long is a numeric conversion.
    let prog = parse_cpp(src).unwrap();
    assert!(check(&prog).is_empty());
}

#[test]
fn swapped_iterator_and_functor_args() {
    let src = "\
void f(vector<long>& v) {
  for_each(v.begin(), negate<long>(), v.end());
}
";
    let prog = parse_cpp(src).unwrap();
    assert!(!check(&prog).is_empty());
    let report = search_cpp(&prog);
    // Some suggestion must repair or localize the call. Reversing puts
    // the functor last only for a full reverse of a 2-arg call, so the
    // acceptable outcomes are removal/adaptation at the misplaced args
    // or an argument-drop.
    assert!(!report.suggestions.is_empty());
}

#[test]
fn greater_functor_with_bind1st() {
    let src = "\
void f(vector<long>& v) {
  int n = count_if(v.begin(), v.end(), bind1st(greater<long>(), 10));
  print_long(n);
}
";
    let prog = parse_cpp(src).unwrap();
    assert!(check(&prog).is_empty(), "{:?}", check(&prog));
}

#[test]
fn template_functions_unused_are_unchecked() {
    // Like C++: a template with a latent error is fine until instantiated.
    let src = "\
template <class A, class B> B sketchy(A x) { return x.nonexistent(); }
void f(vector<long>& v) { v.size(); }
";
    let prog = parse_cpp(src).unwrap();
    assert!(check(&prog).is_empty());
}

#[test]
fn user_template_checked_at_instantiation() {
    let src = "\
template <class T> long twice(T x) { return labs(x); }
void f() { long a = twice(7); print_long(a); }
";
    let prog = parse_cpp(src).unwrap();
    assert!(check(&prog).is_empty());

    // Instantiating with an incompatible argument surfaces the body error
    // with an instantiation chain.
    let bad = "\
template <class T> long twice(T x) { return labs(x); }
void f(vector<long>& v) { long a = twice(v); print_long(a); }
";
    let prog = parse_cpp(bad).unwrap();
    let errors = check(&prog);
    assert!(!errors.is_empty());
    assert!(errors.iter().any(|e| e.chain.iter().any(|c| c.contains("twice"))));
}

#[test]
fn cascade_errors_counted_not_deduplicated_across_sites() {
    // Two independent bad statements → at least two diagnostics.
    let src = "\
void f(vector<long>& v) {
  for_each(v.begin(), v.end(), multiplies<long>());
  long x = v;
  print_long(x);
}
";
    let prog = parse_cpp(src).unwrap();
    let errors = check(&prog);
    assert!(errors.len() >= 2, "{:?}", errors.iter().map(|e| &e.message).collect::<Vec<_>>());
    // The search's success criterion tolerates fixing only one of them.
    let report = search_cpp(&prog);
    assert!(report
        .suggestions
        .iter()
        .any(|s| s.errors_after > 0 && s.errors_after < s.errors_before));
}

#[test]
fn statement_kind_ranked_after_expression_fixes() {
    let src = "\
void myFun(vector<long>& inv, vector<long>& outv) {
  transform(inv.begin(), inv.end(), outv.begin(),
            compose1(bind1st(multiplies<long>(), 5), labs));
}
";
    let prog = parse_cpp(src).unwrap();
    let report = search_cpp(&prog);
    let first_stmt_pos =
        report.suggestions.iter().position(|s| matches!(s.kind, CppChangeKind::Statement(_)));
    let ptr_fun_pos =
        report.suggestions.iter().position(|s| s.replacement == "ptr_fun(labs)").unwrap();
    if let Some(stmt_pos) = first_stmt_pos {
        assert!(ptr_fun_pos < stmt_pos, "constructive fix must outrank statement surgery");
    }
}

#[test]
fn nested_vectors_inflate_the_cascade() {
    // §4.1: "If we had made the same mistake for an operation over
    // vector<vector<long> > instead of vector<long> … the messages would
    // have been over twice as long."
    let flat = "\
void myFun(vector<long>& inv, vector<long>& outv) {
  transform(inv.begin(), inv.end(), outv.begin(),
            compose1(bind1st(multiplies<long>(), 5), labs));
}
";
    let nested = "\
void myFun(vector<vector<long>>& inv, vector<vector<long>>& outv) {
  transform(inv.begin(), inv.end(), outv.begin(),
            compose1(bind1st(multiplies<long>(), 5), labs));
}
";
    let render_len = |src: &str| {
        let prog = parse_cpp(src).unwrap();
        check(&prog).iter().map(|e| e.render(src).len()).sum::<usize>()
    };
    let flat_len = render_len(flat);
    let nested_len = render_len(nested);
    assert!(
        flat_len > 0 && nested_len > flat_len,
        "nested {nested_len} should exceed flat {flat_len}"
    );
}

#[test]
fn focus_is_the_function_holding_the_error_not_the_first_one() {
    // §4.2 confines the search to the function containing the first
    // error; a well-typed function before it must not steal the focus.
    let src = "\
void ok(vector<long>& v) {
  v.push_back(3);
}
void bad(vector<long>& v) {
  long x = v;
  print_long(x);
}
";
    let prog = parse_cpp(src).unwrap();
    assert_eq!(check(&prog).len(), 1);
    let report = search_cpp(&prog);
    let best = report.best().expect("the error in `bad` must get a suggestion");
    assert_eq!((best.original.as_str(), best.replacement.as_str()), ("v", "magicFun(v)"));
    assert_eq!(best.errors_after, 0);
}
