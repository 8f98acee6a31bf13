//! The four workloads and the inputs each one makes from its seed.
//!
//! Every input is a pure function of the seed: the same seed gives
//! byte-identical sources and ground truth, so a run can be repeated and
//! two commits can be compared on the same inputs.

use seminal_corpus::rng::SplitMix64;
use seminal_corpus::session::sample_group_size;
use seminal_corpus::{generate, CorpusConfig, CorpusFile, GroundTruth, MutationKind, TEMPLATES};
use seminal_ml::parser::parse_program;
use seminal_ml::span::Span;
use seminal_typeck::check_program;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The seeded synthetic student corpus, one check per file.
    ///
    /// Why: this is the typical user file. Fixed costs per check
    /// dominate, and the cross-request memo is cold, so memo keying
    /// costs time but never hits.
    Homework,
    /// Every well-typed template concatenated (about 110 declarations)
    /// with one homework file spliced in at a seeded declaration.
    ///
    /// Why: localization dominates the check and the incremental
    /// oracle's prefix reuse matters, while the oracle does little.
    /// Not listed in `BENCHMARK.json`: its run-to-run spread exceeded
    /// the bound on a noisy 2-core host (see `NOTES.md`).
    LongFile,
    /// One helper plus one list literal of 150 to 250 elements with a
    /// single ill-typed element at a seeded index.
    ///
    /// Why: thousands of probes, so the oracle and the search's own
    /// enumerate, edit and rank work dominate and localization costs
    /// almost nothing: the inverse of `LongFile`.
    WideExpr,
    /// Two TCP clients against an in-process server, each re-sending
    /// its own homework problems in Figure 6 recompile groups.
    ///
    /// Why: the only workload where the cross-request memo both hits
    /// and inserts, and where JSON decode and encode, the server loop
    /// and admission run.
    ServeReplay,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] =
        [Workload::Homework, Workload::LongFile, Workload::WideExpr, Workload::ServeReplay];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Homework => "homework",
            Workload::LongFile => "long_file",
            Workload::WideExpr => "wide_expr",
            Workload::ServeReplay => "serve_replay",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Highest percentile the tail latency is reported at. The check
    /// workloads' latency samples are their pool inputs
    /// (`HOMEWORK_FILES`, `LONG_FILE_POOL`, `WIDE_EXPR_POOL`), and each
    /// cap is the highest ladder percentile with at least ten of them
    /// beyond it. `ServeReplay` samples are its ~20k requests, but all
    /// requests of one class share their class's best time, so its cap
    /// leaves tens of cold classes beyond it, not just ten requests.
    /// Fixing the cap keeps the percentile the same from run to run.
    #[must_use]
    pub fn tail_cap(self) -> f64 {
        match self {
            Workload::Homework => 95.0,
            Workload::LongFile => 90.0,
            Workload::WideExpr => 75.0,
            Workload::ServeReplay => 99.0,
        }
    }
}

/// One input of a check workload, with the ground truth the location
/// judgment needs. `file.source` is the program text that is checked.
#[derive(Debug, Clone)]
pub struct CheckInput {
    /// Ground truth; spans refer to `file.source`.
    pub file: CorpusFile,
    /// Top-level declarations in the source.
    pub decls: usize,
    /// Workload-specific input property, printed with the results.
    pub note: String,
}

impl CheckInput {
    fn new(file: CorpusFile, note: String) -> CheckInput {
        let decls = parse_program(&file.source)
            .unwrap_or_else(|e| panic!("generated input {} does not parse: {e}", file.id))
            .decls
            .len();
        CheckInput { file, decls, note }
    }

    /// The program text.
    #[must_use]
    pub fn source(&self) -> &str {
        &self.file.source
    }
}

/// Files in the `LongFile` pool.
pub const LONG_FILE_POOL: usize = 100;
/// Inputs in the `WideExpr` pool.
pub const WIDE_EXPR_POOL: usize = 40;
/// Shortest and one past the longest `WideExpr` list.
pub const WIDE_EXPR_LENGTHS: (usize, usize) = (150, 250);

/// Homework files per seed: 10 programmers × 5 assignments × 16
/// problems. Four times the corpus generator's default, because with 200
/// files the seed-to-seed spread of the location share and of the tail
/// (set by the few most expensive files) was too wide.
pub const HOMEWORK_FILES: usize = 800;

fn homework_corpus(seed: u64) -> Vec<CorpusFile> {
    let cfg =
        CorpusConfig { seed, problems_per_cell: HOMEWORK_FILES / 50, ..CorpusConfig::default() };
    generate(&cfg)
}

/// The homework corpus of `seed`: `HOMEWORK_FILES` seeded student files
/// of 3 to 10 declarations, a quarter of them with two errors.
#[must_use]
pub fn homework(seed: u64) -> Vec<CheckInput> {
    homework_corpus(seed).into_iter().map(|f| CheckInput::new(f, String::new())).collect()
}

/// All templates, concatenated in their fixed order.
fn template_text() -> String {
    TEMPLATES.iter().map(|t| t.source).collect()
}

/// A byte offset into a generated source as a span coordinate.
fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("generated sources are far below 4 GiB")
}

fn shift(span: Span, by: usize) -> Span {
    Span::new(span.start + offset(by), span.end + offset(by))
}

/// The first type error's span, which every generated input must have.
fn first_error(source: &str) -> Option<Span> {
    let prog = parse_program(source).ok()?;
    check_program(&prog).err().map(|e| e.span)
}

/// `LONG_FILE_POOL` long files: the templates with one homework file
/// spliced in at a declaration boundary in the second quarter of the
/// templates, so that a long prefix is inferred before the fault and a
/// longer suffix parsed after it. The boundaries of that quarter are
/// dealt out evenly to files drawn in seeded order, so the seed decides
/// which file sits where but every seed's pool has the same positions:
/// the check's cost grows steeply, and unevenly, with the declarations
/// inferred before the fault (from 1 ms at the top of the file to over
/// 100 ms at the bottom). The early band keeps checks short enough to
/// repeat each input several times in a run.
///
/// A splice is kept only when the long file's first type error is the
/// homework file's own, shifted by the splice offset; otherwise a
/// template definition shadowing one of the file's names would move the
/// fault, and the ground truth would be wrong. The next boundary is tried
/// instead, and a file no boundary suits is skipped.
#[must_use]
pub fn long_file(seed: u64) -> Vec<CheckInput> {
    let text = template_text();
    let templates = parse_program(&text).expect("the templates parse");
    assert!(check_program(&templates).is_ok(), "the concatenated templates must type-check");
    let boundaries: Vec<usize> = templates
        .decls
        .iter()
        .map(|d| d.span.start as usize)
        .chain(std::iter::once(text.len()))
        .collect();
    let (first, span) = (boundaries.len() / 4, boundaries.len() / 4);
    let corpus = homework_corpus(seed);
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x10_6F11E);
    let mut pool = Vec::with_capacity(LONG_FILE_POOL);
    for pick in shuffled(corpus.len(), &mut rng) {
        if pool.len() == LONG_FILE_POOL {
            break;
        }
        let file = &corpus[pick];
        let stratum = pool.len() * span / LONG_FILE_POOL;
        let standalone = first_error(&file.source).expect("corpus files are ill-typed");
        let splice = (0..span).map(|k| first + (stratum + k) % span).find_map(|position| {
            let offset = boundaries[position];
            let source =
                format!("{}{}\n{}", &text[..offset], file.source.trim_end(), &text[offset..]);
            (first_error(&source) == Some(shift(standalone, offset)))
                .then_some((position, offset, source))
        });
        if let Some((position, offset, source)) = splice {
            let truths = file
                .truths
                .iter()
                .map(|t| GroundTruth {
                    span: shift(t.span, offset),
                    decl: t.decl + position,
                    ..t.clone()
                })
                .collect();
            let spliced = CorpusFile {
                id: format!("{}@{position}", file.id),
                source,
                truths,
                ..file.clone()
            };
            pool.push(CheckInput::new(spliced, format!("splice_decl={position}")));
        }
    }
    pool
}

/// A seeded permutation of `0..n`.
fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.random_range(0..i + 1));
    }
    v
}

/// `WIDE_EXPR_POOL` wide lists. Lengths are stratified over
/// `WIDE_EXPR_LENGTHS` and the bad element's relative position over the
/// list, so every seed's pool covers the same range of input sizes.
#[must_use]
pub fn wide_expr(seed: u64) -> Vec<CheckInput> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x01DE_E4B4);
    let (lo, hi) = WIDE_EXPR_LENGTHS;
    let k = WIDE_EXPR_POOL;
    let strata = shuffled(k, &mut rng);
    (0..k)
        .map(|i| {
            let len = lo + (i * (hi - lo) + rng.random_range(0..hi - lo)) / k;
            let bad = (strata[i] * len + rng.random_range(0..len)) / k;
            wide_input(seed, i, len, bad)
        })
        .collect()
}

fn wide_input(seed: u64, index: usize, len: usize, bad: usize) -> CheckInput {
    let mut source = String::from("let scale x = x * 2\nlet bulk =\n  [");
    let mut truth = Span::DUMMY;
    for j in 0..len {
        if j > 0 {
            source.push_str(";\n   ");
        }
        source.push_str("scale ");
        if j == bad {
            let start = source.len();
            source.push_str(&format!("\"bad{j}\""));
            truth = Span::new(offset(start), offset(source.len()));
        } else {
            source.push_str(&j.to_string());
        }
    }
    source.push_str("]\n");
    let error = first_error(&source).expect("a wide list with a string element is ill-typed");
    assert!(error.overlaps(truth) || truth.contains(error), "wide_expr fault moved: {error:?}");
    let file = CorpusFile {
        id: format!("wide-{seed}-{index}"),
        programmer: 0,
        assignment: 0,
        template: "wide_expr",
        truths: vec![GroundTruth {
            kind: MutationKind::WrongLiteral,
            path: None,
            decl: 1,
            span: truth,
            original: bad.to_string(),
            mutated: format!("\"bad{bad}\""),
        }],
        source,
    };
    CheckInput::new(file, format!("len={len} bad_index={bad}"))
}

/// Line prepended to a serve problem so that each problem is a distinct
/// program: two students who make the same mistake in the same template
/// still send different files. It is well-typed and one line long, so
/// rendered locations are the same for every tag.
#[must_use]
pub fn tagged(tag: u64, source: &str) -> String {
    format!("let problem_tag = {tag}\n{source}")
}

/// The ground truth of `file` once it is sent with a `problem_tag` line.
#[must_use]
pub fn tagged_file(file: &CorpusFile, tag: u64) -> CorpusFile {
    let source = tagged(tag, &file.source);
    let by = source.len() - file.source.len();
    let truths = file
        .truths
        .iter()
        .map(|t| GroundTruth { span: shift(t.span, by), decl: t.decl + 1, ..t.clone() })
        .collect();
    CorpusFile { source, truths, ..file.clone() }
}

/// One problem a serve client works on: which homework file, its unique
/// tag, and how many times it is sent (the Figure 6 recompile group).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Problem {
    /// Index into the homework corpus.
    pub base: usize,
    /// Unique across both clients of a run.
    pub tag: u64,
    /// Sends of this problem; all but the first are warm repeats.
    pub group: usize,
}

/// A serve client's endless, seeded walk over the homework corpus.
/// Clients draw disjoint tags, so no problem repeats outside its group.
pub struct ClientDraw {
    rng: SplitMix64,
    client: u64,
    bases: usize,
    next: u64,
}

impl ClientDraw {
    /// The draw of client `client` over `bases` homework files.
    #[must_use]
    pub fn new(seed: u64, client: u64, bases: usize) -> ClientDraw {
        let rng = SplitMix64::seed_from_u64(seed ^ 0x5E4E_0000 ^ client.wrapping_mul(0x9E37_79B9));
        ClientDraw { rng, client, bases, next: 0 }
    }
}

/// Longest recompile group a client sends. The Figure 6 model's rare
/// heavy-tail groups reach 2,496 sends; one of them would be a tenth of
/// a run's requests, all of one homework file, and would move the
/// run's percentiles with the seed. Capping at the model's own geometric
/// cap keeps its tail shape up to 64 while about 60% of requests stay warm.
pub const MAX_GROUP: usize = 64;

impl Iterator for ClientDraw {
    type Item = Problem;

    fn next(&mut self) -> Option<Problem> {
        let base = self.rng.random_range(0..self.bases);
        let group = sample_group_size(&mut self.rng).min(MAX_GROUP);
        self.next += 1;
        Some(Problem { base, tag: self.client * 1_000_000_000 + self.next, group })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every input `workload` makes from `seed`, rendered to text: the
    /// check workloads' sources, or for `ServeReplay` the corpus plus each
    /// client's first problems. Used to show inputs depend on the seed alone.
    fn fingerprint_text(workload: Workload, seed: u64) -> String {
        let render = |inputs: Vec<CheckInput>| -> String {
            inputs
                .iter()
                .map(|i| format!("{}\n{:?}\n{}\n", i.file.id, i.file.truths, i.file.source))
                .collect()
        };
        match workload {
            Workload::Homework => render(homework(seed)),
            Workload::LongFile => render(long_file(seed)),
            Workload::WideExpr => render(wide_expr(seed)),
            Workload::ServeReplay => {
                let corpus = homework(seed);
                let mut text = render(corpus.clone());
                for client in 0..2 {
                    for p in ClientDraw::new(seed, client, corpus.len()).take(200) {
                        text.push_str(&format!("{p:?}\n"));
                    }
                }
                text
            }
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = fingerprint_text(w, 11);
            assert_eq!(a, fingerprint_text(w, 11), "{} inputs differ for one seed", w.name());
            assert_ne!(a, fingerprint_text(w, 12), "{} inputs ignore the seed", w.name());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn wide_lists_cover_the_length_range() {
        let pool = wide_expr(3);
        assert_eq!(pool.len(), WIDE_EXPR_POOL);
        let (lo, hi) = WIDE_EXPR_LENGTHS;
        for (i, input) in pool.iter().enumerate() {
            // Element `i` falls in the i-th of `WIDE_EXPR_POOL` equal strata.
            let scaled = (input.source().matches("scale ").count() - 1 - lo) * WIDE_EXPR_POOL;
            assert!(scaled + WIDE_EXPR_POOL > i * (hi - lo), "input {i} below its stratum");
            assert!(scaled < (i + 1) * (hi - lo), "input {i} above its stratum");
        }
    }

    #[test]
    fn long_files_keep_the_homework_fault() {
        for input in long_file(5) {
            let error = first_error(input.source()).expect("ill-typed");
            assert!(
                input.file.truths.iter().any(|t| t.decl < input.decls),
                "{} truth outside the file",
                input.file.id
            );
            assert!(input.decls > 100, "{} has only {} declarations", input.file.id, input.decls);
            assert!(error.start as usize <= input.source().len());
        }
    }

    #[test]
    fn client_draws_are_disjoint() {
        let a: Vec<u64> = ClientDraw::new(1, 0, 200).take(500).map(|p| p.tag).collect();
        let b: Vec<u64> = ClientDraw::new(1, 1, 200).take(500).map(|p| p.tag).collect();
        assert!(a.iter().all(|t| !b.contains(t)));
    }
}
