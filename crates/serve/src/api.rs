//! `seminal-api/v1` — the versioned request/response schema.
//!
//! Everything the tool can be asked to do is a [`Request`]; everything
//! it answers is a [`Response`]. The wire form is one JSON object per
//! line (NDJSON), strict in the same sense as `metrics-v1`/`crash-v1`:
//! unknown fields are rejected, the `api` tag is mandatory, and the
//! canonical serializer emits members in a fixed order with optional
//! fields omitted exactly when absent — so `serialize → parse →
//! re-serialize` is byte-identical (the round-trip tests pin this).
//!
//! The same types serve both front ends: `seminal serve` decodes
//! requests off a socket, while the one-shot CLI *constructs* requests
//! from its flags and feeds them to the same
//! [`dispatch`](crate::dispatch::dispatch) entry point, so exit codes,
//! degraded statuses, and crash attachment cannot drift between the
//! two. Exit codes themselves live here too ([`EXIT_CODES`]) as the
//! single table both `--help` and the README render from.

use seminal_analysis::BackendKind;
use seminal_core::ConfigError;
use seminal_obs::{parse_json, CrashReport, Json, MetricsSnapshot};
use std::fmt;

/// The schema tag every request and response carries; bump the suffix
/// on any change to the wire layout.
pub const SCHEMA: &str = "seminal-api/v1";

/// One row per process exit code: the single source of truth rendered
/// into `--help`, the README table, and [`Status::exit_code`].
pub const EXIT_CODES: [(u8, &str); 8] = [
    (0, "success: no type errors (check/analyze/cpp), valid metrics file, clean fuzz campaign, or clean serve shutdown"),
    (1, "type errors found; invalid metrics file; fuzz invariant violations"),
    (2, "usage error or invalid request configuration"),
    (3, "the input file does not parse"),
    (4, "a file could not be read or written"),
    (5, "type errors found but the search degraded (deadline, budget, cancellation, or isolated probe faults); suggestions are best-so-far"),
    (6, "analyze: ill-typed but the chosen backend produced no rankable core; fall back to the checker's own span"),
    (7, "request shed by overload control (serve): the server is saturated; retry after the response's retry_after_ms backoff"),
];

/// Renders [`EXIT_CODES`] for `--help`.
#[must_use]
pub fn render_exit_table_help() -> String {
    let mut out = String::from("exit codes:\n");
    for (code, desc) in EXIT_CODES {
        out.push_str(&format!("  {code}  {desc}\n"));
    }
    out
}

/// Renders [`EXIT_CODES`] as the README's markdown table rows (a test
/// asserts the README contains exactly these rows).
#[must_use]
pub fn render_exit_table_markdown() -> String {
    let mut out = String::from("| code | meaning |\n|------|---------|\n");
    for (code, desc) in EXIT_CODES {
        out.push_str(&format!("| {code} | {desc} |\n"));
    }
    out
}

/// The structured outcome of a request — the API-level projection of
/// `Completion`/exit-code semantics. Every status maps onto exactly
/// one process exit code from [`EXIT_CODES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The request succeeded and found nothing wrong.
    Ok,
    /// Type errors were found (and the search ran to completion).
    TypeErrors,
    /// The request itself was malformed or its configuration invalid.
    InvalidRequest,
    /// The submitted source does not parse.
    ParseError,
    /// A file could not be read or written (one-shot CLI only).
    IoError,
    /// Type errors were found but the search degraded (deadline,
    /// budget, cancellation, or isolated probe faults).
    Degraded,
    /// Ill-typed, but the localization backend produced nothing
    /// rankable (`analyze` only).
    NoCore,
    /// The server shed this request under overload: admitting it would
    /// have outlived its deadline in the bounded queue (or the
    /// connection cap was reached). Retry after the accompanying
    /// `retry_after_ms`.
    Overloaded,
}

impl Status {
    /// The process exit code this status maps onto.
    #[must_use]
    pub fn exit_code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::TypeErrors => 1,
            Status::InvalidRequest => 2,
            Status::ParseError => 3,
            Status::IoError => 4,
            Status::Degraded => 5,
            Status::NoCore => 6,
            Status::Overloaded => 7,
        }
    }

    /// Stable lowercase wire tag.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::TypeErrors => "type_errors",
            Status::InvalidRequest => "invalid_request",
            Status::ParseError => "parse_error",
            Status::IoError => "io_error",
            Status::Degraded => "degraded",
            Status::NoCore => "no_core",
            Status::Overloaded => "overloaded",
        }
    }

    /// Parses a wire tag.
    #[must_use]
    pub fn from_tag(tag: &str) -> Option<Status> {
        [
            Status::Ok,
            Status::TypeErrors,
            Status::InvalidRequest,
            Status::ParseError,
            Status::IoError,
            Status::Degraded,
            Status::NoCore,
            Status::Overloaded,
        ]
        .into_iter()
        .find(|s| s.tag() == tag)
    }
}

/// Why a request could not be decoded or admitted — the API-level
/// mirror of `ConfigError`, which it embeds for configuration
/// problems so the two vocabularies cannot diverge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// The line is not JSON at all (or not an object).
    Json(String),
    /// The `api` tag is missing or names a different schema.
    SchemaMismatch {
        /// What the `api` member said (empty when absent).
        found: String,
    },
    /// A required member is absent.
    MissingField(&'static str),
    /// A member the schema does not define (strictness, like
    /// `metrics-v1`).
    UnknownField(String),
    /// The `type` member names no known request kind.
    UnknownType(String),
    /// A member is present but malformed.
    BadValue {
        /// Which member.
        field: &'static str,
        /// What was wrong with it.
        why: String,
    },
    /// The request decoded fine but its configuration is invalid —
    /// exactly the builder's typed validation.
    Config(ConfigError),
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Json(why) => write!(f, "invalid JSON: {why}"),
            ApiError::SchemaMismatch { found } if found.is_empty() => {
                write!(f, "missing \"api\" tag (expected {SCHEMA:?})")
            }
            ApiError::SchemaMismatch { found } => {
                write!(f, "unsupported schema {found:?} (expected {SCHEMA:?})")
            }
            ApiError::MissingField(name) => write!(f, "missing required field {name:?}"),
            ApiError::UnknownField(name) => write!(f, "unknown field {name:?}"),
            ApiError::UnknownType(name) => write!(f, "unknown request type {name:?}"),
            ApiError::BadValue { field, why } => write!(f, "bad value for {field:?}: {why}"),
            // No prefix: the one-shot CLI renders this as
            // `invalid configuration: {error}` to stay byte-identical
            // with the pre-dispatch builder path.
            ApiError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<ConfigError> for ApiError {
    fn from(e: ConfigError) -> ApiError {
        ApiError::Config(e)
    }
}

/// `check`: run the full search on `source`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckRequest {
    /// Client-chosen request id, echoed in the response.
    pub id: u64,
    /// The Caml-subset program text.
    pub source: String,
    /// How many ranked suggestions to render.
    pub top: u64,
    /// Disable triage (§2.4).
    pub no_triage: bool,
    /// Localization backend guiding the search.
    pub backend: BackendKind,
    /// Accepted for v1 compatibility: validated (`0` is an invalid
    /// request) but otherwise ignored, since probes run sequentially.
    pub threads: Option<u64>,
    /// Admission control: wall-clock deadline for this one request.
    pub deadline_ms: Option<u64>,
    /// Chaos: verdict-flip rate, per mille (0 = off).
    pub chaos_flip: u16,
    /// Chaos: panic rate, per mille (0 = off).
    pub chaos_panic: u16,
    /// Chaos: seed for the injection layer's own draws.
    pub chaos_seed: u64,
    /// Disable the checkpointed incremental oracle for this request
    /// (probes re-infer the whole program from scratch). Optional on the
    /// wire, default `false` — existing v1 clients get the incremental
    /// path automatically.
    pub no_incremental: bool,
}

impl CheckRequest {
    /// A plain check of `source` with defaults matching the CLI's.
    #[must_use]
    pub fn new(id: u64, source: impl Into<String>) -> CheckRequest {
        CheckRequest {
            id,
            source: source.into(),
            top: 3,
            no_triage: false,
            backend: BackendKind::Blame,
            threads: None,
            deadline_ms: None,
            chaos_flip: 0,
            chaos_panic: 0,
            chaos_seed: 0,
            no_incremental: false,
        }
    }
}

/// `analyze`: oracle-free localization of `source`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeRequest {
    /// Client-chosen request id, echoed in the response.
    pub id: u64,
    /// The Caml-subset program text.
    pub source: String,
    /// How many blamed spans / subsets to render.
    pub top: u64,
    /// Which localization backend to run.
    pub backend: BackendKind,
    /// Accepted for uniformity; analysis is fast enough that it is not
    /// currently enforced.
    pub deadline_ms: Option<u64>,
}

/// `metrics`: snapshot the whole process's aggregated metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsRequest {
    /// Client-chosen request id, echoed in the response.
    pub id: u64,
    /// Accepted for uniformity; snapshotting is not budgeted.
    pub deadline_ms: Option<u64>,
}

/// `shutdown`: answer, then stop serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownRequest {
    /// Client-chosen request id, echoed in the response.
    pub id: u64,
    /// Accepted for uniformity.
    pub deadline_ms: Option<u64>,
}

/// Every request the API defines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Full search (`seminal check`).
    Check(CheckRequest),
    /// Oracle-free localization (`seminal analyze`).
    Analyze(AnalyzeRequest),
    /// Process-wide metrics snapshot.
    Metrics(MetricsRequest),
    /// Stop the server.
    Shutdown(ShutdownRequest),
}

impl Request {
    /// The client-chosen request id.
    #[must_use]
    pub fn id(&self) -> u64 {
        match self {
            Request::Check(r) => r.id,
            Request::Analyze(r) => r.id,
            Request::Metrics(r) => r.id,
            Request::Shutdown(r) => r.id,
        }
    }

    /// The wire `type` tag.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Check(_) => "check",
            Request::Analyze(_) => "analyze",
            Request::Metrics(_) => "metrics",
            Request::Shutdown(_) => "shutdown",
        }
    }

    /// Canonical JSON encoding.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("api".to_owned(), Json::Str(SCHEMA.to_owned())),
            ("id".to_owned(), Json::Num(self.id())),
            ("type".to_owned(), Json::Str(self.kind().to_owned())),
        ];
        match self {
            Request::Check(r) => {
                members.push(("source".to_owned(), Json::Str(r.source.clone())));
                members.push(("top".to_owned(), Json::Num(r.top)));
                members.push(("no_triage".to_owned(), Json::Bool(r.no_triage)));
                members.push(("backend".to_owned(), Json::Str(r.backend.name().to_owned())));
                if let Some(n) = r.threads {
                    members.push(("threads".to_owned(), Json::Num(n)));
                }
                if let Some(ms) = r.deadline_ms {
                    members.push(("deadline_ms".to_owned(), Json::Num(ms)));
                }
                if r.chaos_flip > 0 {
                    members.push(("chaos_flip".to_owned(), Json::Num(u64::from(r.chaos_flip))));
                }
                if r.chaos_panic > 0 {
                    members.push(("chaos_panic".to_owned(), Json::Num(u64::from(r.chaos_panic))));
                }
                if r.chaos_seed > 0 {
                    members.push(("chaos_seed".to_owned(), Json::Num(r.chaos_seed)));
                }
                if r.no_incremental {
                    members.push(("no_incremental".to_owned(), Json::Bool(true)));
                }
            }
            Request::Analyze(r) => {
                members.push(("source".to_owned(), Json::Str(r.source.clone())));
                members.push(("top".to_owned(), Json::Num(r.top)));
                members.push(("backend".to_owned(), Json::Str(r.backend.name().to_owned())));
                if let Some(ms) = r.deadline_ms {
                    members.push(("deadline_ms".to_owned(), Json::Num(ms)));
                }
            }
            Request::Metrics(r) => {
                if let Some(ms) = r.deadline_ms {
                    members.push(("deadline_ms".to_owned(), Json::Num(ms)));
                }
            }
            Request::Shutdown(r) => {
                if let Some(ms) = r.deadline_ms {
                    members.push(("deadline_ms".to_owned(), Json::Num(ms)));
                }
            }
        }
        Json::Obj(members)
    }

    /// Canonical single-line encoding (the NDJSON wire form).
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Strict decoder: unknown fields, missing required fields, and a
    /// wrong/missing `api` tag are all errors.
    ///
    /// # Errors
    ///
    /// An [`ApiError`] naming the first problem found.
    pub fn from_json(json: &Json) -> Result<Request, ApiError> {
        let Json::Obj(_) = json else {
            return Err(ApiError::Json("request must be a JSON object".to_owned()));
        };
        match json.get("api").and_then(Json::as_str) {
            Some(tag) if tag == SCHEMA => {}
            Some(tag) => return Err(ApiError::SchemaMismatch { found: tag.to_owned() }),
            None => return Err(ApiError::SchemaMismatch { found: String::new() }),
        }
        let id = req_num(json, "id")?;
        let kind = req_str(json, "type")?;
        match kind {
            "check" => {
                check_fields(
                    json,
                    &[
                        "api",
                        "id",
                        "type",
                        "source",
                        "top",
                        "no_triage",
                        "backend",
                        "threads",
                        "deadline_ms",
                        "chaos_flip",
                        "chaos_panic",
                        "chaos_seed",
                        "no_incremental",
                    ],
                )?;
                Ok(Request::Check(CheckRequest {
                    id,
                    source: req_str(json, "source")?.to_owned(),
                    top: req_num(json, "top")?,
                    no_triage: req_bool(json, "no_triage")?,
                    backend: req_backend(json)?,
                    threads: opt_num(json, "threads")?,
                    deadline_ms: opt_num(json, "deadline_ms")?,
                    chaos_flip: opt_per_mille(json, "chaos_flip")?,
                    chaos_panic: opt_per_mille(json, "chaos_panic")?,
                    chaos_seed: opt_num(json, "chaos_seed")?.unwrap_or(0),
                    no_incremental: opt_bool(json, "no_incremental")?,
                }))
            }
            "analyze" => {
                check_fields(
                    json,
                    &["api", "id", "type", "source", "top", "backend", "deadline_ms"],
                )?;
                Ok(Request::Analyze(AnalyzeRequest {
                    id,
                    source: req_str(json, "source")?.to_owned(),
                    top: req_num(json, "top")?,
                    backend: req_backend(json)?,
                    deadline_ms: opt_num(json, "deadline_ms")?,
                }))
            }
            "metrics" => {
                check_fields(json, &["api", "id", "type", "deadline_ms"])?;
                Ok(Request::Metrics(MetricsRequest {
                    id,
                    deadline_ms: opt_num(json, "deadline_ms")?,
                }))
            }
            "shutdown" => {
                check_fields(json, &["api", "id", "type", "deadline_ms"])?;
                Ok(Request::Shutdown(ShutdownRequest {
                    id,
                    deadline_ms: opt_num(json, "deadline_ms")?,
                }))
            }
            other => Err(ApiError::UnknownType(other.to_owned())),
        }
    }

    /// Parses one NDJSON line.
    ///
    /// # Errors
    ///
    /// An [`ApiError`] naming the first problem found.
    pub fn from_json_str(line: &str) -> Result<Request, ApiError> {
        let json = parse_json(line).map_err(|e| ApiError::Json(e.to_string()))?;
        Request::from_json(&json)
    }
}

/// One ranked suggestion in a `check` response — the same
/// `(original, replacement, new_type, triaged)` tuple as
/// `SearchReport::payload`, which the differential suites compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PayloadEntry {
    /// Concrete syntax of the node the suggestion changes.
    pub original: String,
    /// Concrete syntax of the proposed replacement.
    pub replacement: String,
    /// Inferred type of the replacement, when one is shown.
    pub new_type: Option<String>,
    /// Whether triage (§2.4) produced this suggestion.
    pub triaged: bool,
}

/// Search-summary numbers the CLI's trailer line prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSummary {
    /// Logical oracle calls the search charged.
    pub oracle_calls: u64,
    /// Wall-clock search time, nanoseconds.
    pub elapsed_ns: u64,
    /// Whether triage ran.
    pub triage_used: bool,
}

/// Response to a `check` request.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Structured outcome.
    pub status: Status,
    /// `Completion` tag (`complete`, `degraded`, `deadline-expired`, …).
    pub completion: String,
    /// The conventional checker's rendered message, when ill-typed.
    pub baseline: Option<String>,
    /// The search system's rendered suggestion report.
    pub rendered: String,
    /// Machine-readable suggestions.
    pub payload: Vec<PayloadEntry>,
    /// Search-summary numbers.
    pub stats: StatsSummary,
    /// Per-request metrics (including the `memo.cross_request_*` keys).
    pub metrics: MetricsSnapshot,
    /// Flight-recorder crash report, when the run degraded or faulted.
    pub crash: Option<CrashReport>,
}

/// Response to an `analyze` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Structured outcome.
    pub status: Status,
    /// Which backend ran.
    pub backend: BackendKind,
    /// The rendered localization report (empty when well-typed).
    pub rendered: String,
}

/// Response to a `metrics` request.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Always [`Status::Ok`].
    pub status: Status,
    /// The process-wide `seminal-obs/metrics-v1` snapshot.
    pub metrics: MetricsSnapshot,
}

/// Response to a `shutdown` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Always [`Status::Ok`].
    pub status: Status,
    /// Requests this process dispatched, this one included.
    pub requests_served: u64,
}

/// Response when admission control shed the request under overload.
/// Always [`Status::Overloaded`]; the request was *not* run — the
/// client should retry after `retry_after_ms` (plus its own jitter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverloadedResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Always [`Status::Overloaded`].
    pub status: Status,
    /// Server's estimate of when capacity frees up, milliseconds. The
    /// `forward` client and `loadgen` honor it (with jitter) before
    /// resending.
    pub retry_after_ms: u64,
}

/// Response when the request could not be served at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorResponse {
    /// Echo of the request id (0 when the id itself was unreadable).
    pub id: u64,
    /// [`Status::InvalidRequest`], [`Status::ParseError`], or
    /// [`Status::IoError`].
    pub status: Status,
    /// Human-readable description of the failure.
    pub error: String,
}

/// Every response the API defines.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Check`] (boxed: it carries a full metrics
    /// snapshot and dwarfs the other variants).
    Check(Box<CheckResponse>),
    /// Answer to [`Request::Analyze`].
    Analyze(AnalyzeResponse),
    /// Answer to [`Request::Metrics`].
    Metrics(MetricsResponse),
    /// Answer to [`Request::Shutdown`].
    Shutdown(ShutdownResponse),
    /// The request was shed by admission control under overload.
    Overloaded(OverloadedResponse),
    /// The request could not be served.
    Error(ErrorResponse),
}

impl Response {
    /// Echo of the request id.
    #[must_use]
    pub fn id(&self) -> u64 {
        match self {
            Response::Check(r) => r.id,
            Response::Analyze(r) => r.id,
            Response::Metrics(r) => r.id,
            Response::Shutdown(r) => r.id,
            Response::Overloaded(r) => r.id,
            Response::Error(r) => r.id,
        }
    }

    /// The structured outcome.
    #[must_use]
    pub fn status(&self) -> Status {
        match self {
            Response::Check(r) => r.status,
            Response::Analyze(r) => r.status,
            Response::Metrics(r) => r.status,
            Response::Shutdown(r) => r.status,
            Response::Overloaded(r) => r.status,
            Response::Error(r) => r.status,
        }
    }

    /// The wire `type` tag.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Check(_) => "check",
            Response::Analyze(_) => "analyze",
            Response::Metrics(_) => "metrics",
            Response::Shutdown(_) => "shutdown",
            Response::Overloaded(_) => "overloaded",
            Response::Error(_) => "error",
        }
    }

    /// The process exit code a one-shot run maps this response onto.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        self.status().exit_code()
    }

    /// Canonical JSON encoding.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("api".to_owned(), Json::Str(SCHEMA.to_owned())),
            ("id".to_owned(), Json::Num(self.id())),
            ("type".to_owned(), Json::Str(self.kind().to_owned())),
            ("status".to_owned(), Json::Str(self.status().tag().to_owned())),
            ("exit_code".to_owned(), Json::Num(u64::from(self.exit_code()))),
        ];
        match self {
            Response::Check(r) => {
                members.push(("completion".to_owned(), Json::Str(r.completion.clone())));
                if let Some(b) = &r.baseline {
                    members.push(("baseline".to_owned(), Json::Str(b.clone())));
                }
                members.push(("rendered".to_owned(), Json::Str(r.rendered.clone())));
                members.push((
                    "payload".to_owned(),
                    Json::Arr(
                        r.payload
                            .iter()
                            .map(|p| {
                                Json::Obj(vec![
                                    ("original".to_owned(), Json::Str(p.original.clone())),
                                    ("replacement".to_owned(), Json::Str(p.replacement.clone())),
                                    (
                                        "new_type".to_owned(),
                                        p.new_type
                                            .as_ref()
                                            .map_or(Json::Null, |t| Json::Str(t.clone())),
                                    ),
                                    ("triaged".to_owned(), Json::Bool(p.triaged)),
                                ])
                            })
                            .collect(),
                    ),
                ));
                members.push((
                    "stats".to_owned(),
                    Json::Obj(vec![
                        ("oracle_calls".to_owned(), Json::Num(r.stats.oracle_calls)),
                        ("elapsed_ns".to_owned(), Json::Num(r.stats.elapsed_ns)),
                        ("triage_used".to_owned(), Json::Bool(r.stats.triage_used)),
                    ]),
                ));
                members.push(("metrics".to_owned(), r.metrics.to_json()));
                if let Some(crash) = &r.crash {
                    members.push(("crash".to_owned(), crash.to_json()));
                }
            }
            Response::Analyze(r) => {
                members.push(("backend".to_owned(), Json::Str(r.backend.name().to_owned())));
                members.push(("rendered".to_owned(), Json::Str(r.rendered.clone())));
            }
            Response::Metrics(r) => {
                members.push(("metrics".to_owned(), r.metrics.to_json()));
            }
            Response::Shutdown(r) => {
                members.push(("requests_served".to_owned(), Json::Num(r.requests_served)));
            }
            Response::Overloaded(r) => {
                members.push(("retry_after_ms".to_owned(), Json::Num(r.retry_after_ms)));
            }
            Response::Error(r) => {
                members.push(("error".to_owned(), Json::Str(r.error.clone())));
            }
        }
        Json::Obj(members)
    }

    /// Canonical single-line encoding (the NDJSON wire form).
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Strict decoder, mirroring [`Request::from_json`]: unknown
    /// fields are rejected and the `exit_code` member must agree with
    /// `status` (it is derived, never free).
    ///
    /// # Errors
    ///
    /// An [`ApiError`] naming the first problem found.
    pub fn from_json(json: &Json) -> Result<Response, ApiError> {
        let Json::Obj(_) = json else {
            return Err(ApiError::Json("response must be a JSON object".to_owned()));
        };
        match json.get("api").and_then(Json::as_str) {
            Some(tag) if tag == SCHEMA => {}
            Some(tag) => return Err(ApiError::SchemaMismatch { found: tag.to_owned() }),
            None => return Err(ApiError::SchemaMismatch { found: String::new() }),
        }
        let id = req_num(json, "id")?;
        let status = Status::from_tag(req_str(json, "status")?)
            .ok_or(ApiError::BadValue { field: "status", why: "unknown status tag".to_owned() })?;
        let exit_code = req_num(json, "exit_code")?;
        if exit_code != u64::from(status.exit_code()) {
            return Err(ApiError::BadValue {
                field: "exit_code",
                why: format!(
                    "{} does not match status {:?} (expected {})",
                    exit_code,
                    status.tag(),
                    status.exit_code()
                ),
            });
        }
        match req_str(json, "type")? {
            "check" => {
                check_fields(
                    json,
                    &[
                        "api",
                        "id",
                        "type",
                        "status",
                        "exit_code",
                        "completion",
                        "baseline",
                        "rendered",
                        "payload",
                        "stats",
                        "metrics",
                        "crash",
                    ],
                )?;
                let payload = match json.get("payload") {
                    Some(Json::Arr(items)) => {
                        items.iter().map(payload_entry_from_json).collect::<Result<Vec<_>, _>>()?
                    }
                    Some(_) => {
                        return Err(ApiError::BadValue {
                            field: "payload",
                            why: "not an array".to_owned(),
                        })
                    }
                    None => return Err(ApiError::MissingField("payload")),
                };
                let stats = json.get("stats").ok_or(ApiError::MissingField("stats"))?;
                check_fields(stats, &["oracle_calls", "elapsed_ns", "triage_used"])?;
                let metrics = json.get("metrics").ok_or(ApiError::MissingField("metrics"))?;
                let metrics = MetricsSnapshot::from_json(metrics)
                    .map_err(|e| ApiError::BadValue { field: "metrics", why: e.to_string() })?;
                let crash =
                    match json.get("crash") {
                        None => None,
                        Some(c) => Some(CrashReport::from_json(c).map_err(|e| {
                            ApiError::BadValue { field: "crash", why: e.to_string() }
                        })?),
                    };
                Ok(Response::Check(Box::new(CheckResponse {
                    id,
                    status,
                    completion: req_str(json, "completion")?.to_owned(),
                    baseline: opt_str(json, "baseline")?,
                    rendered: req_str(json, "rendered")?.to_owned(),
                    payload,
                    stats: StatsSummary {
                        oracle_calls: req_num(stats, "oracle_calls")?,
                        elapsed_ns: req_num(stats, "elapsed_ns")?,
                        triage_used: req_bool(stats, "triage_used")?,
                    },
                    metrics,
                    crash,
                })))
            }
            "analyze" => {
                check_fields(
                    json,
                    &["api", "id", "type", "status", "exit_code", "backend", "rendered"],
                )?;
                Ok(Response::Analyze(AnalyzeResponse {
                    id,
                    status,
                    backend: req_backend(json)?,
                    rendered: req_str(json, "rendered")?.to_owned(),
                }))
            }
            "metrics" => {
                check_fields(json, &["api", "id", "type", "status", "exit_code", "metrics"])?;
                let metrics = json.get("metrics").ok_or(ApiError::MissingField("metrics"))?;
                let metrics = MetricsSnapshot::from_json(metrics)
                    .map_err(|e| ApiError::BadValue { field: "metrics", why: e.to_string() })?;
                Ok(Response::Metrics(MetricsResponse { id, status, metrics }))
            }
            "shutdown" => {
                check_fields(
                    json,
                    &["api", "id", "type", "status", "exit_code", "requests_served"],
                )?;
                Ok(Response::Shutdown(ShutdownResponse {
                    id,
                    status,
                    requests_served: req_num(json, "requests_served")?,
                }))
            }
            "overloaded" => {
                check_fields(
                    json,
                    &["api", "id", "type", "status", "exit_code", "retry_after_ms"],
                )?;
                if status != Status::Overloaded {
                    return Err(ApiError::BadValue {
                        field: "status",
                        why: "an overloaded response is always status \"overloaded\"".to_owned(),
                    });
                }
                Ok(Response::Overloaded(OverloadedResponse {
                    id,
                    status,
                    retry_after_ms: req_num(json, "retry_after_ms")?,
                }))
            }
            "error" => {
                check_fields(json, &["api", "id", "type", "status", "exit_code", "error"])?;
                Ok(Response::Error(ErrorResponse {
                    id,
                    status,
                    error: req_str(json, "error")?.to_owned(),
                }))
            }
            other => Err(ApiError::UnknownType(other.to_owned())),
        }
    }

    /// Parses one NDJSON line.
    ///
    /// # Errors
    ///
    /// An [`ApiError`] naming the first problem found.
    pub fn from_json_str(line: &str) -> Result<Response, ApiError> {
        let json = parse_json(line).map_err(|e| ApiError::Json(e.to_string()))?;
        Response::from_json(&json)
    }
}

fn payload_entry_from_json(json: &Json) -> Result<PayloadEntry, ApiError> {
    check_fields(json, &["original", "replacement", "new_type", "triaged"])?;
    let new_type = match json.get("new_type") {
        None => return Err(ApiError::MissingField("new_type")),
        Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(_) => {
            return Err(ApiError::BadValue {
                field: "new_type",
                why: "not a string or null".to_owned(),
            })
        }
    };
    Ok(PayloadEntry {
        original: req_str(json, "original")?.to_owned(),
        replacement: req_str(json, "replacement")?.to_owned(),
        new_type,
        triaged: req_bool(json, "triaged")?,
    })
}

/// Rejects any member not in `allowed` (the strictness half of the
/// schema contract).
fn check_fields(json: &Json, allowed: &[&str]) -> Result<(), ApiError> {
    let Json::Obj(members) = json else {
        return Err(ApiError::Json("expected a JSON object".to_owned()));
    };
    for (key, _) in members {
        if !allowed.contains(&key.as_str()) {
            return Err(ApiError::UnknownField(key.clone()));
        }
    }
    Ok(())
}

fn req_str<'a>(json: &'a Json, field: &'static str) -> Result<&'a str, ApiError> {
    match json.get(field) {
        None => Err(ApiError::MissingField(field)),
        Some(Json::Str(s)) => Ok(s),
        Some(_) => Err(ApiError::BadValue { field, why: "not a string".to_owned() }),
    }
}

fn opt_str(json: &Json, field: &'static str) -> Result<Option<String>, ApiError> {
    match json.get(field) {
        None => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(ApiError::BadValue { field, why: "not a string".to_owned() }),
    }
}

fn req_num(json: &Json, field: &'static str) -> Result<u64, ApiError> {
    match json.get(field) {
        None => Err(ApiError::MissingField(field)),
        Some(Json::Num(n)) => Ok(*n),
        Some(_) => Err(ApiError::BadValue { field, why: "not a number".to_owned() }),
    }
}

fn opt_num(json: &Json, field: &'static str) -> Result<Option<u64>, ApiError> {
    match json.get(field) {
        None => Ok(None),
        Some(Json::Num(n)) => Ok(Some(*n)),
        Some(_) => Err(ApiError::BadValue { field, why: "not a number".to_owned() }),
    }
}

fn opt_bool(json: &Json, field: &'static str) -> Result<bool, ApiError> {
    match json.get(field) {
        None => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(ApiError::BadValue { field, why: "not a boolean".to_owned() }),
    }
}

fn req_bool(json: &Json, field: &'static str) -> Result<bool, ApiError> {
    match json.get(field) {
        None => Err(ApiError::MissingField(field)),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(ApiError::BadValue { field, why: "not a boolean".to_owned() }),
    }
}

/// Per-mille chaos rates are optional on the wire (default 0) but must
/// fit a `u16`, matching the CLI's flag parsing.
fn opt_per_mille(json: &Json, field: &'static str) -> Result<u16, ApiError> {
    match opt_num(json, field)? {
        None => Ok(0),
        Some(n) => u16::try_from(n)
            .map_err(|_| ApiError::BadValue { field, why: "does not fit u16".to_owned() }),
    }
}

fn req_backend(json: &Json) -> Result<BackendKind, ApiError> {
    let name = req_str(json, "backend")?;
    BackendKind::parse(name)
        .ok_or(ApiError::BadValue { field: "backend", why: "takes `blame` or `mcs`".to_owned() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request) {
        let wire = req.to_json_string();
        let parsed = Request::from_json_str(&wire).expect("canonical encoding parses");
        assert_eq!(&parsed, req);
        assert_eq!(parsed.to_json_string(), wire, "re-serialization is byte-identical");
    }

    #[test]
    fn check_request_roundtrips() {
        roundtrip_request(&Request::Check(CheckRequest::new(7, "let x = 1 + true")));
        roundtrip_request(&Request::Check(CheckRequest {
            threads: Some(4),
            deadline_ms: Some(500),
            chaos_flip: 3,
            chaos_panic: 2,
            chaos_seed: 99,
            top: 5,
            no_triage: true,
            backend: BackendKind::Mcs,
            ..CheckRequest::new(8, "let y = [1; true]")
        }));
    }

    #[test]
    fn other_requests_roundtrip() {
        roundtrip_request(&Request::Analyze(AnalyzeRequest {
            id: 1,
            source: "let x = 1 + true".to_owned(),
            top: 3,
            backend: BackendKind::Blame,
            deadline_ms: None,
        }));
        roundtrip_request(&Request::Metrics(MetricsRequest { id: 2, deadline_ms: Some(10) }));
        roundtrip_request(&Request::Shutdown(ShutdownRequest { id: 3, deadline_ms: None }));
    }

    #[test]
    fn unknown_field_rejected() {
        let line = r#"{"api":"seminal-api/v1","id":1,"type":"metrics","frobnicate":1}"#;
        assert_eq!(
            Request::from_json_str(line),
            Err(ApiError::UnknownField("frobnicate".to_owned()))
        );
    }

    #[test]
    fn missing_api_tag_rejected() {
        let line = r#"{"id":1,"type":"metrics"}"#;
        assert_eq!(
            Request::from_json_str(line),
            Err(ApiError::SchemaMismatch { found: String::new() })
        );
    }

    #[test]
    fn wrong_schema_rejected() {
        let line = r#"{"api":"seminal-api/v2","id":1,"type":"metrics"}"#;
        assert_eq!(
            Request::from_json_str(line),
            Err(ApiError::SchemaMismatch { found: "seminal-api/v2".to_owned() })
        );
    }

    #[test]
    fn unknown_type_rejected() {
        let line = r#"{"api":"seminal-api/v1","id":1,"type":"reticulate"}"#;
        assert_eq!(
            Request::from_json_str(line),
            Err(ApiError::UnknownType("reticulate".to_owned()))
        );
    }

    #[test]
    fn missing_required_field_rejected() {
        let line = r#"{"api":"seminal-api/v1","id":1,"type":"check","top":3,"no_triage":false,"backend":"blame"}"#;
        assert_eq!(Request::from_json_str(line), Err(ApiError::MissingField("source")));
    }

    #[test]
    fn bad_backend_rejected() {
        let line = r#"{"api":"seminal-api/v1","id":1,"type":"analyze","source":"let x = 1","top":3,"backend":"sat"}"#;
        assert!(matches!(
            Request::from_json_str(line),
            Err(ApiError::BadValue { field: "backend", .. })
        ));
    }

    #[test]
    fn error_response_roundtrips() {
        let resp = Response::Error(ErrorResponse {
            id: 4,
            status: Status::InvalidRequest,
            error: "missing required field \"source\"".to_owned(),
        });
        let wire = resp.to_json_string();
        let parsed = Response::from_json_str(&wire).unwrap();
        assert_eq!(parsed, resp);
        assert_eq!(parsed.to_json_string(), wire);
    }

    #[test]
    fn response_exit_code_must_match_status() {
        let line = r#"{"api":"seminal-api/v1","id":1,"type":"error","status":"parse_error","exit_code":1,"error":"x"}"#;
        assert!(matches!(
            Response::from_json_str(line),
            Err(ApiError::BadValue { field: "exit_code", .. })
        ));
    }

    #[test]
    fn statuses_cover_the_exit_table() {
        // Every exit code in the shared table is reachable from exactly
        // one status, and tags round-trip.
        let mut seen: Vec<u8> = Vec::new();
        for status in [
            Status::Ok,
            Status::TypeErrors,
            Status::InvalidRequest,
            Status::ParseError,
            Status::IoError,
            Status::Degraded,
            Status::NoCore,
            Status::Overloaded,
        ] {
            assert_eq!(Status::from_tag(status.tag()), Some(status));
            seen.push(status.exit_code());
        }
        seen.sort_unstable();
        let table: Vec<u8> = EXIT_CODES.iter().map(|(c, _)| *c).collect();
        assert_eq!(seen, table);
    }

    #[test]
    fn overloaded_response_roundtrips() {
        let resp = Response::Overloaded(OverloadedResponse {
            id: 11,
            status: Status::Overloaded,
            retry_after_ms: 250,
        });
        let wire = resp.to_json_string();
        assert!(wire.contains("\"retry_after_ms\":250"), "{wire}");
        let parsed = Response::from_json_str(&wire).unwrap();
        assert_eq!(parsed, resp);
        assert_eq!(parsed.to_json_string(), wire, "re-serialization is byte-identical");
        assert_eq!(parsed.exit_code(), 7);
    }

    #[test]
    fn overloaded_response_rejects_foreign_status() {
        // `type: overloaded` is inseparable from `status: overloaded`;
        // a shed response must never masquerade as a success.
        let line = r#"{"api":"seminal-api/v1","id":1,"type":"overloaded","status":"ok","exit_code":0,"retry_after_ms":10}"#;
        assert!(matches!(
            Response::from_json_str(line),
            Err(ApiError::BadValue { field: "status", .. })
        ));
    }

    #[test]
    fn config_error_displays_bare() {
        // The CLI renders `invalid configuration: {error}`; the Config
        // variant must therefore display the inner error with no
        // prefix of its own.
        let api: ApiError = ConfigError::ZeroDeadline.into();
        assert_eq!(api.to_string(), ConfigError::ZeroDeadline.to_string());
    }
}
