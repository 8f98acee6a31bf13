//! `serve_replay`: two TCP clients against an in-process `serve_tcp` on
//! loopback, closed loop with no think time.

use crate::checks::{Job, ServeLayers};
use crate::inputs::{tagged, tagged_file, CheckInput, ClientDraw};
use crate::report::Outcome;
use crate::stats::{mean, ratio};
use crate::traced::elapsed_ns;
use crate::verify::{check_dispatched, check_response, Answer};
use seminal_core::obs::{keys, MetricsSnapshot};
use seminal_serve::{
    dispatch, serve_tcp, CheckRequest, MetricsRequest, Request, Response, ServeOptions,
    ServerState, ShutdownRequest,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Concurrent client connections (one per core of the 2-core machine
/// the benchmark was tuned on).
pub const CLIENTS: u64 = 2;

/// Requests per client whose lines are kept to time JSON decode and
/// encode after the run.
const KEPT_LINES: usize = 1000;

/// What an in-process `dispatch` of each homework file (with a tag
/// line) answered, and whether it located the fault; or why it failed.
pub type References = Vec<Result<(Answer, bool), String>>;

/// Dispatches every homework file once, in process, on a fresh state,
/// re-checking its variants and judging its location. Every wire answer
/// for the same file must equal its reference: the tag line changes no
/// rendered location.
#[must_use]
pub fn references(corpus: &[CheckInput]) -> References {
    corpus
        .iter()
        .map(|input| {
            let file = tagged_file(&input.file, 0);
            let request = Request::Check(CheckRequest::new(0, file.source.as_str()));
            check_dispatched(&file, &dispatch(&ServerState::new(), &request))
        })
        .collect()
}

/// One request a client sent and what came back.
struct Sent {
    base: usize,
    warm: bool,
    rtt_ns: u64,
    /// `None` when the response was acceptable, equal to its file's
    /// reference if it was a group's first, and equal to that first if
    /// it was a warm repeat.
    failure: Option<String>,
    hits: u64,
    misses: u64,
}

/// One client's log.
#[derive(Default)]
struct ClientLog {
    sent: Vec<Sent>,
    /// Problems started.
    problems: usize,
    /// Request and response lines kept for the JSON timings.
    lines: Vec<(String, String)>,
}

/// A blocking NDJSON connection to the server.
struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    fn open(addr: &str) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        // Without it Nagle's algorithm and delayed ACKs add ~40 ms.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Connection { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    /// Sends one line and reads one line back.
    fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed"));
        }
        Ok(response)
    }

    fn request(&mut self, request: &Request) -> std::io::Result<Response> {
        let line = self.round_trip(&request.to_json_string())?;
        Response::from_json_str(line.trim_end())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// One client's closed loop: walk its draw, send each problem as many
/// times as its group says, until `deadline`. A group in progress at the
/// deadline is cut short; every client sends at least one request.
fn client(
    addr: &str,
    seed: u64,
    id: u64,
    corpus: &[CheckInput],
    references: &References,
    deadline: Instant,
    keep: bool,
) -> std::io::Result<ClientLog> {
    let mut conn = Connection::open(addr)?;
    let mut log = ClientLog::default();
    let mut seq = 0_u64;
    'problems: for problem in ClientDraw::new(seed, id, corpus.len()) {
        let source = tagged(problem.tag, corpus[problem.base].source());
        let mut first: Option<Answer> = None;
        log.problems += 1;
        for repeat in 0..problem.group {
            if seq > 0 && Instant::now() >= deadline {
                break 'problems;
            }
            seq += 1;
            let line =
                Request::Check(CheckRequest::new(id << 32 | seq, source.as_str())).to_json_string();
            let clock = Instant::now();
            let response_line = conn.round_trip(&line)?;
            let rtt_ns = elapsed_ns(clock);
            let (failure, hits, misses) = match Response::from_json_str(response_line.trim_end()) {
                Err(e) => (Some(format!("undecodable response: {e}")), 0, 0),
                Ok(response) => match check_response(&response) {
                    Err(why) => (Some(why), 0, 0),
                    Ok(check) => {
                        let answer = Answer::of(check);
                        let failure = match (&first, &references[problem.base]) {
                            (_, Err(why)) => Some(format!("in-process dispatch: {why}")),
                            (None, Ok((reference, _))) if *reference != answer => {
                                Some("answer differs from in-process dispatch".to_owned())
                            }
                            (Some(f), _) if *f != answer => {
                                Some("warm repeat differs from its group's first answer".to_owned())
                            }
                            _ => None,
                        };
                        first.get_or_insert(answer);
                        (
                            failure,
                            check.metrics.counter(keys::CROSS_REQUEST_HITS),
                            check.metrics.counter(keys::CROSS_REQUEST_MISSES),
                        )
                    }
                },
            };
            if keep && log.lines.len() < KEPT_LINES {
                log.lines.push((line, response_line));
            }
            log.sent.push(Sent {
                base: problem.base,
                warm: repeat > 0,
                rtt_ns,
                failure,
                hits,
                misses,
            });
        }
    }
    Ok(log)
}

/// What one replay measured.
pub struct Replay {
    /// Every request's round trip, both clients.
    pub rtt_ns: Vec<u64>,
    /// From the first request to the last client finishing.
    pub wall: Duration,
    /// The server's own process snapshot, taken after the clients.
    pub snapshot: MetricsSnapshot,
    logs: Vec<ClientLog>,
}

/// A running in-process server and its control connection.
pub struct Server<'s> {
    addr: String,
    control: Connection,
    handle: std::thread::ScopedJoinHandle<'s, std::io::Result<seminal_serve::ServeSummary>>,
}

/// Binds a loopback listener and starts `serve_tcp` on a scoped thread;
/// returns once the server has answered a `metrics` request.
///
/// # Errors
///
/// Bind or connect failures.
pub fn start<'s>(
    scope: &'s std::thread::Scope<'s, '_>,
    state: &'s ServerState,
    options: &'s ServeOptions,
    listener: &'s TcpListener,
) -> std::io::Result<Server<'s>> {
    let addr = listener.local_addr()?.to_string();
    let handle = scope.spawn(move || serve_tcp(state, options, listener));
    let mut control = Connection::open(&addr)?;
    match control
        .request(&Request::Metrics(MetricsRequest { id: u64::MAX - 1, deadline_ms: None }))?
    {
        Response::Metrics(_) => Ok(Server { addr, control, handle }),
        other => Err(std::io::Error::other(format!("metrics answered with {}", other.kind()))),
    }
}

impl Server<'_> {
    /// Runs both clients until `window` has passed, then snapshots the
    /// server's metrics.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn replay(
        &mut self,
        seed: u64,
        corpus: &[CheckInput],
        references: &References,
        window: Duration,
        keep: bool,
    ) -> std::io::Result<Replay> {
        let start = Instant::now();
        let deadline = start + window;
        let addr = self.addr.as_str();
        let logs: Vec<std::io::Result<ClientLog>> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|id| {
                    scope.spawn(move || client(addr, seed, id, corpus, references, deadline, keep))
                })
                .collect();
            // A panicked client becomes an error, so the caller still
            // stops the server and the scope can end.
            clients
                .into_iter()
                .map(|c| c.join().unwrap_or_else(|_| Err(std::io::Error::other("client panicked"))))
                .collect()
        });
        let wall = start.elapsed();
        let logs = logs.into_iter().collect::<std::io::Result<Vec<_>>>()?;
        let snapshot = match self
            .control
            .request(&Request::Metrics(MetricsRequest { id: u64::MAX - 1, deadline_ms: None }))?
        {
            Response::Metrics(m) => m.metrics,
            other => {
                return Err(std::io::Error::other(format!(
                    "metrics answered with {}",
                    other.kind()
                )))
            }
        };
        let rtt_ns = logs.iter().flat_map(|l| l.sent.iter().map(|s| s.rtt_ns)).collect();
        Ok(Replay { rtt_ns, wall, snapshot, logs })
    }

    /// Sends `shutdown` and waits for the server thread to end.
    ///
    /// # Errors
    ///
    /// Transport failures, or the server's own error.
    pub fn stop(mut self) -> std::io::Result<()> {
        match self
            .control
            .request(&Request::Shutdown(ShutdownRequest { id: u64::MAX, deadline_ms: None }))?
        {
            Response::Shutdown(_) => {}
            other => {
                return Err(std::io::Error::other(format!(
                    "shutdown answered with {}",
                    other.kind()
                )))
            }
        }
        self.handle.join().map_err(|_| std::io::Error::other("server thread panicked"))?.map(|_| ())
    }
}

impl Replay {
    /// Counts every request's failures into `out`, with the workload
    /// properties, and returns the located share of requests.
    pub fn verify(&self, corpus: &[CheckInput], references: &References, out: &mut Outcome) -> f64 {
        let (mut warm, mut located, mut hits, mut misses) = (0_u64, 0_u64, 0_u64, 0_u64);
        for (client, log) in self.logs.iter().enumerate() {
            for (k, sent) in log.sent.iter().enumerate() {
                warm += u64::from(sent.warm);
                hits += sent.hits;
                misses += sent.misses;
                if let Some(why) = &sent.failure {
                    out.failed += 1;
                    out.failures.push(format!(
                        "client {client} request {k} ({}): {why}",
                        corpus[sent.base].file.id
                    ));
                } else if let Ok((_, true)) = references[sent.base] {
                    located += 1;
                }
            }
        }
        let requests = self.rtt_ns.len() as u64;
        out.attempted += requests;
        out.property("warm_repeat_share", ratio(warm as f64, requests as f64));
        out.property("memo_hit_share", ratio(hits as f64, (hits + misses) as f64));
        out.property("distinct_problems", self.logs.iter().map(|l| l.problems).sum::<usize>());
        out.property("connections", CLIENTS);
        ratio(located as f64, requests as f64)
    }

    /// Each request's class best: the fastest round trip of any request
    /// sending the same homework file the same way (cold or warm).
    #[must_use]
    pub fn best_ms(&self, bases: usize) -> Vec<f64> {
        let class = |s: &Sent| s.base * 2 + usize::from(s.warm);
        let mut best = vec![u64::MAX; bases * 2];
        for s in self.logs.iter().flat_map(|l| l.sent.iter()) {
            best[class(s)] = best[class(s)].min(s.rtt_ns);
        }
        self.logs.iter().flat_map(|l| l.sent.iter()).map(|s| best[class(s)] as f64 / 1e6).collect()
    }

    /// The serve-side layers: JSON decode and encode timed on kept lines,
    /// server and queue time from the server's own histograms, and the
    /// rest of the round trip charged to transport.
    #[must_use]
    pub fn serve_layers(&self) -> ServeLayers {
        let mut decode = Vec::new();
        let mut encode = Vec::new();
        for (request, response) in self.logs.iter().flat_map(|l| l.lines.iter()) {
            let clock = Instant::now();
            let parsed = Request::from_json_str(request).expect("the client's own request decodes");
            decode.push(elapsed_ns(clock) as f64);
            std::hint::black_box(parsed);
            let response =
                Response::from_json_str(response.trim_end()).expect("checked during the run");
            let clock = Instant::now();
            let line = response.to_json_string();
            encode.push(elapsed_ns(clock) as f64);
            std::hint::black_box(line);
        }
        let hist_mean = |key: &str| {
            self.snapshot.histograms.get(key).map_or(0.0, |h| ratio(h.sum as f64, h.count as f64))
        };
        let server_ns = hist_mean(keys::SERVER_REQUEST_NS);
        let rtt: Vec<f64> = self.rtt_ns.iter().map(|&n| n as f64).collect();
        let (decode_ns, encode_ns) = (mean(&decode), mean(&encode));
        let hits = self.snapshot.counter(keys::CROSS_REQUEST_HITS) as f64;
        let misses = self.snapshot.counter(keys::CROSS_REQUEST_MISSES) as f64;
        ServeLayers {
            decode_ns,
            encode_ns,
            server_ns,
            transport_ns: mean(&rtt) - server_ns - decode_ns - encode_ns,
            queue_ns: hist_mean(keys::SERVER_QUEUE_DEPTH_NS),
            memo_hit_share: ratio(hits, hits + misses),
            memo_entries: self.snapshot.counter(keys::CROSS_REQUEST_ENTRIES) as f64,
            memo_evictions: self.snapshot.counter(keys::CROSS_REQUEST_EVICTIONS) as f64,
        }
    }
}

/// The request sequence both clients send, interleaved one request at a
/// time: the order the traced run replays in process. Each job's key is
/// its homework file.
pub fn interleaved(seed: u64, corpus: &[CheckInput]) -> impl FnMut(u64) -> Job + '_ {
    let mut streams: Vec<_> = (0..CLIENTS)
        .map(|id| {
            ClientDraw::new(seed, id, corpus.len())
                .flat_map(|p| std::iter::repeat_n((p.base, p.tag), p.group))
        })
        .collect();
    move |n| {
        let (key, tag) = streams[(n % CLIENTS) as usize].next().expect("draws are endless");
        Job { key, source: tagged(tag, corpus[key].source()) }
    }
}
