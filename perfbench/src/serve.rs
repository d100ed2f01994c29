//! The `serve-mixed` workload: the study daemon on loopback.
//!
//! One process, two client connections (the host's CPU count on the
//! machine the benchmark was defined on), each driven by one thread:
//!
//! - **closed loop**: submits checkpointed studies one at a time —
//!   tenant `alpha` cold and alone, then `gamma` (another seed, cold),
//!   then warm tenants `beta-1`, `beta-2`, … that share `alpha`'s web
//!   fingerprint and so scan through the caches `alpha` warmed — polls
//!   `study-status` until each is done, then fetches the export and
//!   compares it with a batch run of the same configuration;
//! - **open loop**: once `alpha` is done, replays the URLs of `alpha`'s
//!   crawl as `query-verdict` requests at offered rates, each timed from
//!   the moment it was due: first a search for the highest rate that
//!   meets the latency limit, then a fixed nominal rate, while the warm
//!   studies run beside it.
//!
//! Every request line goes out in one write on a `TCP_NODELAY` socket,
//! so the client adds no Nagle stall of its own.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use malware_slums::filter::ReferralClass;
use malware_slums::substrate::build_substrate;
use malware_slums::StudyConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slum_serve::proto::{Request, Response, DEFAULT_CHECKPOINT_EVERY};
use slum_serve::{Daemon, Service};

use crate::batch::{self, check_study, timed_study};
use crate::stats::{median, percentile};
use crate::trace::{self, SpanId, Tracer};
use crate::{
    peak_rss_mb, process_cpu_s, secs, thread_cpu_s, Gates, Options, Report, Scale, WorkDir,
};

/// Daemon start-ups measured for `setup_s` before the measured phase,
/// and again after it.
pub const SETUP_REPS: usize = 10;

/// Batch reference runs of the shared tenant configuration before and
/// again after the measured phase: the `study_cpu_s` and `study_s`
/// samples. They time one configuration only, because at this crawl
/// scale two seeds' studies differ in size and a median over both would
/// sit between the two.
const REFERENCE_REPS: usize = 5;

/// Warm studies run after the open loop with no other client: the
/// `turnaround_cpu_s` samples, the daemon's CPU time per warm study.
const SOLO_WARM: usize = 8;

/// p99 latency limit of `verdict_sustained_qps`: 0.1 s, the response
/// time a user perceives as instantaneous (Miller 1968; Nielsen,
/// *Usability Engineering*, 1993, ch. 5).
pub const VERDICT_LIMIT_MS: f64 = 100.0;

/// Offered rate the capacity search starts from, in queries/s, times a
/// seeded factor in [1, 2) so that each seed searches its own grid of
/// rates. The search doubles (or halves) it until a step misses the
/// limit, so it sets where the search starts, not what it finds.
const SEARCH_START_QPS: f64 = 4000.0;

/// Lowest and highest rate the search offers, in queries/s.
const SEARCH_RANGE_QPS: (f64, f64) = (1.0, 1_048_576.0);

/// Geometric bisections of the search, between a quarter of the lowest
/// bracketing rate that missed the limit and that rate: five narrow the
/// factor-4 bracket to 4^(1/32), about 4%.
const SEARCH_BISECTIONS: usize = 5;

/// Halvings below the bisected range tried when no bisection step met
/// the limit.
const SEARCH_FALLBACKS: usize = 4;

/// The nominal offered rate, queries/s, at which `verdict_p50_ms` is
/// measured: 1/32 of the median sustained rate the capacity search found
/// beside the warm studies of `serve-mixed`, 31,900 queries/s over ten
/// seeds on the two-vCPU virtual machine the benchmark was defined on.
/// It is fixed rather than taken from each run's own search, whose
/// result moves 15-45% from run to run with the host: latency at a
/// moving rate would inherit that spread. It is this low because on a
/// shared host the guest's CPUs stall for stretches of seconds; at a
/// quarter of capacity (8000/s) the backlog a stall leaves grew faster
/// than it drained and the pooled median rose 5-15x in runs that met
/// such a stretch (3 of 15 runs of `batch-faults`), while at 1000/s it
/// stayed within 3%. At this commit the daemon's response tail waits
/// for the next request (Nagle's algorithm against the client's delayed
/// acknowledgement), so the median is about 1/rate plus the query's own
/// cost; a fixed write path shows as that 1 ms floor vanishing.
pub const NOMINAL_QPS: f64 = 1000.0;

/// Warm studies after which `serve-mixed` reads its peak memory. The
/// service keeps every finished study's export and metrics, so its
/// memory grows with the studies it has run; reading after a fixed
/// number keeps the figure from following how many a run fits in.
const RSS_AFTER_WARM: usize = 10;

/// Fewest queries one open-loop step offers, so its p99 has a tail.
const MIN_STEP_QUERIES: usize = 200;

/// A search step is abandoned, and misses the limit, once its oldest
/// unanswered query is this many limits overdue: its backlog grows.
const ABANDON_LIMITS: f64 = 2.0;

/// Largest share of a bisection step's queries still unanswered when
/// its last query goes out. An overloaded daemon falls behind by the
/// overload's share of the step, however short the step; one keeping
/// up has only the queries of its current latency in flight.
const BACKLOG_SHARE: f64 = 0.05;

/// Cap on warm studies the closed loop submits beside the open loop.
const MAX_WARM: usize = 200;

/// Pause between `study-status` polls.
const POLL: Duration = Duration::from_millis(10);

/// Sequential `query-verdict` round trips timed for the wire overhead.
const RTT_PROBES: usize = 20;

/// Longest the client waits for one response before counting it lost.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// How long the open loop runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpenPlan {
    /// Seconds of one bracketing step of the capacity search.
    pub bracket_s: f64,
    /// Seconds of one bisection step: long enough to span the running
    /// studies' phases, so that whether a rate meets the limit does not
    /// hinge on which phase a step happened to meet.
    pub step_s: f64,
    /// Seconds of the whole loop: the search, then the nominal step
    /// for whatever is left.
    pub total_s: f64,
    /// Fewest seconds the nominal step runs.
    pub nominal_min_s: f64,
}

/// The open loop of `serve-mixed`.
fn serve_plan(opts: &Options) -> OpenPlan {
    match opts.scale {
        Scale::Full => OpenPlan {
            bracket_s: 0.25,
            step_s: 2.5,
            total_s: opts.seconds * 0.7,
            nominal_min_s: 2.0,
        },
        // Tiny steps still outlast the daemon's 40 ms delayed-ACK stall
        // (see `NOMINAL_QPS`): a step shorter than one such stall ends
        // with its backlog still queued behind it and misses the limit.
        Scale::Tiny => OpenPlan {
            bracket_s: 0.1,
            step_s: 0.15,
            total_s: opts.seconds * 0.8,
            nominal_min_s: 0.1,
        },
    }
}

/// The open loop of the batch workloads' verdict probe, where no study
/// runs beside the queries.
pub(crate) fn probe_plan(opts: &Options) -> OpenPlan {
    match opts.scale {
        Scale::Full => OpenPlan {
            bracket_s: 0.25,
            step_s: 0.5,
            total_s: opts.seconds * 0.15,
            nominal_min_s: 1.5,
        },
        // As in `serve_plan`.
        Scale::Tiny => OpenPlan {
            bracket_s: 0.1,
            step_s: 0.15,
            total_s: 0.3,
            nominal_min_s: 0.1,
        },
    }
}

/// One tenant's study configuration.
fn tenant_config(seed: u64, scale: Scale) -> StudyConfig {
    let crawl_scale = match scale {
        Scale::Full => 0.004,
        Scale::Tiny => 0.0005,
    };
    StudyConfig::builder()
        .seed(seed)
        .crawl_scale(crawl_scale)
        .domain_scale((crawl_scale * 25.0).clamp(0.03, 1.0))
        .checkpoint_every(DEFAULT_CHECKPOINT_EVERY)
        .build()
        .expect("tenant config is valid")
}

/// The submit line for `tenant` studying `cfg`.
fn submit_request(tenant: &str, cfg: &StudyConfig) -> Request {
    let mut req = Request::new("submit-study");
    req.tenant = tenant.to_string();
    req.seed = cfg.seed;
    req.crawl_scale = cfg.crawl_scale;
    req.domain_scale = cfg.domain_scale;
    req.checkpoint_every = cfg.checkpoint_every.expect("daemon studies checkpoint");
    req.fault_profile = cfg.fault_profile.name.clone();
    req.crawl_fault_profile = cfg.crawl_fault_profile.name.clone();
    req
}

/// What a batch run of a tenant configuration produced.
struct Reference {
    export: String,
    digest: String,
    /// Canonical URL → verdict, first regular record winning, as the
    /// service's shared verdict index keeps them.
    verdicts: BTreeMap<String, bool>,
    /// Canonical URL of every crawl record, in crawl order.
    stream: Vec<String>,
}

/// One client connection: newline-delimited JSON over `TCP_NODELAY`.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request line in a single write (blocking socket).
    fn send(&mut self, req: &Request) -> std::io::Result<()> {
        let mut line = serde_json::to_string(req)
            .expect("requests serialize")
            .into_bytes();
        line.push(b'\n');
        self.stream.write_all(&line)
    }

    /// Sends one encoded request line in a single write on the
    /// non-blocking socket. `Ok(false)` when the socket takes none of
    /// it: the daemon has stopped reading. A line taken only in part is
    /// finished, reading answers meanwhile so neither side blocks.
    fn send_line(&mut self, line: &[u8]) -> std::io::Result<bool> {
        let deadline = Instant::now() + RESPONSE_TIMEOUT;
        let mut rest = line;
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if rest.len() == line.len() {
                        return Ok(false);
                    }
                    if Instant::now() > deadline {
                        return Err(ErrorKind::TimedOut.into());
                    }
                    self.fill()?;
                    std::thread::yield_now();
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Waits until an answer can be read or `until` passes.
    fn wait_readable(&self, until: Instant) {
        let left = until.saturating_duration_since(Instant::now());
        if !left.is_zero() {
            readable_within(&self.stream, left);
        }
    }

    /// Hands every complete line in the buffer to `f`, then drops them.
    fn take_lines(&mut self, mut f: impl FnMut(&[u8])) {
        let Some(end) = self.buf.iter().rposition(|&b| b == b'\n') else {
            return;
        };
        for line in self.buf[..end].split(|&b| b == b'\n') {
            f(line);
        }
        self.buf.drain(..=end);
    }

    /// Parses the first complete line in the buffer, if any.
    fn take_line(&mut self) -> std::io::Result<Option<Response>> {
        let Some(pos) = self.buf.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        let line: Vec<u8> = self.buf.drain(..=pos).collect();
        let text = String::from_utf8_lossy(&line);
        serde_json::from_str(text.trim_end())
            .map(Some)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    /// Reads whatever has arrived; on a blocking socket waits at most
    /// its read timeout.
    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "daemon closed",
            )),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// The next complete response line, waiting at most `timeout`;
    /// `None` when none arrived in time (blocking socket).
    fn recv(&mut self, timeout: Duration) -> std::io::Result<Option<Response>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(resp) = self.take_line()? {
                return Ok(Some(resp));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some((deadline - now).max(Duration::from_millis(1))))?;
            self.fill()?;
        }
    }

    /// One request/response round trip.
    fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        self.send(req)?;
        self.recv(RESPONSE_TIMEOUT)?
            .ok_or_else(|| std::io::Error::new(ErrorKind::TimedOut, "no response"))
    }
}

/// Blocks until `stream` is readable or `timeout` passes, with the
/// kernel's high-resolution timer (`ppoll`), so an answer's arrival is
/// seen as it happens rather than at the next poll.
#[cfg(target_os = "linux")]
fn readable_within(stream: &TcpStream, timeout: Duration) {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: one valid pollfd for a socket this process owns, a valid
    // timespec, and no signal mask; the result is not needed, since the
    // caller reads the non-blocking socket whatever woke it.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

/// Without `ppoll`: polls every 100 µs.
#[cfg(not(target_os = "linux"))]
fn readable_within(_stream: &TcpStream, timeout: Duration) {
    std::thread::sleep(timeout.min(Duration::from_micros(100)));
}

/// Counts one protocol operation: failed when the call erred, was
/// refused as `overloaded` or answered `ok: false`.
fn check_response(gates: &mut Gates, what: &str, resp: &std::io::Result<Response>) -> bool {
    let ok = matches!(resp, Ok(r) if r.ok);
    gates.check(ok, || match resp {
        Ok(r) => format!("{what}: {}", r.error.as_deref().unwrap_or("not ok")),
        Err(e) => format!("{what}: {e}"),
    });
    ok
}

/// A running daemon with its two client connections.
struct Rig {
    daemon: Daemon,
    closed: Client,
    open: Client,
}

/// Starts a daemon over `root`, connects both clients and waits for
/// the first answered request. Returns the rig and the wall and CPU
/// seconds it took; the CPU time counts every thread of the process.
fn start_rig(root: &std::path::Path) -> std::io::Result<(Rig, f64, f64)> {
    let (t0, c0) = (Instant::now(), process_cpu_s());
    let service = Service::open(root).map_err(|e| std::io::Error::other(e.to_string()))?;
    let daemon =
        Daemon::start(service, "127.0.0.1:0").map_err(|e| std::io::Error::other(e.to_string()))?;
    let mut closed = Client::connect(daemon.addr())?;
    let open = Client::connect(daemon.addr())?;
    let first = closed.call(&Request::new("stream-metrics"))?;
    let (wall_s, cpu_s) = (secs(t0.elapsed()), process_cpu_s() - c0);
    if !first.ok {
        return Err(std::io::Error::other("first request refused"));
    }
    Ok((
        Rig {
            daemon,
            closed,
            open,
        },
        wall_s,
        cpu_s,
    ))
}

/// A completed closed-loop study.
struct Done {
    tenant: String,
    id: u64,
    turnaround_s: f64,
    /// CPU seconds the process spent from submit to done outside the
    /// client thread that ran the study: the daemon's, when no other
    /// client thread runs.
    service_cpu_s: f64,
    slices: u64,
}

/// The closed-loop client: one study at a time, submitted, polled to
/// `done`, its export fetched and compared with the batch reference.
struct ClosedLoop<'a> {
    client: &'a mut Client,
    gates: &'a mut Gates,
    tracer: Option<&'a Tracer>,
    root: Option<SpanId>,
}

impl ClosedLoop<'_> {
    /// One round trip, counted as an operation and traced under
    /// `parent`.
    fn rpc(&mut self, req: &Request, parent: Option<SpanId>) -> Option<Response> {
        let tag = req.study.unwrap_or(0);
        let span = self
            .tracer
            .map(|t| t.begin(format!("rpc.{}", req.op), "slum-serve::daemon", parent, tag));
        let resp = self.client.call(req);
        if let (Some(t), Some(s)) = (self.tracer, span) {
            t.end(s);
        }
        check_response(self.gates, &req.op, &resp)
            .then(|| resp.ok())
            .flatten()
    }

    /// Runs one study. `None` when it failed, or when `stop` was raised
    /// before it finished: a study cut off as the open loop ended is no
    /// failure and is not counted, but it is still waited for, so that
    /// the daemon is idle again when this returns.
    fn study(
        &mut self,
        tenant: &str,
        cfg: &StudyConfig,
        reference: &Reference,
        stop: Option<&AtomicBool>,
    ) -> Option<Done> {
        let (t0, process0, own0) = (Instant::now(), process_cpu_s(), thread_cpu_s());
        let span = self.tracer.map(|t| {
            t.begin(
                format!("study.{tenant}"),
                "slum-serve::service",
                self.root,
                0,
            )
        });
        let parent = span.as_ref().map(|s| s.id());
        let finished = self.submit_and_wait(tenant, cfg, parent, stop);
        let turnaround = t0.elapsed();
        let service_cpu_s = (process_cpu_s() - process0) - (thread_cpu_s() - own0);
        if let (Some(t), Some(s)) = (self.tracer, span) {
            t.end(s);
        }
        let (id, finished) = finished?;
        let mut fetch = Request::new("study-status");
        fetch.tenant = tenant.to_string();
        fetch.study = Some(id);
        fetch.include_export = true;
        let export = self
            .rpc(&fetch, self.root)
            .and_then(|r| r.export)
            .unwrap_or_default();
        self.gates.digest(
            &format!("{tenant} export"),
            &reference.digest,
            &crate::digest(&export),
        );
        self.gates.check(export == reference.export, || {
            format!("{tenant}: export differs from batch")
        });
        self.gates.check(
            finished.digest.as_deref() == Some(reference.digest.as_str()),
            || {
                format!(
                    "{tenant}: reported digest {:?} != batch {}",
                    finished.digest, reference.digest
                )
            },
        );
        Some(Done {
            tenant: tenant.to_string(),
            id,
            turnaround_s: secs(turnaround),
            service_cpu_s,
            slices: finished.slices.unwrap_or(0),
        })
    }

    fn submit_and_wait(
        &mut self,
        tenant: &str,
        cfg: &StudyConfig,
        parent: Option<SpanId>,
        stop: Option<&AtomicBool>,
    ) -> Option<(u64, Response)> {
        let id = self.rpc(&submit_request(tenant, cfg), parent)?.study?;
        let mut status = Request::new("study-status");
        status.tenant = tenant.to_string();
        status.study = Some(id);
        let mut cut_off = false;
        loop {
            cut_off |= stop.is_some_and(|s| s.load(Ordering::SeqCst));
            let resp = self.rpc(&status, parent)?;
            match resp.state.as_deref() {
                Some("running") => std::thread::sleep(POLL),
                Some("done") => return (!cut_off).then_some((id, resp)),
                other => {
                    self.gates.check(false, || {
                        format!("{tenant}: study ended {other:?}: {:?}", resp.error)
                    });
                    return None;
                }
            }
        }
    }
}

/// The open loop's queries: the URLs of the reference crawl, in crawl
/// order, from a seeded starting point. A URL is known when a regular
/// record of the crawl scanned it, so the share of known queries is the
/// crawl's own share of regular records, not a chosen figure.
struct Traffic {
    /// Encoded request line of each crawl record.
    lines: Vec<Vec<u8>>,
    /// The verdict each must get; `None` for a URL the index lacks.
    expect: Vec<Option<bool>>,
    /// Next crawl record to ask about.
    cursor: usize,
}

impl Traffic {
    fn new(study: u64, reference: &Reference, seed: u64) -> Traffic {
        let mut req = Request::new("query-verdict");
        req.study = Some(study);
        let mut lines = Vec::with_capacity(reference.stream.len());
        let mut expect = Vec::with_capacity(reference.stream.len());
        for url in &reference.stream {
            req.url = Some(url.clone());
            let mut line = serde_json::to_string(&req)
                .expect("requests serialize")
                .into_bytes();
            line.push(b'\n');
            lines.push(line);
            expect.push(reference.verdicts.get(url).copied());
        }
        let cursor = StdRng::seed_from_u64(seed ^ 0x6f70_656e).gen_range(0..lines.len().max(1));
        Traffic {
            lines,
            expect,
            cursor,
        }
    }

    /// Position of the `q`-th query from `first`.
    fn at(&self, first: usize, q: usize) -> usize {
        (first + q) % self.lines.len()
    }

    /// Share of crawl records whose URL the index knows.
    fn known_share(&self) -> f64 {
        let known = self.expect.iter().filter(|e| e.is_some()).count();
        known as f64 / self.expect.len().max(1) as f64
    }
}

/// What the open loop measured: the capacity search's bracketing and
/// bisection steps, which bisection step met the limit at the highest
/// rate, and the nominal step.
#[derive(Debug, Default)]
pub(crate) struct OpenLoop {
    bracket: Vec<RateStep>,
    search: Vec<RateStep>,
    sustained: Option<usize>,
    nominal: Option<RateStep>,
    known_share: f64,
}

impl OpenLoop {
    /// Every step, in the order offered.
    fn steps(&self) -> impl Iterator<Item = &RateStep> {
        self.bracket.iter().chain(&self.search).chain(&self.nominal)
    }
}

/// Offers `rate` queries per second for `seconds` (at least
/// [`MIN_STEP_QUERIES`] queries), traced under `root`; every step but
/// the nominal one may be abandoned.
#[allow(clippy::too_many_arguments)]
fn offer(
    client: &mut Client,
    traffic: &mut Traffic,
    rate: f64,
    seconds: f64,
    gates: &mut Gates,
    tracer: Option<&Tracer>,
    root: Option<SpanId>,
    name: &str,
) -> RateStep {
    let n = ((rate * seconds).round() as usize).max(MIN_STEP_QUERIES);
    let span = tracer.map(|t| {
        t.begin(
            format!("open.{name}.{rate:.0}"),
            "slum-serve::daemon",
            root,
            0,
        )
    });
    let step = rate_step(client, traffic, rate, n, name != "nominal", gates);
    if let (Some(t), Some(s)) = (tracer, span) {
        t.end(s);
    }
    step
}

/// The open loop. A capacity search brackets the highest rate that
/// meets [`VERDICT_LIMIT_MS`] with short steps, doubling (or halving)
/// the offered rate from about [`SEARCH_START_QPS`] until one step
/// misses the limit, then bisects from a quarter of that rate up to it
/// with `plan.step_s` steps. The nominal step then offers
/// [`NOMINAL_QPS`] for the rest of `plan.total_s`. One thread, one
/// connection.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    client: &mut Client,
    study: u64,
    reference: &Reference,
    seed: u64,
    plan: OpenPlan,
    gates: &mut Gates,
    tracer: Option<&Tracer>,
    root: Option<SpanId>,
) -> OpenLoop {
    let t0 = Instant::now();
    let mut traffic = Traffic::new(study, reference, seed);
    let mut open = OpenLoop {
        known_share: traffic.known_share(),
        ..OpenLoop::default()
    };
    gates.check(!traffic.lines.is_empty(), || {
        "the reference crawl has no records to query".to_string()
    });
    if traffic.lines.is_empty() {
        return open;
    }
    if let Err(e) = client.stream.set_nonblocking(true) {
        gates.check(false, || format!("open-loop socket: {e}"));
        return open;
    }
    let mut step = |rate: f64, seconds: f64, name: &str, gates: &mut Gates| {
        offer(
            client,
            &mut traffic,
            rate,
            seconds,
            gates,
            tracer,
            root,
            name,
        )
    };
    let (mut met, mut missed) = (false, None);
    let grid: f64 = StdRng::seed_from_u64(seed ^ 0x6772_6964).gen();
    let mut rate = SEARCH_START_QPS * 2f64.powf(grid);
    loop {
        let s = step(rate, plan.bracket_s, "bracket", gates);
        if s.meets(VERDICT_LIMIT_MS) {
            met = true;
        } else {
            missed = Some(rate);
        }
        open.bracket.push(s);
        rate = match (met, missed) {
            (false, Some(_)) if rate / 2.0 >= SEARCH_RANGE_QPS.0 => rate / 2.0,
            (true, None) if rate * 2.0 <= SEARCH_RANGE_QPS.1 => rate * 2.0,
            _ => break,
        };
    }
    let mut hi = missed.unwrap_or(rate * 2.0);
    let mut lo = hi / 4.0;
    for _ in 0..SEARCH_BISECTIONS {
        let mid = (lo * hi).sqrt();
        let s = step(mid, plan.step_s, "search", gates);
        if s.sustains(VERDICT_LIMIT_MS) {
            lo = mid;
        } else {
            hi = mid;
        }
        open.search.push(s);
    }
    for _ in 0..SEARCH_FALLBACKS {
        if open.search.iter().any(|s| s.sustains(VERDICT_LIMIT_MS)) {
            break;
        }
        open.search.push(step(lo, plan.step_s, "search", gates));
        lo /= 2.0;
    }
    open.sustained = open
        .search
        .iter()
        .enumerate()
        .filter(|(_, s)| s.sustains(VERDICT_LIMIT_MS))
        .max_by(|a, b| a.1.rate.total_cmp(&b.1.rate))
        .map(|(i, _)| i);
    gates.check(open.sustained.is_some(), || {
        format!("no offered rate met the {VERDICT_LIMIT_MS} ms limit")
    });
    let left = (plan.total_s - secs(t0.elapsed())).max(plan.nominal_min_s);
    open.nominal = Some(step(NOMINAL_QPS, left, "nominal", gates));
    open
}

/// Offers `n` queries from `traffic` at `rate` per second over the
/// non-blocking socket, reading and checking answers as they come.
/// Latency runs from each query's due time. With `may_abandon`, the
/// step is abandoned once an answer is [`ABANDON_LIMITS`] limits overdue
/// or the daemon stops reading.
fn rate_step(
    client: &mut Client,
    traffic: &mut Traffic,
    rate: f64,
    n: usize,
    may_abandon: bool,
    gates: &mut Gates,
) -> RateStep {
    let mut step = RateStep {
        rate,
        ..RateStep::default()
    };
    let first = traffic.cursor;
    let start = Instant::now() + Duration::from_millis(1);
    let due = |q: usize| start + Duration::from_secs_f64(q as f64 / rate);
    let overdue = Duration::from_secs_f64(VERDICT_LIMIT_MS * ABANDON_LIMITS / 1e3);
    let mut sent = 0;
    let mut answered = 0;
    let mut last_answer = start;
    loop {
        let now = Instant::now();
        while !step.abandoned && sent < n && due(sent) <= now {
            match client.send_line(&traffic.lines[traffic.at(first, sent)]) {
                Ok(true) => {
                    step.lateness_ms
                        .push(secs(Instant::now() - due(sent)) * 1e3);
                    sent += 1;
                    if sent == n {
                        step.backlog = (sent - answered) as u64;
                    }
                }
                Ok(false) => step.abandoned = true,
                Err(e) => {
                    gates.check(false, || format!("query-verdict send: {e}"));
                    step.abandoned = true;
                }
            }
        }
        if let Err(e) = client.fill() {
            gates.check(false, || format!("query-verdict receive: {e}"));
            break;
        }
        let now = Instant::now();
        client.take_lines(|line| {
            let want = traffic.expect[traffic.at(first, answered)];
            let resp: Option<Response> = std::str::from_utf8(line)
                .ok()
                .and_then(|l| serde_json::from_str(l).ok());
            let refused = resp
                .as_ref()
                .is_some_and(|r| r.error.as_deref() == Some("overloaded"));
            if refused {
                step.refused += 1;
            } else {
                step.latency_ms
                    .push(secs(now.saturating_duration_since(due(answered))) * 1e3);
            }
            let right = resp
                .as_ref()
                .is_some_and(|r| r.ok && r.known == Some(want.is_some()) && r.malicious == want);
            gates.check(right, || {
                format!(
                    "query-verdict {}: got {}, want {want:?}",
                    String::from_utf8_lossy(&traffic.lines[traffic.at(first, answered)]).trim_end(),
                    String::from_utf8_lossy(line)
                )
            });
            answered += 1;
            last_answer = now;
        });
        if answered == sent && (sent == n || step.abandoned) {
            break;
        }
        if answered < sent {
            if may_abandon && !step.abandoned && now > due(answered) + overdue {
                step.abandoned = true;
            }
            if now.saturating_duration_since(last_answer.max(due(answered))) > RESPONSE_TIMEOUT {
                gates.check(false, || {
                    "query-verdict: answers stopped arriving".to_string()
                });
                break;
            }
        }
        // Nothing outstanding: sleep until the next query is due.
        // Otherwise wait for an answer, waking for the next due query.
        if answered == sent {
            std::thread::sleep(due(sent).saturating_duration_since(Instant::now()));
        } else if step.abandoned || sent == n {
            client.wait_readable(now + RESPONSE_TIMEOUT);
        } else {
            client.wait_readable(due(sent));
        }
    }
    traffic.cursor = traffic.at(first, sent);
    step.sent = sent as u64;
    step.answered = answered as u64;
    step
}

/// The in-process cost of `Service::handle` for verdict and status
/// requests, in µs (medians).
fn handle_costs(daemon: &Daemon, study: u64, reference: &Reference, tracer: &Tracer) -> (f64, f64) {
    let service = daemon.service();
    let span = tracer.begin("handle", "slum-serve::service", None, study);
    let mut verdict_us = Vec::new();
    let mut req = Request::new("query-verdict");
    req.study = Some(study);
    // The open loop's mix: the crawl's URLs in crawl order.
    for url in reference.stream.iter().cycle().take(2000) {
        req.url = Some(url.clone());
        let t0 = Instant::now();
        std::hint::black_box(service.handle(&req));
        verdict_us.push(secs(t0.elapsed()) * 1e6);
    }
    let mut status_us = Vec::new();
    let mut req = Request::new("study-status");
    req.study = Some(study);
    for _ in 0..500 {
        let t0 = Instant::now();
        std::hint::black_box(service.handle(&req));
        status_us.push(secs(t0.elapsed()) * 1e6);
    }
    tracer.end(span);
    (median(&verdict_us), median(&status_us))
}

/// Wall and CPU seconds of a repeated operation.
#[derive(Debug, Default)]
struct Times {
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
}

/// Batch reference runs of one tenant configuration: the export, its
/// digest and the verdict index the service should build from it.
fn reference(cfg: &StudyConfig, reps: usize, gates: &mut Gates, times: &mut Times) -> Reference {
    let planned = build_substrate(cfg).planned_steps();
    let mut first: Option<Reference> = None;
    for _ in 0..reps {
        let timed = timed_study(cfg);
        times.wall_s.push(timed.total_s);
        times.cpu_s.push(timed.total_cpu_s);
        let (study, export) = (timed.study, timed.export);
        check_study(gates, &study, planned);
        let digest = crate::digest(&export);
        match &first {
            Some(r) => gates.digest("reference repetition", &r.digest, &digest),
            None => {
                let mut verdicts = BTreeMap::new();
                for (record, (outcome, class)) in study
                    .store
                    .records()
                    .iter()
                    .zip(study.outcomes.iter().zip(&study.referrals))
                {
                    if *class == ReferralClass::Regular {
                        verdicts
                            .entry(record.url.canonical())
                            .or_insert(outcome.malicious);
                    }
                }
                let stream = study
                    .store
                    .records()
                    .iter()
                    .map(|r| r.url.canonical())
                    .collect();
                first = Some(Reference {
                    export,
                    digest,
                    verdicts,
                    stream,
                });
            }
        }
    }
    first.expect("at least one reference run")
}

/// Latency and lateness samples of one offered rate.
#[derive(Debug, Clone, Default)]
pub struct RateStep {
    /// Offered rate, queries per second.
    pub rate: f64,
    /// Latency of every answered query, from its due time, in ms.
    pub latency_ms: Vec<f64>,
    /// How late each query was sent after its due time, in ms.
    pub lateness_ms: Vec<f64>,
    /// Queries sent.
    pub sent: u64,
    /// Answers received, refusals included.
    pub answered: u64,
    /// Queries refused as `overloaded`.
    pub refused: u64,
    /// Whether the step was cut short because its backlog grew.
    pub abandoned: bool,
    /// Queries unanswered when the last one went out.
    pub backlog: u64,
}

impl RateStep {
    /// Whether the step met `limit_ms` at p99: not abandoned, and every
    /// query answered and none refused.
    pub fn meets(&self, limit_ms: f64) -> bool {
        !self.abandoned
            && self.refused == 0
            && self.latency_ms.len() as u64 == self.sent
            && !self.latency_ms.is_empty()
            && percentile(&self.latency_ms, 99.0) <= limit_ms
    }

    /// Whether the step met `limit_ms` with no growing backlog: at most
    /// [`BACKLOG_SHARE`] of its queries outstanding at its end.
    pub fn sustains(&self, limit_ms: f64) -> bool {
        self.meets(limit_ms) && self.backlog as f64 <= BACKLOG_SHARE * self.sent as f64
    }

    fn note(&self, label: &str) -> String {
        let (p50, p99) = if self.latency_ms.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            (median(&self.latency_ms), percentile(&self.latency_ms, 99.0))
        };
        let late = if self.lateness_ms.is_empty() {
            0.0
        } else {
            percentile(&self.lateness_ms, 99.0)
        };
        format!(
            "{label} {:.0}/s: sent {} answered {} refused {} p50 {p50:.3} ms p99 {p99:.3} ms \
             backlog {} lateness p99 {late:.3} ms abandoned {} meets {VERDICT_LIMIT_MS} ms: {} \
             sustains: {}",
            self.rate,
            self.sent,
            self.answered,
            self.refused,
            self.backlog,
            self.abandoned,
            self.meets(VERDICT_LIMIT_MS),
            self.sustains(VERDICT_LIMIT_MS)
        )
    }
}

/// Reports the verdict metrics of an open loop: latency at the nominal
/// rate, and the highest offered rate of the search that met the limit.
pub(crate) fn report_rates(report: &mut Report, open: &OpenLoop) {
    match &open.nominal {
        Some(nominal) if !nominal.latency_ms.is_empty() => {
            report.set("verdict_p50_ms", percentile(&nominal.latency_ms, 50.0));
            report.set("verdict_p99_ms", percentile(&nominal.latency_ms, 99.0));
            report.summaries.push((
                "verdict_ms",
                "ms",
                crate::stats::Summary::of(&nominal.latency_ms),
            ));
        }
        _ => {
            report.set("verdict_p50_ms", f64::NAN);
            report.set("verdict_p99_ms", f64::NAN);
        }
    }
    report.set(
        "verdict_sustained_qps",
        open.sustained.map_or(f64::NAN, |i| open.search[i].rate),
    );
    report.notes.push(format!(
        "open loop: {:.1}% of the replayed crawl records have a known verdict",
        open.known_share * 100.0
    ));
    for s in &open.bracket {
        report.notes.push(s.note("bracket"));
    }
    for s in &open.search {
        report.notes.push(s.note("search"));
    }
    if let Some(s) = &open.nominal {
        report.notes.push(s.note("nominal"));
    }
}

/// Runs the serve workload.
pub fn run(opts: &Options) -> Report {
    let mut report = Report {
        gates: Gates::new(opts.inject_wrong_digest),
        ..Report::default()
    };
    let work = WorkDir::new("serve-mixed");
    let cfg_shared = tenant_config(opts.seed, opts.scale);
    let cfg_other = tenant_config(opts.seed.wrapping_add(1), opts.scale);

    let mut times = Times::default();
    let ref_shared = reference(&cfg_shared, REFERENCE_REPS, &mut report.gates, &mut times);
    let ref_other = reference(&cfg_other, 1, &mut report.gates, &mut Times::default());
    // `peak_rss_mb` covers the daemon's run, not the batch references.
    if !crate::reset_peak_rss() {
        report
            .notes
            .push("peak_rss_mb includes the batch reference runs: no high-water reset".to_string());
    }

    // Set-up: daemon start through the first answered request; the last
    // daemon started serves the measured phase.
    let mut setup = Times::default();
    let Some(mut rig) = start_rigs(work.path(), "pre", &mut setup, &mut report.gates) else {
        panic!("the daemon never started: {:?}", report.gates.failures);
    };

    let tracer = opts.trace.then(Tracer::new);
    let tracer = tracer.as_ref();
    let plan = serve_plan(opts);
    let (tx, rx) = mpsc::channel();
    let stop = AtomicBool::new(false);
    let mut open_gates = Gates::new(false);
    let closed_root = tracer.map(|t| t.begin("closed-loop", "perfbench::serve", None, 0));
    let closed_id = closed_root.as_ref().map(|s| s.id());
    let (cold, warm, solo, open, rss) = std::thread::scope(|scope| {
        let open = &mut rig.open;
        let open_gates = &mut open_gates;
        let ref_shared = &ref_shared;
        let stop = &stop;
        let handle = scope.spawn(move || {
            let result = rx.recv().ok().map(|study| {
                let root = tracer.map(|t| t.begin("open-loop", "perfbench::serve", None, study));
                let root_id = root.as_ref().map(|s| s.id());
                let open = open_loop(
                    open, study, ref_shared, opts.seed, plan, open_gates, tracer, root_id,
                );
                if let (Some(t), Some(r)) = (tracer, root) {
                    t.end(r);
                }
                (open, root_id.map(|id| (id, study)))
            });
            stop.store(true, Ordering::SeqCst);
            result.unwrap_or_default()
        });
        let mut closed = ClosedLoop {
            client: &mut rig.closed,
            gates: &mut report.gates,
            tracer,
            root: closed_id,
        };
        // Cold studies: `alpha` alone, then `gamma` beside the open
        // loop. They are reported, not gated.
        let mut cold = Vec::new();
        if let Some(d) = closed.study("alpha", &cfg_shared, ref_shared, None) {
            let _ = tx.send(d.id);
            cold.push(d);
        }
        drop(tx);
        cold.extend(closed.study("gamma", &cfg_other, &ref_other, Some(stop)));
        // Warm studies, one kind, beside the open loop until it ends:
        // their turnarounds are the `study_turnaround_s` samples.
        let mut warm = Vec::new();
        let mut rss = None;
        for k in 1..=MAX_WARM {
            if stop.load(Ordering::SeqCst) || handle.is_finished() {
                break;
            }
            warm.extend(closed.study(&format!("beta-{k}"), &cfg_shared, ref_shared, Some(stop)));
            if warm.len() == RSS_AFTER_WARM && rss.is_none() {
                rss = Some(peak_rss_mb());
            }
        }
        let open = handle.join().expect("open-loop thread panicked");
        // Read before the solo studies, whose results the service keeps.
        let rss = rss.ok_or_else(peak_rss_mb);
        // Warm studies with the open loop gone: the daemon is the only
        // other thing running, so the process's CPU time outside this
        // thread is its cost of turning a warm study around.
        let solo: Vec<Done> = (1..=SOLO_WARM)
            .filter_map(|k| closed.study(&format!("solo-{k}"), &cfg_shared, ref_shared, None))
            .collect();
        (cold, warm, solo, open, rss)
    });
    if let (Some(t), Some(r)) = (tracer, closed_root) {
        t.end(r);
    }
    let (open, open_root) = open;
    report.gates.attempted += open_gates.attempted;
    report.gates.failed += open_gates.failed;
    report.gates.failures.extend(open_gates.failures);
    report.gates.check(!warm.is_empty(), || {
        "no warm study completed beside the open loop".to_string()
    });
    report.gates.check(solo.len() == SOLO_WARM, || {
        format!("{} of {SOLO_WARM} solo warm studies completed", solo.len())
    });
    for d in &cold {
        report.notes.push(format!(
            "{} (cold): turnaround {:.3} s over {} slices",
            d.tenant, d.turnaround_s, d.slices
        ));
    }
    let turnaround: Vec<f64> = warm.iter().map(|d| d.turnaround_s).collect();
    report.notes.push(format!(
        "{} warm studies beside the open loop: {:?} s",
        warm.len(),
        turnaround
    ));
    let solo_cpu: Vec<f64> = solo.iter().map(|d| d.service_cpu_s).collect();
    report.notes.push(format!(
        "{} solo warm studies: turnaround {:?} s, daemon CPU {:?} s",
        solo.len(),
        solo.iter().map(|d| d.turnaround_s).collect::<Vec<_>>(),
        solo_cpu
    ));

    if let Some(tracer) = tracer {
        let study = open_root.map_or(0, |(_, study)| study);
        let roots = [
            ("closed-loop", closed_id),
            ("open-loop", open_root.map(|(id, _)| id)),
        ];
        let done: Vec<&Done> = cold.iter().chain(&warm).chain(&solo).collect();
        report_traced(
            opts,
            tracer,
            &mut rig,
            &done,
            &open,
            &roots,
            study,
            &cfg_shared,
            &ref_shared,
            &work,
            &mut report,
        );
    } else {
        if turnaround.is_empty() {
            report.set("study_turnaround_s", f64::NAN);
        } else {
            report.set_summary("study_turnaround_s", &turnaround);
        }
        if solo_cpu.is_empty() {
            report.set("turnaround_cpu_s", f64::NAN);
        } else {
            report.set_summary("turnaround_cpu_s", &solo_cpu);
        }
        report_rates(&mut report, &open);
        if rss.is_err() {
            report.notes.push(format!(
                "peak_rss_mb read as the open loop ended: fewer than {RSS_AFTER_WARM} warm \
                 studies completed beside it"
            ));
        }
        report.set("peak_rss_mb", rss.unwrap_or_else(|late| late));
    }
    let Rig {
        mut daemon,
        closed,
        open,
    } = rig;
    drop((closed, open));
    daemon.shutdown();
    drop(daemon);
    if !opts.trace {
        // More set-up and batch samples after the measured phase, so
        // those figures span the run rather than its first seconds.
        drop(start_rigs(
            work.path(),
            "post",
            &mut setup,
            &mut report.gates,
        ));
        report.set_summary("setup_s", &setup.cpu_s);
        report.set_summary("setup_wall_s", &setup.wall_s);
        let again = reference(&cfg_shared, REFERENCE_REPS, &mut report.gates, &mut times);
        let after = "reference after the measured phase";
        report
            .gates
            .digest(after, &ref_shared.digest, &again.digest);
        let again = reference(&cfg_other, 1, &mut report.gates, &mut Times::default());
        report.gates.digest(after, &ref_other.digest, &again.digest);
        report.set_summary("study_cpu_s", &times.cpu_s);
        report.set_summary("study_s", &times.wall_s);
    }
    report
}

/// Starts [`SETUP_REPS`] daemons one after another (each shut down
/// before the next starts), appending each start-up's times to `setup`;
/// returns the last one still running.
fn start_rigs(
    dir: &std::path::Path,
    tag: &str,
    setup: &mut Times,
    gates: &mut Gates,
) -> Option<Rig> {
    let mut rig = None;
    for i in 0..SETUP_REPS {
        drop(rig.take());
        match start_rig(&dir.join(format!("root-{tag}-{i}"))) {
            Ok((r, wall_s, cpu_s)) => {
                setup.wall_s.push(wall_s);
                setup.cpu_s.push(cpu_s);
                rig = Some(r);
            }
            Err(e) => gates.check(false, || format!("daemon start: {e}")),
        }
    }
    rig
}

/// Sets the service-layer metrics seen from the client: slices, verdict
/// queries and generator lateness from the loops, the hit ratio from
/// the daemon's own counters, the in-process `Service::handle` cost
/// and what the wire adds to it. Returns the daemon's metrics snapshot.
fn serve_layer_metrics(
    tracer: &Tracer,
    rig: &mut Rig,
    done: &[&Done],
    open: &OpenLoop,
    study: u64,
    known: &Reference,
    report: &mut Report,
) -> Option<slum_obs::MetricsSnapshot> {
    let slice_s: Vec<f64> = done
        .iter()
        .filter(|d| d.slices > 0)
        .map(|d| d.turnaround_s / d.slices as f64)
        .collect();
    report.set(
        "serve.slice_s",
        if slice_s.is_empty() {
            f64::NAN
        } else {
            median(&slice_s)
        },
    );
    let slices: Vec<f64> = done.iter().map(|d| d.slices as f64).collect();
    report.set(
        "serve.slices_per_study",
        if slices.is_empty() {
            f64::NAN
        } else {
            median(&slices)
        },
    );
    let queries: usize = open.steps().map(|s| s.latency_ms.len()).sum();
    report.set("serve.verdict_queries", queries as f64);
    let lateness: Vec<f64> = open
        .steps()
        .flat_map(|s| s.lateness_ms.iter().copied())
        .collect();
    let lateness_p99 = if lateness.is_empty() {
        f64::NAN
    } else {
        percentile(&lateness, 99.0)
    };
    report.set("serve.generator_lateness_ms", lateness_p99);

    let metrics = rig
        .closed
        .call(&Request::new("stream-metrics"))
        .ok()
        .and_then(|r| r.metrics)
        .and_then(|m| slum_obs::MetricsSnapshot::from_json(&m).ok());
    report.gates.check(metrics.is_some(), || {
        "stream-metrics returned no snapshot".to_string()
    });
    let counter = |name: &str| metrics.as_ref().map_or(0, |m| m.counter(name)) as f64;
    let hits = counter("serve.verdict.hits");
    report.set(
        "serve.verdict_hit_ratio",
        hits / (hits + counter("serve.verdict.misses")).max(1.0),
    );

    let (verdict_us, status_us) = handle_costs(&rig.daemon, study, known, tracer);
    report.set("serve.handle.query_verdict_us", verdict_us);
    report.set("serve.handle.study_status_us", status_us);
    let mut rtt = Vec::new();
    let mut req = Request::new("query-verdict");
    req.study = Some(study);
    req.url = known.verdicts.keys().next().cloned();
    for _ in 0..RTT_PROBES {
        let t0 = Instant::now();
        let resp = rig.closed.call(&req);
        check_response(&mut report.gates, "rtt probe", &resp);
        rtt.push(secs(t0.elapsed()) * 1e6);
    }
    report.set("serve.rtt_overhead_us", median(&rtt) - verdict_us);
    metrics
}

/// Adds the layer table of each client-side root (named) to the report;
/// the spans under each must cover at least 90% of it.
fn client_tables(tracer: &Tracer, roots: &[(&str, Option<SpanId>)], report: &mut Report) {
    let spans = tracer.spans();
    for &(name, root) in roots {
        let Some(root) = root else { continue };
        let table = trace::layer_table(&spans, root);
        report.gates.check(table.coverage() >= 0.9, || {
            format!(
                "{name}: layer spans cover {:.3}, below 0.9",
                table.coverage()
            )
        });
        report.layers.push((name.to_string(), table));
    }
}

/// The traced run's per-layer metrics for the serve workload.
#[allow(clippy::too_many_arguments)]
fn report_traced(
    opts: &Options,
    tracer: &Tracer,
    rig: &mut Rig,
    done: &[&Done],
    open: &OpenLoop,
    roots: &[(&str, Option<SpanId>)],
    study: u64,
    cfg: &StudyConfig,
    shared: &Reference,
    work: &WorkDir,
    report: &mut Report,
) {
    let metrics = serve_layer_metrics(tracer, rig, done, open, study, shared, report);

    // The layers inside a slice, replayed through the composed pipeline
    // at the daemon's checkpoint cadence.
    let reference = timed_study(cfg).study;
    let untraced = timed_study(cfg).total_s;
    let composed = batch::composed_study(
        tracer,
        cfg,
        &reference,
        cfg.checkpoint_every,
        &work.path().join("replay"),
        0,
        report,
    );
    batch::check_composed(&mut report.gates, &composed, &reference);
    batch::report_trace(tracer, &composed, untraced, report);

    // Cache hit ratios from the daemon's own counters: every tenant,
    // warm ones included.
    let counter = |name: &str| metrics.as_ref().map_or(0, |m| m.counter(name)) as f64;
    for group in ["url_features", "content_features", "domain_blacklisted"] {
        let lookups = counter(&format!("scan.cache.{group}.lookups"));
        let hits = counter(&format!("scan.cache.{group}.hits"));
        report.set(
            &format!("scan.cache.{group}.hit_ratio"),
            hits / lookups.max(1.0),
        );
        report.set(&format!("scan.cache.{group}.lookups"), lookups);
    }
    let lookups = counter("js.vm.module_cache.lookups");
    report.set(
        "js.module_hit_ratio",
        counter("js.vm.module_cache.hits") / lookups.max(1.0),
    );
    report.set("js.module_lookups", lookups);

    client_tables(tracer, roots, report);
    crate::finish_trace(opts, tracer, report);
}

/// The verdict probe of the batch workloads: a daemon runs one small
/// study of `cfg` and then answers the open loop with no study beside
/// it — the query path `serve-mixed` loads, without the write traffic.
/// Traced, it also sets the service-layer metrics.
pub(crate) fn idle_probe(
    opts: &Options,
    cfg: &StudyConfig,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> OpenLoop {
    let work = WorkDir::new("probe");
    let reference = reference(cfg, 1, &mut report.gates, &mut Times::default());
    let mut rig = match start_rig(&work.path().join("root")) {
        Ok((rig, _, _)) => rig,
        Err(e) => {
            report
                .gates
                .check(false, || format!("probe daemon start: {e}"));
            return OpenLoop::default();
        }
    };
    let closed_root = tracer.map(|t| t.begin("probe-study", "perfbench::serve", None, 0));
    let closed_id = closed_root.as_ref().map(|s| s.id());
    let done = ClosedLoop {
        client: &mut rig.closed,
        gates: &mut report.gates,
        tracer,
        root: closed_id,
    }
    .study("probe", cfg, &reference, None);
    if let (Some(t), Some(r)) = (tracer, closed_root) {
        t.end(r);
    }
    let Some(done) = done else {
        return OpenLoop::default();
    };
    let open_root = tracer.map(|t| t.begin("open-loop", "perfbench::serve", None, done.id));
    let open_id = open_root.as_ref().map(|s| s.id());
    let open = open_loop(
        &mut rig.open,
        done.id,
        &reference,
        opts.seed,
        probe_plan(opts),
        &mut report.gates,
        tracer,
        open_id,
    );
    if let (Some(t), Some(r)) = (tracer, open_root) {
        t.end(r);
    }
    if let Some(tracer) = tracer {
        let study = done.id;
        serve_layer_metrics(tracer, &mut rig, &[&done], &open, study, &reference, report);
        client_tables(
            tracer,
            &[("probe-study", closed_id), ("open-loop", open_id)],
            report,
        );
    }
    open
}
