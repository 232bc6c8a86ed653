//! The socket workloads: daemon set-up, the closed ingest loop, the
//! open-loop query senders, and the quiesced correctness gate.
//!
//! One load-generator process drives the daemon over at most two
//! connections with at most two threads: the calling thread runs
//! connection 1 and one scoped thread runs connection 2 (or, on the
//! pipelined workload, reads connection 1's answers).

use crate::daemon::{exchange, register_tenants, Daemon};
use crate::gen::{below, frame, rng, Zipf};
use crate::hist::{Histogram, Series};
use crate::reference::Reference;
use crate::sched::{drive_sync, Merged, OpenLoop};
use crate::spec::{Mode, WorkloadSpec};
use crate::trace::{Probe, Span, TraceStream, Tracer};
use bas_server::wire::{HeavyHittersQuery, IngestFrame, PointQuery};
use bas_server::{
    read_frame, write_frame, Client, IngestBatcher, Request, Response, RetryPolicy, TenantRef,
    MAX_FRAME_BYTES,
};
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Generator stream ids (one per independent sequence).
const S_POOL: u64 = 0x1000;
const S_PRELOAD: u64 = 0x2000;
const S_QUERY: u64 = 0x3000;
const S_TRICKLE: u64 = 0x4000;

/// Everything a run's workload needs to know.
pub struct Ctx<'a> {
    /// The workload.
    pub spec: &'a WorkloadSpec,
    /// The workload seed.
    pub seed: u64,
    /// The release `bas-serverd` binary.
    pub server: &'a Path,
    /// Journal path for workloads that journal.
    pub journal: &'a Path,
}

impl Ctx<'_> {
    /// The Zipf sampler of ingested items.
    pub fn zipf(&self) -> Zipf {
        Zipf::new(self.spec.universe, self.spec.zipf_s, self.seed)
    }

    /// The closed loop's frame pool: `pool[tenant][i]`.
    pub fn pool(&self) -> Vec<Vec<Vec<(u64, f64)>>> {
        let zipf = self.zipf();
        (0..self.spec.tenants())
            .map(|t| {
                (0..self.spec.pool_frames_per_tenant as u64)
                    .map(|i| {
                        let mut r = rng(self.seed, S_POOL + (t << 16) + i);
                        frame(&zipf, &mut r, self.spec.frame_updates, self.spec.max_delta)
                    })
                    .collect()
            })
            .collect()
    }

    /// The set-up preload frame of tenant `t` (empty if none).
    pub fn preload(&self, t: u64) -> Vec<(u64, f64)> {
        let mut r = rng(self.seed, S_PRELOAD + t);
        let n = self.spec.preload_updates_per_tenant;
        frame(&self.zipf(), &mut r, n, self.spec.max_delta)
    }

    /// Trickle frame `j` of the pipelined workload: its tenant and
    /// updates.
    pub fn trickle(&self, j: u64) -> (u64, Vec<(u64, f64)>) {
        let t = (j / self.spec.trickle_flush_every.max(1)) % self.spec.tenants();
        let mut r = rng(self.seed, S_TRICKLE + j);
        (
            t,
            frame(
                &self.zipf(),
                &mut r,
                self.spec.trickle_updates,
                self.spec.max_delta,
            ),
        )
    }

    fn windowed_tenants(&self) -> Vec<u64> {
        (0..self.spec.tenants())
            .filter(|&t| self.spec.mode(t) != Mode::Unbounded)
            .collect()
    }
}

/// The generated write stream and how far a run has got through it.
pub struct Feed {
    /// The closed loop's frame pool: `pool[tenant][i]`.
    pub pool: Vec<Vec<Vec<(u64, f64)>>>,
    /// Pool frames sent per tenant.
    pub frames_sent: Vec<u64>,
    /// Next trickle frame of the pipelined workload.
    pub trickle_next: u64,
}

impl Feed {
    /// The workload's stream from its start.
    pub fn new(ctx: &Ctx) -> Self {
        Self {
            pool: ctx.pool(),
            frames_sent: vec![0; ctx.spec.tenants() as usize],
            trickle_next: 0,
        }
    }
}

/// A write the daemon acknowledged, in the order it applied them.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// `Admitted` ingest of pool frame `(tenant, index)`.
    Admit(u64, usize),
    /// Trickle frame `j` admitted.
    Trickle(u64),
    /// `Flushed`.
    Flush(u64),
    /// `Sealed`.
    Advance(u64),
}

/// A Point answer received during the pipelined phases, checked after
/// the run against the reference state at that point of the stream.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Position among the writes (answers sort after the writes sent
    /// before them on the connection).
    pub after_events: usize,
    /// Tenant asked.
    pub tenant: u64,
    /// Item asked.
    pub item: u64,
    /// Value answered.
    pub value: f64,
}

/// One rung of the offered-rate ladder.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Offered rate, requests/s.
    pub rate: f64,
    /// Latency of the rung's `Point` requests, ns from due time.
    pub latency: Series,
    /// When the rung started, ns on the connection's clock.
    pub start_ns: u64,
    /// How long it ran, ns.
    pub span_ns: u64,
    /// Requests sent.
    pub sent: u64,
    /// Requests failed.
    pub failed: u64,
    /// Mean sender lateness over the first and last quarter, ns.
    pub late_first: f64,
    /// See `late_first`.
    pub late_last: f64,
    /// Whether the rung met the limit, had no failures and the sender
    /// kept up.
    pub sustained: bool,
}

/// What the socket part of a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set-up durations, s.
    pub setup_s: Vec<f64>,
    /// Requests attempted in the timed phases.
    pub attempted: u64,
    /// Requests failed in the timed phases.
    pub failed: u64,
    /// Updates answered `Admitted` in the timed phases.
    pub admitted_items: u64,
    /// Wall time of the timed phases, s.
    pub timed_s: f64,
    /// `Point` latency, ns from due time, stamped with the due time.
    pub point: Series,
    /// The time span the `Point` samples cover: `(start, length)` ns.
    pub point_span: (u64, u64),
    /// `WindowPoint` latency, ns.
    pub window_point: Series,
    /// `WindowHeavyHitters` latency, ns.
    pub hh: Series,
    /// `AdvanceInterval` reply latency, ns.
    pub advance: Series,
    /// Updates admitted, stamped with the time of the answer.
    pub ingested: Series,
    /// Open-loop sender lateness, ns.
    pub late: Histogram,
    /// Largest number of requests in flight on the pipelined
    /// connection.
    pub backlog_max: u64,
    /// The ladder, when the workload has one.
    pub ladder: Vec<Rung>,
    /// Ingest frames answered `Busy` / `Shed`.
    pub busy: u64,
    /// See `busy`.
    pub shed: u64,
    /// Ingest frames sent.
    pub ingest_frames: u64,
    /// Client attempts without an answer, and reconnects.
    pub retries: u64,
    /// See `retries`.
    pub reconnects: u64,
    /// Closed-loop `Ping` round trips, ns.
    pub ping: Histogram,
    /// Recorded spans (traced runs).
    pub spans: Vec<Span>,
    /// Acknowledged writes, in order.
    pub events: Vec<Event>,
    /// Pipelined Point answers to check.
    pub answers: Vec<Answer>,
}

impl Outcome {
    /// The highest ladder rung sustained with every rung below it.
    pub fn sustained_qps(&self) -> f64 {
        self.ladder
            .iter()
            .take_while(|r| r.sustained)
            .last()
            .map_or(0.0, |r| r.rate)
    }
}

/// Spawns and readies the daemon `setup_repeats` times, keeping the
/// last one; returns it with every set-up's duration. The reference
/// receives the preload once.
pub fn setup(ctx: &Ctx, reference: &mut Reference) -> Result<(Daemon, Vec<f64>), String> {
    let preload: Vec<Vec<(u64, f64)>> = (0..ctx.spec.tenants()).map(|t| ctx.preload(t)).collect();
    let mut times = Vec::new();
    let repeats = ctx.spec.setup_repeats.max(1);
    for i in 0..repeats {
        let t0 = Instant::now();
        let daemon = Daemon::spawn(ctx.server, ctx.spec, ctx.journal)?;
        {
            let s = daemon.connect().map_err(|e| format!("connect: {e}"))?;
            register_tenants(&s, ctx.spec)?;
            for (t, updates) in preload.iter().enumerate().filter(|(_, u)| !u.is_empty()) {
                let t = t as u64;
                let req = Request::Ingest(IngestFrame {
                    tenant: t,
                    updates: updates.clone(),
                });
                match exchange(&s, &req)? {
                    Response::Admitted(_) => {}
                    other => return Err(format!("preload tenant {t}: {other:?}")),
                }
                match exchange(&s, &Request::Flush(TenantRef { tenant: t }))? {
                    Response::Flushed(_) => {}
                    other => return Err(format!("preload flush {t}: {other:?}")),
                }
            }
        }
        times.push(t0.elapsed().as_secs_f64());
        if i + 1 < repeats {
            daemon.stop(Duration::from_secs(30))?;
        } else {
            for (t, updates) in preload.iter().enumerate() {
                reference.tenants[t].admit(updates);
                reference.tenants[t].flush();
            }
            return Ok((daemon, times));
        }
    }
    unreachable!("at least one set-up runs")
}

type Connector = Box<dyn FnMut() -> std::io::Result<TraceStream<TcpStream>>>;

/// Connection-layer client over one socket, with the stream probe that
/// prices its calls.
struct Conn {
    client: Client<TraceStream<TcpStream>, Connector>,
    probe: Rc<Probe>,
    tracer: Option<Tracer>,
    base: Instant,
    req: u64,
}

impl Conn {
    /// Connects and completes one `Ping`, so the daemon has accepted
    /// the connection (its accept loop polls every 20 ms) before any
    /// timed request is due.
    fn open(addr: SocketAddr, tracer: Option<Tracer>, base: Instant) -> Result<Self, String> {
        let probe = Rc::new(Probe::default());
        let p = probe.clone();
        let connect: Connector = Box::new(move || {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(20)))?;
            Ok(TraceStream::new(s, p.clone()))
        });
        let mut conn = Self {
            client: Client::new(connect, RetryPolicy::new(), MAX_FRAME_BYTES),
            probe,
            tracer: None,
            base,
            req: 0,
        };
        match conn.call(&Request::Ping)? {
            Response::Pong => {}
            other => return Err(format!("Ping answered {other:?}")),
        }
        conn.tracer = tracer;
        Ok(conn)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Records the call's spans from the stream marks.
    fn spans(&mut self, t0: Instant, t1: Instant) {
        self.req += 1;
        if self.tracer.is_none() {
            return;
        }
        let m = self.probe.marks.get();
        let (a, z) = (self.ns(t0), self.ns(t1));
        let w = m.first_write.map_or(a, |t| self.ns(t));
        let f = m.flushed.map_or(w, |t| self.ns(t));
        let r = m.first_read.map_or(f, |t| self.ns(t));
        let tracer = self.tracer.as_mut().expect("checked above");
        let root = tracer.reserve();
        tracer.record("wire.encode", root, self.req, a, w);
        tracer.record("listener.send", root, self.req, w, f);
        tracer.record("listener.wait", root, self.req, f, r);
        tracer.record("wire.decode", root, self.req, r, z);
        tracer.record_as(root, "connection.call", self.req, a, z);
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.probe.marks.set(Default::default());
        let t0 = Instant::now();
        let r = self.client.call(req).map_err(|e| e.to_string());
        self.spans(t0, Instant::now());
        r
    }

    fn ship(
        &mut self,
        batcher: &mut IngestBatcher,
        updates: &[(u64, f64)],
    ) -> Result<Vec<Response>, String> {
        self.probe.marks.set(Default::default());
        let t0 = Instant::now();
        let r = batcher
            .extend(&mut self.client, updates)
            .map_err(|e| e.to_string());
        self.spans(t0, Instant::now());
        r
    }

    fn counts(&self) -> (u64, u64) {
        let p = &self.probe;
        (
            p.attempts.get().saturating_sub(p.replies.get()),
            p.connects.get().saturating_sub(1),
        )
    }
}

/// How long before the timed start connections are opened and warmed.
const WARM_UP: Duration = Duration::from_millis(100);

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Sleeps until `ns` after `base`. Never spins: on a two-core host a
/// spinning sender would take a core from the daemon it measures. The
/// timer's overshoot shows up as sender lateness, and latency is
/// charged from the due time regardless.
fn wait_until(base: Instant, ns: u64) {
    let now = base.elapsed().as_nanos() as u64;
    if ns > now {
        std::thread::sleep(Duration::from_nanos(ns - now));
    }
}

/// Linux's default timer slack lets a sleep overshoot by 50 µs, which
/// an open-loop sender would add to every request's latency. Open-loop
/// senders run with 1 µs of slack; the setting is per thread and is
/// restored when the guard drops, so the daemon (spawned from the main
/// thread) keeps the default.
pub struct PreciseTimers(bool);

const PR_SET_TIMERSLACK: i32 = 29;
const DEFAULT_SLACK_NS: u64 = 50_000;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

impl PreciseTimers {
    /// Lowers the calling thread's timer slack to 1 µs.
    pub fn enable() -> Self {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
        // only changes the calling thread's timer slack; it touches no
        // memory of ours.
        Self(unsafe { prctl(PR_SET_TIMERSLACK, 1_000u64) } == 0)
    }
}

impl Drop for PreciseTimers {
    fn drop(&mut self) {
        if self.0 {
            // SAFETY: as in `enable`.
            unsafe {
                prctl(PR_SET_TIMERSLACK, DEFAULT_SLACK_NS);
            }
        }
    }
}

/// Closed-loop `Ping`s on a fresh connection: the transport floor.
pub fn ping_phase(daemon: &Daemon, pings: u64, out: &mut Outcome) -> Result<(), String> {
    let mut conn = Conn::open(daemon.addr(), None, Instant::now())?;
    for _ in 0..pings {
        let t0 = Instant::now();
        match conn.call(&Request::Ping)? {
            Response::Pong => out.ping.record(t0.elapsed().as_nanos() as u64),
            other => return Err(format!("Ping answered {other:?}")),
        }
    }
    Ok(())
}

/// Per-connection results of the query sender.
struct QuerySide {
    sync: crate::sched::SyncOutcome,
    retries: u64,
    reconnects: u64,
    spans: Vec<Span>,
}

/// Connection 2: `Point`, `WindowPoint` and `WindowHeavyHitters` on
/// merged fixed-rate schedules until `until_ns`.
fn query_side(
    ctx: &Ctx,
    addr: SocketAddr,
    base: Instant,
    until_ns: u64,
    traced: bool,
) -> Result<QuerySide, String> {
    let spec = ctx.spec;
    let _timers = PreciseTimers::enable();
    let tracer = traced.then(|| Tracer::new(1 << 40));
    let mut conn = Conn::open(addr, tracer, base)?;
    sleep_until(base);
    let windowed = ctx.windowed_tenants();
    let zipf = ctx.zipf();
    let mut r = rng(ctx.seed, S_QUERY);
    let start = base.elapsed().as_nanos() as u64;
    let mut merged = Merged::new(
        start,
        &[spec.point_rate, spec.window_point_rate, spec.hh_rate],
    );
    let mut error = None;
    let sync = drive_sync(
        &mut merged,
        until_ns,
        3,
        || base.elapsed().as_nanos() as u64,
        |ns| wait_until(base, ns),
        |stream, _| {
            let req = match stream {
                0 => Request::Point(PointQuery {
                    tenant: below(&mut r, spec.tenants()),
                    item: zipf.item(&mut r),
                }),
                1 => Request::WindowPoint(PointQuery {
                    tenant: windowed[below(&mut r, windowed.len() as u64) as usize],
                    item: zipf.item(&mut r),
                }),
                _ => Request::WindowHeavyHitters(HeavyHittersQuery {
                    tenant: windowed[below(&mut r, windowed.len() as u64) as usize],
                    phi: spec.hh_phi,
                }),
            };
            match conn.call(&req) {
                Ok(Response::Value(_)) if stream < 2 => true,
                Ok(Response::HeavyHitters(_)) if stream == 2 => true,
                Ok(other) => {
                    error.get_or_insert(format!("{req:?} answered {other:?}"));
                    false
                }
                Err(e) => {
                    error.get_or_insert(format!("{req:?}: {e}"));
                    false
                }
            }
        },
    );
    if let Some(e) = error {
        eprintln!("perfbench: query failure: {e}");
    }
    let (retries, reconnects) = conn.counts();
    Ok(QuerySide {
        sync,
        retries,
        reconnects,
        spans: conn
            .tracer
            .take()
            .map(Tracer::into_spans)
            .unwrap_or_default(),
    })
}

/// The ingest loop on connection 1 (closed: one frame in flight,
/// optionally paced to `ingest_rate`), with the open-loop query sender
/// on connection 2, for `seconds`. Appends to `out`.
pub fn closed_loop_phase(
    ctx: &Ctx,
    daemon: &Daemon,
    feed: &mut Feed,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let spec = ctx.spec;
    // Both connections open and warm up before the common start.
    let base = Instant::now() + WARM_UP;
    let until_ns = (seconds * 1e9) as u64;
    let has_queries = spec.point_rate + spec.window_point_rate + spec.hh_rate > 0.0;
    let addr = daemon.addr();
    let (ingest, query) = std::thread::scope(|scope| {
        let query =
            has_queries.then(|| scope.spawn(move || query_side(ctx, addr, base, until_ns, traced)));
        let ingest = ingest_side(ctx, addr, base, until_ns, feed, traced);
        let query = query.map(|h| h.join().expect("the query thread does not panic"));
        (ingest, query)
    });
    let ingest = ingest?;
    out.timed_s += ingest.elapsed_s;
    out.admitted_items += ingest.admitted_items;
    out.attempted += ingest.attempted;
    out.failed += ingest.failed;
    out.busy += ingest.busy;
    out.shed += ingest.shed;
    out.ingest_frames += ingest.frames;
    out.advance.append(&ingest.advance);
    out.ingested.append(&ingest.ingested);
    out.retries += ingest.retries;
    out.reconnects += ingest.reconnects;
    out.events.extend(ingest.events);
    out.spans.extend(ingest.spans);
    if let Some(q) = query {
        let q = q?;
        out.attempted += q.sync.sent;
        out.failed += q.sync.failed;
        out.point.append(&q.sync.latency[0]);
        out.window_point.append(&q.sync.latency[1]);
        out.hh.append(&q.sync.latency[2]);
        out.point_span = (0, until_ns);
        out.late.merge(&q.sync.late);
        out.retries += q.retries;
        out.reconnects += q.reconnects;
        out.spans.extend(q.spans);
    }
    Ok(())
}

struct IngestSide {
    elapsed_s: f64,
    admitted_items: u64,
    attempted: u64,
    failed: u64,
    busy: u64,
    shed: u64,
    frames: u64,
    advance: Series,
    ingested: Series,
    retries: u64,
    reconnects: u64,
    events: Vec<Event>,
    spans: Vec<Span>,
}

fn ingest_side(
    ctx: &Ctx,
    addr: SocketAddr,
    base: Instant,
    until_ns: u64,
    feed: &mut Feed,
    traced: bool,
) -> Result<IngestSide, String> {
    let spec = ctx.spec;
    let tenants = spec.tenants();
    let tracer = traced.then(|| Tracer::new(0));
    let mut conn = Conn::open(addr, tracer, base)?;
    sleep_until(base);
    let mut side = IngestSide {
        elapsed_s: 0.0,
        admitted_items: 0,
        attempted: 0,
        failed: 0,
        busy: 0,
        shed: 0,
        frames: 0,
        advance: Series::default(),
        ingested: Series::default(),
        retries: 0,
        reconnects: 0,
        events: Vec::new(),
        spans: Vec::new(),
    };
    if spec.frame_updates == 0 || feed.pool.is_empty() {
        return Ok(side);
    }
    let mut batchers: Vec<IngestBatcher> = (0..tenants)
        .map(|t| IngestBatcher::new(t, spec.frame_updates))
        .collect();
    let mut k: u64 = 0;
    let mut offered = 0u64;
    while (base.elapsed().as_nanos() as u64) < until_ns {
        if spec.ingest_rate > 0.0 {
            // Paced: frame k leaves no earlier than its share of the
            // rate allows, and at once when the loop is behind.
            wait_until(base, (offered as f64 / spec.ingest_rate * 1e9) as u64);
        }
        let t = k % tenants;
        k += 1;
        let n = feed.frames_sent[t as usize];
        let idx = (n % spec.pool_frames_per_tenant as u64) as usize;
        let updates = &feed.pool[t as usize][idx];
        offered += updates.len() as u64;
        side.attempted += 1;
        side.frames += 1;
        let answers = conn.ship(&mut batchers[t as usize], updates)?;
        match answers.as_slice() {
            [Response::Admitted(_)] => {
                side.admitted_items += updates.len() as u64;
                side.ingested
                    .push(base.elapsed().as_nanos() as u64, updates.len() as u64);
                side.events.push(Event::Admit(t, idx));
            }
            other => {
                side.failed += 1;
                match other {
                    [Response::Busy(_)] => side.busy += 1,
                    [Response::Shed(_)] => side.shed += 1,
                    _ => {}
                }
                // Nothing was admitted: drop the unshipped frame.
                batchers[t as usize] = IngestBatcher::new(t, spec.frame_updates);
            }
        }
        feed.frames_sent[t as usize] = n + 1;
        if spec.frames_per_flush > 0 && (n + 1).is_multiple_of(spec.frames_per_flush) {
            side.attempted += 1;
            match conn.call(&Request::Flush(TenantRef { tenant: t }))? {
                Response::Flushed(_) => side.events.push(Event::Flush(t)),
                other => return Err(format!("Flush({t}) answered {other:?}")),
            }
        }
        if spec.frames_per_advance > 0 && (n + 1).is_multiple_of(spec.frames_per_advance) {
            side.attempted += 1;
            let t0 = Instant::now();
            match conn.call(&Request::AdvanceInterval(TenantRef { tenant: t }))? {
                Response::Sealed(_) => {
                    let at = t0.saturating_duration_since(base).as_nanos() as u64;
                    side.advance.push(at, t0.elapsed().as_nanos() as u64);
                    side.events.push(Event::Advance(t));
                }
                other => return Err(format!("AdvanceInterval({t}) answered {other:?}")),
            }
        }
    }
    // The tenants' final Flush closes the timed phase: admitted updates
    // count once they are applied.
    for t in 0..tenants {
        side.attempted += 1;
        match conn.call(&Request::Flush(TenantRef { tenant: t }))? {
            Response::Flushed(_) => side.events.push(Event::Flush(t)),
            other => return Err(format!("final Flush({t}) answered {other:?}")),
        }
    }
    side.elapsed_s = base.elapsed().as_secs_f64();
    (side.retries, side.reconnects) = conn.counts();
    side.spans = conn
        .tracer
        .take()
        .map(Tracer::into_spans)
        .unwrap_or_default();
    Ok(side)
}

/// What the pipelined sender queues for the reader, per request.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Point(u64, u64),
    Trickle,
    Flush,
}

#[derive(Debug, Clone, Copy)]
struct Meta {
    due: u64,
    phase: usize,
    kind: Kind,
    span: u64,
}

/// Sender-side results of one pipelined phase.
struct PhaseSent {
    start_ns: u64,
    span_ns: u64,
    sent: u64,
    backlog_max: u64,
    late_first: Histogram,
    late_last: Histogram,
    late: Histogram,
    events: Vec<Event>,
}

/// The pipelined connection: one thread sends on the schedule, one
/// reads answers. Runs the phases `(rate, seconds)` back to back,
/// draining in-flight requests between phases. Returns one rung per
/// phase.
pub fn pipelined_phases(
    ctx: &Ctx,
    daemon: &Daemon,
    phases: &[(f64, f64)],
    trickle_next: &mut u64,
    traced: bool,
    out: &mut Outcome,
) -> Result<Vec<Rung>, String> {
    let spec = ctx.spec;
    let stream = daemon.connect().map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .map_err(|e| e.to_string())?;
    match exchange(&stream, &Request::Ping)? {
        Response::Pong => {}
        other => return Err(format!("Ping answered {other:?}")),
    }
    let mut reader_stream = stream.try_clone().map_err(|e| e.to_string())?;
    let base = Instant::now();
    let received = AtomicU64::new(0);
    let reader_failed = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Meta>();
    let mut r = rng(ctx.seed, S_QUERY + 1);

    let (send_result, read_result) = std::thread::scope(|scope| {
        let received = &received;
        let reader_failed = &reader_failed;
        let reader = scope.spawn(move || {
            let mut tracer = traced.then(|| Tracer::new(1 << 40));
            let mut lat: Vec<Series> = vec![Series::default(); phases.len()];
            let mut failed = vec![0u64; phases.len()];
            let mut answers = Vec::new();
            let mut writes = 0usize;
            for meta in rx {
                let t0 = base.elapsed().as_nanos() as u64;
                let resp = read_frame::<_, Response>(&mut reader_stream, MAX_FRAME_BYTES);
                let now = base.elapsed().as_nanos() as u64;
                if let Some(tr) = tracer.as_mut() {
                    tr.record("wire.read_frame", meta.span, meta.span, t0, now);
                    tr.record_as(meta.span, "pipelined.request", meta.span, meta.due, now);
                }
                received.fetch_add(1, Ordering::Release);
                match (meta.kind, resp) {
                    (Kind::Point(tenant, item), Ok(Some(Response::Value(v)))) => {
                        lat[meta.phase].push(meta.due, now.saturating_sub(meta.due));
                        answers.push(Answer {
                            after_events: writes,
                            tenant,
                            item,
                            value: v.value,
                        });
                    }
                    (Kind::Trickle, Ok(Some(Response::Admitted(_))))
                    | (Kind::Flush, Ok(Some(Response::Flushed(_)))) => writes += 1,
                    (kind, other) => {
                        failed[meta.phase] += 1;
                        if !reader_failed.swap(true, Ordering::AcqRel) {
                            eprintln!("perfbench: {kind:?} answered {other:?}");
                        }
                        if !matches!(other, Ok(Some(_))) {
                            // The stream is gone or out of sync.
                            break;
                        }
                        writes += usize::from(!matches!(kind, Kind::Point(..)));
                    }
                }
            }
            (
                lat,
                failed,
                answers,
                tracer.map(Tracer::into_spans).unwrap_or_default(),
            )
        });

        let mut send = || -> Result<(Vec<PhaseSent>, Vec<Span>), String> {
            let _timers = PreciseTimers::enable();
            let mut tracer = traced.then(|| Tracer::new(1 << 41));
            let mut w = BufWriter::with_capacity(1 << 16, &stream);
            let mut sent_total = 0u64;
            let mut slot = 0u64;
            let mut per_phase = Vec::new();
            for (phase, &(rate, secs)) in phases.iter().enumerate() {
                let start = base.elapsed().as_nanos() as u64;
                let end = start + (secs * 1e9) as u64;
                let quarter = (secs * 1e9 / 4.0) as u64;
                let mut sched = OpenLoop::new(start, rate);
                let mut ph = PhaseSent {
                    start_ns: start,
                    span_ns: end - start,
                    sent: 0,
                    backlog_max: 0,
                    late_first: Histogram::new(),
                    late_last: Histogram::new(),
                    late: Histogram::new(),
                    events: Vec::new(),
                };
                while sched.next_due() < end {
                    let now = base.elapsed().as_nanos() as u64;
                    if sched.next_due() > now {
                        wait_until(base, sched.next_due());
                        continue;
                    }
                    while sched.next_due() <= now && sched.next_due() < end {
                        let (_, due) = sched.advance();
                        let late = now - due;
                        ph.late.record(late);
                        if due - start < quarter {
                            ph.late_first.record(late);
                        } else if due - start >= 3 * quarter {
                            ph.late_last.record(late);
                        }
                        let mut reqs: Vec<(Request, Kind)> = Vec::with_capacity(2);
                        slot += 1;
                        if spec.trickle_every > 0 && slot.is_multiple_of(spec.trickle_every) {
                            let j = *trickle_next;
                            *trickle_next += 1;
                            let (t, updates) = ctx.trickle(j);
                            reqs.push((
                                Request::Ingest(IngestFrame { tenant: t, updates }),
                                Kind::Trickle,
                            ));
                            ph.events.push(Event::Trickle(j));
                            if (j + 1).is_multiple_of(spec.trickle_flush_every.max(1)) {
                                reqs.push((Request::Flush(TenantRef { tenant: t }), Kind::Flush));
                                ph.events.push(Event::Flush(t));
                            }
                        } else {
                            let tenant = below(&mut r, spec.tenants());
                            let item = below(&mut r, spec.universe);
                            reqs.push((
                                Request::Point(PointQuery { tenant, item }),
                                Kind::Point(tenant, item),
                            ));
                        }
                        for (req, kind) in reqs {
                            let span = tracer.as_mut().map_or(0, Tracer::reserve);
                            let t0 = base.elapsed().as_nanos() as u64;
                            tx.send(Meta {
                                due,
                                phase,
                                kind,
                                span,
                            })
                            .map_err(|_| "the reader stopped early".to_string())?;
                            write_frame(&mut w, &req).map_err(|e| format!("send: {e}"))?;
                            if let Some(tr) = tracer.as_mut() {
                                let t1 = base.elapsed().as_nanos() as u64;
                                tr.record("wire.write_frame", span, span, t0, t1);
                            }
                            ph.sent += 1;
                            sent_total += 1;
                        }
                    }
                    w.flush().map_err(|e| format!("send: {e}"))?;
                    let in_flight = sent_total - received.load(Ordering::Acquire);
                    ph.backlog_max = ph.backlog_max.max(in_flight);
                }
                // Drain before the next phase so rungs do not overlap.
                let drain = Instant::now();
                while received.load(Ordering::Acquire) < sent_total
                    && drain.elapsed() < Duration::from_secs(20)
                    && !reader_failed.load(Ordering::Acquire)
                {
                    std::thread::sleep(Duration::from_micros(200));
                }
                per_phase.push(ph);
            }
            Ok((
                per_phase,
                tracer.map(Tracer::into_spans).unwrap_or_default(),
            ))
        };
        let sent = send();
        drop(tx);
        let read = reader.join().expect("the reader thread does not panic");
        (sent, read)
    });
    let (per_phase, sender_spans) = send_result?;
    let (lat, failed, answers, reader_spans) = read_result;
    out.spans.extend(sender_spans);
    out.spans.extend(reader_spans);
    let events_before = out.events.len();
    out.answers.extend(answers.into_iter().map(|a| Answer {
        after_events: a.after_events + events_before,
        ..a
    }));
    let limit_ns = spec.latency_limit_us * 1e3;
    let mut rungs = Vec::new();
    for (ph, (&(rate, _), (lat, failed))) in per_phase
        .into_iter()
        .zip(phases.iter().zip(lat.into_iter().zip(failed)))
    {
        // A request without an answer is a failure too.
        let answered = lat.len() as u64 + ph.events.len() as u64;
        let failed = failed.max(ph.sent.saturating_sub(answered));
        let (late_first, late_last) = (ph.late_first.mean(), ph.late_last.mean());
        let keeps_up = late_last <= late_first + 0.1 * limit_ns;
        rungs.push(Rung {
            rate,
            sent: ph.sent,
            failed,
            late_first,
            late_last,
            sustained: failed == 0 && lat.hist().quantile(0.99) <= limit_ns && keeps_up,
            latency: lat,
            start_ns: ph.start_ns,
            span_ns: ph.span_ns,
        });
        out.attempted += ph.sent;
        out.failed += failed;
        out.late.merge(&ph.late);
        out.backlog_max = out.backlog_max.max(ph.backlog_max);
        out.events.extend(ph.events);
    }
    Ok(rungs)
}
