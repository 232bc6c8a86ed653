//! The daemon front end: a real socket accept loop over the fabric.
//!
//! [`serve_connection`](crate::serve_connection) is transport-agnostic
//! but single-threaded and in-process; this module turns it into a
//! long-running daemon:
//!
//! * **Transports** — [`Daemon::bind_tcp`] and [`Daemon::bind_unix`]
//!   accept on TCP or unix-domain sockets through the same loop
//!   ([`AnyListener`]/[`AnyStream`]).
//! * **Thread model** — one accept thread, one thread per connection,
//!   and one writer thread, all dispatching into a [`SharedFabric`]: a
//!   single fabric mutex held **only for the in-memory dispatch of one
//!   request** — never across socket reads or writes. Contention is
//!   therefore bounded by per-request CPU (moving a frame onto a queue
//!   for ingest, `O(depth · width)` for the heaviest snapshot queries),
//!   not by client latency; a slow or stalled peer holds no lock.
//! * **Write-behind** — the writer applies admitted ingest frames to
//!   their tenant's live plane in admission order, one frame at a time
//!   and **outside** the lock, while connection threads go back to
//!   their sockets. A request for a tenant whose frame is in flight
//!   waits for it on a condition variable (lock released); the wait
//!   rule and the lock order are on [`SharedFabric`].
//! * **Deadlines** — each connection carries read/write/idle
//!   [`Deadlines`]. *Idle* bounds the quiet gap **between** frames;
//!   *read*/*write* bound the per-syscall progress gap **inside** a
//!   frame (a peer must keep bytes moving, not finish by a wall-clock
//!   instant). Expiry is a typed [`ConnectionError`], and the
//!   connection drops.
//! * **Graceful shutdown** — [`Daemon::shutdown`] stops accepting,
//!   lets every in-flight frame finish (connections notice the flag at
//!   their next between-frames poll), lets the writer apply what was
//!   queued for it and joins it, seals each tenant's open interval via
//!   [`Fabric::quiesce`], journals the advances and a
//!   compacted checkpoint when persistence is attached, and joins all
//!   threads before returning.
//!
//! Killing the process instead of calling [`Daemon::shutdown`] is the
//! crash case the [`persist`](crate::persist) journal exists for: on
//! restart, [`recover`](crate::persist::recover) rebuilds the tenant
//! topology from the journal and the daemon resumes serving.

use crate::engine::LivePlane;
use crate::fabric::Fabric;
use crate::persist::{Journal, JournalRecord};
use crate::wire::{self, Request, Response, TenantRef, WireError};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Per-connection deadlines. `None` disables the respective deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadlines {
    /// Maximum per-syscall progress gap while **reading** a frame: the
    /// longest the peer may go silent mid-frame.
    pub read: Option<Duration>,
    /// Maximum per-syscall progress gap while **writing** a response.
    pub write: Option<Duration>,
    /// Maximum quiet time **between** frames before the connection is
    /// closed as idle.
    pub idle: Option<Duration>,
}

impl Deadlines {
    /// Daemon defaults: 10 s progress gaps, 5 min idle.
    pub fn new() -> Self {
        Self {
            read: Some(Duration::from_secs(10)),
            write: Some(Duration::from_secs(10)),
            idle: Some(Duration::from_secs(300)),
        }
    }

    /// No deadlines at all (trusted in-process tests).
    pub const NONE: Self = Self {
        read: None,
        write: None,
        idle: None,
    };

    /// Sets the mid-frame read deadline.
    pub fn with_read(mut self, read: Option<Duration>) -> Self {
        self.read = read;
        self
    }

    /// Sets the response write deadline.
    pub fn with_write(mut self, write: Option<Duration>) -> Self {
        self.write = write;
        self
    }

    /// Sets the between-frames idle deadline.
    pub fn with_idle(mut self, idle: Option<Duration>) -> Self {
        self.idle = idle;
        self
    }
}

impl Default for Deadlines {
    fn default() -> Self {
        Self::new()
    }
}

/// Daemon configuration: frame cap, deadlines, poll quantum, journal
/// compaction thresholds.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Per-frame byte cap handed to the wire layer.
    pub max_frame_bytes: usize,
    /// Per-connection deadlines.
    pub deadlines: Deadlines,
    /// How often idle connections and the accept loop re-check the
    /// shutdown flag (also the granularity of the idle deadline).
    pub poll_interval: Duration,
    /// Compact the journal once it holds this many records beyond the
    /// last compaction (`None` = compact only at graceful shutdown).
    pub compact_after_records: Option<u64>,
    /// Compact the journal once it grows this many bytes beyond the
    /// last compaction (`None` = compact only at graceful shutdown).
    pub compact_after_bytes: Option<u64>,
}

impl DaemonConfig {
    /// Defaults: the wire frame cap, default deadlines, 20 ms polls,
    /// shutdown-only compaction.
    pub fn new() -> Self {
        Self {
            max_frame_bytes: wire::MAX_FRAME_BYTES,
            deadlines: Deadlines::new(),
            poll_interval: Duration::from_millis(20),
            compact_after_records: None,
            compact_after_bytes: None,
        }
    }

    /// Sets the frame cap.
    pub fn with_max_frame_bytes(mut self, max: usize) -> Self {
        self.max_frame_bytes = max;
        self
    }

    /// Sets the deadlines.
    pub fn with_deadlines(mut self, deadlines: Deadlines) -> Self {
        self.deadlines = deadlines;
        self
    }

    /// Sets the poll quantum.
    pub fn with_poll_interval(mut self, poll: Duration) -> Self {
        self.poll_interval = poll;
        self
    }

    /// Compacts the journal after this many appended records.
    pub fn with_compact_after_records(mut self, records: Option<u64>) -> Self {
        self.compact_after_records = records;
        self
    }

    /// Compacts the journal after this many appended bytes.
    pub fn with_compact_after_bytes(mut self, bytes: Option<u64>) -> Self {
        self.compact_after_bytes = bytes;
        self
    }
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Why a daemon connection ended.
#[derive(Debug)]
pub enum ConnectionError {
    /// No frame arrived within the idle deadline.
    IdleTimeout {
        /// The configured idle limit.
        limit: Duration,
    },
    /// The peer stalled mid-frame beyond the read deadline.
    ReadTimeout {
        /// The configured per-gap read limit.
        limit: Duration,
    },
    /// The peer stopped draining its responses beyond the write
    /// deadline.
    WriteTimeout {
        /// The configured per-gap write limit.
        limit: Duration,
    },
    /// A fatal wire error (truncation, abusive declaration, I/O).
    Wire(WireError),
}

impl std::fmt::Display for ConnectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::IdleTimeout { limit } => write!(f, "connection idle beyond {limit:?}"),
            Self::ReadTimeout { limit } => write!(f, "mid-frame read stalled beyond {limit:?}"),
            Self::WriteTimeout { limit } => write!(f, "response write stalled beyond {limit:?}"),
            Self::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for ConnectionError {}

impl From<WireError> for ConnectionError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// The fabric behind a mutex, shareable across connection threads and
/// the daemon's writer.
///
/// The lock is held only for [`Fabric::handle`]'s in-memory dispatch —
/// frames are read and written **outside** the critical section, so no
/// client controls how long the lock is held. A poisoned lock (a panic
/// in a holder) is recovered by taking the inner value: `handle` is
/// panic-free by construction (every failure is a typed
/// `Response::Error`, see [`FabricError`](crate::fabric::FabricError)),
/// so the state under a poison marker is still consistent.
///
/// **Write-behind.** A daemon attaches one writer thread. Each admitted
/// `Ingest` frame queues its tenant for the writer, in admission order;
/// one writer round takes the tenant's oldest frame and a clone of its
/// live plane under the lock and marks the tenant *in flight*, applies
/// the frame in one epoch write section **outside** the lock, then
/// clears the mark under the lock and wakes waiters. At most one frame
/// is in flight, so each tenant's frames land in admission order and
/// the plane is bit for bit what synchronous dispatch builds.
///
/// **Waiting releases the lock.** A request that reads or drains a
/// tenant's plane must not overlap that tenant's in-flight frame:
/// [`handle`](Self::handle) waits on a condition variable — which
/// releases the lock — while the request's tenant is in flight, for
/// every request except `Ingest` admission, `Ping` and `Register`;
/// [`with`](Self::with) waits until nothing is in flight. While any
/// request waits, the writer takes no new frame, so waiters cannot
/// starve. Lock order: the journal lock (held by compaction and
/// shutdown) before the fabric lock; the writer takes only the fabric
/// lock and never waits while holding it.
///
/// Without a writer (a bare [`SharedFabric::new`]) admitted frames stay
/// queued until a request drains them, exactly as in [`Fabric`].
#[derive(Debug, Clone)]
pub struct SharedFabric(Arc<Shared>);

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Signalled when an in-flight frame lands.
    settled: Condvar,
    /// Signalled when the writer may have work: a frame admitted, the
    /// last waiter served, or shutdown.
    work: Condvar,
}

#[derive(Debug)]
struct State {
    fabric: Fabric,
    /// Whether a writer thread applies admitted frames.
    writer: bool,
    /// One entry per admitted frame, in admission order: the tenant
    /// whose oldest queued frame the writer takes next. An entry whose
    /// frame a drain already applied is skipped.
    ready: VecDeque<u64>,
    /// The tenant whose frame the writer is applying.
    in_flight: Option<u64>,
    /// Requests waiting for the in-flight frame to land.
    waiting: usize,
    /// Set at shutdown: the writer exits once the ready queue is empty.
    stop: bool,
    /// Frames the writer applied.
    frames_applied: u64,
    /// Requests that waited for an in-flight frame.
    waits: u64,
}

impl SharedFabric {
    /// Wraps a fabric for shared dispatch.
    pub fn new(fabric: Fabric) -> Self {
        Self(Arc::new(Shared {
            state: Mutex::new(State {
                fabric,
                writer: false,
                ready: VecDeque::new(),
                in_flight: None,
                waiting: 0,
                stop: false,
                frames_applied: 0,
                waits: 0,
            }),
            settled: Condvar::new(),
            work: Condvar::new(),
        }))
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.0.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the lock once `busy` no longer holds, waiting (lock
    /// released) while it does.
    fn lock_settled(&self, busy: impl Fn(&State) -> bool) -> MutexGuard<'_, State> {
        let mut state = self.lock();
        if busy(&state) {
            state.waiting += 1;
            state.waits += 1;
            state = self
                .0
                .settled
                .wait_while(state, |s| busy(s))
                .unwrap_or_else(PoisonError::into_inner);
            state.waiting -= 1;
            if state.waiting == 0 {
                self.0.work.notify_one();
            }
        }
        state
    }

    /// Runs `f` under the fabric lock, once no frame is in flight.
    pub fn with<T>(&self, f: impl FnOnce(&mut Fabric) -> T) -> T {
        let mut state = self.lock_settled(|s| s.in_flight.is_some());
        f(&mut state.fabric)
    }

    /// Dispatches one request under the lock (see the type docs for
    /// when it waits first).
    pub fn handle(&self, req: Request) -> Response {
        let waits_on = match &req {
            Request::Ping | Request::Register(_) | Request::Ingest(_) => None,
            Request::Flush(r) | Request::AdvanceInterval(r) | Request::Stats(r) => Some(r.tenant),
            Request::Export(r) => Some(r.tenant),
            Request::Point(q) | Request::WindowPoint(q) => Some(q.tenant),
            Request::HeavyHitters(q) | Request::WindowHeavyHitters(q) => Some(q.tenant),
            Request::RangeSum(q) | Request::WindowRangeSum(q) => Some(q.tenant),
            Request::Install(transfer) => Some(transfer.spec.tenant),
        };
        let queues = match &req {
            Request::Ingest(frame) if !frame.updates.is_empty() => Some(frame.tenant),
            _ => None,
        };
        let mut state = match waits_on {
            Some(tenant) => self.lock_settled(|s| s.in_flight == Some(tenant)),
            None => self.lock(),
        };
        let resp = state.fabric.handle(req);
        if let Some(tenant) = queues {
            if state.writer && matches!(resp, Response::Admitted(_)) {
                state.ready.push_back(tenant);
                drop(state);
                self.0.work.notify_one();
            }
        }
        resp
    }

    /// Spawns the writer thread; it runs until [`stop_writer`](Self::stop_writer).
    fn spawn_writer(&self) -> JoinHandle<()> {
        self.lock().writer = true;
        let shared = self.clone();
        thread::spawn(move || shared.run_writer())
    }

    /// The writer loop: one round per admitted frame.
    fn run_writer(&self) {
        while let Some((frame, plane)) = self.next_frame() {
            plane.apply(&frame);
            let updates = frame.len() as u64;
            drop((frame, plane));
            let mut state = self.lock();
            let tenant = state
                .in_flight
                .take()
                .expect("the writer's frame is in flight");
            state.fabric.finish_frame(tenant, updates);
            state.frames_applied += 1;
            let waiters = state.waiting > 0;
            drop(state);
            if waiters {
                self.0.settled.notify_all();
            }
        }
    }

    /// Takes the oldest admitted frame still queued and marks its tenant
    /// in flight; waits while requests wait or nothing is ready. `None`
    /// once stopped with nothing left.
    fn next_frame(&self) -> Option<(Vec<(u64, f64)>, LivePlane)> {
        let mut state = self.lock();
        loop {
            if state.waiting == 0 {
                while let Some(tenant) = state.ready.pop_front() {
                    if let Some(job) = state.fabric.take_frame(tenant) {
                        state.in_flight = Some(tenant);
                        return Some(job);
                    }
                }
                if state.stop {
                    return None;
                }
            }
            state = self
                .0
                .work
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Tells the writer to apply what is queued for it and exit.
    fn stop_writer(&self) {
        self.lock().stop = true;
        self.0.work.notify_all();
    }

    /// `(frames the writer applied, requests that waited)`.
    fn writer_counts(&self) -> (u64, u64) {
        let state = self.lock();
        (state.frames_applied, state.waits)
    }

    /// Unwraps the fabric if no other handle is alive.
    pub fn try_into_inner(self) -> Result<Fabric, Self> {
        match Arc::try_unwrap(self.0) {
            Ok(shared) => Ok(shared
                .state
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .fabric),
            Err(arc) => Err(Self(arc)),
        }
    }
}

/// The service a connection thread dispatches into: the shared fabric
/// plus the optional journal, so every durable effect of a request is
/// recorded as soon as the fabric acknowledges it.
#[derive(Debug)]
struct Service {
    fabric: SharedFabric,
    journal: Option<Mutex<Journal>>,
    compact_after_records: Option<u64>,
    compact_after_bytes: Option<u64>,
    /// Journal appends and compactions that failed while serving.
    journal_failures: AtomicU64,
}

impl Service {
    /// Dispatches one request and journals its durable effect (tenant
    /// registration / installation, interval advance) on success.
    /// When the journal crosses a compaction threshold the append also
    /// triggers an inline [`Journal::compact`] — the lock order
    /// (journal, then fabric) matches [`Daemon::shutdown`], and
    /// `compact` is atomic (write-to-temp + rename), so a kill at any
    /// point leaves a recoverable journal on disk.
    fn handle(&self, req: Request) -> Response {
        let record = match &req {
            Request::Register(spec) => Some(JournalRecord::TenantRegistered(*spec)),
            Request::Install(transfer) => Some(JournalRecord::Checkpoint(transfer.clone())),
            Request::AdvanceInterval(r) => Some(JournalRecord::IntervalAdvanced(*r)),
            _ => None,
        };
        let resp = self.fabric.handle(req);
        if let (Some(record), Some(journal)) = (record, &self.journal) {
            let acknowledged = !matches!(resp, Response::Error(_));
            if acknowledged {
                let mut journal = journal.lock().unwrap_or_else(PoisonError::into_inner);
                // Journal I/O failure must not corrupt the serving
                // path; the daemon keeps answering and counts the
                // failure for the shutdown report.
                let mut failed = journal.append(&record).is_err();
                let over_records = self
                    .compact_after_records
                    .is_some_and(|limit| journal.records() >= limit);
                let over_bytes = self
                    .compact_after_bytes
                    .is_some_and(|limit| journal.bytes() >= limit);
                if over_records || over_bytes {
                    failed |= self.fabric.with(|f| journal.compact(f)).is_err();
                }
                if failed {
                    self.journal_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        resp
    }
}

/// A listening socket of either family.
#[derive(Debug)]
pub enum AnyListener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener.
    Unix(UnixListener),
}

impl AnyListener {
    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Self::Tcp(l) => l.set_nonblocking(nb),
            Self::Unix(l) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> io::Result<AnyStream> {
        match self {
            Self::Tcp(l) => l.accept().map(|(s, _)| {
                // One small request frame ↔ one small response frame:
                // Nagle + delayed ACK would serialize that at ~40 ms a
                // round trip, so turn it off (best-effort).
                let _ = s.set_nodelay(true);
                AnyStream::Tcp(s)
            }),
            Self::Unix(l) => l.accept().map(|(s, _)| AnyStream::Unix(s)),
        }
    }

    fn local_tcp_addr(&self) -> Option<SocketAddr> {
        match self {
            Self::Tcp(l) => l.local_addr().ok(),
            Self::Unix(_) => None,
        }
    }
}

/// A connected stream of either family.
#[derive(Debug)]
pub enum AnyStream {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-domain stream.
    Unix(UnixStream),
}

impl AnyStream {
    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_nonblocking(nb),
            Self::Unix(s) => s.set_nonblocking(nb),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_read_timeout(t),
            Self::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_write_timeout(t),
            Self::Unix(s) => s.set_write_timeout(t),
        }
    }
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Self::Tcp(s) => s.read(buf),
            Self::Unix(s) => s.read(buf),
        }
    }
}

impl Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Self::Tcp(s) => s.write(buf),
            Self::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.flush(),
            Self::Unix(s) => s.flush(),
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A stream with a one-byte pushback slot: the between-frames poll
/// reads (not peeks — `UnixStream::peek` is not yet stable) the first
/// byte of the next frame under a short timeout, and the `Read` impl
/// hands that byte back before touching the socket, so the frame
/// decoder sees an intact stream.
struct PolledStream {
    stream: AnyStream,
    pushback: Option<u8>,
}

impl Read for PolledStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(byte) = self.pushback.take() {
            if buf.is_empty() {
                self.pushback = Some(byte);
                return Ok(0);
            }
            buf[0] = byte;
            return Ok(1);
        }
        self.stream.read(buf)
    }
}

/// What the between-frames poll decided.
enum PollOutcome {
    /// The next frame's first byte arrived (stashed in the pushback
    /// slot): read the frame.
    Frame,
    /// Clean end of stream, or shutdown with the stream quiet.
    Done,
}

/// Waits between frames: returns when a byte arrives, the peer hangs
/// up, the idle deadline expires, or shutdown is flagged while the
/// stream is quiet (an in-flight frame — its first byte already
/// stashed — still gets served; that is the drain guarantee).
fn poll_between_frames(
    polled: &mut PolledStream,
    deadlines: &Deadlines,
    poll: Duration,
    shutdown: &AtomicBool,
) -> Result<PollOutcome, ConnectionError> {
    debug_assert!(polled.pushback.is_none());
    polled
        .stream
        .set_read_timeout(Some(poll))
        .map_err(|e| ConnectionError::Wire(WireError::from(e)))?;
    let start = Instant::now();
    let mut probe = [0u8; 1];
    loop {
        match polled.stream.read(&mut probe) {
            Ok(0) => return Ok(PollOutcome::Done),
            Ok(_) => {
                polled.pushback = Some(probe[0]);
                return Ok(PollOutcome::Frame);
            }
            Err(e) if is_timeout(&e) => {
                if let Some(limit) = deadlines.idle {
                    if start.elapsed() >= limit {
                        return Err(ConnectionError::IdleTimeout { limit });
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ConnectionError::Wire(WireError::from(e))),
        }
        if shutdown.load(Ordering::Acquire) {
            return Ok(PollOutcome::Done);
        }
    }
}

/// Serves one daemon connection until clean EOF, shutdown, a deadline
/// expiry, or a fatal wire error. Returns the frames answered.
fn serve_daemon_connection(
    stream: AnyStream,
    service: &Service,
    config: &DaemonConfig,
    shutdown: &AtomicBool,
) -> Result<u64, ConnectionError> {
    let mut polled = PolledStream {
        stream,
        pushback: None,
    };
    let mut answered = 0u64;
    loop {
        match poll_between_frames(
            &mut polled,
            &config.deadlines,
            config.poll_interval,
            shutdown,
        )? {
            PollOutcome::Done => return Ok(answered),
            PollOutcome::Frame => {}
        }
        // A frame has started: read it under the progress-gap read
        // deadline (each socket read may stall at most this long),
        // answer under the write deadline.
        polled
            .stream
            .set_read_timeout(config.deadlines.read)
            .map_err(|e| ConnectionError::Wire(WireError::from(e)))?;
        let response = match wire::read_frame::<_, Request>(&mut polled, config.max_frame_bytes) {
            Ok(None) => return Ok(answered),
            Ok(Some(req)) => service.handle(req),
            Err(WireError::Io(e)) if is_timeout(&e) => {
                return Err(ConnectionError::ReadTimeout {
                    limit: config.deadlines.read.unwrap_or_default(),
                });
            }
            Err(e) if e.is_recoverable() => {
                Response::Error(wire::ErrorReply::new("protocol", e.to_string()))
            }
            Err(e) => return Err(ConnectionError::Wire(e)),
        };
        polled
            .stream
            .set_write_timeout(config.deadlines.write)
            .map_err(|e| ConnectionError::Wire(WireError::from(e)))?;
        match wire::write_frame(&mut polled.stream, &response) {
            Ok(_) => {}
            Err(WireError::Io(e)) if is_timeout(&e) => {
                return Err(ConnectionError::WriteTimeout {
                    limit: config.deadlines.write.unwrap_or_default(),
                });
            }
            Err(e) => return Err(ConnectionError::Wire(e)),
        }
        polled
            .stream
            .flush()
            .map_err(|e| ConnectionError::Wire(WireError::from(e)))?;
        answered += 1;
    }
}

/// What a graceful shutdown did.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
    /// Frames answered across all connections.
    pub frames: u64,
    /// `(tenant, sealed_interval)` pairs from the quiesce step.
    pub sealed: Vec<(u64, u64)>,
    /// Ingest frames the writer thread applied.
    pub frames_applied: u64,
    /// The most updates admitted and not yet applied at once, across
    /// all tenants ([`Fabric::peak_queued`]).
    pub peak_queued: u64,
    /// Requests that waited for their tenant's in-flight frame (or, for
    /// journal compaction, for any in-flight frame) to land.
    pub waits: u64,
    /// Requests whose journal append or triggered compaction failed
    /// while serving; their effects were acknowledged but may not be
    /// durable.
    pub journal_failures: u64,
    /// The recovered fabric, for in-process reuse after shutdown.
    pub fabric: Fabric,
}

/// A running daemon: accept thread, one thread per connection, and one
/// writer thread that applies admitted frames (see [`SharedFabric`]).
#[derive(Debug)]
pub struct Daemon {
    fabric: SharedFabric,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    frames: Arc<AtomicU64>,
    connections: Arc<AtomicU64>,
    accept: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    local_addr: Option<SocketAddr>,
}

impl Daemon {
    /// Binds a TCP daemon. `addr` may be `"127.0.0.1:0"` to let the OS
    /// pick a port — read it back with [`local_addr`](Self::local_addr).
    pub fn bind_tcp<A: ToSocketAddrs>(
        addr: A,
        fabric: Fabric,
        journal: Option<Journal>,
        config: DaemonConfig,
    ) -> io::Result<Self> {
        let listener = AnyListener::Tcp(TcpListener::bind(addr)?);
        Self::start(listener, fabric, journal, config)
    }

    /// Binds a unix-domain daemon at `path` (removed first if a stale
    /// socket file is present).
    pub fn bind_unix<P: AsRef<Path>>(
        path: P,
        fabric: Fabric,
        journal: Option<Journal>,
        config: DaemonConfig,
    ) -> io::Result<Self> {
        let path = path.as_ref();
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = AnyListener::Unix(UnixListener::bind(path)?);
        Self::start(listener, fabric, journal, config)
    }

    fn start(
        listener: AnyListener,
        fabric: Fabric,
        journal: Option<Journal>,
        config: DaemonConfig,
    ) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_tcp_addr();
        let fabric = SharedFabric::new(fabric);
        let service = Arc::new(Service {
            fabric: fabric.clone(),
            journal: journal.map(Mutex::new),
            compact_after_records: config.compact_after_records,
            compact_after_bytes: config.compact_after_bytes,
            journal_failures: AtomicU64::new(0),
        });
        let writer = fabric.spawn_writer();
        let shutdown = Arc::new(AtomicBool::new(false));
        let frames = Arc::new(AtomicU64::new(0));
        let connections = Arc::new(AtomicU64::new(0));
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let frames = Arc::clone(&frames);
            let connections = Arc::clone(&connections);
            let workers = Arc::clone(&workers);
            let poll = config.poll_interval;
            thread::spawn(move || {
                while !shutdown.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok(stream) => {
                            connections.fetch_add(1, Ordering::Relaxed);
                            let service = Arc::clone(&service);
                            let shutdown = Arc::clone(&shutdown);
                            let frames = Arc::clone(&frames);
                            let config = config.clone();
                            let handle = thread::spawn(move || {
                                let _ = stream.set_nonblocking(false);
                                match serve_daemon_connection(stream, &service, &config, &shutdown)
                                {
                                    Ok(n) => {
                                        frames.fetch_add(n, Ordering::Relaxed);
                                    }
                                    Err(_) => {
                                        // Deadline expiries and hostile
                                        // streams drop the connection;
                                        // the daemon itself keeps
                                        // serving.
                                    }
                                }
                            });
                            let mut workers =
                                workers.lock().unwrap_or_else(PoisonError::into_inner);
                            workers.retain(|h| !h.is_finished());
                            workers.push(handle);
                        }
                        Err(e) if is_timeout(&e) => thread::sleep(poll),
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => thread::sleep(poll),
                    }
                }
            })
        };

        Ok(Self {
            fabric,
            service,
            shutdown,
            frames,
            connections,
            accept: Some(accept),
            writer: Some(writer),
            workers,
            local_addr,
        })
    }

    /// The bound TCP address (`None` for unix-domain daemons).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// The shared fabric, for in-process inspection and dispatch.
    pub fn fabric(&self) -> &SharedFabric {
        &self.fabric
    }

    /// Graceful shutdown: stop accepting, let in-flight frames finish,
    /// let the writer apply what it was handed and join it, seal every
    /// tenant's open interval (applying anything still queued), journal
    /// the advances plus a compacted checkpoint (when persistence is
    /// attached), and join every thread.
    pub fn shutdown(mut self) -> io::Result<ShutdownReport> {
        self.shutdown.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        loop {
            let handle = {
                let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
                workers.pop()
            };
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }

        // Every connection is drained: drain and join the writer, seal
        // open intervals, journal the advances, and write the compacted
        // durable snapshot.
        if let Some(writer) = self.writer.take() {
            self.fabric.stop_writer();
            // A writer that died mid-frame leaves its tenant in flight,
            // and the quiesce below would wait for it forever.
            writer
                .join()
                .map_err(|_| io::Error::other("the ingest writer thread panicked"))?;
        }
        let (frames_applied, waits) = self.fabric.writer_counts();
        let sealed = self.fabric.with(|f| f.quiesce());
        if let Some(journal) = &self.service.journal {
            let mut journal = journal.lock().unwrap_or_else(PoisonError::into_inner);
            for &(tenant, _) in &sealed {
                journal.append(&JournalRecord::IntervalAdvanced(TenantRef { tenant }))?;
            }
            self.fabric.with(|f| journal.compact(f))?;
        }

        let connections = self.connections.load(Ordering::Relaxed);
        let frames = self.frames.load(Ordering::Relaxed);
        let journal_failures = self.service.journal_failures.load(Ordering::Relaxed);
        // All threads are joined, so the only remaining service (and
        // through it, fabric) clone is ours; unwrap the fabric for
        // in-process reuse.
        drop(self.service);
        let fabric = self.fabric.try_into_inner().map_err(|_| {
            io::Error::other("fabric still shared after shutdown (live SharedFabric clones)")
        })?;
        Ok(ShutdownReport {
            connections,
            frames,
            sealed,
            frames_applied,
            peak_queued: fabric.peak_queued(),
            waits,
            journal_failures,
            fabric,
        })
    }
}
