//! The event-driven `regend` front end: one epoll readiness loop,
//! keep-alive connections, pipelined requests, zero-copy cache hits.
//!
//! ```text
//!                       ┌────────────── readiness loop ──────────────┐
//!  clients ── accept ──▶│ epoll_wait ─▶ read ─▶ incremental parser   │
//!   (keep-alive,        │     ▲                  │ requests          │
//!    pipelined)         │     │        fast path │     slow path     │
//!                       │     │    (cache hits,  ▼         ▼         │
//!                       │     │     /metrics) response   bounded     │
//!                       │     │         slots ◀─────┐   dispatch q   │
//!                       │     │           │          │ full? 429     │
//!                       │  wakeup fd      ▼          │     │         │
//!                       └─────┼─── ordered flush ◀───┼─────┼─────────┘
//!                             │                      ▼     ▼
//!                         completions ◀── worker pool (Core::execute:
//!                                          single-flight ▸ Executor)
//! ```
//!
//! The PR 5 server spent a TCP handshake and a dedicated thread on
//! every request. Here one thread owns every socket through raw
//! `epoll` syscalls ([`crate::sys`]); each connection is a small state
//! machine — an incremental [`RequestParser`] and an ordered queue of
//! response *slots* that is also its write queue. Requests that only
//! need a `HashMap` probe (rendered-cache hits, `/healthz`, `/metrics`)
//! are answered on the loop thread. Cold work is classified by
//! [`Core::route`] into [`SlowWork`], admission-checked against the
//! bounded dispatch queue (full ⇒ immediate 429 + `Retry-After`), and
//! executed on the worker pool; completions come back over a mutex
//! queue plus an `eventfd` wakeup and fill their waiting slot in place.
//!
//! A ready slot holds its serialized head, its body (a shared
//! `Arc<[u8]>` from the cache, never copied) and a byte cursor; a cache
//! hit's head is the kept rendering's own, shared like its body, so the
//! hit formats nothing. A flush hands the unsent bytes of every leading
//! ready slot to one
//! vectored write (`writev(2)`) of up to `MAX_SLICES` (128) slices and
//! advances the cursors by what the kernel accepted: a pipelined batch
//! of cache hits costs one kernel crossing, not two per response.
//! Slots flush strictly in request order, and a waiting slot ends the
//! batch, so pipelined clients see HTTP/1.1 ordering.
//!
//! A warm read allocates nothing: the parser reads each head where it
//! lies and into the strings of the request the loop hands back after
//! routing it, and the request reads the clock once, when its bytes
//! arrive. `tests/warm_allocations.rs` counts the allocations.
//!
//! Hygiene: a connection that stops making progress — half a request
//! then silence, or a reader that never drains its responses — is
//! reaped at `idle_timeout` without touching any other connection. The
//! loop stops reading a connection that owes `MAX_OWED` (256)
//! responses, so a client that pipelines without reading stalls
//! instead of growing the server, and it processes nothing pipelined
//! after a request that closes the connection (RFC 9112 §9.6). A peer
//! that vanishes mid-response is counted in `regend_disconnects_total`
//! and its slots freed immediately. When `accept` fails for want of a
//! descriptor or of memory, the loop stops watching the listener, whose
//! queued connection would otherwise wake every `epoll_wait`, until a
//! connection closes or 50 ms have passed. Drain (SIGTERM,
//! `POST /shutdown`, [`ServerHandle::drain`]) closes the listener,
//! finishes every admitted request, flushes, and returns from
//! [`Server::run`] with the run's counters.

use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use spectrebench::obs::EventKind;

use crate::core::{deadline_expired, lock, Action, Core, RunSummary, ServerConfig, SlowWork};
use crate::http::{Body, HttpError, Request, RequestParser, Response};
use crate::sys::{
    accept_starved, Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};

/// How long a listener starved of descriptors stays out of the epoll
/// set when no connection of its own closes.
const ACCEPT_RETRY: Duration = Duration::from_millis(50);

/// epoll token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// epoll token of the wakeup eventfd.
const TOKEN_WAKE: u64 = 1;
/// First connection token.
const TOKEN_CONN0: u64 = 2;

/// Responses one connection may owe before the loop stops reading it:
/// above every pipeline depth this repo's clients use (perfbench
/// pipelines 40, the memory soak 100), so only a client that pipelines
/// without reading its responses ever reaches it. Such a client then
/// stalls in both directions and is reaped at the idle timeout, instead
/// of growing the server by every response it will never read.
const MAX_OWED: usize = 256;

/// Most slices one write call carries: a head and a shared body per
/// response, so a 64-deep pipelined batch of cache hits leaves in one
/// `writev(2)`. The kernel's limit (`IOV_MAX`) is 1024.
const MAX_SLICES: usize = 128;

// SIGTERM handling without a libc crate: libc itself is always linked
// on the targets std supports, so declaring `signal` suffices. The
// handler only stores to an atomic, which is async-signal-safe.
static SIGTERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

#[cfg(unix)]
extern "C" fn on_sigterm(_sig: i32) {
    SIGTERM.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM hook (no-op off unix). Called by the `regend`
/// binary; in-process tests drain via [`ServerHandle`] instead.
pub fn install_sigterm_hook() {
    #[cfg(unix)]
    {
        const SIGTERM_NUM: i32 = 15;
        unsafe {
            signal(SIGTERM_NUM, on_sigterm as extern "C" fn(i32) as *const () as usize);
        }
    }
}

/// One slow request handed to the worker pool.
struct Job {
    conn: u64,
    slot: u64,
    work: SlowWork,
    path: String,
    arrived: Instant,
    deadline: Option<Duration>,
}

/// The bounded dispatch queue between the loop and the workers.
struct Dispatch {
    jobs: Mutex<(VecDeque<Job>, bool)>,
    cv: Condvar,
}

impl Dispatch {
    fn new() -> Dispatch {
        Dispatch { jobs: Mutex::new((VecDeque::new(), false)), cv: Condvar::new() }
    }

    fn depth(&self) -> usize {
        lock(&self.jobs).0.len()
    }

    fn push(&self, job: Job) {
        lock(&self.jobs).0.push_back(job);
        self.cv.notify_one();
    }

    fn shutdown(&self) {
        lock(&self.jobs).1 = true;
        self.cv.notify_all();
    }
}

/// A finished slow job, traveling back to the loop.
struct Completion {
    conn: u64,
    slot: u64,
    response: Response,
}

/// Bookkeeping for one request occupying a response slot.
struct SlotMeta {
    id: u64,
    endpoint: &'static str,
    /// The request path, for a recording bus's completion event; empty
    /// on a bus that keeps no events.
    path: String,
    /// When the request's bytes arrived.
    arrived: Instant,
    keep_alive: bool,
    /// Admitted requests carry completion accounting (`served`,
    /// in-flight gauge, `RequestCompleted`); 429 rejections do not,
    /// matching the PR 5 counters.
    counted: bool,
}

/// One response slot: pipelined requests each get a slot in arrival
/// order. The queue of slots is also the write queue: a flush writes
/// the leading ready slots strictly in that order.
struct Slot {
    meta: SlotMeta,
    /// The response, serialized for the wire; `None` while the request
    /// waits on the worker pool.
    wire: Option<Wire>,
}

impl Slot {
    fn ready(meta: SlotMeta, response: Response) -> Slot {
        let wire = Wire::new(response, meta.keep_alive);
        Slot { meta, wire: Some(wire) }
    }
}

/// A response serialized for the wire: its head (with an owned body
/// appended), then a shared body written zero-copy from the cache's
/// buffer. `sent` counts the bytes of both the kernel has accepted.
struct Wire {
    status: u16,
    head: Head,
    body: Option<Arc<[u8]>>,
    sent: usize,
}

/// A response head: formatted for this response, or a kept rendering's,
/// shared.
enum Head {
    Owned(Vec<u8>),
    Shared(Arc<[u8]>),
}

impl std::ops::Deref for Head {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Head::Owned(head) => head,
            Head::Shared(head) => head,
        }
    }
}

impl Wire {
    fn new(response: Response, keep_alive: bool) -> Wire {
        let status = response.status;
        let (head, body) = match response.body {
            // A cache hit: the kept head and body, nothing formatted.
            Body::Rendered(r) if response.extra_headers.is_empty() => {
                (Head::Shared(Arc::clone(r.head(keep_alive))), Some(r.body))
            }
            _ => {
                let mut head = response.render_head(keep_alive);
                let body = match response.body {
                    Body::Text(s) => {
                        head.extend_from_slice(s.as_bytes());
                        None
                    }
                    Body::Shared(b) => Some(b),
                    Body::Rendered(r) => Some(r.body),
                };
                (Head::Owned(head), body)
            }
        };
        Wire { status, head, body, sent: 0 }
    }

    /// The bytes the kernel has not accepted yet, in wire order.
    fn unsent(&self) -> [&[u8]; 2] {
        let body = self.body.as_deref().unwrap_or_default();
        match self.sent.checked_sub(self.head.len()) {
            None => [&self.head[self.sent..], body],
            Some(into_body) => [&[], &body[into_body..]],
        }
    }

    fn remaining(&self) -> usize {
        self.head.len() + self.body.as_ref().map_or(0, |b| b.len()) - self.sent
    }
}

/// Why a connection is being closed (decides the hygiene counters).
#[derive(Clone, Copy, PartialEq)]
enum CloseReason {
    /// Clean close: peer finished, drain, or quiet idle reap.
    Normal,
    /// Peer vanished mid-request or mid-response.
    Disconnect,
    /// Reaped by the idle deadline while holding partial state.
    IdleStall,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    fd: i32,
    parser: RequestParser,
    slots: VecDeque<Slot>,
    next_slot: u64,
    /// Responses completed on this connection.
    requests: u64,
    /// Write calls its flushes made.
    writes: u64,
    last_activity: Instant,
    close_after_flush: bool,
    /// Peer half-closed its sending side (we may still owe responses).
    peer_eof: bool,
    /// Sticky parse failure: stop reading, flush the 400, close.
    stop_reading: bool,
    /// Interest bits currently registered with epoll.
    registered: u32,
}

impl Conn {
    fn new(stream: TcpStream, fd: i32) -> Conn {
        Conn {
            stream,
            fd,
            parser: RequestParser::new(),
            slots: VecDeque::new(),
            next_slot: 0,
            requests: 0,
            writes: 0,
            last_activity: Instant::now(),
            close_after_flush: false,
            peer_eof: false,
            stop_reading: false,
            registered: EPOLLIN | EPOLLRDHUP,
        }
    }

    fn has_waiting(&self) -> bool {
        self.slots.iter().any(|s| s.wire.is_none())
    }

    fn write_pending(&self) -> bool {
        self.slots.front().is_some_and(|s| s.wire.is_some())
    }

    /// Whether the loop reads this connection: not after a parse error,
    /// a closing request or the peer's EOF, and not while it owes
    /// [`MAX_OWED`] responses.
    fn reading(&self) -> bool {
        !self.stop_reading
            && !self.close_after_flush
            && !self.peer_eof
            && self.slots.len() < MAX_OWED
    }

    /// Once everything owed is flushed, should this connection close —
    /// and how should the close be classified?
    fn finished(&self) -> Option<CloseReason> {
        if !self.slots.is_empty() {
            return None;
        }
        if self.close_after_flush {
            return Some(CloseReason::Normal);
        }
        if self.peer_eof {
            // EOF with half a request buffered means the peer gave up
            // mid-send; a clean EOF between requests is a normal close.
            return Some(if self.parser.buffered() > 0 {
                CloseReason::Disconnect
            } else {
                CloseReason::Normal
            });
        }
        None
    }
}

/// Outcome of a flush attempt.
enum FlushOutcome {
    /// Wrote all it could; nothing pending or socket still writable.
    Progress,
    /// Peer gone (write error).
    Dead,
}

/// The event-driven `regend` server. [`Server::bind`], then
/// [`Server::run`] (which blocks until drained). [`Server::handle`]
/// gives a clonable handle for triggering drain from tests or signal
/// handlers.
pub struct Server {
    core: Arc<Core>,
    wake: Arc<WakeFd>,
    listener: TcpListener,
    local_addr: SocketAddr,
}

/// Clonable handle onto a running server.
#[derive(Clone)]
pub struct ServerHandle {
    core: Arc<Core>,
    wake: Arc<WakeFd>,
}

impl ServerHandle {
    /// Initiates graceful drain: stop accepting, finish everything
    /// admitted, flush, then let [`Server::run`] return.
    pub fn drain(&self) {
        self.core.draining.store(true, Ordering::SeqCst);
        self.wake.wake();
    }

    /// True once drain has started.
    pub fn is_draining(&self) -> bool {
        self.core.is_draining()
    }
}

impl Server {
    /// Binds the listener and builds the shared core. No thread is
    /// spawned until [`Server::run`].
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let core = Arc::new(Core::new(cfg)?);
        let wake = Arc::new(WakeFd::new()?);
        Ok(Server { core, wake, listener, local_addr })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle for triggering drain.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { core: Arc::clone(&self.core), wake: Arc::clone(&self.wake) }
    }

    /// Serves until drained, then returns the run's counters.
    /// Everything admitted before drain began is answered.
    pub fn run(self) -> std::io::Result<RunSummary> {
        let core = &*self.core;
        let dispatch = Dispatch::new();
        let completions: Mutex<Vec<Completion>> = Mutex::new(Vec::new());
        let epoll = Epoll::new()?;
        epoll.add(self.listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(self.wake.fd(), EPOLLIN, TOKEN_WAKE)?;
        std::thread::scope(|s| {
            for _ in 0..core.cfg.workers.max(1) {
                s.spawn(|| worker_loop(core, &dispatch, &completions, &self.wake));
            }
            if core.cluster.is_some() {
                s.spawn(|| prober_loop(core));
            }
            let mut event_loop = EventLoop {
                core,
                dispatch: &dispatch,
                completions: &completions,
                wake: &self.wake,
                epoll,
                listener: Some(&self.listener),
                starved_at: None,
                conns: HashMap::new(),
                next_conn: TOKEN_CONN0,
                jobs_in_flight: 0,
            };
            event_loop.run();
            dispatch.shutdown();
        });
        Ok(core.summary())
    }
}

/// The health prober on a cluster proxy: walks every shard's
/// `/healthz` each probe interval, feeding the per-shard state
/// machines so fetch paths skip straight to failover on down shards
/// and resumed shards are noticed without a client request. Sleeps in
/// short steps so drain is honored within ~50ms.
fn prober_loop(core: &Core) {
    let Some(cluster) = &core.cluster else { return };
    while !core.is_draining() {
        cluster.probe_all(&core.bus);
        let mut remaining = core.cfg.probe_interval;
        while !remaining.is_zero() && !core.is_draining() {
            let step = remaining.min(std::time::Duration::from_millis(50));
            std::thread::sleep(step);
            remaining = remaining.saturating_sub(step);
        }
    }
}

/// A worker: pops slow jobs, applies the deadline policy around
/// [`Core::execute`], posts the completion, wakes the loop.
fn worker_loop(
    core: &Core,
    dispatch: &Dispatch,
    completions: &Mutex<Vec<Completion>>,
    wake: &WakeFd,
) {
    loop {
        let job = {
            let mut g = lock(&dispatch.jobs);
            loop {
                if let Some(job) = g.0.pop_front() {
                    break Some(job);
                }
                if g.1 {
                    break None;
                }
                g = dispatch.cv.wait(g).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { return };
        let response = run_job(core, &job);
        lock(completions).push(Completion { conn: job.conn, slot: job.slot, response });
        wake.wake();
    }
}

fn run_job(core: &Core, job: &Job) -> Response {
    if deadline_expired(job.deadline, job.arrived) {
        core.bus.emit("regend", &job.path, "", 0, EventKind::DeadlineExpired);
        return Response::text(504, "regend: deadline expired in queue\n");
    }
    let mut response = core.execute(&job.work, &job.path);
    if deadline_expired(job.deadline, job.arrived) && response.status == 200 {
        // Computed, but too late to promise freshness bounds: the
        // client asked for a deadline, honor it.
        core.bus.emit("regend", &job.path, "", 0, EventKind::DeadlineExpired);
        response = Response::text(504, "regend: deadline expired while computing\n");
    }
    response
}

/// The readiness loop: owns every socket, the parser states, and the
/// ordered response slots. Runs on the thread that called
/// [`Server::run`].
struct EventLoop<'a> {
    core: &'a Core,
    dispatch: &'a Dispatch,
    completions: &'a Mutex<Vec<Completion>>,
    wake: &'a WakeFd,
    epoll: Epoll,
    listener: Option<&'a TcpListener>,
    /// When the listener left the epoll set: `accept` last failed for
    /// want of a descriptor or of memory.
    starved_at: Option<Instant>,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// Jobs pushed but whose completions the loop has not consumed.
    jobs_in_flight: u64,
}

impl EventLoop<'_> {
    fn run(&mut self) {
        let mut events = [EpollEvent::default(); 64];
        let mut touched: Vec<u64> = Vec::with_capacity(events.len());
        loop {
            if SIGTERM.load(Ordering::SeqCst) {
                self.core.draining.store(true, Ordering::SeqCst);
            }
            if self.core.is_draining() {
                self.begin_drain();
                if self.conns.is_empty() && self.jobs_in_flight == 0 {
                    return;
                }
            }
            let n = match self.epoll.wait(&mut events, 50) {
                Ok(n) => n,
                Err(_) => {
                    // An unusable epoll fd is unrecoverable; drain so
                    // the process exits cleanly instead of spinning.
                    self.core.draining.store(true, Ordering::SeqCst);
                    0
                }
            };
            for ev in events.iter().take(n) {
                let (bits, token) = (ev.events, ev.data);
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.wake.drain(),
                    id => {
                        self.conn_ready(id, bits);
                        touched.push(id);
                    }
                }
            }
            let delivered = self.deliver_completions();
            for id in touched.drain(..).chain(delivered) {
                self.settle(id);
            }
            self.sweep_idle();
        }
    }

    /// First pass after drain is requested: stop accepting and mark
    /// every connection close-after-flush. Idempotent.
    fn begin_drain(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
            for conn in self.conns.values_mut() {
                conn.close_after_flush = true;
            }
            let ids: Vec<u64> = self.conns.keys().copied().collect();
            for id in ids {
                self.settle(id);
            }
        }
    }

    fn accept_ready(&mut self) {
        let Some(listener) = self.listener else { return };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let id = self.next_conn;
                    self.next_conn += 1;
                    if self.epoll.add(fd, EPOLLIN | EPOLLRDHUP, id).is_err() {
                        continue;
                    }
                    self.conns.insert(id, Conn::new(stream, fd));
                    self.core.bus.emit("regend", "", "", 0, EventKind::ConnectionOpened);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if accept_starved(&e) => {
                    // Watched level-triggered, the queued connection
                    // would wake every wait until a descriptor frees up.
                    let _ = self.epoll.delete(listener.as_raw_fd());
                    self.starved_at = Some(Instant::now());
                    break;
                }
                Err(_) => break,
            }
        }
    }

    /// Puts a starved listener back in the epoll set, unless draining
    /// has closed it.
    fn watch_listener_again(&mut self) {
        if self.starved_at.is_none() {
            return;
        }
        if let Some(listener) = self.listener {
            if self.epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER).is_ok() {
                self.starved_at = None;
            }
        }
    }

    /// Handles readiness on one connection: read newly arrived bytes
    /// through the parser (admitting / rejecting / answering each
    /// request), then push pending response bytes.
    fn conn_ready(&mut self, id: u64, bits: u32) {
        let Self { core, dispatch, conns, jobs_in_flight, .. } = self;
        let Some(conn) = conns.get_mut(&id) else { return };
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            mark_dead(conn);
            return;
        }
        if bits & (EPOLLIN | EPOLLRDHUP) != 0 && conn.reading() {
            read_ready(core, dispatch, jobs_in_flight, id, conn);
        }
        if conn.write_pending() {
            if let FlushOutcome::Dead = try_flush(core, conn) {
                mark_dead(conn);
            }
        }
    }

    /// Consumes completed slow jobs; returns the connections touched.
    fn deliver_completions(&mut self) -> Vec<u64> {
        let done: Vec<Completion> = std::mem::take(&mut *lock(self.completions));
        let mut touched = Vec::with_capacity(done.len());
        for c in done {
            self.jobs_in_flight -= 1;
            let Some(conn) = self.conns.get_mut(&c.conn) else {
                // The connection died while the job ran; its 499 was
                // accounted at close time.
                continue;
            };
            let waiting = conn.slots.iter_mut().find(|s| s.meta.id == c.slot && s.wire.is_none());
            if let Some(slot) = waiting {
                slot.wire = Some(Wire::new(c.response, slot.meta.keep_alive));
            }
            conn.last_activity = Instant::now();
            if let FlushOutcome::Dead = try_flush(self.core, conn) {
                mark_dead(conn);
            }
            touched.push(c.conn);
        }
        touched
    }

    /// Re-registers interest for one connection, or closes it if it is
    /// finished or dead.
    fn settle(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if conn.stop_reading && conn.registered == u32::MAX {
            // Marked dead by an earlier phase this iteration.
            self.close_conn(id, CloseReason::Disconnect);
            return;
        }
        if let Some(reason) = conn.finished() {
            self.close_conn(id, reason);
            return;
        }
        let mut want = 0;
        if conn.reading() {
            // EPOLLRDHUP stays raised once the peer half-closes, so
            // registered while the loop does not read it would wake
            // every wait until the connection closes.
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if conn.write_pending() {
            want |= EPOLLOUT;
        }
        if want != conn.registered {
            if self.epoll.modify(conn.fd, want, id).is_ok() {
                conn.registered = want;
            } else {
                self.close_conn(id, CloseReason::Disconnect);
            }
        }
    }

    /// Removes a connection: deregisters the fd, accounts unanswered
    /// admitted requests as 499, and emits the close-reason events the
    /// hygiene metrics are derived from.
    fn close_conn(&mut self, id: u64, reason: CloseReason) {
        let Some(conn) = self.conns.remove(&id) else { return };
        let _ = self.epoll.delete(conn.fd);
        let now = Instant::now();
        for slot in &conn.slots {
            finish(self.core, &slot.meta, 499, now);
        }
        match reason {
            CloseReason::Normal => {}
            CloseReason::Disconnect => {
                self.core.bus.emit("regend", "", "", 0, EventKind::ClientDisconnected);
            }
            CloseReason::IdleStall => {
                self.core.bus.emit("regend", "", "", 0, EventKind::IdleTimeout);
            }
        }
        let (requests, writes) = (conn.requests, conn.writes);
        self.core.bus.emit("regend", "", "", 0, EventKind::ConnectionClosed { requests, writes });
        // Closing the socket frees the descriptor a starved listener
        // waits for.
        drop(conn);
        self.watch_listener_again();
    }

    /// Reaps connections that stopped making progress, and watches a
    /// starved listener again once [`ACCEPT_RETRY`] has passed. A
    /// connection merely waiting on slow server-side work is exempt —
    /// the stall deadline measures the *peer*, not the executor.
    fn sweep_idle(&mut self) {
        let timeout = self.core.cfg.idle_timeout;
        let now = Instant::now();
        // A descriptor this loop does not own may have freed up (another
        // server's socket in this process, a journal file); a loop with
        // no connection left to close would otherwise never watch its
        // listener again. Still starved, it fails one `accept` per retry.
        if self.starved_at.is_some_and(|at| now.saturating_duration_since(at) >= ACCEPT_RETRY) {
            self.watch_listener_again();
        }
        let mut reap: Vec<(u64, CloseReason)> = Vec::new();
        for (id, conn) in &self.conns {
            if conn.has_waiting() {
                continue;
            }
            if now.saturating_duration_since(conn.last_activity) <= timeout {
                continue;
            }
            let stalled =
                conn.write_pending() || conn.parser.buffered() > 0 || conn.close_after_flush;
            let reason =
                if stalled { CloseReason::IdleStall } else { CloseReason::Normal };
            reap.push((*id, reason));
        }
        for (id, reason) in reap {
            self.close_conn(id, reason);
        }
    }
}

/// Marks a connection for closure as a disconnect at settle time.
fn mark_dead(conn: &mut Conn) {
    conn.stop_reading = true;
    conn.registered = u32::MAX;
}

/// Records a finished admitted request, done at `now`: the completion
/// event carrying the measured end-to-end latency.
fn finish(core: &Core, meta: &SlotMeta, status: u16, now: Instant) {
    if !meta.counted {
        return;
    }
    let micros = now.saturating_duration_since(meta.arrived).as_micros() as u64;
    core.bus.emit(meta.endpoint, &meta.path, "", 0, EventKind::RequestCompleted {
        status,
        micros,
    });
}

/// Reads everything available, feeding the incremental parser and
/// handling each complete request as it surfaces.
fn read_ready(
    core: &Core,
    dispatch: &Dispatch,
    jobs_in_flight: &mut u64,
    conn_id: u64,
    conn: &mut Conn,
) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match (&conn.stream).read(&mut buf) {
            Ok(0) => {
                conn.peer_eof = true;
                break;
            }
            Ok(n) => {
                // The one clock reading of every request in these bytes.
                let arrived = Instant::now();
                conn.last_activity = arrived;
                conn.parser.push(&buf[..n]);
                loop {
                    match conn.parser.next_request() {
                        Ok(Some(request)) => {
                            handle_request(
                                core,
                                dispatch,
                                jobs_in_flight,
                                conn_id,
                                conn,
                                &request,
                                arrived,
                            );
                            conn.parser.recycle(request);
                            if conn.close_after_flush {
                                // RFC 9112 §9.6: nothing after a request
                                // that closes the connection is processed.
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(HttpError::Malformed(m)) => {
                            reject_malformed(core, dispatch, conn, &m);
                            return;
                        }
                    }
                }
                if n < buf.len() || !conn.reading() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                mark_dead(conn);
                return;
            }
        }
    }
}

/// A sticky parse failure: answer 400 once (accounted like any other
/// admitted request, as PR 5 did), stop reading, close after flush.
fn reject_malformed(core: &Core, dispatch: &Dispatch, conn: &mut Conn, message: &str) {
    admit(core, dispatch.depth());
    let meta = new_slot_meta(core, conn, "error", "", Instant::now(), false, true);
    conn.slots.push_back(Slot::ready(meta, Response::text(400, format!("regend: {message}\n"))));
    conn.stop_reading = true;
    conn.close_after_flush = true;
}

fn admit(core: &Core, queue_depth: usize) {
    core.bus.emit("regend", "", "", 0, EventKind::RequestReceived { queue_depth });
}

fn new_slot_meta(
    core: &Core,
    conn: &mut Conn,
    endpoint: &'static str,
    path: &str,
    arrived: Instant,
    keep_alive: bool,
    counted: bool,
) -> SlotMeta {
    let id = conn.next_slot;
    conn.next_slot += 1;
    let path = if core.bus.is_recording() { path.to_string() } else { String::new() };
    SlotMeta { id, endpoint, path, arrived, keep_alive, counted }
}

/// Routes one parsed request, whose bytes arrived at `arrived` on
/// connection `conn_id`: fast-path answers become Ready slots on the
/// spot; slow work is admission-checked and dispatched; `POST
/// /shutdown` flips the drain flag.
fn handle_request(
    core: &Core,
    dispatch: &Dispatch,
    jobs_in_flight: &mut u64,
    conn_id: u64,
    conn: &mut Conn,
    request: &Request,
    arrived: Instant,
) {
    let depth = conn.slots.len() + 1;
    core.bus.emit("regend", &request.path, "", 0, EventKind::PipelineObserved { depth });
    let path = request.path.as_str();

    if core.is_draining() {
        admit(core, dispatch.depth());
        let meta = new_slot_meta(core, conn, "error", path, arrived, false, true);
        let response = Response::text(503, "regend: draining, connection closing\n");
        conn.slots.push_back(Slot::ready(meta, response));
        conn.close_after_flush = true;
        return;
    }

    let keep_alive = request.keep_alive;
    let queue_depth = dispatch.depth();
    let (endpoint, action, deadline) = match core.request_deadline(request) {
        Ok(deadline) => {
            let (endpoint, action) = core.route(request, queue_depth);
            (endpoint, action, deadline)
        }
        Err(response) => ("error", Action::Done(response), None),
    };
    match action {
        Action::Done(response) => {
            admit(core, queue_depth);
            let meta = new_slot_meta(core, conn, endpoint, path, arrived, keep_alive, true);
            let response = if deadline_expired(deadline, arrived) {
                core.bus.emit("regend", path, "", 0, EventKind::DeadlineExpired);
                Response::text(504, "regend: deadline expired in queue\n")
            } else {
                response
            };
            conn.slots.push_back(Slot::ready(meta, response));
            if !keep_alive {
                conn.close_after_flush = true;
            }
        }
        Action::StartDrain(response) => {
            core.draining.store(true, Ordering::SeqCst);
            admit(core, dispatch.depth());
            let meta = new_slot_meta(core, conn, endpoint, path, arrived, false, true);
            conn.slots.push_back(Slot::ready(meta, response));
            conn.close_after_flush = true;
        }
        Action::Slow(work) => {
            let queue_depth = dispatch.depth();
            if queue_depth >= core.cfg.queue_capacity.max(1) {
                core.bus.emit("regend", "", "", 0, EventKind::RequestRejected);
                let meta = new_slot_meta(core, conn, endpoint, path, arrived, keep_alive, false);
                let response =
                    Response::text(429, "regend: admission queue full, retry shortly\n")
                        .with_header("Retry-After", "1");
                conn.slots.push_back(Slot::ready(meta, response));
                if !keep_alive {
                    conn.close_after_flush = true;
                }
                return;
            }
            admit(core, queue_depth + 1);
            let meta = new_slot_meta(core, conn, endpoint, path, arrived, keep_alive, true);
            let job = Job {
                conn: conn_id,
                slot: meta.id,
                work,
                path: path.to_string(),
                arrived,
                deadline,
            };
            conn.slots.push_back(Slot { meta, wire: None });
            *jobs_in_flight += 1;
            dispatch.push(job);
            if !keep_alive {
                conn.close_after_flush = true;
            }
        }
    }
}

/// Pushes response bytes: the unsent bytes of every leading ready slot,
/// strictly in slot order, in one vectored write per call (`writev(2)`,
/// each head beside its shared body, zero-copy). A waiting slot ends the
/// batch. Each slot's cursor advances by what the kernel accepted, and a
/// response completes when its last byte is accepted. Stops at
/// `WouldBlock` (EPOLLOUT takes over) or a dead peer.
fn try_flush(core: &Core, conn: &mut Conn) -> FlushOutcome {
    loop {
        let mut slices = [IoSlice::new(&[]); MAX_SLICES];
        let mut n = 0;
        let ready = conn.slots.iter().map_while(|s| s.wire.as_ref());
        for part in ready.flat_map(Wire::unsent).filter(|p| !p.is_empty()).take(MAX_SLICES) {
            slices[n] = IoSlice::new(part);
            n += 1;
        }
        if n == 0 {
            return FlushOutcome::Progress;
        }
        conn.writes += 1;
        // `writev` has no `MSG_NOSIGNAL`, but a Rust binary ignores
        // SIGPIPE from before `main`, so a reset peer reads as EPIPE.
        let mut accepted = match (&conn.stream).write_vectored(&slices[..n]) {
            Ok(0) => return FlushOutcome::Dead,
            Ok(k) => k,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return FlushOutcome::Progress,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return FlushOutcome::Dead,
        };
        let now = Instant::now();
        conn.last_activity = now;
        while accepted > 0 {
            let Some(Slot { meta, wire: Some(wire) }) = conn.slots.front_mut() else {
                unreachable!("the kernel accepted only bytes of leading ready slots")
            };
            let taken = accepted.min(wire.remaining());
            wire.sent += taken;
            accepted -= taken;
            if wire.remaining() == 0 {
                conn.requests += 1;
                finish(core, meta, wire.status, now);
                conn.slots.pop_front();
            }
        }
    }
}
