//! The TCP face: the accept loop, the worker pool, shutdown.
//!
//! No async runtime exists in this workspace, so the server is std-only:
//! a small fixed pool of workers ([`Server::spawn`], sized by
//! [`std::thread::available_parallelism`], or [`Server::spawn_pooled`]
//! for an explicit count) multiplexes *all* connections. Sockets are
//! nonblocking ([`PolledIo`]), each connection is a [`SessionCore`]
//! state machine, and a worker round-robins its connections, treating
//! `WouldBlock` as "idle, move on". Hundreds of concurrent light
//! clients cost hundreds of small buffers, not hundreds of stacks, and
//! a few heavy clients keep every worker busy with engine work.
//! Fairness is per-frame: a worker serves at most a bounded number of
//! frames per connection per visit. An idle worker does not spin or
//! park on a timer: it blocks in `poll(2)` over its sessions' sockets
//! (plus `POLLOUT` for sessions with queued response bytes) and a wake
//! pipe the accept thread writes after handing it a connection — zero
//! syscalls while nothing happens, single-digit-microsecond wake-ups
//! when something does (see [`readiness`](self)).
//!
//! Every session of one server shares its [`NetworkRegistry`], and
//! every [`ServerConfig`] limit — both session deadlines, connection
//! shedding, the out-queue cap — is enforced here, on the workers'
//! sweep or at accept.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] stops accepting, wakes every worker, and
//! joins with a bounded wait. A worker that sees the stop flag drops
//! its sessions, closing their sockets, so idle connected clients
//! cannot wedge shutdown; a thread that still refuses to finish within
//! the bound is abandoned (leaked) rather than hanging the caller
//! forever.

use crate::protocol::{encode_response, ErrorCode, Response};
use crate::registry::NetworkRegistry;
use crate::session::SessionCore;
use crate::transport::{IoTransport, PolledIo, RecvError, MAX_PENDING_OUT};
use crate::Transport;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long [`ServerHandle::shutdown`] waits for threads to finish
/// after closing their sockets before abandoning them (the default
/// [`ServerConfig::shutdown_join_bound`]).
const SHUTDOWN_JOIN_BOUND: Duration = Duration::from_secs(10);

/// Resource limits and session deadlines for a [`Server`]. The default
/// is the fully permissive pre-hardening behaviour: no deadlines, no
/// connection cap, the stock out-queue cap — every limit is opt-in.
///
/// ```no_run
/// use sinr_server::server::{Server, ServerConfig};
/// use std::time::Duration;
///
/// let server = Server::bind("127.0.0.1:0")?.with_config(ServerConfig {
///     idle_deadline: Some(Duration::from_secs(60)),
///     frame_deadline: Some(Duration::from_secs(5)),
///     max_connections: Some(1024),
///     ..ServerConfig::default()
/// });
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Evict a session that goes this long **between frames** (`None`
    /// = never). An idle-but-connected client holds a session buffer;
    /// this bounds how long.
    pub idle_deadline: Option<Duration>,
    /// Evict a session that takes this long to deliver **one frame**,
    /// measured from its first byte (`None` = never). This is the
    /// slowloris defense: the budget is absolute per frame, so a
    /// client dribbling one byte per read cannot re-arm it.
    pub frame_deadline: Option<Duration>,
    /// Shed connections at accept time beyond this many live sessions
    /// (`None` = unbounded). A shed connection gets one framed
    /// [`ErrorCode::Overloaded`] and is closed — **no request frame is
    /// read**, so retrying is always safe.
    pub max_connections: Option<usize>,
    /// The per-session out-queue byte cap (a peer that stops
    /// reading its answers is disconnected once this many response
    /// bytes queue). Clamped to at least one maximal frame; defaults
    /// to [`MAX_PENDING_OUT`].
    pub max_pending_out: usize,
    /// How long [`ServerHandle::shutdown`] waits per server thread before
    /// abandoning it (counted on
    /// [`ServerHandle::abandoned_sessions`]).
    pub shutdown_join_bound: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            idle_deadline: None,
            frame_deadline: None,
            max_connections: None,
            max_pending_out: MAX_PENDING_OUT,
            shutdown_join_bound: SHUTDOWN_JOIN_BOUND,
        }
    }
}

impl ServerConfig {
    /// The shortest configured deadline, if any — the pooled sweep's
    /// wait cap, so a blocked worker still wakes in time to evict.
    fn min_deadline(&self) -> Option<Duration> {
        match (self.idle_deadline, self.frame_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// Counts live sessions against [`ServerConfig::max_connections`];
/// shared by the accept thread (admission) and session teardown
/// (release).
#[derive(Debug, Default)]
struct ConnGauge {
    live: AtomicUsize,
}

impl ConnGauge {
    /// Admits one connection unless `max` are already live.
    fn try_admit(&self, max: Option<usize>) -> bool {
        let Some(max) = max else {
            self.live.fetch_add(1, Ordering::SeqCst);
            return true;
        };
        self.live
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |live| {
                (live < max).then_some(live + 1)
            })
            .is_ok()
    }

    fn release(&self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Sheds a connection the gauge refused: one framed `Overloaded`
/// error, a write-side half-close, then a brief bounded drain of the
/// read side on a detached thread. The frame is a few dozen bytes — it
/// fits any socket send buffer, so the send cannot wedge the accept
/// thread even on a peer that never reads. The drain matters for
/// correctness, not politeness: a client caught mid-request has bytes
/// in flight, and fully closing against unread data turns the close
/// into a reset that discards the error frame before the client can
/// read it — the typed `Overloaded` (always safe to retry) would
/// degrade into an ambiguous I/O error.
fn shed_overloaded(stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut transport = IoTransport::new(stream);
    let _ = transport.send_frame(&encode_response(&Response::Error {
        code: ErrorCode::Overloaded,
        message: "server at connection capacity; retry after backoff".into(),
    }));
    let mut stream = transport.into_inner();
    let _ = stream.shutdown(Shutdown::Write);
    std::thread::spawn(move || {
        use std::io::Read;
        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
        let deadline = Instant::now() + Duration::from_millis(500);
        let mut sink = [0u8; 1024];
        while Instant::now() < deadline {
            match stream.read(&mut sink) {
                Ok(n) if n > 0 => {}
                _ => break,
            }
        }
    });
}

/// Frames one pooled connection may consume per worker visit before the
/// worker moves on (fairness bound: one chatty pipelined client cannot
/// starve its neighbours on the same worker).
const FRAMES_PER_VISIT: usize = 8;

/// Upper bound on one blocking readiness wait. The wake pipe makes the
/// timeout a belt-and-braces backstop (new connections and shutdown
/// both write it), not the latency floor — a worker wakes the instant
/// any of its fds turns ready.
const WORKER_WAIT_MS: i32 = 1000;

/// Blocking readiness for idle pooled workers.
///
/// On Unix this is a raw `poll(2)` over every session socket (`POLLIN`,
/// plus `POLLOUT` for sessions with queued response bytes) and the read
/// end of an anonymous wake pipe; the accept thread writes one byte to
/// the pipe after handing the worker a connection, and shutdown writes
/// it too, so a blocked worker never misses either. The FFI is confined
/// to this module — everything else in the crate stays
/// `deny(unsafe_code)`.
///
/// Elsewhere the module degrades to a timed sleep with the same
/// signature (wakes are no-ops; the sweep loop re-polls on the same
/// bounded cadence the old park-based worker used).
#[cfg(unix)]
#[allow(unsafe_code)]
mod readiness {
    use super::PooledSession;
    use std::io::{self, PipeReader, PipeWriter, Read, Write};
    use std::os::fd::{AsRawFd, RawFd};
    use std::os::raw::{c_int, c_ulong};
    use std::sync::Arc;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;

    #[repr(C)]
    struct PollFd {
        fd: RawFd,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// The worker-side end: owns the wake pipe's reader and builds the
    /// poll set each wait.
    pub(super) struct Readiness {
        reader: PipeReader,
        fds: Vec<PollFd>,
    }

    /// The producer-side end: one byte per [`Waker::wake`], cheap to
    /// clone and share between the accept thread and the shutdown path.
    #[derive(Clone, Debug)]
    pub(super) struct Waker {
        writer: Arc<PipeWriter>,
    }

    impl Waker {
        /// Unblocks the paired worker's current (and next) wait.
        pub(super) fn wake(&self) {
            let _ = (&*self.writer).write(&[1u8]);
        }
    }

    /// A connected (worker, producer) wake pair.
    pub(super) fn wake_pair() -> io::Result<(Readiness, Waker)> {
        let (reader, writer) = io::pipe()?;
        Ok((
            Readiness {
                reader,
                fds: Vec::new(),
            },
            Waker {
                writer: Arc::new(writer),
            },
        ))
    }

    impl Readiness {
        /// Blocks until any session socket is readable (or writable,
        /// for sessions with queued output), the wake pipe is written,
        /// or `timeout_ms` elapses — whichever comes first. Spurious
        /// returns are fine; the caller re-sweeps its sessions either
        /// way.
        pub(super) fn wait(&mut self, sessions: &[PooledSession], timeout_ms: i32) {
            self.fds.clear();
            self.fds.push(PollFd {
                fd: self.reader.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            for session in sessions {
                self.fds.push(PollFd {
                    fd: session.io.get_ref().as_raw_fd(),
                    events: if session.io.wants_write() {
                        POLLIN | POLLOUT
                    } else {
                        POLLIN
                    },
                    revents: 0,
                });
            }
            // SAFETY: `fds` points at `self.fds.len()` properly
            // initialized `PollFd`s (layout-compatible with `struct
            // pollfd`) that outlive the call; `poll` writes only their
            // `revents` fields.
            let rc = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, timeout_ms) };
            if rc > 0 && self.fds[0].revents != 0 {
                // Drain a burst of wake bytes. The fd is readable, so
                // this single read cannot block; any bytes beyond the
                // buffer just make the next wait return immediately.
                let mut sink = [0u8; 64];
                let _ = self.reader.read(&mut sink);
            }
        }
    }
}

/// Condvar fallback where `poll(2)` is unavailable: same API, wakes
/// are real (the accept thread and shutdown notify a condvar the
/// worker parks on). Sockets cannot signal a condvar, so a worker
/// *with* live sessions still re-sweeps on a short nap — but an
/// **idle** worker (no sessions) parks for the full timeout and burns
/// no CPU until a wake arrives, instead of the old 500 µs
/// `park_timeout` spin.
#[cfg(not(unix))]
mod readiness {
    use super::PooledSession;
    use std::io;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    /// How long a worker with live sessions naps between sweeps (its
    /// sockets cannot wake the condvar, so this is the poll cadence).
    const SESSION_NAP: Duration = Duration::from_millis(2);

    #[derive(Debug)]
    struct Shared {
        pending: Mutex<bool>,
        cv: Condvar,
    }

    pub(super) struct Readiness {
        shared: Arc<Shared>,
    }

    #[derive(Clone, Debug)]
    pub(super) struct Waker {
        shared: Arc<Shared>,
    }

    impl Waker {
        pub(super) fn wake(&self) {
            *self.shared.pending.lock().expect("wake lock") = true;
            self.shared.cv.notify_all();
        }
    }

    pub(super) fn wake_pair() -> io::Result<(Readiness, Waker)> {
        let shared = Arc::new(Shared {
            pending: Mutex::new(false),
            cv: Condvar::new(),
        });
        Ok((
            Readiness {
                shared: Arc::clone(&shared),
            },
            Waker { shared },
        ))
    }

    impl Readiness {
        pub(super) fn wait(&mut self, sessions: &[PooledSession], timeout_ms: i32) {
            let bound = Duration::from_millis(timeout_ms.max(1) as u64);
            let timeout = if sessions.is_empty() {
                bound
            } else {
                SESSION_NAP.min(bound)
            };
            let mut pending = self.shared.pending.lock().expect("wake lock");
            if !*pending {
                let (guard, _) = self
                    .shared
                    .cv
                    .wait_timeout(pending, timeout)
                    .expect("wake wait");
                pending = guard;
            }
            *pending = false;
        }
    }
}

use readiness::{wake_pair, Readiness, Waker};

/// A bound listener, not yet accepting. Every session this server ever
/// serves shares its [`NetworkRegistry`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    registry: Arc<NetworkRegistry>,
    config: ServerConfig,
}

impl Server {
    /// Binds the listener (use port 0 for an ephemeral port, then read
    /// [`Server::local_addr`]). Starts with [`ServerConfig::default`]
    /// (no limits); see [`Server::with_config`].
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from [`TcpListener::bind`].
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            registry: Arc::new(NetworkRegistry::new()),
            config: ServerConfig::default(),
        })
    }

    /// Replaces the server's [`ServerConfig`] (deadlines, connection
    /// cap, out-queue cap, shutdown bound).
    #[must_use]
    pub fn with_config(mut self, config: ServerConfig) -> Server {
        self.config = config;
        self
    }

    /// The active [`ServerConfig`].
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The bound address (the ephemeral port when bound to port 0).
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from [`TcpListener::local_addr`].
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The server-wide registry of named networks (for in-process
    /// introspection: tests assert snapshot sharing through it).
    pub fn registry(&self) -> Arc<NetworkRegistry> {
        Arc::clone(&self.registry)
    }

    /// Starts the server with one worker per available CPU
    /// ([`std::thread::available_parallelism`], which honours CPU
    /// affinity; 1 if it cannot be read) — [`Server::spawn_pooled`]
    /// with the count the machine reports.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from reading the local address or creating a
    /// worker's wake pipe.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.spawn_pooled(workers)
    }

    /// Starts the worker-pool server: an accept thread distributes
    /// connections round-robin over `workers` (clamped to at least 1)
    /// fixed worker threads, each multiplexing its share of connections
    /// as nonblocking [`SessionCore`] state machines. Connection count
    /// is bounded only by file descriptors — the thread count never
    /// grows.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from reading the local address or creating a
    /// worker's wake pipe.
    pub fn spawn_pooled(self, workers: usize) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let workers = workers.max(1);
        let stop = Arc::new(AtomicBool::new(false));
        let registry = Arc::clone(&self.registry);
        let gauge = Arc::new(ConnGauge::default());
        let intakes: Vec<Arc<Mutex<Vec<TcpStream>>>> = (0..workers)
            .map(|_| Arc::new(Mutex::new(Vec::new())))
            .collect();

        let mut worker_handles = Vec::with_capacity(workers);
        let mut wakers = Vec::with_capacity(workers);
        for (i, intake) in intakes.iter().enumerate() {
            let (readiness, waker) = wake_pair()?;
            wakers.push(waker);
            let intake = Arc::clone(intake);
            let stop = Arc::clone(&stop);
            let registry = Arc::clone(&registry);
            let gauge = Arc::clone(&gauge);
            let config = self.config.clone();
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("sinr-server-worker-{i}"))
                    .spawn(move || {
                        worker_loop(&intake, &stop, &registry, readiness, &gauge, &config)
                    })
                    .expect("spawn worker thread"),
            );
        }

        let stop_flag = Arc::clone(&stop);
        let config = self.config.clone();
        let listener = self.listener;
        let accept_wakers = wakers.clone();
        let accept = std::thread::Builder::new()
            .name("sinr-server-accept".into())
            .spawn(move || {
                let mut next = 0usize;
                for stream in listener.incoming() {
                    if stop_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        if !gauge.try_admit(config.max_connections) {
                            shed_overloaded(stream);
                            continue;
                        }
                        let i = next % intakes.len();
                        intakes[i].lock().expect("intake lock").push(stream);
                        // After the push, so the woken worker always
                        // finds the connection in its intake.
                        accept_wakers[i].wake();
                        next += 1;
                    }
                }
            })
            .expect("spawn accept thread");

        Ok(ServerHandle {
            addr,
            stop,
            registry: self.registry,
            abandoned: 0,
            join_bound: self.config.shutdown_join_bound,
            accept: Some(accept),
            workers: worker_handles,
            wakers,
        })
    }
}

/// One pooled connection: its buffered nonblocking socket and its
/// protocol state machine.
struct PooledSession {
    io: PolledIo,
    core: SessionCore,
    /// A fatal response (Internal/Oversized) is queued but not fully
    /// flushed; close as soon as it drains.
    closing: bool,
    /// When this session last completed a frame (or connected) — the
    /// idle-deadline clock.
    last_frame: Instant,
    /// When the currently half-received frame's first bytes arrived —
    /// the frame-deadline (slowloris) clock. `None` between frames.
    partial_since: Option<Instant>,
}

impl PooledSession {
    /// True when the session has outlived one of `config`'s deadlines:
    /// mid-frame sessions answer to the frame deadline, in-between
    /// sessions to the idle deadline. Called by the worker sweep; an
    /// overdue session is dropped (closing its socket).
    fn overdue(&mut self, config: &ServerConfig, now: Instant) -> bool {
        if self.io.partial_in() > 0 {
            let since = *self.partial_since.get_or_insert(now);
            matches!(config.frame_deadline, Some(bound) if now.duration_since(since) > bound)
        } else {
            self.partial_since = None;
            matches!(config.idle_deadline, Some(bound) if now.duration_since(self.last_frame) > bound)
        }
    }
}

enum Step {
    /// Did real work this visit (keep the pool hot).
    Progress,
    /// Nothing to do (candidate for parking).
    Idle,
    /// The connection is over; drop the session.
    Done,
}

impl PooledSession {
    fn step(&mut self) -> Step {
        // Drain queued response bytes first: a peer that has not read
        // its answers yet gets no new requests processed (the same
        // backpressure a blocking session applies by blocking in
        // `send_frame`).
        match self.io.flush_pending() {
            Ok(_) => {}
            Err(_) => return Step::Done,
        }
        if self.io.wants_write() {
            return Step::Idle;
        }
        if self.closing {
            return Step::Done;
        }
        let mut progressed = false;
        for _ in 0..FRAMES_PER_VISIT {
            match self.io.recv_frame() {
                Ok(Some(payload)) => {
                    progressed = true;
                    let (frame, close) = self.core.handle_payload(&payload);
                    if self.io.send_frame(&frame).is_err() {
                        return Step::Done;
                    }
                    if close {
                        return self.finish();
                    }
                    if self.io.wants_write() {
                        // Backpressure: wait for the peer to drain
                        // before decoding its next request.
                        return Step::Progress;
                    }
                }
                Ok(None) => return Step::Done,
                Err(RecvError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(RecvError::Oversized { len }) => {
                    let _ = self.io.send_frame(&encode_response(&Response::Error {
                        code: ErrorCode::Oversized,
                        message: format!("frame length {len} exceeds the limit"),
                    }));
                    return self.finish();
                }
                Err(_) => return Step::Done,
            }
        }
        if progressed {
            Step::Progress
        } else {
            Step::Idle
        }
    }

    /// The connection must close, but a final frame may still be
    /// queued: give it a chance to drain before dropping.
    fn finish(&mut self) -> Step {
        let _ = self.io.flush_pending();
        if self.io.wants_write() {
            self.closing = true;
            Step::Progress
        } else {
            Step::Done
        }
    }
}

fn worker_loop(
    intake: &Mutex<Vec<TcpStream>>,
    stop: &AtomicBool,
    registry: &Arc<NetworkRegistry>,
    mut readiness: Readiness,
    gauge: &ConnGauge,
    config: &ServerConfig,
) {
    // A deadline-carrying worker must wake often enough to evict on
    // time even when no socket turns ready.
    let wait_ms = match config.min_deadline() {
        Some(d) => (d.as_millis() / 2).clamp(1, WORKER_WAIT_MS as u128) as i32,
        None => WORKER_WAIT_MS,
    };
    let mut sessions: Vec<PooledSession> = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            // Dropping a PolledIo closes its socket: every connection —
            // idle or mid-stream — is torn down. A last flush attempt
            // delivers responses already computed.
            for session in &mut sessions {
                let _ = session.io.flush_pending();
                gauge.release();
            }
            return;
        }
        for stream in intake.lock().expect("intake lock").drain(..) {
            let _ = stream.set_nodelay(true);
            match PolledIo::new(stream) {
                Ok(io) => sessions.push(PooledSession {
                    io: io.with_out_cap(config.max_pending_out),
                    core: SessionCore::new(Arc::clone(registry)),
                    closing: false,
                    last_frame: Instant::now(),
                    partial_since: None,
                }),
                Err(_) => gauge.release(),
            }
        }
        let mut progressed = false;
        let now = Instant::now();
        sessions.retain_mut(|session| match session.step() {
            Step::Progress => {
                progressed = true;
                session.last_frame = Instant::now();
                session.partial_since = None;
                true
            }
            Step::Idle => {
                if session.overdue(config, now) {
                    // Dropping the session closes its socket: the
                    // slow/idle peer sees the connection die.
                    gauge.release();
                    false
                } else {
                    true
                }
            }
            Step::Done => {
                gauge.release();
                false
            }
        });
        if !progressed {
            // Every session is idle: block until a socket turns ready
            // or the accept thread / shutdown writes the wake pipe.
            // Waking spuriously (or on the timeout backstop) just runs
            // one more sweep that finds nothing.
            readiness.wait(&sessions, wait_ms);
        }
    }
}

/// Joins with a deadline; an over-deadline thread is abandoned (better
/// a leaked thread than a shutdown that never returns). Returns whether
/// the join actually happened — `false` is a leak the caller should
/// count.
fn join_bounded(handle: JoinHandle<()>, bound: Duration) -> bool {
    let deadline = Instant::now() + bound;
    while !handle.is_finished() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = handle.join();
    true
}

/// A running background server (see [`Server::spawn`]).
///
/// Dropping the handle shuts the server down (same as
/// [`ServerHandle::shutdown`]).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    registry: Arc<NetworkRegistry>,
    /// Threads shutdown gave up waiting for (see
    /// [`ServerHandle::abandoned_sessions`]).
    abandoned: usize,
    join_bound: Duration,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// One per worker: shutdown writes them so workers blocked in a
    /// readiness wait exit promptly instead of riding out the timeout
    /// backstop.
    wakers: Vec<Waker>,
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server-wide registry of named networks (tests use this to
    /// observe snapshot sharing from outside the protocol).
    pub fn registry(&self) -> Arc<NetworkRegistry> {
        Arc::clone(&self.registry)
    }

    /// How many threads shutdown has abandoned after their
    /// [`ServerConfig::shutdown_join_bound`] expired: one per wedged
    /// accept or worker thread. Nonzero means a leak — bounded-shutdown
    /// tests pin this to 0.
    pub fn abandoned_sessions(&self) -> usize {
        self.abandoned
    }

    /// Stops accepting, wakes every worker (each drops its sessions,
    /// closing their sockets, so idle connected clients cannot wedge
    /// the join), and joins all server threads with a bounded wait.
    /// Returns the number of threads abandoned (see
    /// [`ServerHandle::abandoned_sessions`]); 0 is the clean case.
    pub fn shutdown(mut self) -> usize {
        self.shutdown_inner();
        self.abandoned
    }

    fn shutdown_inner(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        // Unblock workers blocked in their readiness wait.
        for waker in &self.wakers {
            waker.wake();
        }
        if !join_bounded(accept, self.join_bound) {
            self.abandoned += 1;
        }
        for worker in self.workers.drain(..) {
            if !join_bounded(worker, self.join_bound) {
                self.abandoned += 1;
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_bounded_reports_abandonment() {
        let quick = std::thread::spawn(|| {});
        assert!(join_bounded(quick, Duration::from_secs(1)));
        let wedged = std::thread::spawn(|| std::thread::sleep(Duration::from_millis(300)));
        assert!(!join_bounded(wedged, Duration::from_millis(10)));
    }

    #[test]
    fn conn_gauge_admits_to_the_cap_and_recovers() {
        let gauge = ConnGauge::default();
        assert!(gauge.try_admit(Some(2)));
        assert!(gauge.try_admit(Some(2)));
        assert!(!gauge.try_admit(Some(2)));
        gauge.release();
        assert!(gauge.try_admit(Some(2)));
        // Uncapped always admits.
        let open = ConnGauge::default();
        for _ in 0..100 {
            assert!(open.try_admit(None));
        }
    }
}
