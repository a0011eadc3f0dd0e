//! Frame transports: length-prefixed byte frames over TCP or an
//! in-process pipe.
//!
//! The wire unit of the protocol is the **frame**: a little-endian
//! `u32` payload length followed by that many payload bytes (see the
//! [crate docs](crate) for the payload grammar). The [`Transport`]
//! trait is a session's only view of the connection.
//!
//! Framing is where adversarial input meets the server first, so the
//! failure modes are typed: a clean EOF between frames is `Ok(None)`, a
//! connection dying *mid-frame* is [`RecvError::TruncatedFrame`], and a
//! length prefix beyond [`MAX_FRAME_LEN`] is [`RecvError::Oversized`]
//! (detected **before** any allocation — a 4-byte prefix can claim 4 GiB).
//!
//! Two implementations ship, both over any byte stream:
//!
//! * the blocking [`IoTransport`] — the client's transport, and the
//!   server side of an in-process session over a [`PipeStream`] (a
//!   byte pipe made by [`duplex_stream`]; tests, benches and examples
//!   run sessions over it with no sockets);
//! * the nonblocking [`PolledIo`] the worker-pool server multiplexes
//!   its TCP connections on. It extends the contract in one
//!   backward-compatible way: `recv_frame` returns
//!   `Err(RecvError::Io(e))` with `e.kind() == WouldBlock` when no
//!   complete frame has arrived *yet* (not an error — poll again), and
//!   `send_frame` queues into an internal buffer that
//!   [`PolledIo::flush_pending`] drains as the socket accepts it.
//!
//! Session deadlines are not a transport concern: the pool's workers
//! enforce them from [`PolledIo::partial_in`] on their sweep.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};

/// Upper bound on a frame's payload length: 16 MiB (~500k query points
/// per `LocateBatch`). A prefix claiming more is rejected as
/// [`RecvError::Oversized`] before any buffer is allocated.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Why receiving a frame failed.
#[derive(Debug)]
pub enum RecvError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The length prefix claimed more than [`MAX_FRAME_LEN`] bytes. The
    /// stream position is unrecoverable after this — close the
    /// connection.
    Oversized {
        /// The claimed payload length.
        len: u64,
    },
    /// The stream ended mid-frame (a truncated length prefix or a
    /// payload shorter than its prefix promised).
    TruncatedFrame {
        /// Bytes the current unit (prefix or payload) still needed.
        missing: usize,
    },
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Io(e) => write!(f, "transport i/o error: {e}"),
            RecvError::Oversized { len } => write!(
                f,
                "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"
            ),
            RecvError::TruncatedFrame { missing } => {
                write!(f, "connection closed mid-frame ({missing} bytes short)")
            }
        }
    }
}

impl std::error::Error for RecvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecvError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for RecvError {
    fn from(e: io::Error) -> Self {
        RecvError::Io(e)
    }
}

/// A bidirectional frame pipe: the session loop's only view of the
/// connection.
pub trait Transport: Send {
    /// Sends one frame (length prefix + payload).
    ///
    /// # Errors
    ///
    /// An [`io::Error`] when the peer is gone or the payload exceeds
    /// [`MAX_FRAME_LEN`] (`InvalidInput` — a caller bug, not a peer
    /// action).
    fn send_frame(&mut self, payload: &[u8]) -> io::Result<()>;

    /// Receives one frame's payload; `Ok(None)` is a clean close (EOF
    /// on a frame boundary).
    ///
    /// # Errors
    ///
    /// See [`RecvError`]; after any error the stream position is
    /// unreliable and the connection should be dropped.
    fn recv_frame(&mut self) -> Result<Option<Vec<u8>>, RecvError>;
}

/// Blocking [`Transport`] over any byte stream: the client's TCP
/// transport, and both ends of an in-process [`PipeStream`] session.
#[derive(Debug)]
pub struct IoTransport<S: Read + Write + Send> {
    stream: S,
}

/// The concrete transport of a real network connection.
pub type TcpTransport = IoTransport<TcpStream>;

impl<S: Read + Write + Send> IoTransport<S> {
    /// Wraps a byte stream; reads block until a frame arrives.
    pub fn new(stream: S) -> Self {
        IoTransport { stream }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Unwraps the transport, returning the stream.
    pub fn into_inner(self) -> S {
        self.stream
    }

    /// Reads exactly `buf.len()` bytes. `Ok(0)` bytes at offset 0 is a
    /// clean EOF (`Ok(false)`); EOF later is a truncated frame.
    fn read_unit(&mut self, buf: &mut [u8]) -> Result<bool, RecvError> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.stream.read(&mut buf[filled..]) {
                Ok(0) => {
                    if filled == 0 {
                        return Ok(false);
                    }
                    return Err(RecvError::TruncatedFrame {
                        missing: buf.len() - filled,
                    });
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(RecvError::Io(e)),
            }
        }
        Ok(true)
    }
}

impl<S: Read + Write + Send> Transport for IoTransport<S> {
    fn send_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame payload of {} bytes exceeds MAX_FRAME_LEN",
                    payload.len()
                ),
            ));
        }
        self.stream
            .write_all(&(payload.len() as u32).to_le_bytes())?;
        self.stream.write_all(payload)?;
        self.stream.flush()
    }

    fn recv_frame(&mut self) -> Result<Option<Vec<u8>>, RecvError> {
        let mut prefix = [0u8; 4];
        if !self.read_unit(&mut prefix)? {
            return Ok(None);
        }
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(RecvError::Oversized { len: len as u64 });
        }
        let mut payload = vec![0u8; len];
        if !self.read_unit(&mut payload)? {
            // EOF where a payload was promised: zero of `len` bytes.
            if len > 0 {
                return Err(RecvError::TruncatedFrame { missing: len });
            }
        }
        Ok(Some(payload))
    }
}

/// Most bytes one [`PolledIo`] read burst asks for while no frame
/// prefix is buffered.
const READ_CHUNK: usize = 64 * 1024;

/// Cap on bytes queued in a [`PolledIo`]'s outgoing buffer: two maximal
/// frames. A session whose peer stops draining responses while more
/// queue up is a *slow consumer*; once the cap would be exceeded the
/// send fails and the worker drops the connection, so one stalled
/// client cannot pin unbounded server memory.
pub const MAX_PENDING_OUT: usize = 2 * (MAX_FRAME_LEN + 4);

/// A nonblocking, buffered [`Transport`] over a [`TcpStream`]: the
/// per-connection I/O state of the worker-pool server
/// ([`Server::spawn_pooled`](crate::server::Server::spawn_pooled)).
///
/// The stream is switched to nonblocking mode at construction. Reads
/// accumulate in an input buffer until a complete length-prefixed frame
/// is present; [`Transport::recv_frame`] then returns it, and otherwise
/// returns a `WouldBlock` [`RecvError::Io`] — the *poll again* signal,
/// which the worker loop treats as "this session is idle", never as a
/// failure. Writes queue in an output buffer (bounded by
/// [`MAX_PENDING_OUT`]) that [`PolledIo::flush_pending`] drains
/// opportunistically.
#[derive(Debug)]
pub struct PolledIo<S: Read + Write + Send = TcpStream> {
    stream: S,
    in_buf: Vec<u8>,
    out_buf: VecDeque<u8>,
    peer_closed: bool,
    out_cap: usize,
}

impl PolledIo<TcpStream> {
    /// Wraps `stream`, switching it to nonblocking mode.
    ///
    /// # Errors
    ///
    /// The `set_nonblocking` syscall failing.
    pub fn new(stream: TcpStream) -> io::Result<PolledIo> {
        stream.set_nonblocking(true)?;
        Ok(PolledIo::from_stream(stream))
    }
}

impl<S: Read + Write + Send> PolledIo<S> {
    /// Wraps an already-nonblocking byte stream (e.g. a
    /// [`ChaosStream`](crate::chaos::ChaosStream) over a nonblocking
    /// socket). The caller is responsible for the stream actually being
    /// nonblocking — a blocking stream here turns the poll loop into a
    /// blocking one.
    pub fn from_stream(stream: S) -> PolledIo<S> {
        PolledIo {
            stream,
            in_buf: Vec::new(),
            out_buf: VecDeque::new(),
            peer_closed: false,
            out_cap: MAX_PENDING_OUT,
        }
    }

    /// Caps the outgoing queue at `cap` bytes instead of the default
    /// [`MAX_PENDING_OUT`] (the slow-consumer disconnect threshold).
    /// The hard floor is one maximal frame — a cap that could refuse a
    /// single well-formed response would deadlock every session.
    #[must_use]
    pub fn with_out_cap(mut self, cap: usize) -> PolledIo<S> {
        self.out_cap = cap.max(MAX_FRAME_LEN + 4);
        self
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Bytes of a not-yet-complete frame sitting in the input buffer.
    /// Nonzero means the peer is **mid-frame**: the worker's mid-frame
    /// read deadline runs while this stays nonzero (the slowloris
    /// observable).
    pub fn partial_in(&self) -> usize {
        self.in_buf.len()
    }

    /// Whether response bytes are still queued for the socket.
    pub fn wants_write(&self) -> bool {
        !self.out_buf.is_empty()
    }

    /// Writes queued response bytes until the socket stops accepting
    /// them; `Ok(true)` means the queue fully drained.
    ///
    /// # Errors
    ///
    /// Any socket error other than `WouldBlock` (which is `Ok(false)`).
    pub fn flush_pending(&mut self) -> io::Result<bool> {
        while !self.out_buf.is_empty() {
            let (front, _) = self.out_buf.as_slices();
            match self.stream.write(front) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_buf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Pops one complete frame from the input buffer, if present. When
    /// the buffer holds exactly that frame — the common case, one
    /// request per read burst — the buffer itself becomes the payload
    /// (its 4-byte prefix shifted out), so a session never holds a
    /// second frame-sized copy and keeps no peak-sized buffer between
    /// frames.
    fn take_frame(&mut self) -> Result<Option<Vec<u8>>, RecvError> {
        if self.in_buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.in_buf[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(RecvError::Oversized { len: len as u64 });
        }
        if self.in_buf.len() < 4 + len {
            return Ok(None);
        }
        if self.in_buf.len() == 4 + len {
            let mut payload = std::mem::take(&mut self.in_buf);
            payload.drain(..4);
            return Ok(Some(payload));
        }
        let payload = self.in_buf[4..4 + len].to_vec();
        self.in_buf.drain(..4 + len);
        Ok(Some(payload))
    }

    /// Bytes the buffered partial frame still needs (for the truncation
    /// report when the peer vanishes mid-frame).
    fn missing(&self) -> usize {
        if self.in_buf.len() < 4 {
            4 - self.in_buf.len()
        } else {
            let len = u32::from_le_bytes(self.in_buf[..4].try_into().expect("4 bytes")) as usize;
            4 + len - self.in_buf.len()
        }
    }

    /// One nonblocking read burst straight into the input buffer, of
    /// at most [`READ_CHUNK`] bytes; `Ok(0)` is EOF. Once a length
    /// prefix is buffered, the rest of its frame is reserved at once, so
    /// a large frame lands in one allocation of its own size rather than
    /// in a doubling chain. Only the bytes a read may fill are
    /// initialised, so a peer that claims a large frame and sends
    /// nothing pins no memory.
    fn try_fill(&mut self) -> io::Result<usize> {
        let start = self.in_buf.len();
        let want = if start < 4 {
            READ_CHUNK
        } else {
            self.missing()
        };
        self.in_buf.reserve_exact(want);
        self.in_buf.resize(start + want.min(READ_CHUNK), 0);
        let read = self.stream.read(&mut self.in_buf[start..]);
        self.in_buf
            .truncate(start + read.as_ref().map_or(0, |n| *n));
        read
    }
}

impl<S: Read + Write + Send> Transport for PolledIo<S> {
    /// Sends the frame as far as the socket takes it now and queues the
    /// rest for later [`PolledIo::flush_pending`] calls. With nothing
    /// queued ahead of it — the common case — the frame is written
    /// straight from `payload`, never copied into the queue.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for an oversized payload, an out-of-space error
    /// when the peer is a slow consumer (queue past
    /// [`MAX_PENDING_OUT`]), or any real socket error while
    /// opportunistically flushing.
    fn send_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame payload of {} bytes exceeds MAX_FRAME_LEN",
                    payload.len()
                ),
            ));
        }
        if self.out_buf.len() + 4 + payload.len() > self.out_cap {
            return Err(io::Error::other(
                "slow consumer: outgoing frame queue exceeds its byte cap",
            ));
        }
        let prefix = (payload.len() as u32).to_le_bytes();
        let mut sent = 0;
        // Only a frame with nothing queued ahead of it may skip the queue.
        while self.out_buf.is_empty() && sent < 4 + payload.len() {
            let (head, tail) = if sent < 4 {
                (&prefix[sent..], payload)
            } else {
                (&payload[sent - 4..], &[][..])
            };
            match self
                .stream
                .write_vectored(&[IoSlice::new(head), IoSlice::new(tail)])
            {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if sent < 4 + payload.len() {
            self.out_buf.extend(&prefix[sent.min(4)..]);
            self.out_buf.extend(&payload[sent.saturating_sub(4)..]);
        }
        self.flush_pending().map(|_| ())
    }

    /// A buffered complete frame, else one read burst, else
    /// `WouldBlock` (poll again later — not a failure).
    fn recv_frame(&mut self) -> Result<Option<Vec<u8>>, RecvError> {
        loop {
            if let Some(frame) = self.take_frame()? {
                return Ok(Some(frame));
            }
            if self.peer_closed {
                return if self.in_buf.is_empty() {
                    Ok(None)
                } else {
                    Err(RecvError::TruncatedFrame {
                        missing: self.missing(),
                    })
                };
            }
            match self.try_fill() {
                Ok(0) => self.peer_closed = true,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Err(RecvError::Io(e));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(RecvError::Io(e)),
            }
        }
    }
}

/// The shared state of one in-process pipe: a byte queue per direction
/// and one close flag, since closing either end closes both.
#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
}

#[derive(Debug, Default)]
struct PipeState {
    /// `to[k]` holds the bytes travelling towards end `k`.
    to: [VecDeque<u8>; 2],
    closed: bool,
}

/// The in-process counterpart of a TCP connection: a `Read + Write`
/// byte stream over two byte queues and a condvar, no sockets anywhere,
/// created in connected pairs by [`duplex_stream`]. Frame it with
/// [`IoTransport`] and the same session loop and frame bytes run with
/// zero kernel round-trips; interpose a
/// [`ChaosStream`](crate::chaos::ChaosStream) first and frames cross
/// the pipe chopped at arbitrary byte boundaries, loopback-free.
///
/// Dropping either end closes both directions: the peer sees a clean
/// EOF on a frame boundary, [`RecvError::TruncatedFrame`] mid-frame —
/// exactly like a vanished TCP peer.
#[derive(Debug)]
pub struct PipeStream {
    pipe: Arc<Pipe>,
    end: usize,
}

/// A connected pair of in-process byte streams (see [`PipeStream`]).
pub fn duplex_stream() -> (PipeStream, PipeStream) {
    let pipe = Arc::new(Pipe::default());
    (
        PipeStream {
            pipe: Arc::clone(&pipe),
            end: 0,
        },
        PipeStream { pipe, end: 1 },
    )
}

impl PipeStream {
    /// Closes both directions in place (the peer sees EOF; further
    /// writes from either end fail `BrokenPipe`) — the chaos cut hook.
    pub fn shutdown_both(&self) {
        self.pipe.state.lock().expect("pipe lock").closed = true;
        self.pipe.readable.notify_all();
    }
}

impl Drop for PipeStream {
    fn drop(&mut self) {
        self.shutdown_both();
    }
}

impl Read for PipeStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut state = self.pipe.state.lock().expect("pipe lock");
        loop {
            if !state.to[self.end].is_empty() {
                return state.to[self.end].read(buf);
            }
            if state.closed {
                return Ok(0);
            }
            state = self.pipe.readable.wait(state).expect("pipe lock");
        }
    }
}

impl Write for PipeStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.pipe.state.lock().expect("pipe lock");
        if state.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
        }
        state.to[1 - self.end].extend(buf);
        self.pipe.readable.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_round_trips_frames() {
        let (a, b) = duplex_stream();
        let (mut a, mut b) = (IoTransport::new(a), IoTransport::new(b));
        a.send_frame(b"hello").unwrap();
        a.send_frame(b"").unwrap();
        assert_eq!(b.recv_frame().unwrap().unwrap(), b"hello");
        assert_eq!(b.recv_frame().unwrap().unwrap(), b"");
        drop(a);
        assert!(b.recv_frame().unwrap().is_none());
    }

    #[test]
    fn pipe_reports_truncation_and_oversize() {
        // Raw bytes: a prefix promising 100 bytes, three of them, close.
        let (mut a, b) = duplex_stream();
        a.write_all(&100u32.to_le_bytes()).unwrap();
        a.write_all(&[1, 2, 3]).unwrap();
        drop(a);
        assert!(matches!(
            IoTransport::new(b).recv_frame(),
            Err(RecvError::TruncatedFrame { missing: 97 })
        ));

        // A prefix cut short is truncated too, before any payload.
        let (mut a, b) = duplex_stream();
        a.write_all(&[7, 0]).unwrap();
        drop(a);
        assert!(matches!(
            IoTransport::new(b).recv_frame(),
            Err(RecvError::TruncatedFrame { missing: 2 })
        ));

        let (mut a, b) = duplex_stream();
        a.write_all(&u32::MAX.to_le_bytes()).unwrap();
        assert!(matches!(
            IoTransport::new(b).recv_frame(),
            Err(RecvError::Oversized { .. })
        ));
    }

    #[test]
    fn send_on_closed_pipe_is_broken_pipe() {
        let (a, b) = duplex_stream();
        let mut a = IoTransport::new(a);
        drop(b);
        let err = a.send_frame(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn pipe_stream_round_trips_bytes() {
        let (mut a, mut b) = duplex_stream();
        a.write_all(b"abc").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"abc");
        // A closed peer reads as clean EOF.
        drop(a);
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn poll_recv(polled: &mut PolledIo) -> Vec<u8> {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            match polled.recv_frame() {
                Ok(Some(frame)) => return frame,
                Ok(None) => panic!("peer closed while a frame was expected"),
                Err(RecvError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert!(std::time::Instant::now() < deadline, "frame never arrived");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(e) => panic!("recv failed: {e}"),
            }
        }
    }

    #[test]
    fn polled_io_round_trips_and_reports_would_block() {
        let (client, server) = tcp_pair();
        let mut client = IoTransport::new(client);
        let mut polled = PolledIo::new(server).unwrap();

        // Nothing sent yet: WouldBlock, not an error or a close.
        match polled.recv_frame() {
            Err(RecvError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            other => panic!("expected WouldBlock, got {other:?}"),
        }

        client.send_frame(b"ping").unwrap();
        client.send_frame(b"").unwrap();
        assert_eq!(poll_recv(&mut polled), b"ping");
        assert_eq!(poll_recv(&mut polled), b"");

        // Frames sent through the polled side arrive at the blocking
        // peer (opportunistic flush).
        polled.send_frame(b"pong").unwrap();
        while polled.wants_write() {
            polled.flush_pending().unwrap();
        }
        assert_eq!(client.recv_frame().unwrap().unwrap(), b"pong");

        // Clean close: EOF on a frame boundary is Ok(None).
        drop(client);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            match polled.recv_frame() {
                Ok(None) => break,
                Err(RecvError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert!(std::time::Instant::now() < deadline, "close never observed");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                other => panic!("expected clean close, got {other:?}"),
            }
        }
    }

    #[test]
    fn polled_io_hands_over_a_lone_frame_without_copying() {
        // Two frames in one burst: the first is copied out, the second
        // is then alone in the buffer and becomes the payload itself.
        let (mut a, b) = duplex_stream();
        for payload in [&b"first"[..], &b"second"[..]] {
            a.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
            a.write_all(payload).unwrap();
        }
        let mut polled = PolledIo::from_stream(b);
        assert_eq!(polled.recv_frame().unwrap().unwrap(), b"first");
        assert_eq!(polled.partial_in(), 10);
        assert_eq!(polled.recv_frame().unwrap().unwrap(), b"second");
        assert_eq!(polled.in_buf.capacity(), 0, "the buffer moved out");
        drop(a);
        assert!(polled.recv_frame().unwrap().is_none());
    }

    /// Writes the socket takes only in part (chopped, or refused with
    /// `WouldBlock`) leave the rest queued, in order, behind which later
    /// frames wait: the peer receives every frame intact.
    #[test]
    fn polled_io_queues_what_a_partial_write_leaves() {
        use crate::chaos::{ChaosConfig, ChaosStream, CutKind};
        let (a, b) = duplex_stream();
        let chaos = ChaosStream::new(
            a,
            ChaosConfig {
                seed: 3,
                read_chop: false,
                write_chop: true,
                would_block_one_in: 3,
                delay_one_in: 0,
                delay_max_us: 0,
                cut_after_tx: None,
                cut_kind: CutKind::Eof,
            },
        );
        let mut polled = PolledIo::from_stream(chaos);
        let frames: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i; 50 * i as usize]).collect();
        for frame in &frames {
            polled.send_frame(frame).unwrap();
        }
        while !polled.flush_pending().unwrap() {}
        let mut rx = IoTransport::new(b);
        for frame in &frames {
            assert_eq!(&rx.recv_frame().unwrap().unwrap(), frame);
        }
    }

    #[test]
    fn polled_io_reassembles_split_frames() {
        let (client, server) = tcp_pair();
        let mut polled = PolledIo::new(server).unwrap();
        let payload = vec![7u8; 1000];
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);

        // Dribble the frame in three chunks with pauses: recv must
        // buffer partial bytes across WouldBlock polls.
        let mut client = client;
        for chunk in wire.chunks(400) {
            client.write_all(chunk).unwrap();
            client.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(5));
            // Poll in between: either WouldBlock (frame incomplete) or
            // the completed frame on the last chunk.
            match polled.recv_frame() {
                Ok(Some(frame)) => {
                    assert_eq!(frame, payload);
                    return;
                }
                Err(RecvError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => {}
                other => panic!("unexpected recv outcome: {other:?}"),
            }
        }
        assert_eq!(poll_recv(&mut polled), payload);
    }
}
