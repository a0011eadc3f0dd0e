//! The client half of the protocol: typed request/response round trips
//! over any [`Transport`].
//!
//! [`Client`] is deliberately thin — one method per request frame, each
//! returning the revision stamped on the response so callers can fence
//! their own mirrors (the e2e differential suite compares server
//! answers against a local [`sinr_core::ExactScan`] *at the same
//! revision*; the revision plumbing is what makes that comparison
//! well-defined under concurrent mutation).
//!
//! [`serve_in_process`] wires a client straight to a session loop over
//! the in-process [`PipeStream`] — the loopback-free path used by tests,
//! examples and the `server_throughput` bench to measure protocol cost
//! without kernel sockets.

use crate::protocol::{
    decode_response, decode_response_runs, encode_request, expand_runs, BackendId, ErrorCode,
    LocatedRuns, NetworkSpec, ProtocolError, Request, Response,
};
use crate::session::serve_session;
use crate::transport::{
    duplex_stream, IoTransport, PipeStream, RecvError, TcpTransport, Transport,
};
use sinr_core::{ChannelModel, Located, Network, StationId, SurgeryOp};
use sinr_geometry::Point;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed sending.
    Io(io::Error),
    /// The transport failed receiving.
    Recv(RecvError),
    /// The server's response did not decode.
    Protocol(ProtocolError),
    /// The server answered with a typed error frame.
    Server {
        /// The error code.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
    /// The server closed the connection instead of answering.
    ConnectionClosed,
    /// The server answered with the wrong response type for the
    /// request.
    UnexpectedResponse(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "send failed: {e}"),
            ClientError::Recv(e) => write!(f, "receive failed: {e}"),
            ClientError::Protocol(e) => write!(f, "undecodable response: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientError::ConnectionClosed => write!(f, "server closed the connection"),
            ClientError::UnexpectedResponse(what) => {
                write!(f, "unexpected response type (wanted {what})")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Recv(e) => Some(e),
            ClientError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<RecvError> for ClientError {
    fn from(e: RecvError) -> Self {
        ClientError::Recv(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// Default cap on unanswered request bytes a pipelined stream keeps in
/// flight ([`Client::locate_batches_pipelined`]): conservative against
/// default TCP socket buffering, so a blocking client can never wedge
/// against a session blocked writing responses (see the method docs
/// for the argument). 64 KiB.
pub const PIPELINE_REQUEST_BUDGET: usize = 64 * 1024;

/// Encoded size of a `LocateBatch` frame payload: tag, count, and 16
/// bytes per point (see the crate docs' frame table).
fn locate_wire_size(points: &[Point]) -> usize {
    5 + 16 * points.len()
}

/// A connected protocol client.
#[derive(Debug)]
pub struct Client<T: Transport> {
    transport: T,
}

impl Client<TcpTransport> {
    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from [`TcpStream::connect`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // See the server side: whole-frame writes + request/response
        // round trips make Nagle pure latency.
        let _ = stream.set_nodelay(true);
        Ok(Client::new(TcpTransport::new(stream)))
    }
}

impl<T: Transport> Client<T> {
    /// Wraps an already-connected transport.
    pub fn new(transport: T) -> Self {
        Client { transport }
    }

    /// Binds the session: ships `net` and the backend choice, returns
    /// the server-side starting revision.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::AlreadyBound`] /
    /// [`ErrorCode::InvalidNetwork`] / [`ErrorCode::BackendBuild`], or
    /// any transport failure.
    pub fn bind_network(
        &mut self,
        backend: BackendId,
        epsilon: f64,
        net: &Network,
    ) -> Result<u64, ClientError> {
        match self.roundtrip(&Request::Bind {
            backend,
            epsilon,
            network: NetworkSpec::of(net),
        })? {
            Response::Bound { revision, .. } => Ok(revision),
            other => Err(unexpected(other, "Bound")),
        }
    }

    /// Streams one batch of point-location queries; returns the
    /// revision the answers are valid for and one answer per point.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] (e.g. [`ErrorCode::NotBound`]) or any
    /// transport failure.
    pub fn locate_batch(&mut self, points: &[Point]) -> Result<(u64, Vec<Located>), ClientError> {
        match self.roundtrip(&Request::LocateBatch {
            points: points.to_vec(),
        })? {
            Response::Located { revision, answers } => Ok((revision, answers)),
            other => Err(unexpected(other, "Located")),
        }
    }

    /// Sends one `LocateBatch` frame **without waiting for the
    /// response** — the pipelined half of [`Client::locate_batch`].
    /// Pair each send with one later [`Client::recv_located`]; the
    /// session loop answers strictly in request order, so responses
    /// arrive in send order (see the crate docs' *Pipelining* section).
    ///
    /// # Errors
    ///
    /// Any transport send failure.
    pub fn send_locate_batch(&mut self, points: &[Point]) -> Result<(), ClientError> {
        Ok(self
            .transport
            .send_frame(&encode_request(&Request::LocateBatch {
                points: points.to_vec(),
            }))?)
    }

    /// Receives one `Located` response for an earlier
    /// [`Client::send_locate_batch`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`], transport failures, or
    /// [`ClientError::UnexpectedResponse`] if the pairing discipline
    /// was violated.
    pub fn recv_located(&mut self) -> Result<(u64, Vec<Located>), ClientError> {
        match self.recv()? {
            Response::Located { revision, answers } => Ok((revision, answers)),
            other => Err(unexpected(other, "Located")),
        }
    }

    /// Pipelined point location: streams every burst with up to
    /// `in_flight` request frames outstanding before the first response
    /// is read, keeping the server's tiled batch executor fed while
    /// later bursts are still in transit. With `in_flight == 1` this
    /// degenerates to the request/response loop of
    /// [`Client::locate_batch`]; answers are identical either way
    /// (pinned by the e2e differential suite) — only the idle time
    /// between bursts changes.
    ///
    /// Besides the frame-count window, outstanding *request bytes* are
    /// capped at [`PIPELINE_REQUEST_BUDGET`] — the deadlock guard for
    /// blocking transports: a client that keeps writing requests while
    /// the single-threaded session is blocked writing a response the
    /// client has not read can wedge both sides once the socket
    /// buffers in both directions fill. Keeping unanswered request
    /// bytes within what the transport is guaranteed to buffer means
    /// every send completes without the server having to read, so the
    /// client always reaches its next `recv` and drains the responses
    /// that unblock the server. For very large bursts the budget
    /// degrades the window toward lock-step (which is safe for frames
    /// of any size); on transports with ample or unbounded buffering
    /// (the in-process pipe) use
    /// [`Client::locate_batches_pipelined_with_budget`] to widen it.
    ///
    /// Returns one `(revision, answers)` per burst, in burst order.
    ///
    /// # Panics
    ///
    /// Panics if `in_flight == 0`.
    ///
    /// # Errors
    ///
    /// As [`Client::locate_batch`]; on any error the pipeline is
    /// abandoned mid-stream (the session itself stays healthy — the
    /// remaining responses are simply unread and the transport should
    /// be dropped or drained by the caller).
    pub fn locate_batches_pipelined(
        &mut self,
        bursts: &[&[Point]],
        in_flight: usize,
    ) -> Result<Vec<(u64, Vec<Located>)>, ClientError> {
        self.locate_batches_pipelined_with_budget(bursts, in_flight, PIPELINE_REQUEST_BUDGET)
    }

    /// [`Client::locate_batches_pipelined`] with an explicit
    /// outstanding-request byte budget. Safe to raise only when the
    /// transport path is known to buffer at least `budget` request
    /// bytes while the peer is not reading — true for the in-process
    /// [`PipeStream`] (unbounded queues) and for TCP stacks
    /// configured with correspondingly large send+receive buffers.
    ///
    /// # Panics
    ///
    /// Panics if `in_flight == 0`.
    ///
    /// # Errors
    ///
    /// As [`Client::locate_batches_pipelined`].
    pub fn locate_batches_pipelined_with_budget(
        &mut self,
        bursts: &[&[Point]],
        in_flight: usize,
        budget: usize,
    ) -> Result<Vec<(u64, Vec<Located>)>, ClientError> {
        assert!(
            in_flight > 0,
            "a pipeline needs at least one frame in flight"
        );
        let mut results = Vec::with_capacity(bursts.len());
        let mut pending: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut outstanding = 0usize;
        let mut sent = 0usize;
        while results.len() < bursts.len() {
            // Fill the window as far as the frame count and the byte
            // budget allow; with nothing outstanding a frame of any
            // size may go (plain request/response is always safe).
            while sent < bursts.len() && pending.len() < in_flight {
                let size = locate_wire_size(bursts[sent]);
                if !pending.is_empty() && outstanding + size > budget {
                    break;
                }
                self.send_locate_batch(bursts[sent])?;
                outstanding += size;
                pending.push_back(size);
                sent += 1;
            }
            results.push(self.recv_located()?);
            let answered = pending
                .pop_front()
                .expect("every response matches a pending request");
            outstanding -= answered;
        }
        Ok(results)
    }

    /// Streams one batch of SINR samples for `station`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] (e.g. [`ErrorCode::StationOutOfRange`])
    /// or any transport failure.
    pub fn sinr_batch(
        &mut self,
        station: StationId,
        points: &[Point],
    ) -> Result<(u64, Vec<f64>), ClientError> {
        match self.roundtrip(&Request::SinrBatch {
            station,
            points: points.to_vec(),
        })? {
            Response::Sinrs { revision, values } => Ok((revision, values)),
            other => Err(unexpected(other, "Sinrs")),
        }
    }

    /// Applies a timestep of surgery ops, revision-fenced at
    /// `expected_revision`; returns the network's revision afterwards.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::RevisionMismatch`]
    /// (nothing applied) or [`ErrorCode::Surgery`] (prefix applied —
    /// the message names the failing op), or any transport failure.
    pub fn mutate(
        &mut self,
        expected_revision: u64,
        ops: &[SurgeryOp],
    ) -> Result<u64, ClientError> {
        match self.roundtrip(&Request::Mutate {
            expected_revision,
            ops: ops.to_vec(),
        })? {
            Response::Mutated { revision, .. } => Ok(revision),
            other => Err(unexpected(other, "Mutated")),
        }
    }

    /// Streams one batch of seeded Monte-Carlo reception-probability
    /// queries under `channel`; returns the revision the probabilities
    /// are valid for and one probability per point. Replayable: the
    /// same `(trials, seed, channel, points)` at the same revision
    /// answers bit-identically (the e2e suite pins server answers
    /// against a fresh local engine).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::ChannelUnsupported`]
    /// (the session is then **unbound**) or
    /// [`ErrorCode::InvalidChannel`] / [`ErrorCode::Stale`]
    /// (per-request), or any transport failure.
    pub fn reception_prob_batch(
        &mut self,
        trials: u32,
        seed: u64,
        channel: &ChannelModel,
        points: &[Point],
    ) -> Result<(u64, Vec<f64>), ClientError> {
        match self.roundtrip(&Request::ReceptionProbBatch {
            trials,
            seed,
            channel: channel.clone(),
            points: points.to_vec(),
        })? {
            Response::ReceptionProbs { revision, values } => Ok((revision, values)),
            other => Err(unexpected(other, "ReceptionProbs")),
        }
    }

    /// Publishes `net` under a server-wide `name` so any session on
    /// this server can [`Client::attach`] to it; returns the registered
    /// network's starting revision. Does **not** bind or attach the
    /// registering session.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::NameTaken`] /
    /// [`ErrorCode::InvalidNetwork`], or any transport failure.
    pub fn register_network(&mut self, name: &str, net: &Network) -> Result<u64, ClientError> {
        match self.roundtrip(&Request::Register {
            name: name.to_owned(),
            network: NetworkSpec::of(net),
        })? {
            Response::Registered { revision } => Ok(revision),
            other => Err(unexpected(other, "Registered")),
        }
    }

    /// Attaches this session to the network registered under `name`:
    /// queries are served from the engine snapshot shared with every
    /// other session attached with the same `backend` and `epsilon`,
    /// and `Mutate` publishes a new snapshot all of them observe.
    /// Returns the revision of the snapshot this session will see next.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::UnknownNetwork`] /
    /// [`ErrorCode::AlreadyBound`] / [`ErrorCode::BackendBuild`], or
    /// any transport failure.
    pub fn attach(
        &mut self,
        name: &str,
        backend: BackendId,
        epsilon: f64,
    ) -> Result<u64, ClientError> {
        match self.roundtrip(&Request::Attach {
            name: name.to_owned(),
            backend,
            epsilon,
        })? {
            Response::Attached { revision, .. } => Ok(revision),
            other => Err(unexpected(other, "Attached")),
        }
    }

    /// Streams one batch of seeded Monte-Carlo SINR-quantile queries
    /// for `station` under `channel`: returns the revision, and the
    /// row-major matrix of `points.len() × quantiles.len()` values
    /// (`values[k * quantiles.len() + q]` is quantile `q` of point
    /// `k`). Replayable like [`Client::reception_prob_batch`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::StationOutOfRange`] /
    /// [`ErrorCode::ChannelUnsupported`] (unbinds/detaches) /
    /// [`ErrorCode::InvalidChannel`] / [`ErrorCode::Stale`], or any
    /// transport failure.
    #[allow(clippy::too_many_arguments)]
    pub fn sinr_quantiles_batch(
        &mut self,
        station: StationId,
        trials: u32,
        seed: u64,
        channel: &ChannelModel,
        quantiles: &[f64],
        points: &[Point],
    ) -> Result<(u64, Vec<f64>), ClientError> {
        match self.roundtrip(&Request::SinrQuantilesBatch {
            station,
            trials,
            seed,
            channel: channel.clone(),
            quantiles: quantiles.to_vec(),
            points: points.to_vec(),
        })? {
            Response::SinrQuantiles {
                revision, values, ..
            } => Ok((revision, values)),
            other => Err(unexpected(other, "SinrQuantiles")),
        }
    }

    /// Rasterises the session's SINR diagram over `[min, max]` at
    /// `width × height` pixels, server-side, by hierarchical
    /// (interval-certified quadtree) refinement — answers are
    /// bit-identical to locating every pixel centre, but the server
    /// pays per-point evaluation only near the zone boundaries.
    /// Returns the revision, the pixels as the `(answer, length)` runs
    /// the server sent (bottom-first row-major, continuing across row
    /// ends; [`expand_runs`] gives one [`Located`] per pixel), and how
    /// many pixels the server actually evaluated per-point (the economy
    /// observable). Memory grows with the run count, not with the
    /// pixel count.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::MalformedFrame`]
    /// (degenerate window, zero grid, or more than
    /// [`MAX_HEATMAP_PIXELS`](crate::protocol::MAX_HEATMAP_PIXELS)
    /// pixels), [`ErrorCode::Oversized`] (the computed raster's actual
    /// run-length encoding does not fit one response frame — uniform
    /// rasters compress to a handful of runs, so this only triggers on
    /// genuinely fragmented diagrams), [`ErrorCode::NotBound`] /
    /// [`ErrorCode::Stale`], or any transport failure.
    pub fn heatmap_runs(
        &mut self,
        min: Point,
        max: Point,
        width: u32,
        height: u32,
    ) -> Result<(u64, LocatedRuns, u64), ClientError> {
        self.transport
            .send_frame(&encode_request(&Request::HeatmapBatch {
                min,
                max,
                width,
                height,
            }))?;
        match self.recv_with(decode_response_runs)? {
            Response::HeatmapRuns {
                revision,
                runs,
                cells_evaluated,
                ..
            } => Ok((revision, runs, cells_evaluated)),
            other => Err(unexpected(other, "Heatmap")),
        }
    }

    /// [`Client::heatmap_runs`] expanded to one [`Located`] per pixel
    /// (bottom-first row-major: `cells[row * width + col]`).
    ///
    /// # Errors
    ///
    /// As [`Client::heatmap_runs`].
    pub fn heatmap_batch(
        &mut self,
        min: Point,
        max: Point,
        width: u32,
        height: u32,
    ) -> Result<(u64, Vec<Located>, u64), ClientError> {
        let (revision, runs, cells_evaluated) = self.heatmap_runs(min, max, width, height)?;
        Ok((revision, expand_runs(&runs), cells_evaluated))
    }

    /// Removes the network registered under `name`, provided no session
    /// is currently attached to it. Works in any session mode and does
    /// not change this session's mode; sessions already attached keep
    /// working (only the *name* disappears — unregistering is `unlink`,
    /// not revocation).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::UnknownNetwork`] /
    /// [`ErrorCode::StillAttached`], or any transport failure.
    pub fn unregister_network(&mut self, name: &str) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Unregister {
            name: name.to_owned(),
        })? {
            Response::Unregistered => Ok(()),
            other => Err(unexpected(other, "Unregistered")),
        }
    }

    /// One request frame out, one response frame back.
    ///
    /// # Errors
    ///
    /// Transport failures, undecodable responses, and server `Error`
    /// frames (as [`ClientError::Server`]).
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.transport.send_frame(&encode_request(request))?;
        self.recv()
    }

    /// Sends raw payload bytes as one frame — the fuzz suites' way of
    /// shipping malformed payloads through a well-formed framing layer.
    ///
    /// # Errors
    ///
    /// Any transport send failure.
    pub fn send_raw(&mut self, payload: &[u8]) -> Result<(), ClientError> {
        Ok(self.transport.send_frame(payload)?)
    }

    /// Receives and decodes one response frame; a server `Error` frame
    /// becomes [`ClientError::Server`].
    ///
    /// # Errors
    ///
    /// Transport failures, [`ClientError::ConnectionClosed`] on EOF,
    /// undecodable responses.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        self.recv_with(decode_response)
    }

    /// [`Client::recv`] through the given response decoder.
    fn recv_with(
        &mut self,
        decode: fn(&[u8]) -> Result<Response, ProtocolError>,
    ) -> Result<Response, ClientError> {
        let payload = self
            .transport
            .recv_frame()?
            .ok_or(ClientError::ConnectionClosed)?;
        match decode(&payload)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            response => Ok(response),
        }
    }

    /// The underlying transport (e.g. to reach the raw [`TcpStream`]).
    pub fn transport(&self) -> &T {
        &self.transport
    }
}

fn unexpected(got: Response, wanted: &'static str) -> ClientError {
    // The decoded-but-wrong-type response is deliberately dropped: the
    // variant name is enough to diagnose a protocol-order bug.
    let _ = got;
    ClientError::UnexpectedResponse(wanted)
}

/// A client wired directly to a session loop over the in-process pipe:
/// no sockets, no ports, same frames. The session thread ends when the
/// returned client is dropped (the pipe closes, the session sees a
/// clean EOF).
pub fn serve_in_process() -> Client<IoTransport<PipeStream>> {
    let (client_end, server_end) = duplex_stream();
    std::thread::Builder::new()
        .name("sinr-server-pipe-session".into())
        .spawn(move || serve_session(IoTransport::new(server_end)))
        .expect("spawn pipe session thread");
    Client::new(IoTransport::new(client_end))
}
