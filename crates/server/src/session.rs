//! The per-connection session state machine: decode → dispatch → encode.
//!
//! One [`SessionCore`] serves one client. It is transport-agnostic —
//! the worker-pool server drives many cores over polled sockets from a
//! fixed set of threads, and [`serve_session`] drives one over a
//! blocking [`Transport`] (the in-process pipe) — and it is in one of
//! two modes:
//!
//! * **Unbound** — fresh session; only `Bind`, `Attach` and `Register`
//!   do real work.
//! * **Attached** — queries are served from the
//!   [`Arc<EngineSnapshot>`](sinr_core::EngineSnapshot) currently
//!   published by a [`SnapshotStore`](sinr_core::SnapshotStore) shared
//!   with every other session attached to the same (network, backend,
//!   epsilon). `Attach` joins a registered network; `Bind` builds a
//!   network no registry lists ([`NamedNetwork::anonymous`]) and
//!   attaches to it the same way, so a hostile or crashing client can
//!   never poison a neighbouring session's network. `Mutate` goes
//!   through the network's revision fence and publishes a new snapshot;
//!   a batch already running keeps its loaded `Arc` (RCU — it finishes
//!   on the old snapshot, which frees when released).
//!
//! `Register` works in any mode and does not change the session's mode.
//! The five query frames resolve the session into one `QueryView`
//! (engine, station count, backend) and are answered by one code path;
//! `Mutate` has one arm, over [`NamedNetwork::mutate`].
//!
//! ## Pipelined mode
//!
//! The loop's discipline — **exactly one response per request, emitted
//! strictly in request order, never reordered and never coalesced** —
//! is a load-bearing protocol guarantee, not an implementation detail:
//! it is what makes client pipelining safe. A client may keep multiple
//! request frames in flight; while the engine chews on one
//! `LocateBatch`, the peer's subsequent frames queue in the transport,
//! so the tiled batch executor always has a full batch waiting and the
//! inter-burst round-trip idle disappears. One caveat is the client's,
//! not the loop's: this loop does not read ahead while computing, so a
//! *blocking* client must bound its unanswered request bytes to what
//! the transport buffers (or it can wedge against a session blocked
//! writing a response the client is not draining) — the shipped
//! pipelined client enforces exactly that budget
//! ([`PIPELINE_REQUEST_BUDGET`](crate::client::PIPELINE_REQUEST_BUDGET)). [`Client::locate_batches_pipelined`](crate::client::Client::locate_batches_pipelined)
//! is the client half; the e2e suite pins that pipelined answers are
//! bit-identical to request/response answers, and
//! `server_throughput`'s `pipelined_stream` scenario measures the win.
//! Mid-stream errors keep their slot in the response order (an error
//! frame *is* that request's response), so a pipelined client never
//! loses frame alignment.
//!
//! Error discipline (the hard part of a long-lived server):
//!
//! * **Malformed payloads** get a typed [`ErrorCode::MalformedFrame`]
//!   reply and the session continues — frame boundaries come from the
//!   length prefix, so one bad payload does not desynchronize the
//!   stream.
//! * **Oversized frames** get [`ErrorCode::Oversized`] and then the
//!   connection closes: after a lying length prefix the stream position
//!   is meaningless.
//! * **Semantic failures** (unknown backend, revision fences, surgery
//!   validation, staleness) are per-request typed errors; the session
//!   survives.
//! * **Mode-ending failures**: [`ErrorCode::Unsupported`] (this
//!   session's `Mutate` poisoned its own store) and
//!   [`ErrorCode::ChannelUnsupported`] unbind the session, and a query
//!   answered [`ErrorCode::UnknownNetwork`] detaches it (another
//!   session's mutation poisoned its store). Subsequent queries get
//!   [`ErrorCode::NotBound`].
//! * **Panics** while handling a frame are caught, answered with
//!   [`ErrorCode::Internal`], and close only this session. The handler
//!   itself is written not to panic — the catch is the last line of
//!   defence, not the error path.

use crate::protocol::{decode_request, encode_response, BackendId, ErrorCode, Request, Response};
use crate::registry::{
    AttachError, AttachHandle, MutateError, NamedNetwork, NetworkRegistry, RegisterError,
    UnregisterError,
};
use crate::transport::{RecvError, Transport, MAX_FRAME_LEN};
use sinr_core::engine::BoxedEngine;
use sinr_core::{
    ChannelError, ChannelModel, Located, McConfig, QueryEngine, SnapshotError, StationId,
};
use sinr_geometry::Point;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// What an attached session serves: its handle onto the network and the
/// shared snapshot store, and the backend it asked for. Dropping this
/// state (detach, unbind, session end) releases the handle's refcount
/// that gates [`NetworkRegistry::unregister`].
struct AttachedState {
    handle: AttachHandle,
    backend: BackendId,
}

/// What one query frame runs against: the engine of the snapshot the
/// session just loaded (the caller holds that `Arc` for the frame).
#[derive(Clone, Copy)]
struct QueryView<'a> {
    engine: &'a BoxedEngine,
    stations: usize,
    backend: BackendId,
}

/// The transport-independent session state machine: feed it one request
/// payload at a time ([`SessionCore::handle_payload`]), send back the
/// bytes it returns. The worker-pool server and the blocking loop
/// ([`serve_session`]) both drive sessions through this type, so TCP and
/// in-process sessions cannot drift apart.
pub struct SessionCore {
    registry: Arc<NetworkRegistry>,
    /// `None` while unbound.
    attached: Option<AttachedState>,
}

impl SessionCore {
    /// A fresh, unbound session over `registry`.
    pub fn new(registry: Arc<NetworkRegistry>) -> SessionCore {
        SessionCore {
            registry,
            attached: None,
        }
    }

    /// Handles one request payload (the frame body, length prefix
    /// already stripped) and returns the encoded response frame body
    /// plus whether the connection must close after sending it (a
    /// caught panic — [`ErrorCode::Internal`]).
    ///
    /// Never panics out: dispatch runs under `catch_unwind`.
    pub fn handle_payload(&mut self, payload: &[u8]) -> (Vec<u8>, bool) {
        let request = match decode_request(payload) {
            Ok(request) => request,
            Err(e) => {
                let code = match e {
                    crate::protocol::ProtocolError::UnknownBackend(_) => ErrorCode::UnknownBackend,
                    _ => ErrorCode::MalformedFrame,
                };
                return (encode_response(&error(code, e.to_string())), false);
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| self.handle(request)));
        match outcome {
            Ok(response) => {
                // An Unsupported/ChannelUnsupported error unbinds
                // (documented on the codes): the engine can no longer
                // serve what the session is asking of it.
                if matches!(
                    response,
                    Response::Error {
                        code: ErrorCode::Unsupported | ErrorCode::ChannelUnsupported,
                        ..
                    }
                ) {
                    self.attached = None;
                }
                (encode_response(&response), false)
            }
            Err(_) => (
                encode_response(&error(
                    ErrorCode::Internal,
                    "panic while handling the frame; closing this session".to_string(),
                )),
                true,
            ),
        }
    }

    /// One request → one response. Pure with respect to the transport.
    fn handle(&mut self, request: Request) -> Response {
        match request {
            Request::Bind {
                backend,
                epsilon,
                network,
            } => {
                if self.attached.is_some() {
                    return already_bound();
                }
                let net = match network.build() {
                    Ok(net) => net,
                    Err(e) => return error(ErrorCode::InvalidNetwork, e.to_string()),
                };
                match NamedNetwork::anonymous(net).attach(backend, epsilon) {
                    Ok(handle) => Response::Bound {
                        revision: self.adopt(handle, backend),
                        backend,
                    },
                    Err(msg) => error(ErrorCode::BackendBuild, msg),
                }
            }
            Request::Register { name, network } => match self.registry.register(&name, &network) {
                Ok(revision) => Response::Registered { revision },
                Err(RegisterError::NameTaken) => error(
                    ErrorCode::NameTaken,
                    format!("network name '{name}' is already registered"),
                ),
                // Unreachable from the wire (the name codec enforces the
                // length bound), reachable through in-process use.
                Err(e @ RegisterError::InvalidName) => {
                    error(ErrorCode::MalformedFrame, e.to_string())
                }
                Err(RegisterError::InvalidNetwork(e)) => {
                    error(ErrorCode::InvalidNetwork, e.to_string())
                }
            },
            Request::Attach {
                name,
                backend,
                epsilon,
            } => {
                if self.attached.is_some() {
                    return already_bound();
                }
                match self.registry.attach(&name, backend, epsilon) {
                    Ok(handle) => Response::Attached {
                        revision: self.adopt(handle, backend),
                        backend,
                    },
                    Err(AttachError::UnknownNetwork) => error(
                        ErrorCode::UnknownNetwork,
                        format!("no network registered under '{name}'"),
                    ),
                    Err(AttachError::BackendBuild(msg)) => error(ErrorCode::BackendBuild, msg),
                }
            }
            Request::LocateBatch { points } => self.query(|view| locate_on(view.engine, &points)),
            Request::SinrBatch { station, points } => {
                self.query(|view| sinrs_on(view, station, &points))
            }
            Request::Mutate {
                expected_revision,
                ops,
            } => {
                let Some(att) = &self.attached else {
                    return not_bound();
                };
                let network = &att.handle.network;
                let outcome = network.mutate(expected_revision, &ops);
                // This session's own store could not follow the mutation
                // (e.g. the Theorem-3 locator after a non-uniform
                // SetPower): Unsupported, and the session unbinds.
                if let Err(SnapshotError::Unsupported(e)) = att.handle.store.load() {
                    return error(
                        ErrorCode::Unsupported,
                        format!(
                            "backend {} cannot represent {} after this mutation: {e}",
                            att.backend,
                            network.description()
                        ),
                    );
                }
                match outcome {
                    Ok(ok) => Response::Mutated {
                        revision: ok.revision,
                        applied: ok.applied,
                    },
                    Err(MutateError::RevisionMismatch { expected, current }) => error(
                        ErrorCode::RevisionMismatch,
                        format!(
                            "mutate was computed against revision {expected} but {} is at \
                             revision {current}; nothing was applied",
                            network.description()
                        ),
                    ),
                    // The prefix stays applied (in-place surgery, not a
                    // transaction); the revision in the message tells
                    // the client where the network now is.
                    Err(MutateError::Surgery { message, revision }) => error(
                        ErrorCode::Surgery,
                        format!(
                            "{message}; {} is now at revision {revision}",
                            network.description()
                        ),
                    ),
                }
            }
            Request::ReceptionProbBatch {
                trials,
                seed,
                channel,
                points,
            } => self.query(|view| reception_on(view, trials, seed, &channel, &points)),
            Request::SinrQuantilesBatch {
                station,
                trials,
                seed,
                channel,
                quantiles,
                points,
            } => self.query(|view| {
                quantiles_on(view, station, trials, seed, &channel, &quantiles, &points)
            }),
            Request::HeatmapBatch {
                min,
                max,
                width,
                height,
            } => self.query(|view| heatmap_on(view.engine, min, max, width, height)),
            Request::Unregister { name } => match self.registry.unregister(&name) {
                Ok(()) => Response::Unregistered,
                Err(UnregisterError::UnknownNetwork) => error(
                    ErrorCode::UnknownNetwork,
                    format!("no network registered under '{name}'"),
                ),
                Err(e @ UnregisterError::StillAttached { .. }) => error(
                    ErrorCode::StillAttached,
                    format!("cannot unregister '{name}': {e}"),
                ),
            },
        }
    }

    /// Records an attachment as the session's mode and returns the
    /// revision it was made at.
    fn adopt(&mut self, handle: AttachHandle, backend: BackendId) -> u64 {
        let revision = handle.revision;
        self.attached = Some(AttachedState { handle, backend });
        revision
    }

    /// Loads the session's current snapshot into the [`QueryView`] one
    /// query frame runs against and answers it there: `NotBound` when
    /// unbound; when the store is poisoned, the typed
    /// [`ErrorCode::UnknownNetwork`] detach, leaving the session
    /// unbound.
    fn query(&mut self, answer: impl FnOnce(QueryView<'_>) -> Response) -> Response {
        let Some(att) = &self.attached else {
            return not_bound();
        };
        let snapshot = match att.handle.store.load() {
            Ok(snapshot) => snapshot,
            Err(e) => {
                let detached = error(
                    ErrorCode::UnknownNetwork,
                    format!("detached from {}: {e}", att.handle.network.description()),
                );
                self.attached = None;
                return detached;
            }
        };
        answer(QueryView {
            engine: snapshot.engine(),
            stations: snapshot.stations(),
            backend: att.backend,
        })
    }
}

/// Serves one client to completion over a **private** registry: reads
/// frames until the peer closes (or the stream becomes unrecoverable)
/// and answers every request with exactly one response frame. With a
/// per-session registry, `Register`ed networks are invisible to other
/// sessions — the share-nothing contract of the original server. This
/// is the blocking loop behind [`serve_in_process`](crate::serve_in_process);
/// TCP connections are served by the worker pool
/// ([`Server::spawn`](crate::server::Server::spawn)), whose sessions
/// share one registry.
///
/// Never panics out: frame handling runs under `catch_unwind`, and a
/// caught panic answers [`ErrorCode::Internal`] before dropping the
/// connection.
pub fn serve_session<T: Transport>(mut transport: T) {
    let mut core = SessionCore::new(Arc::new(NetworkRegistry::new()));
    loop {
        let payload = match transport.recv_frame() {
            Ok(Some(payload)) => payload,
            // Clean close on a frame boundary: the session is over.
            Ok(None) => return,
            Err(RecvError::Oversized { len }) => {
                let _ = transport.send_frame(&encode_response(&error(
                    ErrorCode::Oversized,
                    format!("frame length {len} exceeds the limit"),
                )));
                return;
            }
            // I/O failure or EOF mid-frame: nothing sensible to say.
            Err(_) => return,
        };
        let (frame, close) = core.handle_payload(&payload);
        if transport.send_frame(&frame).is_err() || close {
            return;
        }
    }
}

fn error(code: ErrorCode, message: String) -> Response {
    Response::Error { code, message }
}

fn not_bound() -> Response {
    error(
        ErrorCode::NotBound,
        "session is not bound; send a Bind or Attach frame first".to_string(),
    )
}

fn already_bound() -> Response {
    error(
        ErrorCode::AlreadyBound,
        "this session is already bound; open a new connection".to_string(),
    )
}

fn locate_on(engine: &BoxedEngine, points: &[Point]) -> Response {
    if let Err(e) = engine.freshness() {
        return error(ErrorCode::Stale, e.to_string());
    }
    let mut answers = vec![Located::Silent; points.len()];
    engine.locate_batch(points, &mut answers);
    Response::Located {
        revision: engine.revision(),
        answers,
    }
}

/// Serves a `HeatmapBatch`: rasterises the engine's SINR diagram over
/// the window by hierarchical (interval-certified quadtree) refinement,
/// whose subtrees refine in parallel — bit-identical to a dense
/// per-pixel sweep. Only pixels in the quadtree leaves near the zone
/// boundaries pay a per-point answer, given there from the enclosing
/// certificate or the engine's `locate`; a backend without
/// certificates (QDS) answers every pixel that way. Refinement yields
/// maximal row-major label runs, and the response carries them as they
/// are ([`Response::HeatmapRuns`]), so the handler never holds a dense
/// raster: its memory grows with the run count, not with the pixel
/// count.
fn heatmap_on(engine: &BoxedEngine, min: Point, max: Point, width: u32, height: u32) -> Response {
    if width == 0
        || height == 0
        || !min.is_finite()
        || !max.is_finite()
        || !(max.x - min.x).is_finite()
        || !(max.y - min.y).is_finite()
        || max.x <= min.x
        || max.y <= min.y
    {
        return error(
            ErrorCode::MalformedFrame,
            format!(
                "heatmap window must be finite with positive extent and positive grid \
                 dimensions (got [{min:?}, {max:?}] at {width}x{height})"
            ),
        );
    }
    // Cheap pre-compute screen only: the grid's *dense* pixel count
    // must be representable and within the protocol's pixel cap (the
    // bound on a client's dense decode). Whether the *response* fits one
    // frame is decided below against the real run count — a raster's
    // wire size depends on how uniform it is, not on its pixel count,
    // so a mostly-uniform 2048² map (a few KB of runs) is served rather
    // than refused on its 9-bytes-per-pixel worst case.
    match (width as u64).checked_mul(height as u64) {
        Some(pixels) if pixels <= crate::protocol::MAX_HEATMAP_PIXELS => {}
        _ => {
            return error(
                ErrorCode::MalformedFrame,
                format!("heatmap grid {width}x{height} exceeds the pixel cap"),
            )
        }
    }
    if let Err(e) = engine.freshness() {
        return error(ErrorCode::Stale, e.to_string());
    }
    let window = sinr_geometry::BBox::new(min, max);
    let (map, stats) =
        sinr_diagram::quadtree::hierarchical_map(engine, window, width as usize, height as usize);
    // `(PixelLabel, u32)` and `(Located, u32)` have the same layout, so
    // this collect maps the runs' own buffer in place.
    let runs: crate::protocol::LocatedRuns = map
        .into_runs()
        .into_iter()
        .map(|(label, len)| match label {
            sinr_diagram::PixelLabel::Heard(i) => (Located::Reception(i), len),
            sinr_diagram::PixelLabel::Silent => (Located::Silent, len),
        })
        .collect();
    // The real frame-size check: 25 bytes of header (tag + revision +
    // dims + cells_evaluated) plus exactly 9 bytes per run.
    let encoded = 25 + 9 * runs.len();
    if encoded > MAX_FRAME_LEN {
        return error(
            ErrorCode::Oversized,
            format!(
                "heatmap response for {width}x{height} run-length encodes to {encoded} bytes, \
                 over the {MAX_FRAME_LEN}-byte frame limit; request a smaller window or grid"
            ),
        );
    }
    Response::HeatmapRuns {
        revision: engine.revision(),
        width,
        height,
        cells_evaluated: stats.cells_evaluated,
        runs,
    }
}

/// The typed refusal of a station index a `stations`-station network
/// lacks.
fn station_out_of_range(stations: usize, station: StationId) -> Option<Response> {
    (station.0 >= stations).then(|| {
        error(
            ErrorCode::StationOutOfRange,
            format!(
                "station {} out of range (network has {})",
                station.0, stations
            ),
        )
    })
}

fn sinrs_on(
    QueryView {
        engine, stations, ..
    }: QueryView<'_>,
    station: StationId,
    points: &[Point],
) -> Response {
    if let Some(resp) = station_out_of_range(stations, station) {
        return resp;
    }
    if let Err(e) = engine.freshness() {
        return error(ErrorCode::Stale, e.to_string());
    }
    let mut values = vec![0.0; points.len()];
    engine.sinr_batch(station, points, &mut values);
    Response::Sinrs {
        revision: engine.revision(),
        values,
    }
}

fn reception_on(
    QueryView {
        engine, backend, ..
    }: QueryView<'_>,
    trials: u32,
    seed: u64,
    channel: &ChannelModel,
    points: &[Point],
) -> Response {
    let mc = McConfig { trials, seed };
    let mut values = vec![0.0; points.len()];
    match engine.reception_probability_batch(channel, mc, points, &mut values) {
        Ok(()) => Response::ReceptionProbs {
            revision: engine.revision(),
            values,
        },
        Err(ChannelError::Unsupported(msg)) => error(
            ErrorCode::ChannelUnsupported,
            format!("backend {backend} cannot serve stochastic channels: {msg}"),
        ),
        Err(e @ ChannelError::InvalidChannel(_)) => error(ErrorCode::InvalidChannel, e.to_string()),
        Err(ChannelError::Stale(e)) => error(ErrorCode::Stale, e.to_string()),
    }
}

fn quantiles_on(
    QueryView {
        engine,
        stations,
        backend,
    }: QueryView<'_>,
    station: StationId,
    trials: u32,
    seed: u64,
    channel: &ChannelModel,
    quantiles: &[f64],
    points: &[Point],
) -> Response {
    if let Some(resp) = station_out_of_range(stations, station) {
        return resp;
    }
    // The response carries points × quantiles f64s; refuse grids whose
    // *response* could not fit in one frame (the request decoded fine,
    // but answering it would break the framing contract). 17 bytes of
    // header: tag + revision + quantile width + value count.
    let cells = points.len().checked_mul(quantiles.len());
    match cells {
        Some(cells) if 17 + 8 * cells <= MAX_FRAME_LEN => {}
        _ => {
            return error(
                ErrorCode::MalformedFrame,
                format!(
                    "quantile grid ({} points x {} quantiles) exceeds the response frame limit",
                    points.len(),
                    quantiles.len()
                ),
            )
        }
    }
    let mc = McConfig { trials, seed };
    let mut values = vec![0.0; points.len() * quantiles.len()];
    match engine.sinr_quantiles_batch(channel, mc, station, points, quantiles, &mut values) {
        Ok(()) => Response::SinrQuantiles {
            revision: engine.revision(),
            quantiles: quantiles.len() as u32,
            values,
        },
        Err(ChannelError::Unsupported(msg)) => error(
            ErrorCode::ChannelUnsupported,
            format!("backend {backend} cannot serve stochastic channels: {msg}"),
        ),
        Err(e @ ChannelError::InvalidChannel(_)) => error(ErrorCode::InvalidChannel, e.to_string()),
        Err(ChannelError::Stale(e)) => error(ErrorCode::Stale, e.to_string()),
    }
}
