//! # sinr-server
//!
//! A streaming batched point-location server for SINR diagrams: the
//! network face of the workspace's
//! [`QueryEngine`](sinr_core::QueryEngine) machinery (the paper's
//! Theorem-3 query structures and the Observation-2.2 dispatch become
//! "algorithmically usable" at scale only when batches of query points
//! can be served continuously — this crate is that service).
//!
//! The design is std-only (no async runtime exists in this workspace):
//!
//! * **Engine ownership.** Every serving session is attached to a
//!   network: `Attach` names one another session `Register`ed under a
//!   server-wide name, and `Bind` ships a network only that session can
//!   reach ([`NamedNetwork::anonymous`](registry::NamedNetwork::anonymous)).
//!   Sessions share **one** [`SnapshotStore`](sinr_core::SnapshotStore)
//!   per (network, backend, epsilon): queries run against the immutable
//!   [`EngineSnapshot`](sinr_core::EngineSnapshot) published for the
//!   current revision, and a `Mutate` publishes a new snapshot that
//!   every attached session observes at its next request while
//!   in-flight batches finish on the old one (RCU — see
//!   [`registry`] and `sinr_core::snapshot`). Memory scales with the
//!   number of *(network, backend)* pairs, not the session count.
//! * **Serving.** [`Server::spawn`] multiplexes every TCP connection
//!   over a fixed worker pool, one worker per available CPU
//!   (nonblocking sockets, a readiness poll loop, one
//!   [`session::SessionCore`] state machine per connection): hundreds
//!   of light clients cost a buffer each, and a few heavy ones keep
//!   every worker busy. [`serve_in_process`] runs the same state
//!   machine over an in-process byte pipe, so behaviour is identical
//!   frame-for-frame.
//!
//! Either way a session accepts an arbitrary interleaving of query and
//! mutation frames, so a mobile-station client streams `Mutate` +
//! `LocateBatch` forever against one engine that is patched
//! incrementally (PR 3's [`NetworkDelta`](sinr_core::NetworkDelta)
//! path) — never rebuilt, never re-shipped.
//!
//! ## Wire protocol
//!
//! Every frame is a little-endian `u32` payload length followed by the
//! payload; payloads at most [`MAX_FRAME_LEN`](transport::MAX_FRAME_LEN)
//! bytes (16 MiB). All integers little-endian; all reals IEEE-754
//! `f64`, little-endian. The first payload byte is the frame tag:
//!
//! | tag | direction | frame | body layout |
//! |-----|-----------|-------|-------------|
//! | `0x01` | → | `Bind` | backend `u8`, epsilon `f64`, noise `f64`, beta `f64`, alpha `f64`, n `u32`, n × (x `f64`, y `f64`, power `f64`) |
//! | `0x02` | → | `LocateBatch` | count `u32`, count × (x `f64`, y `f64`) |
//! | `0x03` | → | `SinrBatch` | station `u32`, count `u32`, count × (x `f64`, y `f64`) |
//! | `0x04` | → | `Mutate` | expected_revision `u64`, op_count `u32`, ops (see below) |
//! | `0x05` | → | `ReceptionProbBatch` | trials `u32`, seed `u64`, channel (see below), count `u32`, count × (x `f64`, y `f64`) |
//! | `0x06` | → | `Register` | name (see below), then the `Bind` network block: noise `f64`, beta `f64`, alpha `f64`, n `u32`, n × (x `f64`, y `f64`, power `f64`) |
//! | `0x07` | → | `Attach` | name (see below), backend `u8`, epsilon `f64` |
//! | `0x08` | → | `SinrQuantilesBatch` | station `u32`, trials `u32`, seed `u64`, channel (see below), q_count `u32`, q_count × `f64`, count `u32`, count × (x `f64`, y `f64`) |
//! | `0x09` | → | `HeatmapBatch` | min_x `f64`, min_y `f64`, max_x `f64`, max_y `f64`, width `u32`, height `u32` |
//! | `0x0A` | → | `Unregister` | name (see below) |
//! | `0x81` | ← | `Bound` | revision `u64`, backend `u8` |
//! | `0x82` | ← | `Located` | revision `u64`, total `u32`, runs × (kind `u8`, station `u32`, len `u32`) |
//! | `0x83` | ← | `Sinrs` | revision `u64`, count `u32`, count × `f64` |
//! | `0x84` | ← | `Mutated` | revision `u64`, applied `u32` |
//! | `0x85` | ← | `ReceptionProbs` | revision `u64`, count `u32`, count × `f64` |
//! | `0x86` | ← | `Registered` | revision `u64` |
//! | `0x87` | ← | `Attached` | revision `u64`, backend `u8` |
//! | `0x88` | ← | `SinrQuantiles` | revision `u64`, quantiles `u32`, count `u32`, count × `f64` (row-major: point-major rows of `quantiles` values; `quantiles` divides count) |
//! | `0x89` | ← | `Heatmap` | revision `u64`, width `u32`, height `u32`, cells_evaluated `u64`, runs × (kind `u8`, station `u32`, len `u32`) |
//! | `0x8A` | ← | `Unregistered` | (empty) |
//! | `0xEE` | ← | `Error` | code `u8`, msg_len `u16`, msg (UTF-8) |
//!
//! **Names** (`Register`/`Attach`/`Unregister`): len `u8` (1–255), len
//! bytes of UTF-8. A name registers a network server-wide until it is
//! `Unregister`ed (refused with code `18` while sessions are attached;
//! sessions that attached before an unregister keep their engine —
//! unregistering unlinks the *name*, it never revokes an attachment);
//! names are exact-match, case-sensitive.
//!
//! **Heatmaps.** `HeatmapBatch` rasterises the session's SINR diagram
//! over the axis-aligned window `[min, max]` at `width × height`
//! pixels, server-side, by the hierarchical (interval-certified
//! quadtree) refinement of `sinr-diagram` — bit-identical to locating
//! every pixel centre, but per-point evaluation is paid only near the
//! zone boundaries, and `cells_evaluated` reports exactly how many
//! pixels paid it. Pixels are `Located` runs in bottom-first row-major
//! order (`cells[row * width + col]`); uncertain pixels are the
//! backend's own `Uncertain` answers, exactly as a `LocateBatch` of the
//! pixel centres would produce. Grids over
//! [`protocol::MAX_HEATMAP_PIXELS`] (or whose `width × height`
//! overflows) are refused with code `1` before any computation; a grid
//! under the pixel cap whose *actual* run-length encoding still cannot
//! fit one frame (9 bytes per run + 25 header — a pathologically
//! fragmented diagram) is refused with code `11` after rasterisation.
//!
//! `Located` responses are run-length encoded (kind `0` = reception,
//! `1` = uncertain, `2` = silent with station `0`; runs must sum to
//! `total`). Surgery ops are the
//! [`SurgeryOp`](sinr_core::SurgeryOp) wire encoding of `sinr-core`:
//! tag `u8` (`0` add: x, y, power as `f64`; `1` remove: id `u32`;
//! `2` move: id `u32`, x, y; `3` set-power: id `u32`, power).
//!
//! **Channel atoms** (`ReceptionProbBatch` body; see
//! [`ChannelModel`](sinr_core::ChannelModel)): tag `u8` — `0`
//! deterministic; `1` log-normal shadowing: sigma_db `f64`; `2`
//! Rayleigh fading; `3` fixed gains: count `u32`, count × `f64`; `4`
//! composed: atom_count `u8`, atoms (no nesting — a `Composed` inside a
//! `Composed` fails decode). The answers are seeded Monte-Carlo
//! reception probabilities, bit-identical on replay of the same
//! `(trials, seed, channel, points)` at the same revision.
//!
//! **Backend ids** (`Bind` byte): `0` `exact_scan`, `1` `simd_scan`,
//! `2` `voronoi_assisted`, `3` `qds` (Theorem 3; uses `epsilon`).
//!
//! **Error codes**: see [`protocol::ErrorCode`] — `1` malformed frame,
//! `2` unknown backend, `3` not bound, `4` already bound, `5` invalid
//! network, `6` backend build, `7` revision mismatch, `8` surgery,
//! `9` station out of range, `10` stale, `11` oversized, `12`
//! unsupported (the session's own `Mutate` left its backend unable to
//! serve; unbinds), `13` internal (closes), `14` channel unsupported
//! (unbinds), `15` invalid channel, `16` name taken, `17` unknown
//! network (on a query: another session's mutation poisoned this
//! session's store; unbinds), `18`
//! still attached (`Unregister` refused), `19` overloaded (shed at
//! accept — nothing was processed; closes). Unless noted, the session
//! survives an error and processes the next frame.
//!
//! **Revision fencing.** Every response carries the network revision it
//! is valid for; `Mutate` carries the revision its ops were computed
//! against and is rejected (`7`) on any mismatch — a delta computed
//! against a foreign or stale revision can never be applied silently.
//!
//! **Pipelining.** The session loop answers every request with exactly
//! one response, in request order (error frames included — an error is
//! that request's response). Clients may therefore keep multiple
//! request frames in flight and match responses to requests purely by
//! order, with no request ids on the wire. Use
//! [`Client::send_locate_batch`]/[`Client::recv_located`] for manual
//! windowing or [`Client::locate_batches_pipelined`] for a fixed
//! frames-in-flight window; answers are bit-identical to the
//! request/response loop (pinned by the e2e differential suite), but
//! the per-burst round-trip gap — during which a request/response
//! server sits idle — overlaps with compute, which is what keeps the
//! engine-side tiled batch executor continuously fed. Blocking
//! clients must bound unanswered request *bytes* to what the
//! transport buffers (the session does not read ahead while
//! computing); the shipped helper enforces
//! [`client::PIPELINE_REQUEST_BUDGET`] and degrades toward lock-step
//! for oversized bursts.
//!
//! ## Resilience
//!
//! The serving layer is hardened against badly-behaved byte streams
//! and clients, and the client half has a reconnect story; every limit
//! is opt-in through [`server::ServerConfig`]:
//!
//! * **Session deadlines** ([`ServerConfig::idle_deadline`],
//!   [`ServerConfig::frame_deadline`]): an idle session is evicted
//!   after `idle_deadline` between frames, and a session that has
//!   *started* a frame must finish it within `frame_deadline` measured
//!   from the frame's first byte — an absolute budget, so a slowloris
//!   client dribbling one byte per read cannot re-arm the clock. The
//!   workers enforce both by sweeping [`PolledIo::partial_in`]
//!   timestamps on their existing poll loop. Eviction closes the
//!   connection without a farewell frame.
//! * **Overload shedding** ([`ServerConfig::max_connections`]): past
//!   the cap, a new connection gets one framed error code `19`
//!   ([`ErrorCode::Overloaded`]) and is closed at accept time — before
//!   any request frame is read, so retrying is always safe. Admission
//!   is first-come: an existing session closing frees a slot.
//! * **Out-queue cap** ([`ServerConfig::max_pending_out`]): a
//!   session whose peer stops reading its answers is disconnected once
//!   the queued response bytes exceed the cap, instead of buffering
//!   without bound.
//! * **Fault injection** ([`chaos::ChaosStream`]): a seeded,
//!   deterministic `Read + Write` wrapper that chops reads/writes at
//!   arbitrary byte boundaries, injects `WouldBlock` and delays, and
//!   cuts the connection mid-frame after a byte budget — one `u64`
//!   seed replays one exact fault schedule. The chaos e2e suite runs
//!   fleets of chaotic clients against the server and pins
//!   every completed answer bit-identical to a fresh local engine.
//! * **Reconnecting client** ([`resilient::ResilientClient`]):
//!   reconnects with exponential backoff plus deterministic jitter,
//!   restores the session mode (re-`Attach`, or re-`Bind` from a
//!   client-side mirror network), and replays failed calls. Queries
//!   replay freely (idempotent — even the Monte-Carlo frames, which
//!   carry their own seeds); a replayed `Mutate` keeps its original
//!   `expected_revision` fence, so an original that secretly applied
//!   makes the replay fail typed (`7`) instead of applying twice.
//!   `Overloaded` (`19`) is retried like a transport failure.
//!
//! [`ServerConfig::idle_deadline`]: server::ServerConfig::idle_deadline
//! [`ServerConfig::frame_deadline`]: server::ServerConfig::frame_deadline
//! [`ServerConfig::max_connections`]: server::ServerConfig::max_connections
//! [`ServerConfig::max_pending_out`]: server::ServerConfig::max_pending_out
//! [`PolledIo::partial_in`]: transport::PolledIo::partial_in
//!
//! ## Quickstart
//!
//! ```
//! use sinr_core::{Network, StationId, SurgeryOp};
//! use sinr_geometry::Point;
//! use sinr_server::{serve_in_process, BackendId};
//!
//! let net = Network::uniform(
//!     vec![Point::new(0.0, 0.0), Point::new(6.0, 0.0)],
//!     0.0,
//!     2.0,
//! ).unwrap();
//!
//! // In-process session (swap for `Client::connect(addr)` + `Server::bind`
//! // over TCP — same frames either way).
//! let mut client = serve_in_process();
//! let revision = client.bind_network(BackendId::SimdScan, 0.0, &net).unwrap();
//!
//! // Stream a query batch…
//! let (rev, answers) = client
//!     .locate_batch(&[Point::new(0.5, 0.0), Point::new(3.0, 0.0)])
//!     .unwrap();
//! assert_eq!(rev, revision);
//! assert_eq!(answers[0].station(), Some(StationId(0)));
//!
//! // …then mutate in place (revision-fenced) and keep querying: the
//! // server patches its engine with the emitted deltas, no rebuilds.
//! let rev = client
//!     .mutate(rev, &[SurgeryOp::Move { id: StationId(1), to: Point::new(2.0, 0.0) }])
//!     .unwrap();
//! let (rev2, _) = client.locate_batch(&[Point::new(0.5, 0.0)]).unwrap();
//! assert_eq!(rev2, rev);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod chaos;
pub mod client;
pub mod protocol;
pub mod registry;
pub mod resilient;
pub mod server;
pub mod session;
pub mod transport;

pub use chaos::{ChaosConfig, ChaosRng, ChaosStream, ChaosTransport, CutKind};
pub use client::{serve_in_process, Client, ClientError, PIPELINE_REQUEST_BUDGET};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, BackendId, ErrorCode,
    NetworkSpec, ProtocolError, Request, Response,
};
pub use registry::{AttachGuard, AttachHandle, NamedNetwork, NetworkRegistry, UnregisterError};
pub use resilient::{ResilientClient, RetryPolicy};
pub use server::{Server, ServerConfig, ServerHandle};
pub use session::{serve_session, SessionCore};
pub use transport::{
    duplex_stream, IoTransport, PipeStream, PolledIo, RecvError, TcpTransport, Transport,
};
