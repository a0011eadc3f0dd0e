//! # sinr-diagrams
//!
//! A comprehensive Rust implementation of
//!
//! > **SINR Diagrams: Towards Algorithmically Usable SINR Models of
//! > Wireless Networks.** Chen Avin, Yuval Emek, Erez Kantor, Zvi Lotker,
//! > David Peleg, Liam Roditty. PODC 2009.
//!
//! This umbrella crate re-exports the component crates of the workspace:
//!
//! * [`geometry`] — planar computational-geometry kernel;
//! * [`algebra`] — polynomials and Sturm-sequence root counting;
//! * [`core`] — the SINR model: networks, reception zones, convexity and
//!   fatness machinery (Theorems 1, 2, 4.1, 4.2), and the batched
//!   [`QueryEngine`](prelude::QueryEngine) with its SoA
//!   [`SinrEvaluator`](prelude::SinrEvaluator), the explicitly
//!   vectorized [`SimdScan`](prelude::SimdScan) backend (runtime AVX2
//!   detection, portable fallback), a std-only work-stealing batch
//!   scheduler, and epoch-versioned dynamic networks whose in-place
//!   surgery emits [`NetworkDelta`](prelude::NetworkDelta)s that every
//!   engine applies incrementally (stale engines refuse to answer);
//! * [`graphs`] — graph-based models (UDG, disk graphs, Quasi-UDG,
//!   protocol model) and SINR-vs-graph comparisons;
//! * [`voronoi`] — Voronoi diagrams and nearest-neighbour search
//!   (Observation 2.2, query dispatch of Theorem 3);
//! * [`pointloc`] — the approximate point-location data structure of
//!   Theorem 3 (Section 5);
//! * [`diagram`] — rasterised reception maps and the paper's figures;
//! * [`server`] — the streaming batched-query server: a length-prefixed
//!   binary protocol over TCP (std-only, one fixed worker pool) whose
//!   sessions bind a network plus any backend
//!   ([`BackendId`](prelude::BackendId)) and then interleave
//!   `LocateBatch` / `SinrBatch` / `ReceptionProbBatch` (seeded
//!   Monte-Carlo reception probability under a stochastic
//!   [`ChannelModel`](prelude::ChannelModel)) / `Mutate` frames —
//!   dynamic updates
//!   stream through the same [`NetworkDelta`](prelude::NetworkDelta)
//!   machinery, revision-fenced, with no engine rebuilds (see the
//!   [`server`] crate docs for the full frame-layout table, backend ids
//!   and error codes, and `examples/query_server.rs` /
//!   `examples/query_client.rs` for the runnable pair).
//!
//! ## Quickstart
//!
//! ```
//! use sinr_diagrams::prelude::*;
//!
//! // Three uniform-power stations (Figure 1(A) of the paper).
//! let network = Network::builder()
//!     .station(Point::new(-2.0, -1.0))
//!     .station(Point::new(2.5, -1.5))
//!     .station(Point::new(0.5, 2.0))
//!     .background_noise(0.05)
//!     .threshold(1.5)
//!     .build()
//!     .unwrap();
//!
//! // One scalar question: who does a receiver at p hear?
//! let p = Point::new(1.8, -1.0);
//! let heard = network.heard_at(p);
//! assert!(heard.is_some() || heard.is_none()); // depends on geometry
//!
//! // Production-shaped question: many receivers, one network. Build a
//! // query engine once (SoA layout + Observation 2.2 kd-tree dispatch)
//! // and answer the whole batch in one work-stolen parallel pass.
//! let engine = network.query_engine();
//! let receivers: Vec<Point> = (0..1000)
//!     .map(|k| Point::new((k % 50) as f64 * 0.2 - 5.0, (k / 50) as f64 * 0.5 - 5.0))
//!     .collect();
//! let mut answers = vec![Located::Silent; receivers.len()];
//! engine.locate_batch(&receivers, &mut answers);
//! for (q, a) in receivers.iter().zip(&answers) {
//!     assert_eq!(a.station(), network.heard_at(*q)); // engine ≡ ground truth
//! }
//!
//! // Served over the wire: the same batches through a streaming session
//! // (in-process here; `Server::bind` + `Client::connect` for real TCP).
//! let mut client = sinr_diagrams::server::serve_in_process();
//! client.bind_network(BackendId::SimdScan, 0.0, &network).unwrap();
//! let (_, served) = client.locate_batch(&receivers).unwrap();
//! assert_eq!(served.len(), receivers.len());
//! ```

pub use sinr_algebra as algebra;
pub use sinr_core as core;
pub use sinr_diagram as diagram;
pub use sinr_geometry as geometry;
pub use sinr_graphs as graphs;
pub use sinr_pointloc as pointloc;
pub use sinr_server as server;
pub use sinr_voronoi as voronoi;

/// Convenient glob-import surface: the most commonly used types from every
/// component crate.
pub mod prelude {
    pub use sinr_algebra::{BiPoly, Poly, SturmChain};
    pub use sinr_core::{
        BoxedEngine, ChannelError, ChannelModel, DeltaOp, ExactScan, LocateError, Located,
        McConfig, Network, NetworkBuilder, NetworkDelta, PowerAssignment, QueryEngine,
        ReceptionZone, SimdKernel, SimdScan, SinrEvaluator, Station, StationId, StationKey,
        SurgeryOp, SyncError, VoronoiAssisted,
    };
    pub use sinr_diagram::{Raster, ReceptionMap};
    pub use sinr_geometry::{BBox, Ball, Grid, Line, Point, Segment, Vector};
    pub use sinr_graphs::UnitDiskGraph;
    pub use sinr_pointloc::PointLocator;
    pub use sinr_server::{BackendId, Client, Server};
    pub use sinr_voronoi::{KdTree, VoronoiDiagram};
}
