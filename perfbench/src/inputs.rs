//! Seeded workload inputs: the networks, the pre-encoded request frames
//! each connection sends, and the reference answers computed on local
//! engines before any clock starts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sinr_core::{BoxedEngine, Located, Network, QueryEngine, StationId, SurgeryOp};
use sinr_diagram::raster::locate_raster;
use sinr_geometry::{BBox, Point};
use sinr_server::{encode_request, BackendId, NetworkSpec, Request};

/// Stations in every workload network.
const STATIONS: usize = 4096;
/// Stations lie uniformly in `[-HALF, HALF]²`: about one station per
/// 4 unit², so a half-width-6 window covers a few dozen zones.
const HALF: f64 = 64.0;
/// Background noise and reception threshold of every network.
const NOISE: f64 = 0.01;
const BETA: f64 = 2.0;
/// Clustered power: one macro station of this power per `MACRO_EVERY`
/// stations, the rest uniform in `0.5..1.5` (the engine bench's
/// non-uniform scenario).
const MACRO_EVERY: usize = 64;
const MACRO_POWER: f64 = 8.0;

/// Hotspot patches: `PATCH_POINTS` points uniform in a disc of radius
/// `PATCH_RADIUS` around a uniformly placed centre.
const PATCH_POINTS: usize = 256;
const PATCH_RADIUS: f64 = 1.0;
/// `locate_stream` frames: 32 patches, 8192 points — above the engine's
/// parallel threshold (2048), so every frame takes the tiled executor.
const STREAM_PATCHES: usize = 32;
/// Distinct frames each `locate_stream` connection cycles through; the
/// cost of one frame depends on where its patches land, so a run
/// averages over this many.
const STREAM_POOL: usize = 32;
/// `mobile_churn` timesteps: 16 moves plus a 4-patch (1024-point) batch,
/// below the parallel threshold.
const CHURN_MOVES: usize = 16;
const CHURN_PATCHES: usize = 4;
const CHURN_POOL: usize = 64;
/// Timesteps generated per connection per second of measurement: several
/// times the measured rate, so the sequence never runs out.
const CHURN_STEPS_PER_SECOND: usize = 800;
/// `coverage_map` grids and windows.
pub const MAP_PIXELS: u32 = 1024;
const MAP_HALF_WIDTH: f64 = 6.0;
/// Stations inside every window: the mean count is 36.
const MAP_STATIONS: std::ops::RangeInclusive<usize> = 34..=38;
/// Distinct windows one run cycles through: map cost depends on how
/// many zone boundaries a window cuts, and `query_p90_ms` reads the
/// heaviest tenth of them, so a run samples many.
const MAP_POOL: usize = 40;
/// Name the shared network is registered under.
pub const NET_NAME: &str = "bench";
/// Backend every session uses: nearest-station (or power-diagram)
/// dispatch, Observation 2.2.
pub const BACKEND: BackendId = BackendId::VoronoiAssisted;

/// The workloads, named as on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LocateStream,
    MobileChurn,
    CoverageMap,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "locate_stream" => Some(Workload::LocateStream),
            "mobile_churn" => Some(Workload::MobileChurn),
            "coverage_map" => Some(Workload::CoverageMap),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LocateStream => "locate_stream",
            Workload::MobileChurn => "mobile_churn",
            Workload::CoverageMap => "coverage_map",
        }
    }
}

/// One query frame of a connection's cyclic pool.
pub struct Query {
    pub payload: Vec<u8>,
    pub kind: QueryKind,
    /// Digest of the reference answer, when the answer does not depend
    /// on earlier mutations (every workload but `mobile_churn`).
    pub expected: Option<u64>,
}

pub enum QueryKind {
    Locate(Vec<Point>),
    Heatmap(BBox),
}

/// One `mobile_churn` timestep's mutation.
pub struct Step {
    pub payload: Vec<u8>,
    pub ops: Vec<SurgeryOp>,
}

/// What one connection sends.
pub struct ConnPlan {
    /// Frames sent once, in order, before any query (`Register`,
    /// `Attach`, `Bind`).
    pub setup: Vec<Vec<u8>>,
    /// Query frames, cycled: op `k` sends `queries[k % len]`.
    pub queries: Vec<Query>,
    /// Mutations, one per op, sent just before the op's query; empty
    /// for read-only connections. Op `k` exists only while `k < len`.
    pub steps: Vec<Step>,
    /// True when the connection `Bind`s a private network rather than
    /// attaching to the registered one.
    pub private: bool,
    /// Revision the connection's network has after `steps[..k]`, for
    /// every `k` up to and including `steps.len()`: step `k` is fenced
    /// at `revisions[k]` and answered at `revisions[k + 1]`.
    pub revisions: Vec<u64>,
}

impl ConnPlan {
    /// The op count this connection can run, if bounded.
    pub fn op_limit(&self) -> Option<usize> {
        (!self.steps.is_empty()).then_some(self.steps.len())
    }

    pub fn query(&self, op: usize) -> &Query {
        &self.queries[op % self.queries.len()]
    }
}

/// Everything a run sends and checks, derived from the seed alone.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// The network every connection starts from, as the server builds it.
    pub net: Network,
    pub conns: Vec<ConnPlan>,
    /// Layer probes for op kinds the workload itself never sends (see
    /// `layers`): a short mutation sequence, a locate batch and a window.
    pub probe_steps: Vec<Vec<SurgeryOp>>,
    pub probe_points: Vec<Point>,
    pub probe_window: BBox,
}

/// Splits one seed into independent streams.
fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn uniform_positions(rng: &mut StdRng) -> Vec<Point> {
    (0..STATIONS)
        .map(|_| Point::new(rng.gen_range(-HALF..HALF), rng.gen_range(-HALF..HALF)))
        .collect()
}

/// The uniform-power network of `locate_stream` and `coverage_map`.
fn uniform_network(seed: u64) -> Network {
    Network::uniform(uniform_positions(&mut rng(seed, 1)), NOISE, BETA)
        .expect("uniform network is valid")
}

/// The clustered-power network of `mobile_churn`.
fn clustered_network(seed: u64) -> Network {
    let mut r = rng(seed, 1);
    let positions = uniform_positions(&mut r);
    let mut b = Network::builder()
        .background_noise(NOISE)
        .threshold(BETA)
        .path_loss(2.0);
    for (k, p) in positions.into_iter().enumerate() {
        let power = if k % MACRO_EVERY == 0 {
            MACRO_POWER
        } else {
            r.gen_range(0.5..1.5)
        };
        b = b.station_with_power(p, power);
    }
    b.build().expect("clustered network is valid")
}

fn hotspots(rng: &mut StdRng, patches: usize) -> Vec<Point> {
    let mut points = Vec::with_capacity(patches * PATCH_POINTS);
    for _ in 0..patches {
        let c = Point::new(rng.gen_range(-HALF..HALF), rng.gen_range(-HALF..HALF));
        for _ in 0..PATCH_POINTS {
            let r = PATCH_RADIUS * rng.gen_range(0.0..1.0f64).sqrt();
            let t = rng.gen_range(0.0..std::f64::consts::TAU);
            points.push(Point::new(c.x + r * t.cos(), c.y + r * t.sin()));
        }
    }
    points
}

/// A window holding `MAP_STATIONS` stations. Map cost grows with the
/// zones a window covers, and `query_p90_ms` reads the heaviest windows,
/// so windows of equal station count keep it from hanging on a few
/// crowded ones.
fn window(rng: &mut StdRng, net: &Network) -> BBox {
    let lim = HALF - MAP_HALF_WIDTH;
    loop {
        let c = Point::new(rng.gen_range(-lim..lim), rng.gen_range(-lim..lim));
        let w = BBox::new(
            Point::new(c.x - MAP_HALF_WIDTH, c.y - MAP_HALF_WIDTH),
            Point::new(c.x + MAP_HALF_WIDTH, c.y + MAP_HALF_WIDTH),
        );
        let inside = net.positions().iter().filter(|p| w.contains(**p)).count();
        if MAP_STATIONS.contains(&inside) {
            return w;
        }
    }
}

fn moves(rng: &mut StdRng, stations: usize) -> Vec<SurgeryOp> {
    (0..CHURN_MOVES)
        .map(|_| SurgeryOp::Move {
            id: StationId(rng.gen_range(0..stations)),
            to: Point::new(rng.gen_range(-HALF..HALF), rng.gen_range(-HALF..HALF)),
        })
        .collect()
}

/// FNV-1a over the run-length encoding of a located answer sequence:
/// the digest every response is reduced to and compared by. Hashing
/// runs rather than answers keeps a megapixel map to about a
/// millisecond.
pub fn digest(answers: &[Located]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for run in answers.chunk_by(|a, b| a == b) {
        let (kind, id) = match run[0] {
            Located::Reception(i) => (0u8, i.0 as u32),
            Located::Uncertain(i) => (1, i.0 as u32),
            Located::Silent => (2, 0),
        };
        eat(&[kind]);
        eat(&id.to_le_bytes());
        eat(&(run.len() as u64).to_le_bytes());
    }
    h
}

/// The reference answer of a locate batch on a fresh local engine.
pub fn locate_digest(engine: &BoxedEngine, points: &[Point]) -> u64 {
    let mut out = vec![Located::Silent; points.len()];
    engine.locate_batch(points, &mut out);
    digest(&out)
}

/// The reference answer of a heatmap: every pixel centre located on a
/// fresh local engine, with uncertain pixels reported silent as the
/// server's raster does.
fn heatmap_digest(engine: &BoxedEngine, window: BBox) -> u64 {
    let raster = locate_raster(engine, window, MAP_PIXELS as usize, MAP_PIXELS as usize);
    let mut cells = Vec::with_capacity((MAP_PIXELS * MAP_PIXELS) as usize);
    for row in 0..MAP_PIXELS as usize {
        for col in 0..MAP_PIXELS as usize {
            cells.push(match raster.at(col, row) {
                Located::Reception(i) => Located::Reception(i),
                Located::Uncertain(_) | Located::Silent => Located::Silent,
            });
        }
    }
    digest(&cells)
}

fn locate_query(engine: &BoxedEngine, points: Vec<Point>, reference: bool) -> Query {
    Query {
        payload: encode_request(&Request::LocateBatch {
            points: points.clone(),
        }),
        expected: reference.then(|| locate_digest(engine, &points)),
        kind: QueryKind::Locate(points),
    }
}

fn register(net: &Network) -> Vec<u8> {
    encode_request(&Request::Register {
        name: NET_NAME.to_owned(),
        network: NetworkSpec::of(net),
    })
}

fn attach() -> Vec<u8> {
    encode_request(&Request::Attach {
        name: NET_NAME.to_owned(),
        backend: BACKEND,
        epsilon: 0.0,
    })
}

/// Builds a run's plan. `seconds` is the total measured time, which
/// sizes the non-cyclic mutation sequences.
pub fn plan(workload: Workload, seed: u64, seconds: f64) -> Plan {
    let generated = match workload {
        Workload::MobileChurn => clustered_network(seed),
        _ => uniform_network(seed),
    };
    // Exactly the network the server builds from the wire spec, so local
    // revisions and answers match the server's.
    let net = NetworkSpec::of(&generated)
        .build()
        .expect("spec of a valid network builds");
    let engine = BoxedEngine::voronoi_assisted(&net);
    let conns = match workload {
        Workload::LocateStream => (0..2u64)
            .map(|c| {
                let mut r = rng(seed, 10 + c);
                let queries = (0..STREAM_POOL)
                    .map(|_| locate_query(&engine, hotspots(&mut r, STREAM_PATCHES), true))
                    .collect();
                let setup = if c == 0 {
                    vec![register(&net), attach()]
                } else {
                    vec![attach()]
                };
                ConnPlan {
                    setup,
                    queries,
                    steps: Vec::new(),
                    private: false,
                    revisions: Vec::new(),
                }
            })
            .collect(),
        Workload::MobileChurn => (0..2u64)
            .map(|c| {
                let mut r = rng(seed, 20 + c);
                let queries = (0..CHURN_POOL)
                    .map(|_| locate_query(&engine, hotspots(&mut r, CHURN_PATCHES), false))
                    .collect();
                let n_steps = (CHURN_STEPS_PER_SECOND as f64 * seconds).ceil() as usize + 64;
                let mut mirror = net.clone();
                let mut revisions = vec![mirror.revision()];
                let steps = (0..n_steps)
                    .map(|_| {
                        let ops = moves(&mut r, STATIONS);
                        let fence = mirror.revision();
                        mirror.apply_ops(&ops).expect("moves are valid surgery");
                        revisions.push(mirror.revision());
                        Step {
                            payload: encode_request(&Request::Mutate {
                                expected_revision: fence,
                                ops: ops.clone(),
                            }),
                            ops,
                        }
                    })
                    .collect();
                // Connection 0 mutates the registered network through the
                // shared snapshot store; connection 1 owns a private copy.
                let setup = if c == 0 {
                    vec![register(&net), attach()]
                } else {
                    vec![encode_request(&Request::Bind {
                        backend: BACKEND,
                        epsilon: 0.0,
                        network: NetworkSpec::of(&net),
                    })]
                };
                ConnPlan {
                    setup,
                    queries,
                    steps,
                    private: c == 1,
                    revisions,
                }
            })
            .collect(),
        Workload::CoverageMap => {
            let mut r = rng(seed, 30);
            let queries = (0..MAP_POOL)
                .map(|_| {
                    let w = window(&mut r, &net);
                    Query {
                        payload: encode_request(&Request::HeatmapBatch {
                            min: w.min,
                            max: w.max,
                            width: MAP_PIXELS,
                            height: MAP_PIXELS,
                        }),
                        expected: Some(heatmap_digest(&engine, w)),
                        kind: QueryKind::Heatmap(w),
                    }
                })
                .collect();
            vec![ConnPlan {
                setup: vec![register(&net), attach()],
                queries,
                steps: Vec::new(),
                private: false,
                revisions: Vec::new(),
            }]
        }
    };
    let mut r = rng(seed, 40);
    Plan {
        workload,
        seed,
        conns,
        probe_steps: (0..16).map(|_| moves(&mut r, STATIONS)).collect(),
        probe_points: hotspots(&mut r, STREAM_PATCHES),
        probe_window: window(&mut r, &net),
        net,
    }
}
