//! The traced run's in-process replay: the workload's seeded op
//! sequence fed again through each layer's public functions, each call
//! timed from outside.
//!
//! Every connection replays its ops from the first one, so mutations
//! arrive at the revisions they were fenced at. Each frame goes once
//! through a `SessionCore` (what the server runs per frame) and once
//! through the layer calls that session composes, on separate state
//! kept at the same revision: `decode_request`, the engine, registry or
//! quadtree call, and `encode_response`. A layer the workload never
//! calls is timed on the plan's probe (see `Plan::probe_*`) against the
//! workload's own network, so every per-layer figure exists on every
//! workload: on a control workload a layer change should move the probe
//! figure but none of the end-to-end metrics.
//!
//! The whole replay runs `PASSES` times from fresh state, and every
//! frame keeps its fastest time of each call. Interference only ever
//! slows a call down, so the minimum is the steadiest estimate, and
//! differences of minima (`session.self`, `transport.residual`) stay
//! small and stable where differences of single timings drown in noise.

use crate::inputs::{Plan, QueryKind, BACKEND, MAP_PIXELS, NET_NAME};
use crate::Metric;
use sinr_core::engine::VoronoiAssisted;
use sinr_core::tile::{self, Select, TileConfig, TileStats};
use sinr_core::{BoxedEngine, Located, Network, QueryEngine, SnapshotStore, SurgeryOp};
use sinr_diagram::quadtree::{hierarchical_map, HierarchicalStats};
use sinr_geometry::{BBox, Point};
use sinr_server::{
    decode_request, decode_response, encode_response, AttachHandle, NetworkRegistry, NetworkSpec,
    Response, SessionCore,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time of the first pass per connection; at least `MIN_REPLAY_OPS`
/// ops replay, and later passes replay the same ops.
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);
const MIN_REPLAY_OPS: usize = 4;
const PASSES: usize = 3;
/// Repeats of the engine build and attach timings (the median is
/// reported).
const BUILD_REPEATS: usize = 5;

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// State the layer calls run against, kept at the same revision as one
/// replayed session.
struct World {
    /// A registered network with one attached store, for
    /// `NamedNetwork::mutate`.
    attached: AttachHandle,
    /// The private-session path: a network and an engine patched by
    /// `Network::apply_ops` plus `QueryEngine::apply`.
    net: Network,
    engine: BoxedEngine,
    /// A snapshot store following `net`, for `SnapshotStore::advance`;
    /// its published engine answers the locate and heatmap calls.
    store: SnapshotStore,
}

impl World {
    fn new(net: &Network) -> World {
        let spec = NetworkSpec::of(net);
        let registry = NetworkRegistry::new();
        registry.register(NET_NAME, &spec).expect("register");
        let attached = registry.attach(NET_NAME, BACKEND, 0.0).expect("attach");
        let net = spec.build().expect("network");
        World {
            attached,
            engine: BoxedEngine::voronoi_assisted(&net),
            store: SnapshotStore::new(&net, BoxedEngine::voronoi_assisted(&net)),
            net,
        }
    }
}

/// One frame's call times in µs; a probe frame has only layer times.
#[derive(Debug, Clone, Copy, Default)]
struct Times {
    handle: f64,
    decode: f64,
    encode: f64,
    /// The layer call the session composes (one of the three below, or
    /// `locate`/`map`).
    layer: f64,
    apply: f64,
    advance: f64,
    mutate: f64,
    locate: f64,
    map: f64,
}

impl Times {
    fn min(self, o: Times) -> Times {
        Times {
            handle: self.handle.min(o.handle),
            decode: self.decode.min(o.decode),
            encode: self.encode.min(o.encode),
            layer: self.layer.min(o.layer),
            apply: self.apply.min(o.apply),
            advance: self.advance.min(o.advance),
            mutate: self.mutate.min(o.mutate),
            locate: self.locate.min(o.locate),
            map: self.map.min(o.map),
        }
    }
}

enum Kind {
    Mutate,
    Locate { points: usize },
    Map,
}

struct Frame {
    kind: Kind,
    /// False for a probe frame, which only ran the layer call.
    session: bool,
    request_bytes: usize,
    response_bytes: usize,
    times: Times,
}

/// Work counts from the first pass.
#[derive(Default)]
struct Work {
    tiles: TileStats,
    map: HierarchicalStats,
}

/// `Network::apply_ops` + `QueryEngine::apply`, `SnapshotStore::advance`
/// and `NamedNetwork::mutate` for one timestep; `layer` is the path a
/// session on the given side takes.
fn mutate(w: &mut World, fence: u64, ops: &[SurgeryOp], private: bool) -> Times {
    let (deltas, apply) = time(|| {
        let deltas = w.net.apply_ops(ops).expect("replayed surgery applies");
        for d in &deltas {
            w.engine.apply(d).expect("engine follows its network");
        }
        deltas
    });
    let (advanced, advance) = time(|| w.store.advance(&w.net, &deltas));
    advanced.expect("store follows its network");
    let (mutated, mutate) = time(|| w.attached.network.mutate(fence, ops));
    mutated.expect("registry mutation applies");
    Times {
        layer: if private { apply } else { mutate },
        apply,
        advance,
        mutate,
        ..Times::default()
    }
}

/// The snapshot engine's `locate_batch`, plus `TileStats` from
/// `locate_batch_tiled` when the engine takes the tiled path.
fn locate(w: &World, points: &[Point], counts: Option<&mut Work>) -> Times {
    let snapshot = w.store.load().expect("store is healthy");
    let mut out = vec![Located::Silent; points.len()];
    let ((), us) = time(|| snapshot.engine().locate_batch(points, &mut out));
    let cfg = TileConfig::default();
    if let Some(counts) = counts.filter(|_| cfg.engages(points.len(), w.net.len())) {
        let va = VoronoiAssisted::new(&w.net);
        let eval = va.evaluator();
        let select = if eval.is_uniform_power() {
            Select::Nearest
        } else {
            Select::MaxEnergy
        };
        let mut tiled = vec![Located::Silent; points.len()];
        let s =
            tile::locate_batch_tiled(eval, va.kernel(), select, points, &mut tiled, &cfg, |p| {
                va.locate(p)
            });
        assert_eq!(tiled, out, "tiled replay diverged from the engine");
        let t = &mut counts.tiles;
        t.points += s.points;
        t.tiles += s.tiles;
        t.pruned_tiles += s.pruned_tiles;
        t.candidate_stations += s.candidate_stations;
        t.fallback_points += s.fallback_points;
    }
    Times {
        layer: us,
        locate: us,
        ..Times::default()
    }
}

/// `quadtree::hierarchical_map` on the snapshot engine.
fn heatmap(w: &World, window: BBox, counts: Option<&mut Work>) -> Times {
    let snapshot = w.store.load().expect("store is healthy");
    let px = MAP_PIXELS as usize;
    let ((_, stats), us) = time(|| hierarchical_map(snapshot.engine(), window, px, px));
    if let Some(c) = counts {
        c.map.pixels += stats.pixels;
        c.map.cells_evaluated += stats.cells_evaluated;
        c.map.point_certified += stats.point_certified;
    }
    Times {
        layer: us,
        map: us,
        ..Times::default()
    }
}

/// One request frame through the session and through its layers.
fn frame(
    session: &mut SessionCore,
    payload: &[u8],
    kind: Kind,
    layer: impl FnOnce() -> Times,
) -> Frame {
    let ((response, _), handle) = time(|| session.handle_payload(payload));
    let (request, decode) = time(|| decode_request(payload));
    request.expect("replayed request decodes");
    let decoded = decode_response(&response).expect("session response decodes");
    assert!(
        !matches!(decoded, Response::Error { .. }),
        "replayed frame failed: {decoded:?}"
    );
    let (_, encode) = time(|| encode_response(&decoded));
    Frame {
        kind,
        session: true,
        request_bytes: payload.len(),
        response_bytes: response.len(),
        times: Times {
            handle,
            decode,
            encode,
            ..layer()
        },
    }
}

fn probe(kind: Kind, times: Times) -> Frame {
    Frame {
        kind,
        session: false,
        request_bytes: 0,
        response_bytes: 0,
        times,
    }
}

/// One replay from fresh state. `ops[c]` is how many ops connection `c`
/// replays; `None` entries are sized by `REPLAY_BUDGET` and filled in.
fn pass(plan: &Plan, ops: &mut [Option<usize>], mut counts: Option<&mut Work>) -> Vec<Frame> {
    let registry = Arc::new(NetworkRegistry::new());
    let mut sessions: Vec<SessionCore> = plan
        .conns
        .iter()
        .map(|cp| {
            let mut s = SessionCore::new(Arc::clone(&registry));
            for f in &cp.setup {
                s.handle_payload(f);
            }
            s
        })
        .collect();
    let mut frames = Vec::new();
    for ((cp, session), count) in plan.conns.iter().zip(&mut sessions).zip(ops.iter_mut()) {
        let mut w = World::new(&plan.net);
        let start = Instant::now();
        let mut op = 0;
        while match *count {
            Some(n) => op < n,
            None => {
                cp.op_limit().is_none_or(|limit| op < limit)
                    && (op < MIN_REPLAY_OPS || start.elapsed() < REPLAY_BUDGET)
            }
        } {
            if let Some(step) = cp.steps.get(op) {
                let fence = cp.revisions[op];
                frames.push(frame(session, &step.payload, Kind::Mutate, || {
                    mutate(&mut w, fence, &step.ops, cp.private)
                }));
            }
            let query = cp.query(op);
            frames.push(match &query.kind {
                QueryKind::Locate(points) => {
                    let kind = Kind::Locate {
                        points: points.len(),
                    };
                    frame(session, &query.payload, kind, || {
                        locate(&w, points, counts.as_deref_mut())
                    })
                }
                QueryKind::Heatmap(window) => frame(session, &query.payload, Kind::Map, || {
                    heatmap(&w, *window, counts.as_deref_mut())
                }),
            });
            op += 1;
        }
        *count = Some(op);
    }

    // Probes for the layers this workload never calls.
    let has = |f: fn(&Kind) -> bool| frames.iter().any(|fr| f(&fr.kind));
    let (mutates, locates, maps) = (
        has(|k| matches!(k, Kind::Mutate)),
        has(|k| matches!(k, Kind::Locate { .. })),
        has(|k| matches!(k, Kind::Map)),
    );
    let mut w = World::new(&plan.net);
    if !mutates {
        for ops in &plan.probe_steps {
            let fence = w.net.revision();
            frames.push(probe(Kind::Mutate, mutate(&mut w, fence, ops, false)));
        }
    }
    if !locates {
        let points = plan.probe_points.len();
        let t = locate(&w, &plan.probe_points, counts.as_deref_mut());
        frames.push(probe(Kind::Locate { points }, t));
    }
    if !maps {
        let t = heatmap(&w, plan.probe_window, counts);
        frames.push(probe(Kind::Map, t));
    }
    frames
}

/// The replay's per-layer metrics, and the mean session time per op
/// (which `transport.residual_us_per_op` subtracts from the round trip).
pub struct Replay {
    pub metrics: Vec<Metric>,
    pub handle_us_per_op: f64,
}

pub fn replay(plan: &Plan) -> Replay {
    let mut ops = vec![None; plan.conns.len()];
    let mut counts = Work::default();
    let mut frames = pass(plan, &mut ops, Some(&mut counts));
    for _ in 1..PASSES {
        for (f, again) in frames.iter_mut().zip(pass(plan, &mut ops, None)) {
            f.times = f.times.min(again.times);
        }
    }
    let replayed_ops: usize = ops.iter().flatten().sum();

    let build_ms = median(
        (0..BUILD_REPEATS)
            .map(|_| time(|| BoxedEngine::voronoi_assisted(&plan.net)).1 / 1e3)
            .collect(),
    );
    let attach_ms = median(
        (0..BUILD_REPEATS)
            .map(|_| {
                let registry = NetworkRegistry::new();
                registry
                    .register(NET_NAME, &NetworkSpec::of(&plan.net))
                    .expect("register");
                let (handle, us) = time(|| registry.attach(NET_NAME, BACKEND, 0.0));
                handle.expect("attach");
                us / 1e3
            })
            .collect(),
    );

    // Means over the frames of one kind (`per`: how each frame counts).
    let mean = |keep: fn(&Frame) -> bool, value: fn(&Frame) -> f64, per: fn(&Frame) -> f64| {
        let (sum, n) = frames
            .iter()
            .filter(|f| keep(f))
            .fold((0.0, 0.0), |(s, n), f| (s + value(f), n + per(f)));
        sum / n
    };
    let one = |_: &Frame| 1.0;
    let session = |f: &Frame| f.session;
    let mutates = |f: &Frame| matches!(f.kind, Kind::Mutate);
    let locates = |f: &Frame| matches!(f.kind, Kind::Locate { .. });
    let maps = |f: &Frame| matches!(f.kind, Kind::Map);
    let t = &counts.tiles;
    let locate_ops = frames.iter().filter(|f| locates(f)).count() as f64;
    let m = Metric::new;
    let metrics = vec![
        m(
            "engine.locate_ns_per_point",
            1e3 * mean(
                locates,
                |f| f.times.locate,
                |f| match f.kind {
                    Kind::Locate { points } => points as f64,
                    _ => 0.0,
                },
            ),
            "ns",
        ),
        m(
            "tile.mean_candidates",
            t.mean_candidates().unwrap_or(0.0),
            "count",
        ),
        m(
            "tile.fallback_fraction",
            t.fallback_points as f64 / t.points.max(1) as f64,
            "fraction",
        ),
        m("tile.tiles_per_op", t.tiles as f64 / locate_ops, "count"),
        m(
            "quadtree.map_ms_per_op",
            mean(maps, |f| f.times.map, one) / 1e3,
            "ms",
        ),
        m(
            "quadtree.cells_evaluated_fraction",
            counts.map.fraction(),
            "fraction",
        ),
        m(
            "quadtree.point_certified_fraction",
            counts.map.point_certified as f64 / counts.map.cells_evaluated.max(1) as f64,
            "fraction",
        ),
        m(
            "registry.mutate_us_per_op",
            mean(mutates, |f| f.times.mutate, one),
            "us",
        ),
        m(
            "snapshot.advance_us_per_op",
            mean(mutates, |f| f.times.advance, one),
            "us",
        ),
        m(
            "engine.apply_us_per_op",
            mean(mutates, |f| f.times.apply, one),
            "us",
        ),
        m("registry.attach_ms", attach_ms, "ms"),
        m("engine.build_ms", build_ms, "ms"),
        m(
            "protocol.decode_request_us_per_frame",
            mean(session, |f| f.times.decode, one),
            "us",
        ),
        m(
            "protocol.encode_response_us_per_frame",
            mean(session, |f| f.times.encode, one),
            "us",
        ),
        m(
            "protocol.request_bytes_per_frame",
            mean(session, |f| f.request_bytes as f64, one),
            "B",
        ),
        m(
            "protocol.response_bytes_per_frame",
            mean(session, |f| f.response_bytes as f64, one),
            "B",
        ),
        m(
            "session.handle_payload_us_per_frame",
            mean(session, |f| f.times.handle, one),
            "us",
        ),
        m(
            "session.self_us_per_frame",
            mean(
                session,
                |f| f.times.handle - f.times.decode - f.times.encode - f.times.layer,
                one,
            ),
            "us",
        ),
    ];
    let handle_total: f64 = frames
        .iter()
        .filter(|f| f.session)
        .map(|f| f.times.handle)
        .sum();
    Replay {
        metrics,
        handle_us_per_op: handle_total / replayed_ops as f64,
    }
}
