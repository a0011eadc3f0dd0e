//! Server throughput bench: the streaming protocol end-to-end.
//!
//! Measures `LocateBatch` round trips through a live session — encode,
//! frame, (socket), decode, engine batch, encode runs, frame, decode —
//! for each exact backend over both transports:
//!
//! * `pipe` — a session over the in-process byte pipe
//!   (`serve_in_process`): pure protocol + engine cost, no kernel
//!   sockets (the floor the TCP numbers are read against);
//! * `tcp` — a real ephemeral-port loopback connection to the
//!   worker-pool server, exactly what `examples/query_server.rs` serves.
//!
//! A second scenario (`churn_stream`) interleaves a `Mutate` frame (the
//! mobile-station timestep) between bursts, measuring the full
//! mutate+query round trip that PR 3's incremental engines make
//! rebuild-free. A third (`pipelined_stream`, PR 5) re-runs the locate
//! stream with `frames_in_flight ∈ {1, 4, 8}` request frames kept
//! outstanding through `Client::locate_batches_pipelined` — the
//! `frames_in_flight > 1` lines show what hiding the per-burst round
//! trip behind engine compute buys end-to-end. A fourth
//! (`multiplexed`, PR 7) drives many concurrently-connected light
//! clients attached to one registered network on a fixed pool of
//! `MUX_WORKERS` workers — the many-light-clients extreme.
//!
//! One JSON line per configuration via `sinr_bench::report::JsonLine`
//! (`"bench":"server_throughput"`); the trend file is
//! `perf/server_throughput.jsonl` and CI archives each run's lines as
//! the `server-throughput-json` artifact.

use rand::{Rng, SeedableRng};
use sinr_bench::report::JsonLine;
use sinr_core::{gen, Network, StationId, SurgeryOp};
use sinr_geometry::Point;
use sinr_server::{serve_in_process, BackendId, Client, Server, Transport};
use std::time::Instant;

const STATIONS: usize = 1024;
const BURST_POINTS: usize = 16_384;
const ROUNDS: usize = 6;
const CHURN_STEPS: usize = 32;
const CHURN_MOVES: usize = 4;
const CHURN_BURST: usize = 1024;
const MUX_CLIENTS: usize = 64;
const MUX_WORKERS: usize = 4;
const MUX_BURSTS: usize = 16;
const MUX_BURST_POINTS: usize = 256;

fn setup() -> (Network, Vec<Point>, Vec<Point>) {
    let half = 2.0 * (STATIONS as f64).sqrt();
    let net = gen::random_uniform_network(0x5EC, STATIONS, half, 0.01, 2.0).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EC + 1);
    let burst = gen::uniform_in_box(&mut rng, BURST_POINTS, half * 1.1);
    let churn_burst = gen::uniform_in_box(&mut rng, CHURN_BURST, half * 1.1);
    (net, burst, churn_burst)
}

/// `ROUNDS` bursts streamed with `in_flight` request frames kept
/// outstanding (the PR-5 pipelined client): the engine computes one
/// burst while later bursts are already in the transport, so the tiled
/// batch executor is never starved between bursts. Returns ns/point
/// end-to-end; answers are length-checked here and pinned bit-identical
/// to the request/response mode by the e2e suite.
fn pipelined_scenario<T: Transport>(
    client: &mut Client<T>,
    burst: &[Point],
    in_flight: usize,
) -> f64 {
    let bursts: Vec<&[Point]> = (0..ROUNDS).map(|_| burst).collect();
    // Warm-up round.
    let (_, first) = client.locate_batch(burst).expect("warm-up burst");
    assert_eq!(first.len(), burst.len());
    let start = Instant::now();
    let results = client
        .locate_batches_pipelined(&bursts, in_flight)
        .expect("pipelined stream");
    let ns = start.elapsed().as_nanos() as f64 / (ROUNDS * burst.len()) as f64;
    assert_eq!(results.len(), ROUNDS);
    for (_, answers) in &results {
        assert_eq!(answers.len(), burst.len());
    }
    ns
}

/// `ROUNDS` locate bursts through an established session; returns
/// ns/point end-to-end.
fn stream_scenario<T: Transport>(client: &mut Client<T>, burst: &[Point]) -> f64 {
    // Warm-up round (first batch pays engine-side cache warming).
    let (_, first) = client.locate_batch(burst).expect("warm-up burst");
    assert_eq!(first.len(), burst.len());
    let start = Instant::now();
    for _ in 0..ROUNDS {
        let (_, answers) = client.locate_batch(burst).expect("burst");
        assert_eq!(answers.len(), burst.len());
    }
    start.elapsed().as_nanos() as f64 / (ROUNDS * burst.len()) as f64
}

/// `CHURN_STEPS` timesteps of `Mutate` (moves) + a burst; returns
/// (ns/step, ns/point-within-step).
fn churn_scenario<T: Transport>(
    client: &mut Client<T>,
    net: &Network,
    revision0: u64,
    burst: &[Point],
) -> (f64, f64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE);
    let half = 2.0 * (STATIONS as f64).sqrt();
    let mut revision = revision0;
    let start = Instant::now();
    for _ in 0..CHURN_STEPS {
        let ops: Vec<SurgeryOp> = (0..CHURN_MOVES)
            .map(|_| SurgeryOp::Move {
                id: StationId(rng.gen_range(0..net.len())),
                to: Point::new(rng.gen_range(-half..half), rng.gen_range(-half..half)),
            })
            .collect();
        revision = client.mutate(revision, &ops).expect("timestep mutate");
        let (rev, answers) = client.locate_batch(burst).expect("timestep burst");
        assert_eq!(rev, revision);
        assert_eq!(answers.len(), burst.len());
    }
    let ns = start.elapsed().as_nanos() as f64;
    (
        ns / CHURN_STEPS as f64,
        ns / (CHURN_STEPS * burst.len()) as f64,
    )
}

fn emit_stream(transport: &str, backend: BackendId, ns_per_point: f64) {
    let line = JsonLine::new("server_throughput")
        .str("scenario", "stream")
        .str("transport", transport)
        .str("backend", backend.name())
        .int("stations", STATIONS as u64)
        .int("burst_points", BURST_POINTS as u64)
        .int("rounds", ROUNDS as u64)
        .num("ns_per_point", ns_per_point)
        .num("points_per_sec", 1e9 / ns_per_point);
    println!("{}", line.render());
}

fn emit_pipelined(transport: &str, backend: BackendId, in_flight: usize, ns_per_point: f64) {
    let line = JsonLine::new("server_throughput")
        .str("scenario", "pipelined_stream")
        .str("transport", transport)
        .str("backend", backend.name())
        .int("stations", STATIONS as u64)
        .int("burst_points", BURST_POINTS as u64)
        .int("rounds", ROUNDS as u64)
        .int("frames_in_flight", in_flight as u64)
        .num("ns_per_point", ns_per_point)
        .num("points_per_sec", 1e9 / ns_per_point);
    println!("{}", line.render());
}

/// `MUX_CLIENTS` concurrently-connected light clients, all attached to
/// one registered network, each streaming `MUX_BURSTS` small bursts —
/// the many-light-clients shape the worker pool exists for. Returns
/// aggregate ns/point across all clients (wall time / total points).
fn multiplexed_scenario(addr: std::net::SocketAddr) -> f64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x30B);
    let half = 2.0 * (STATIONS as f64).sqrt();
    let burst = gen::uniform_in_box(&mut rng, MUX_BURST_POINTS, half * 1.1);

    // Connect + attach everyone before the clock starts; the bench
    // measures steady-state serving, not connection setup.
    let mut clients: Vec<Client<_>> = (0..MUX_CLIENTS)
        .map(|_| {
            let mut c = Client::connect(addr).expect("connect");
            c.attach("mux", BackendId::SimdScan, 0.0).expect("attach");
            c
        })
        .collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        for client in &mut clients {
            let burst = &burst;
            s.spawn(move || {
                for _ in 0..MUX_BURSTS {
                    let (_, answers) = client.locate_batch(burst).expect("mux burst");
                    assert_eq!(answers.len(), burst.len());
                }
            });
        }
    });
    let total_points = (MUX_CLIENTS * MUX_BURSTS * MUX_BURST_POINTS) as f64;
    start.elapsed().as_nanos() as f64 / total_points
}

fn emit_multiplexed(ns_per_point: f64) {
    let line = JsonLine::new("server_throughput")
        .str("scenario", "multiplexed")
        .str("transport", "tcp")
        .str("serving", "worker_pool")
        .str("backend", BackendId::SimdScan.name())
        .int("stations", STATIONS as u64)
        .int("clients", MUX_CLIENTS as u64)
        .int("workers", MUX_WORKERS as u64)
        .int("bursts_per_client", MUX_BURSTS as u64)
        .int("burst_points", MUX_BURST_POINTS as u64)
        .num("ns_per_point", ns_per_point)
        .num("points_per_sec", 1e9 / ns_per_point);
    println!("{}", line.render());
}

fn emit_churn(transport: &str, backend: BackendId, (ns_per_step, ns_per_point): (f64, f64)) {
    let line = JsonLine::new("server_throughput")
        .str("scenario", "churn_stream")
        .str("transport", transport)
        .str("backend", backend.name())
        .int("stations", STATIONS as u64)
        .int("steps", CHURN_STEPS as u64)
        .int("moves_per_step", CHURN_MOVES as u64)
        .int("burst_points", CHURN_BURST as u64)
        .num("ns_per_step", ns_per_step)
        .num("ns_per_point", ns_per_point);
    println!("{}", line.render());
}

fn main() {
    let (net, burst, churn_burst) = setup();
    let backends = [
        BackendId::ExactScan,
        BackendId::SimdScan,
        BackendId::VoronoiAssisted,
    ];

    // In-process pipe: protocol + engine cost, no sockets.
    for backend in backends {
        let mut client = serve_in_process();
        client.bind_network(backend, 0.0, &net).expect("pipe bind");
        let ns = stream_scenario(&mut client, &burst);
        emit_stream("pipe", backend, ns);
    }

    // Real TCP loopback, one server for all sessions.
    let server = Server::bind("127.0.0.1:0").expect("bind ephemeral");
    let handle = server.spawn().expect("spawn server");
    for backend in backends {
        let mut client = Client::connect(handle.addr()).expect("connect");
        client.bind_network(backend, 0.0, &net).expect("tcp bind");
        let ns = stream_scenario(&mut client, &burst);
        emit_stream("tcp", backend, ns);
    }

    // Pipelined stream: the same bursts with multiple request frames
    // kept in flight, both transports, on the throughput backend.
    // `frames_in_flight = 1` degenerates to the request/response loop
    // (the baseline the >1 windows are read against).
    for in_flight in [1usize, 4, 8] {
        let mut client = serve_in_process();
        client
            .bind_network(BackendId::SimdScan, 0.0, &net)
            .expect("pipe bind");
        let ns = pipelined_scenario(&mut client, &burst, in_flight);
        emit_pipelined("pipe", BackendId::SimdScan, in_flight, ns);
    }
    for in_flight in [1usize, 4, 8] {
        let mut client = Client::connect(handle.addr()).expect("connect");
        client
            .bind_network(BackendId::SimdScan, 0.0, &net)
            .expect("tcp bind");
        let ns = pipelined_scenario(&mut client, &burst, in_flight);
        emit_pipelined("tcp", BackendId::SimdScan, in_flight, ns);
    }

    // Churn stream: mutate + burst per timestep, both transports, on
    // the backend the dynamic path optimizes hardest (voronoi).
    {
        let mut client = serve_in_process();
        let rev = client
            .bind_network(BackendId::VoronoiAssisted, 0.0, &net)
            .expect("pipe bind");
        let churn = churn_scenario(&mut client, &net, rev, &churn_burst);
        emit_churn("pipe", BackendId::VoronoiAssisted, churn);
    }
    {
        let mut client = Client::connect(handle.addr()).expect("connect");
        let rev = client
            .bind_network(BackendId::VoronoiAssisted, 0.0, &net)
            .expect("tcp bind");
        let churn = churn_scenario(&mut client, &net, rev, &churn_burst);
        emit_churn("tcp", BackendId::VoronoiAssisted, churn);
    }
    handle.shutdown();

    // Multiplexed: many light clients on one shared named network,
    // served by a fixed pool of MUX_WORKERS workers.
    {
        let server = Server::bind("127.0.0.1:0").expect("bind ephemeral");
        let handle = server.spawn_pooled(MUX_WORKERS).expect("spawn pooled");
        let mut registrar = Client::connect(handle.addr()).expect("connect");
        registrar.register_network("mux", &net).expect("register");
        let ns = multiplexed_scenario(handle.addr());
        emit_multiplexed(ns);
        drop(registrar);
        handle.shutdown();
    }
}
