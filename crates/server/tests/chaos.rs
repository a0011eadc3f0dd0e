//! Chaos e2e suite: fleets of fault-injected clients against the
//! worker-pool server, session deadlines, overload shedding, bounded
//! shutdown under half-frame clients, and the reconnecting client.
//!
//! The differential discipline is the same as `e2e.rs` — every answer
//! that **completes** is compared bit-for-bit against a fresh local
//! engine built from a client-side mirror at the same revision. Chaos
//! changes *delivery*, never *content*: a chaotic client may die
//! mid-frame (its seed schedules a cut) and its session simply ends,
//! but no amount of byte-chopping, delay, or short writes may perturb
//! a single answered bit. Every fault schedule derives from a `u64`
//! seed printed in the failure message, so any failure replays.

use rand::{Rng, SeedableRng};
use sinr_core::engine::{BoxedEngine, QueryEngine};
use sinr_core::{ExactScan, Located, Network, StationId, SurgeryOp};
use sinr_geometry::Point;
use sinr_server::server::ServerConfig;
use sinr_server::{
    BackendId, ChaosConfig, ChaosStream, Client, ClientError, ErrorCode, IoTransport,
    ResilientClient, RetryPolicy, Server, ServerHandle,
};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const FLEET_SIZE: usize = 64;

/// Transport-level failures a chaotic client is *expected* to see when
/// its own seed cuts the connection (or the server evicts it). Anything
/// else — a typed server error, a wrong answer — is a real bug.
fn transportish(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Io(_) | ClientError::Recv(_) | ClientError::ConnectionClosed
    )
}

fn separated_points(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<Point> {
    let mut pts: Vec<Point> = Vec::with_capacity(n);
    let mut guard = 0;
    while pts.len() < n && guard < 10_000 {
        guard += 1;
        let cand = Point::new(rng.gen_range(-5.0..=5.0), rng.gen_range(-5.0..=5.0));
        if pts.iter().all(|p| p.dist(cand) >= 0.8) {
            pts.push(cand);
        }
    }
    pts
}

fn random_network(seed: u64) -> Network {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = rng.gen_range(4..8);
    let pts = separated_points(&mut rng, n);
    let mut b = Network::builder()
        .background_noise(0.02)
        .threshold(if rng.gen_range(0..2) == 0 { 0.7 } else { 1.8 });
    for p in pts {
        b = b.station_with_power(p, rng.gen_range(0.5..2.5));
    }
    b.build().expect("≥ 4 separated stations")
}

fn random_queries(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.gen_range(-8.0..8.0), rng.gen_range(-8.0..8.0)))
        .collect()
}

fn random_timestep(rng: &mut rand::rngs::StdRng, mirror: &mut Network) -> Vec<SurgeryOp> {
    let steps = rng.gen_range(1..4);
    let mut ops = Vec::with_capacity(steps);
    for _ in 0..steps {
        let op = match rng.gen_range(0..6) {
            0 | 1 => SurgeryOp::Add {
                position: Point::new(rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)),
                power: rng.gen_range(0.5..2.5),
            },
            2 if mirror.len() > 3 => SurgeryOp::Remove {
                id: StationId(rng.gen_range(0..mirror.len())),
            },
            3 | 4 => SurgeryOp::Move {
                id: StationId(rng.gen_range(0..mirror.len())),
                to: Point::new(rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)),
            },
            _ => SurgeryOp::SetPower {
                id: StationId(rng.gen_range(0..mirror.len())),
                power: rng.gen_range(0.5..2.5),
            },
        };
        mirror.apply_op(&op).expect("op valid against the mirror");
        ops.push(op);
    }
    ops
}

fn fresh_local(backend: BackendId, mirror: &Network) -> BoxedEngine {
    match backend {
        BackendId::ExactScan => BoxedEngine::exact_scan(mirror),
        BackendId::SimdScan => BoxedEngine::simd_scan(mirror),
        BackendId::VoronoiAssisted => BoxedEngine::voronoi_assisted(mirror),
        BackendId::Qds => unreachable!("qds is not in the chaos rotation"),
    }
}

fn backend_for(seed: u64) -> BackendId {
    match seed % 3 {
        0 => BackendId::ExactScan,
        1 => BackendId::SimdScan,
        _ => BackendId::VoronoiAssisted,
    }
}

/// One chaotic client's whole session. Returns how many differential
/// checks completed before the session ended (by finishing its rounds
/// or by dying to its own fault schedule — both are fine). Panics on
/// any *content* failure, naming the seed.
fn chaotic_session(addr: SocketAddr, seed: u64) -> usize {
    let Ok(stream) = TcpStream::connect(addr) else {
        return 0;
    };
    let _ = stream.set_nodelay(true);
    let chaos = ChaosStream::new(stream, ChaosConfig::from_seed(seed));
    let mut client = Client::new(IoTransport::new(chaos));
    let backend = backend_for(seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD1FF);
    let mut mirror = random_network(seed);
    let mut revision = match client.bind_network(backend, 0.0, &mirror) {
        Ok(rev) => rev,
        Err(e) if transportish(&e) => return 0,
        Err(e) => panic!("chaotic bind, seed {seed}: unexpected {e}"),
    };
    assert_eq!(revision, mirror.revision(), "bind revision, seed {seed}");
    let mut checks = 0usize;
    for round in 0..8 {
        match rng.gen_range(0..8) {
            0..=2 => {
                let ops = random_timestep(&mut rng, &mut mirror);
                match client.mutate(revision, &ops) {
                    Ok(rev) => {
                        assert_eq!(
                            rev,
                            mirror.revision(),
                            "post-mutate revision, seed {seed}, round {round}"
                        );
                        revision = rev;
                    }
                    // The cut (or a server deadline) took the session
                    // mid-mutation: the server's private network may or
                    // may not have applied it, but this session is over
                    // and nobody else can observe a private network —
                    // nothing further to check.
                    Err(e) if transportish(&e) => return checks,
                    Err(e) => panic!("chaotic mutate, seed {seed}, round {round}: {e}"),
                }
            }
            3 | 4 => {
                let station = StationId(rng.gen_range(0..mirror.len()));
                let n = rng.gen_range(1..48);
                let points = random_queries(&mut rng, n);
                match client.sinr_batch(station, &points) {
                    Ok((rev, values)) => {
                        assert_eq!(rev, mirror.revision(), "sinr revision, seed {seed}");
                        let local = ExactScan::new(&mirror);
                        let mut expected = vec![0.0; points.len()];
                        local.sinr_batch(station, &points, &mut expected);
                        for (k, (got, want)) in values.iter().zip(&expected).enumerate() {
                            assert!(
                                got == want || (got.is_infinite() && want.is_infinite()),
                                "sinr diff at point {k}, seed {seed}: {got} vs {want}"
                            );
                        }
                        checks += points.len();
                    }
                    Err(e) if transportish(&e) => return checks,
                    Err(e) => panic!("chaotic sinr_batch, seed {seed}, round {round}: {e}"),
                }
            }
            _ => {
                let n = rng.gen_range(1..64);
                let points = random_queries(&mut rng, n);
                match client.locate_batch(&points) {
                    Ok((rev, answers)) => {
                        assert_eq!(rev, mirror.revision(), "locate revision, seed {seed}");
                        let local = fresh_local(backend, &mirror);
                        let mut expected = vec![Located::Silent; points.len()];
                        local.locate_batch(&points, &mut expected);
                        assert_eq!(answers, expected, "locate diff, seed {seed}, round {round}");
                        checks += points.len();
                    }
                    Err(e) if transportish(&e) => return checks,
                    Err(e) => panic!("chaotic locate, seed {seed}, round {round}: {e}"),
                }
            }
        }
    }
    checks
}

/// Hardened-but-generous config for the fleets: deadlines armed far
/// above honest chaotic latency (chaos delays are microseconds), so
/// they exercise the deadline plumbing without evicting live clients.
fn fleet_config() -> ServerConfig {
    ServerConfig {
        idle_deadline: Some(Duration::from_secs(30)),
        frame_deadline: Some(Duration::from_secs(10)),
        shutdown_join_bound: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

fn run_fleet(handle: ServerHandle, seed_base: u64, fleet: usize) {
    let addr = handle.addr();
    let threads: Vec<_> = (0..fleet)
        .map(|i| {
            let seed = seed_base + i as u64;
            std::thread::spawn(move || chaotic_session(addr, seed))
        })
        .collect();
    let mut checks = 0usize;
    let mut survivors = 0usize;
    for t in threads {
        let c = t.join().expect("chaotic client panicked — see its seed");
        checks += c;
        if c > 0 {
            survivors += 1;
        }
    }
    // Cut seeds die early, but most of the fleet must have produced
    // verified answers — otherwise the test silently checked nothing.
    assert!(
        survivors >= fleet / 2,
        "only {survivors}/{fleet} chaotic clients completed any check"
    );
    assert!(checks > 0);
    let started = Instant::now();
    let abandoned = handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "shutdown exceeded its bound under chaos"
    );
    assert_eq!(abandoned, 0, "shutdown abandoned sessions under chaos");
}

#[test]
fn chaotic_fleet_pooled() {
    let server = Server::bind("127.0.0.1:0")
        .unwrap()
        .with_config(fleet_config());
    run_fleet(server.spawn_pooled(4).unwrap(), 0xA000, FLEET_SIZE);
}

/// Randomized-seed smoke for CI: a small fleet under a seed derived
/// from the clock, **printed so a failure is replayable** (rerun with
/// the printed base via `CHAOS_SEED=<n> cargo test --test chaos
/// -- --ignored`).
#[test]
#[ignore = "randomized smoke — run explicitly (CI) with --ignored"]
fn chaotic_fleet_randomized_smoke() {
    let seed_base = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock after epoch")
                .as_nanos() as u64
        });
    println!("chaos smoke seed base: {seed_base}");
    let server = Server::bind("127.0.0.1:0")
        .unwrap()
        .with_config(fleet_config());
    run_fleet(server.spawn_pooled(4).unwrap(), seed_base, 16);
    // And once on the default pool, one worker per available CPU.
    let server = Server::bind("127.0.0.1:0")
        .unwrap()
        .with_config(fleet_config());
    run_fleet(server.spawn().unwrap(), seed_base ^ 0x5A5A, 16);
}

fn idle_eviction_config() -> ServerConfig {
    ServerConfig {
        idle_deadline: Some(Duration::from_millis(150)),
        ..ServerConfig::default()
    }
}

/// An idle-deadline server evicts a silent-but-connected client; a
/// prompt client on the same server is untouched.
fn assert_idle_eviction(handle: ServerHandle) {
    let addr = handle.addr();
    let net = random_network(1);
    // The victim binds, then goes silent past the deadline.
    let mut victim = Client::connect(addr).unwrap();
    victim
        .bind_network(BackendId::ExactScan, 0.0, &net)
        .unwrap();
    // A prompt neighbour keeps querying through the victim's nap —
    // eviction must be per-session.
    let mut prompt = Client::connect(addr).unwrap();
    prompt
        .bind_network(BackendId::ExactScan, 0.0, &net)
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let evicted = loop {
        // Nap well past the victim's idle deadline while the prompt
        // neighbour keeps its own session warm — eviction must be
        // per-session, not per-server.
        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(60));
            prompt
                .locate_batch(&[Point::new(0.0, 0.0)])
                .expect("prompt client untouched");
        }
        match victim.locate_batch(&[Point::new(0.0, 0.0)]) {
            Err(e) if transportish(&e) => break true,
            Ok(_) => {}
            Err(e) => panic!("unexpected eviction error: {e}"),
        }
        if Instant::now() > deadline {
            break false;
        }
    };
    assert!(evicted, "idle session was never evicted");
    assert_eq!(handle.shutdown(), 0);
}

#[test]
fn idle_deadline_evicts_pooled() {
    let server = Server::bind("127.0.0.1:0")
        .unwrap()
        .with_config(idle_eviction_config());
    assert_idle_eviction(server.spawn_pooled(2).unwrap());
}

/// A slowloris client — one byte of a promised frame every few ms,
/// forever — is cut off by the frame deadline even though every
/// individual read completes quickly.
fn assert_slowloris_eviction(handle: ServerHandle) {
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    // Promise a 4096-byte frame, then dribble.
    stream.write_all(&4096u32.to_le_bytes()).unwrap();
    let started = Instant::now();
    let died = loop {
        if stream.write_all(&[0x5A]).is_err() {
            break true;
        }
        // The server may close without us seeing an immediate write
        // error (send buffer); bound the whole dribble instead.
        if started.elapsed() > Duration::from_secs(6) {
            break false;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(died, "slowloris client was never disconnected");
    assert!(
        started.elapsed() >= Duration::from_millis(150),
        "cut off before the frame deadline could have expired"
    );
    assert_eq!(handle.shutdown(), 0);
}

fn slowloris_config() -> ServerConfig {
    ServerConfig {
        frame_deadline: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    }
}

#[test]
fn frame_deadline_evicts_slowloris_pooled() {
    let server = Server::bind("127.0.0.1:0")
        .unwrap()
        .with_config(slowloris_config());
    assert_slowloris_eviction(server.spawn_pooled(2).unwrap());
}

/// Past `max_connections`, a new connection is shed with one typed
/// `Overloaded` frame — and a slot freed by a closing session readmits.
fn assert_overload_shedding(handle: ServerHandle) {
    let addr = handle.addr();
    let net = random_network(2);
    let mut held: Vec<Client<_>> = (0..2)
        .map(|_| {
            let mut c = Client::connect(addr).unwrap();
            c.bind_network(BackendId::ExactScan, 0.0, &net).unwrap();
            c
        })
        .collect();
    // The cap is 2: the third connection is shed before any frame of
    // its is processed.
    let mut shed = Client::connect(addr).unwrap();
    match shed.bind_network(BackendId::ExactScan, 0.0, &net) {
        Err(ClientError::Server {
            code: ErrorCode::Overloaded,
            ..
        }) => {}
        other => panic!("expected a typed Overloaded shed, got {other:?}"),
    }
    // Held sessions are unharmed by the shed.
    for c in &mut held {
        c.locate_batch(&[Point::new(0.0, 0.0)])
            .expect("held session");
    }
    // Closing one held session frees its slot (asynchronously — the
    // worker must observe the close), and a retry then
    // succeeds: exactly the ResilientClient backoff story.
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(5);
    let readmitted = loop {
        let mut retry = Client::connect(addr).unwrap();
        match retry.bind_network(BackendId::ExactScan, 0.0, &net) {
            Ok(_) => break true,
            Err(ClientError::Server {
                code: ErrorCode::Overloaded,
                ..
            })
            | Err(ClientError::ConnectionClosed) => {
                if Instant::now() > deadline {
                    break false;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("retry after shed: {e}"),
        }
    };
    assert!(readmitted, "freed slot was never reusable");
    assert_eq!(handle.shutdown(), 0);
}

fn shedding_config() -> ServerConfig {
    ServerConfig {
        max_connections: Some(2),
        ..ServerConfig::default()
    }
}

#[test]
fn overloaded_shedding_pooled() {
    let server = Server::bind("127.0.0.1:0")
        .unwrap()
        .with_config(shedding_config());
    assert_overload_shedding(server.spawn_pooled(2).unwrap());
}

/// Shutdown stays bounded (and leak-free) while chaotic half-frame
/// clients are still connected: sockets parked mid-frame must not hold
/// threads or workers past the join bound.
fn assert_bounded_shutdown_with_half_frames(handle: ServerHandle) {
    let addr = handle.addr();
    // Eight clients, each wedged mid-frame: a length prefix promising
    // bytes that never come.
    let wedged: Vec<TcpStream> = (0..8)
        .map(|i| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&1024u32.to_le_bytes()).unwrap();
            s.write_all(&[i as u8; 7]).unwrap();
            s
        })
        .collect();
    // Give the server time to admit them all and park in their reads.
    std::thread::sleep(Duration::from_millis(200));
    let started = Instant::now();
    let abandoned = handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "shutdown exceeded its bound with half-frame clients"
    );
    assert_eq!(abandoned, 0, "half-frame clients leaked sessions");
    drop(wedged);
}

#[test]
fn shutdown_bounded_under_half_frames_pooled() {
    let server = Server::bind("127.0.0.1:0")
        .unwrap()
        .with_config(ServerConfig {
            shutdown_join_bound: Duration::from_secs(5),
            ..ServerConfig::default()
        });
    assert_bounded_shutdown_with_half_frames(server.spawn_pooled(2).unwrap());
}

/// `ResilientClient` in Attached mode survives repeated forced
/// disconnects (idle-deadline evictions), restoring its attachment each
/// time, and no mutation is ever double-applied: the registry network
/// must equal a mirror that applied every timestep exactly once.
#[test]
fn resilient_client_survives_forced_disconnects_attached() {
    let server = Server::bind("127.0.0.1:0")
        .unwrap()
        .with_config(ServerConfig {
            idle_deadline: Some(Duration::from_millis(120)),
            ..ServerConfig::default()
        });
    let handle = server.spawn().unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let mut mirror = random_network(77);

    let mut client = ResilientClient::connect(handle.addr(), RetryPolicy::default()).unwrap();
    client.register_network("chaos-net", &mirror).unwrap();
    let rev = client
        .attach("chaos-net", BackendId::ExactScan, 0.0)
        .unwrap();
    assert_eq!(rev, mirror.revision());

    for round in 0..4 {
        // Sleep well past the idle deadline: the server evicts this
        // session, forcing the next call through a reconnect +
        // re-attach.
        std::thread::sleep(Duration::from_millis(350));
        let points = random_queries(&mut rng, 24);
        let (rev, answers) = client
            .locate_batch(&points)
            .unwrap_or_else(|e| panic!("round {round} locate after eviction: {e}"));
        assert_eq!(rev, mirror.revision(), "round {round} revision");
        let local = fresh_local(BackendId::ExactScan, &mirror);
        let mut expected = vec![Located::Silent; points.len()];
        local.locate_batch(&points, &mut expected);
        assert_eq!(answers, expected, "round {round} locate diff");

        let ops = random_timestep(&mut rng, &mut mirror);
        let rev = client
            .mutate(&ops)
            .unwrap_or_else(|e| panic!("round {round} mutate: {e}"));
        assert_eq!(rev, mirror.revision(), "round {round} post-mutate revision");
    }
    assert!(
        client.reconnects() >= 3,
        "expected ≥ 3 forced reconnects, got {}",
        client.reconnects()
    );
    // Exactly-once, pinned through the registry: the server-side named
    // network must match the mirror that applied each timestep once.
    let final_points = random_queries(&mut rng, 64);
    let (rev, answers) = client.locate_batch(&final_points).unwrap();
    assert_eq!(
        rev,
        mirror.revision(),
        "final revision — a duplicated mutation would differ"
    );
    let local = fresh_local(BackendId::ExactScan, &mirror);
    let mut expected = vec![Located::Silent; final_points.len()];
    local.locate_batch(&final_points, &mut expected);
    assert_eq!(
        answers, expected,
        "final state diff — duplicated or lost mutation"
    );
    assert_eq!(handle.shutdown(), 0);
}

/// `ResilientClient` in Bound (private) mode: reconnect re-binds from
/// the client-side mirror, so queries after repeated evictions still
/// answer for the mutated network — and a replayed mutation applies
/// exactly once (the re-bind rolls back anything half-delivered).
#[test]
fn resilient_client_rebinds_private_networks() {
    let server = Server::bind("127.0.0.1:0")
        .unwrap()
        .with_config(ServerConfig {
            idle_deadline: Some(Duration::from_millis(120)),
            ..ServerConfig::default()
        });
    let handle = server.spawn().unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let mut mirror = random_network(99);

    let mut client = ResilientClient::connect(handle.addr(), RetryPolicy::default()).unwrap();
    client
        .bind_network(BackendId::SimdScan, 0.0, &mirror)
        .unwrap();

    for round in 0..4 {
        std::thread::sleep(Duration::from_millis(350));
        let ops = random_timestep(&mut rng, &mut mirror);
        client
            .mutate(&ops)
            .unwrap_or_else(|e| panic!("round {round} mutate after eviction: {e}"));
        let points = random_queries(&mut rng, 24);
        let (_, answers) = client
            .locate_batch(&points)
            .unwrap_or_else(|e| panic!("round {round} locate: {e}"));
        let local = fresh_local(BackendId::SimdScan, &mirror);
        let mut expected = vec![Located::Silent; points.len()];
        local.locate_batch(&points, &mut expected);
        assert_eq!(answers, expected, "round {round} private-network diff");
    }
    assert!(
        client.reconnects() >= 3,
        "expected ≥ 3 forced reconnects, got {}",
        client.reconnects()
    );
    assert_eq!(handle.shutdown(), 0);
}

/// A `ResilientClient` retries through an `Overloaded` shed: with the
/// cap consumed by a held session, the newcomer's first attempts are
/// shed, and once the held session closes the backoff loop gets it in.
#[test]
fn resilient_client_retries_through_overload() {
    let server = Server::bind("127.0.0.1:0")
        .unwrap()
        .with_config(ServerConfig {
            max_connections: Some(1),
            ..ServerConfig::default()
        });
    let handle = server.spawn().unwrap();
    let net = random_network(5);
    let mut hog = Client::connect(handle.addr()).unwrap();
    hog.bind_network(BackendId::ExactScan, 0.0, &net).unwrap();

    // Free the slot shortly after the newcomer starts retrying.
    let addr = handle.addr();
    let freer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        drop(hog);
    });
    let mut newcomer = ResilientClient::connect(
        addr,
        RetryPolicy {
            max_attempts: 12,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(200),
            seed: 42,
        },
    )
    .unwrap();
    let rev = newcomer
        .bind_network(BackendId::ExactScan, 0.0, &net)
        .expect("backoff must outlast the hog");
    assert_eq!(rev, net.revision());
    freer.join().unwrap();
    assert_eq!(handle.shutdown(), 0);
}
