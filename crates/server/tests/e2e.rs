//! End-to-end differential suite: a real TCP server on an ephemeral
//! port, concurrent clients driving randomized interleavings of
//! `LocateBatch` / `SinrBatch` / `Mutate` frames, and every answer
//! checked **bit-for-bit** against a fresh local engine built from a
//! client-side mirror of the network at the same revision.
//!
//! Why the comparison is exact and not tolerance-based: the wire format
//! is lossless (`f64` bit patterns, exact station indices, run-length
//! coding of identical answers), the revision fence pins *which*
//! network state each response answered for, and PR 3's property suite
//! already pins incremental-apply ≡ fresh-rebuild per backend — so a
//! server-side engine that was only ever patched must agree exactly
//! with a client-side engine built from scratch at the same revision.
//! Any diff is a server bug (lost delta, frame corruption, cross-session
//! leakage), never rounding.

use rand::{Rng, SeedableRng};
use sinr_core::engine::{QueryEngine, PARALLEL_BATCH_THRESHOLD};
use sinr_core::gen::min_separation;
use sinr_core::{ChannelModel, ExactScan, Located, McConfig, Network, StationId, SurgeryOp};
use sinr_geometry::Point;
use sinr_server::registry::build_backend;
use sinr_server::{BackendId, Client, ClientError, ErrorCode, Server, TcpTransport};

/// A random stochastic channel valid for `n` stations — every shape the
/// wire grammar can carry.
fn random_channel(rng: &mut rand::rngs::StdRng, n: usize) -> ChannelModel {
    match rng.gen_range(0..5) {
        0 => ChannelModel::Deterministic,
        1 => ChannelModel::LogNormalShadowing {
            sigma_db: rng.gen_range(0.5..6.0),
        },
        2 => ChannelModel::RayleighFading,
        3 => ChannelModel::FixedGains {
            gains: (0..n).map(|_| rng.gen_range(0.25..4.0)).collect(),
        },
        _ => ChannelModel::Composed(vec![
            ChannelModel::LogNormalShadowing {
                sigma_db: rng.gen_range(0.5..6.0),
            },
            ChannelModel::RayleighFading,
        ]),
    }
}

fn random_network(seed: u64, uniform: bool) -> Network {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = rng.gen_range(4..8);
    let pts = min_separation(&mut rng, n, 5.0, 0.8);
    let mut b = Network::builder()
        .background_noise(0.02)
        .threshold(if rng.gen_range(0..2) == 0 { 0.7 } else { 1.8 });
    for p in pts {
        if uniform {
            b = b.station(p);
        } else {
            b = b.station_with_power(p, rng.gen_range(0.5..2.5));
        }
    }
    b.build().expect("≥ 4 separated stations")
}

/// One random timestep of surgery: generated against (and applied to)
/// the client-side mirror, so the op list shipped to the server is
/// valid by construction and both sides advance identically.
fn random_timestep(
    rng: &mut rand::rngs::StdRng,
    mirror: &mut Network,
    uniform_only: bool,
) -> Vec<SurgeryOp> {
    let steps = rng.gen_range(1..4);
    let mut ops = Vec::with_capacity(steps);
    for _ in 0..steps {
        let op = match rng.gen_range(0..7) {
            0 | 1 => SurgeryOp::Add {
                position: Point::new(rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)),
                power: if uniform_only || rng.gen_range(0..2) == 0 {
                    1.0
                } else {
                    rng.gen_range(0.5..2.5)
                },
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
                power: if uniform_only {
                    1.0
                } else {
                    rng.gen_range(0.5..2.5)
                },
            },
        };
        mirror.apply_op(&op).expect("op valid against the mirror");
        ops.push(op);
    }
    ops
}

fn random_queries(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.gen_range(-8.0..8.0), rng.gen_range(-8.0..8.0)))
        .collect()
}

/// One client's whole randomized session, all assertions inside.
/// Returns the number of differential checks performed.
fn drive_session(
    client: &mut Client<TcpTransport>,
    backend: BackendId,
    seed: u64,
    rounds: usize,
) -> usize {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let uniform_only = false;
    let mut mirror = random_network(seed, true);
    let mut revision = client
        .bind_network(backend, 0.0, &mirror)
        .expect("bind succeeds");
    assert_eq!(revision, mirror.revision(), "bind revision");
    let mut checks = 0;
    for round in 0..rounds {
        match rng.gen_range(0..12) {
            // Mutate: a timestep of surgery, revision-fenced.
            0..=3 => {
                let ops = random_timestep(&mut rng, &mut mirror, uniform_only);
                revision = client
                    .mutate(revision, &ops)
                    .unwrap_or_else(|e| panic!("mutate round {round}: {e}"));
                assert_eq!(revision, mirror.revision(), "post-mutate revision");
            }
            // SinrBatch: exact f64 equality against the local mirror
            // (the server runs the very same scalar kernel).
            4 => {
                let station = StationId(rng.gen_range(0..mirror.len()));
                let count = rng.gen_range(1..64);
                let points = random_queries(&mut rng, count);
                let (rev, values) = client
                    .sinr_batch(station, &points)
                    .unwrap_or_else(|e| panic!("sinr_batch round {round}: {e}"));
                assert_eq!(rev, mirror.revision());
                let local = ExactScan::new(&mirror);
                let mut expected = vec![0.0; points.len()];
                local.sinr_batch(station, &points, &mut expected);
                for (k, (got, want)) in values.iter().zip(&expected).enumerate() {
                    assert!(
                        got == want || (got.is_infinite() && want.is_infinite()),
                        "sinr diff at point {k}: {got} vs {want} ({backend}, seed {seed})"
                    );
                }
                checks += points.len();
            }
            // ReceptionProbBatch: seeded Monte-Carlo answers must be
            // bit-for-bit replayable by a fresh local engine of the
            // same backend, same (trials, seed, channel), same revision.
            5 | 6 => {
                let channel = random_channel(&mut rng, mirror.len());
                let trials = rng.gen_range(4..24);
                let mc_seed = seed ^ ((round as u64) << 17);
                let count = rng.gen_range(1..96);
                let points = random_queries(&mut rng, count);
                let (rev, values) = client
                    .reception_prob_batch(trials, mc_seed, &channel, &points)
                    .unwrap_or_else(|e| panic!("reception_prob_batch round {round}: {e}"));
                assert_eq!(rev, mirror.revision());
                let local =
                    build_backend(backend, 0.0, &mirror).expect("exact backends always build");
                let mut expected = vec![0.0; points.len()];
                local
                    .reception_probability_batch(
                        &channel,
                        McConfig::new(trials, mc_seed),
                        &points,
                        &mut expected,
                    )
                    .expect("local replay");
                for (k, (got, want)) in values.iter().zip(&expected).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "reception-prob diff at point {k}: {got} vs {want} \
                         ({backend}, seed {seed}, round {round})"
                    );
                }
                checks += points.len();
            }
            // LocateBatch: bit-for-bit against a fresh local engine of
            // the same backend at the same revision.
            _ => {
                let count = rng.gen_range(1..256);
                let points = random_queries(&mut rng, count);
                let (rev, answers) = client
                    .locate_batch(&points)
                    .unwrap_or_else(|e| panic!("locate_batch round {round}: {e}"));
                assert_eq!(
                    rev,
                    mirror.revision(),
                    "answers fenced at the mirror revision"
                );
                let local =
                    build_backend(backend, 0.0, &mirror).expect("exact backends always build");
                let mut expected = vec![Located::Silent; points.len()];
                local.locate_batch(&points, &mut expected);
                assert_eq!(
                    answers, expected,
                    "locate diff ({backend}, seed {seed}, round {round}, revision {rev})"
                );
                checks += points.len();
            }
        }
    }
    checks
}

/// The acceptance-criteria test: ≥ 3 concurrent clients on one TCP
/// server, each interleaving mutations and query batches at random,
/// every answer bit-identical to a fresh local `ExactScan` on the same
/// network revision.
#[test]
fn concurrent_clients_differential_against_exact_scan() {
    let server = Server::bind("127.0.0.1:0").expect("bind ephemeral");
    let handle = server.spawn().expect("spawn server");
    let addr = handle.addr();

    let clients: Vec<_> = (0..4)
        .map(|k| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                drive_session(&mut client, BackendId::ExactScan, 0xE2E0 + k, 40)
            })
        })
        .collect();
    let mut total_checks = 0;
    for c in clients {
        total_checks += c.join().expect("client thread must not panic");
    }
    assert!(
        total_checks > 1000,
        "suite barely exercised: {total_checks}"
    );
    handle.shutdown();
}

/// Same interleavings through the SIMD and Voronoi backends, each
/// compared bit-for-bit against a fresh local engine of the *same*
/// backend (exactness across backends at SINR = β boundaries is a
/// core-crate property, not a server one), running concurrently on one
/// server to also exercise mixed-backend isolation.
#[test]
fn concurrent_mixed_backends_differential() {
    let server = Server::bind("127.0.0.1:0").expect("bind ephemeral");
    let handle = server.spawn().expect("spawn server");
    let addr = handle.addr();

    let mut threads = Vec::new();
    for (k, backend) in [
        BackendId::SimdScan,
        BackendId::VoronoiAssisted,
        BackendId::ExactScan,
        BackendId::SimdScan,
    ]
    .into_iter()
    .enumerate()
    {
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            drive_session(&mut client, backend, 0xA11 + k as u64, 30)
        }));
    }
    for t in threads {
        t.join().expect("client thread must not panic");
    }
    handle.shutdown();
}

/// The Theorem-3 backend over TCP: answers must be *consistent* with
/// the exact ground truth (`Reception`/`Silent` are definite, and
/// `Uncertain(i)` is only legal where the locator's contract allows
/// it), dynamic updates flow through `Mutate`, and a mutation that
/// breaks the uniform-power precondition unbinds the session with the
/// documented `Unsupported` code.
#[test]
fn qds_session_consistency_and_unsupported_unbind() {
    let server = Server::bind("127.0.0.1:0").expect("bind ephemeral");
    let handle = server.spawn().expect("spawn server");

    let mut mirror = Network::uniform(
        vec![
            Point::new(0.0, 0.0),
            Point::new(6.0, 0.0),
            Point::new(3.0, 5.0),
        ],
        0.0,
        2.0,
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut revision = client
        .bind_network(BackendId::Qds, 0.3, &mirror)
        .expect("qds bind");

    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0D5);
    for _ in 0..3 {
        let points = random_queries(&mut rng, 200);
        let (rev, answers) = client.locate_batch(&points).expect("qds locate");
        assert_eq!(rev, mirror.revision());
        let exact = ExactScan::new(&mirror);
        for (p, a) in points.iter().zip(&answers) {
            let truth = exact.locate(*p);
            match a {
                Located::Reception(s) => assert_eq!(
                    truth,
                    Located::Reception(*s),
                    "qds claimed definite reception of {s} at {p}"
                ),
                Located::Silent => {
                    assert_eq!(
                        truth,
                        Located::Silent,
                        "qds claimed definite silence at {p}"
                    )
                }
                // Uncertain: the candidate must at least be the only
                // possible transmitter (the exact answer is it or nobody).
                Located::Uncertain(s) => assert!(
                    truth == Located::Silent || truth == Located::Reception(*s),
                    "qds uncertain about {s} at {p} but the truth is {truth:?}"
                ),
            }
        }
        // A uniform-power move keeps the session alive and the locator
        // incrementally synced.
        let op = SurgeryOp::Move {
            id: StationId(rng.gen_range(0..mirror.len())),
            to: Point::new(rng.gen_range(-2.0..8.0), rng.gen_range(-2.0..6.0)),
        };
        mirror.apply_op(&op).unwrap();
        revision = client.mutate(revision, &[op]).expect("uniform move");
        assert_eq!(revision, mirror.revision());
    }

    // Breaking uniform power: the backend cannot represent it → typed
    // Unsupported error, and the session is unbound afterwards.
    let err = client
        .mutate(
            revision,
            &[SurgeryOp::SetPower {
                id: StationId(0),
                power: 2.0,
            }],
        )
        .expect_err("non-uniform power must be Unsupported for qds");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::Unsupported),
        other => panic!("wrong error: {other}"),
    }
    let err = client
        .locate_batch(&[Point::new(0.0, 0.0)])
        .expect_err("session must be unbound after Unsupported");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::NotBound),
        other => panic!("wrong error: {other}"),
    }
    drop(client);
    handle.shutdown();
}

/// The revision fence: a `Mutate` computed against any other revision
/// is rejected in full — the session network does not move and
/// subsequent answers still match the unmutated mirror.
#[test]
fn foreign_revision_mutate_is_rejected_without_effect() {
    let server = Server::bind("127.0.0.1:0").expect("bind ephemeral");
    let handle = server.spawn().expect("spawn server");

    let mirror = random_network(7, true);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let revision = client
        .bind_network(BackendId::VoronoiAssisted, 0.0, &mirror)
        .expect("bind");

    for bad_revision in [revision + 1, revision + 100, u64::MAX] {
        let err = client
            .mutate(
                bad_revision,
                &[SurgeryOp::Move {
                    id: StationId(0),
                    to: Point::new(1.0, 1.0),
                }],
            )
            .expect_err("foreign revision must be fenced");
        match err {
            ClientError::Server { code, message } => {
                assert_eq!(code, ErrorCode::RevisionMismatch);
                assert!(
                    message.contains("nothing was applied"),
                    "message: {message}"
                );
            }
            other => panic!("wrong error: {other}"),
        }
    }
    // The network really did not move.
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let points = random_queries(&mut rng, 300);
    let (rev, answers) = client.locate_batch(&points).expect("still serving");
    assert_eq!(rev, revision);
    let local = build_backend(BackendId::VoronoiAssisted, 0.0, &mirror)
        .expect("exact backends always build");
    let mut expected = vec![Located::Silent; points.len()];
    local.locate_batch(&points, &mut expected);
    assert_eq!(answers, expected);
    drop(client);
    handle.shutdown();
}

/// Mid-timestep surgery failure: the valid prefix stays applied (and
/// the engine follows it), the failing op is reported with its index,
/// and the session keeps serving at the partially advanced revision.
#[test]
fn surgery_error_applies_prefix_and_keeps_session() {
    let server = Server::bind("127.0.0.1:0").expect("bind ephemeral");
    let handle = server.spawn().expect("spawn server");

    let mut mirror = random_network(13, true);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let revision = client
        .bind_network(BackendId::ExactScan, 0.0, &mirror)
        .expect("bind");

    let good = SurgeryOp::Move {
        id: StationId(0),
        to: Point::new(2.5, -1.5),
    };
    let bad = SurgeryOp::Remove { id: StationId(500) };
    let err = client
        .mutate(revision, &[good, bad, good])
        .expect_err("out-of-range remove must fail");
    match err {
        ClientError::Server { code, message } => {
            assert_eq!(code, ErrorCode::Surgery);
            assert!(message.contains("op #1"), "message names the op: {message}");
        }
        other => panic!("wrong error: {other}"),
    }
    // Mirror the server's documented semantics: the prefix applied.
    mirror.apply_op(&good).unwrap();

    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let points = random_queries(&mut rng, 200);
    let (rev, answers) = client.locate_batch(&points).expect("session survives");
    assert_eq!(
        rev,
        mirror.revision(),
        "revision advanced by the prefix only"
    );
    let local = ExactScan::new(&mirror);
    let mut expected = vec![Located::Silent; points.len()];
    local.locate_batch(&points, &mut expected);
    assert_eq!(answers, expected);
    drop(client);
    handle.shutdown();
}

/// Session isolation under hostility: a client spraying garbage gets
/// typed errors (or a closed connection), while a well-behaved bound
/// session on the same server keeps answering correctly throughout.
#[test]
fn hostile_client_does_not_poison_neighbour_sessions() {
    let server = Server::bind("127.0.0.1:0").expect("bind ephemeral");
    let handle = server.spawn().expect("spawn server");
    let addr = handle.addr();

    let mirror = random_network(21, true);
    let mut good = Client::connect(addr).expect("connect good");
    let revision = good
        .bind_network(BackendId::SimdScan, 0.0, &mirror)
        .expect("bind");

    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBAD);
    for round in 0..8 {
        // A fresh hostile connection per round: garbage payloads through
        // well-formed framing, then an abrupt disconnect.
        let mut evil = Client::connect(addr).expect("connect evil");
        let garbage: Vec<u8> = (0..rng.gen_range(1..64))
            .map(|_| rng.gen_range(0..=255))
            .collect();
        evil.send_raw(&garbage).expect("send garbage");
        match evil.recv() {
            Err(ClientError::Server { .. }) | Err(ClientError::ConnectionClosed) => {}
            Ok(resp) => panic!("garbage produced a success response: {resp:?}"),
            Err(other) => panic!("unexpected failure: {other}"),
        }
        drop(evil);

        // The good session is unaffected, round after round.
        let points = random_queries(&mut rng, 100);
        let (rev, answers) = good.locate_batch(&points).expect("good session lives");
        assert_eq!(rev, revision);
        let local =
            build_backend(BackendId::SimdScan, 0.0, &mirror).expect("exact backends always build");
        let mut expected = vec![Located::Silent; points.len()];
        local.locate_batch(&points, &mut expected);
        assert_eq!(answers, expected, "round {round}");
    }
    drop(good);
    handle.shutdown();
}

/// Pipelined mode ≡ request/response mode, bit-for-bit, over both
/// transports — the PR-5 contract: keeping multiple `LocateBatch`
/// frames in flight changes scheduling (the engine's tiled executor is
/// never starved between bursts), never answers. The bound network is
/// large enough (and the bursts long enough) that the server-side
/// engine actually runs the tiled pruned path.
#[test]
fn pipelined_locate_stream_matches_request_response() {
    let n = 160; // ≥ TILED_MIN_STATIONS: the session engine tiles.
    let half = 2.0 * (n as f64).sqrt();
    let net = sinr_core::gen::random_uniform_network(0x9139, n, half, 0.01, 2.0).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9139 ^ 1);
    let bursts: Vec<Vec<Point>> = (0..6)
        .map(|_| {
            (0..2200)
                .map(|_| {
                    Point::new(
                        rng.gen_range(-half * 1.1..half * 1.1),
                        rng.gen_range(-half * 1.1..half * 1.1),
                    )
                })
                .collect()
        })
        .collect();
    let burst_refs: Vec<&[Point]> = bursts.iter().map(|b| b.as_slice()).collect();

    let server = Server::bind("127.0.0.1:0").expect("bind ephemeral");
    let handle = server.spawn().expect("spawn server");

    for backend in [BackendId::SimdScan, BackendId::VoronoiAssisted] {
        // Request/response reference over TCP.
        let mut rr = Client::connect(handle.addr()).expect("connect rr");
        rr.bind_network(backend, 0.0, &net).expect("bind rr");
        let reference: Vec<(u64, Vec<Located>)> = bursts
            .iter()
            .map(|b| rr.locate_batch(b).expect("rr burst"))
            .collect();

        // The same stream pipelined at several window sizes, TCP.
        for in_flight in [1usize, 3, 6] {
            let mut piped = Client::connect(handle.addr()).expect("connect piped");
            piped.bind_network(backend, 0.0, &net).expect("bind piped");
            let got = piped
                .locate_batches_pipelined(&burst_refs, in_flight)
                .expect("pipelined stream");
            assert_eq!(
                got, reference,
                "{backend}: pipelined (window {in_flight}) diverged from request/response"
            );
        }

        // And over the in-process pipe: same frames, no sockets. The
        // pipe buffers unboundedly, so the widened byte budget lets
        // the full window actually stay in flight.
        let mut piped = sinr_server::serve_in_process();
        piped.bind_network(backend, 0.0, &net).expect("bind pipe");
        let got = piped
            .locate_batches_pipelined_with_budget(&burst_refs, 6, usize::MAX)
            .expect("pipe pipelined stream");
        assert_eq!(got, reference, "{backend}: pipe pipelined diverged");

        // The reference itself against a fresh local engine.
        let local = build_backend(backend, 0.0, &net).expect("exact backends always build");
        for ((rev, answers), burst) in reference.iter().zip(&bursts) {
            assert_eq!(*rev, net.revision());
            let mut expected = vec![Located::Silent; burst.len()];
            local.locate_batch(burst, &mut expected);
            assert_eq!(answers, &expected, "{backend}: server diverged from local");
        }
    }
    handle.shutdown();
}

/// A few heavy clients on the default pool: `available_parallelism() +
/// 2` sessions, more than there are workers, each streaming
/// `LocateBatch` frames above the engine's parallel threshold, so
/// sessions share workers while every batch also fans out on its own.
/// Every answer is bit-identical to a local engine, whether the session
/// owns its engine or shares a registered one, and shutdown leaks
/// nothing.
#[test]
fn default_pool_serves_more_heavy_clients_than_workers() {
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get()) + 2;
    let n = 160;
    let half = 2.0 * (n as f64).sqrt();
    let net = sinr_core::gen::random_uniform_network(0x4EA7, n, half, 0.01, 2.0).unwrap();
    let handle = Server::bind("127.0.0.1:0")
        .expect("bind ephemeral")
        .spawn()
        .expect("spawn server");
    let addr = handle.addr();
    let mut registrar = Client::connect(addr).expect("connect registrar");
    registrar.register_network("heavy", &net).expect("register");

    std::thread::scope(|s| {
        for k in 0..clients {
            let net = &net;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                if k % 2 == 0 {
                    client
                        .bind_network(BackendId::SimdScan, 0.0, net)
                        .expect("bind");
                } else {
                    client
                        .attach("heavy", BackendId::SimdScan, 0.0)
                        .expect("attach");
                }
                let local = build_backend(BackendId::SimdScan, 0.0, net)
                    .expect("exact backends always build");
                let mut rng = rand::rngs::StdRng::seed_from_u64(0x4EA7 ^ k as u64);
                for frame in 0..4 {
                    let points: Vec<Point> = (0..PARALLEL_BATCH_THRESHOLD + 500)
                        .map(|_| {
                            Point::new(
                                rng.gen_range(-half * 1.1..half * 1.1),
                                rng.gen_range(-half * 1.1..half * 1.1),
                            )
                        })
                        .collect();
                    let (rev, answers) = client.locate_batch(&points).expect("heavy batch");
                    assert_eq!(rev, 0, "client {k}, frame {frame}");
                    let mut expected = vec![Located::Silent; points.len()];
                    local.locate_batch(&points, &mut expected);
                    assert_eq!(answers, expected, "client {k}, frame {frame}");
                }
            });
        }
    });
    drop(registrar);
    assert_eq!(handle.shutdown(), 0);
}

/// An error frame occupies its request's slot in the response order, so
/// a pipelined client never loses alignment: Located, Error, Located —
/// exactly the send order.
#[test]
fn pipelined_errors_keep_their_response_slot() {
    let net = random_network(0xE5, true);
    let mut client = sinr_server::serve_in_process();
    client
        .bind_network(BackendId::ExactScan, 0.0, &net)
        .expect("bind");
    let burst = vec![Point::new(0.1, 0.2); 64];
    client.send_locate_batch(&burst).expect("send 1");
    client.send_raw(&[0x7F, 1, 2, 3]).expect("send malformed");
    client.send_locate_batch(&burst).expect("send 2");
    let (rev1, first) = client.recv_located().expect("first answer");
    match client.recv() {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::MalformedFrame, "slot 2 is the error")
        }
        other => panic!("expected the malformed-frame error in slot 2, got {other:?}"),
    }
    let (rev2, second) = client.recv_located().expect("third answer");
    assert_eq!(rev1, rev2);
    assert_eq!(first, second, "identical bursts, identical answers");
}

/// The qds backend does not implement stochastic channels: a
/// `ReceptionProbBatch` gets the typed `ChannelUnsupported` error, the
/// session is unbound afterwards (same discipline as `Unsupported`),
/// and a fresh `Bind` on the same connection brings it back.
#[test]
fn qds_channel_request_unbinds_with_typed_error() {
    let net = Network::uniform(
        vec![
            Point::new(0.0, 0.0),
            Point::new(6.0, 0.0),
            Point::new(3.0, 5.0),
        ],
        0.0,
        2.0,
    )
    .unwrap();
    let mut client = sinr_server::serve_in_process();
    client
        .bind_network(BackendId::Qds, 0.3, &net)
        .expect("qds bind");

    let err = client
        .reception_prob_batch(
            16,
            7,
            &ChannelModel::RayleighFading,
            &[Point::new(0.5, 0.0)],
        )
        .expect_err("qds must refuse stochastic channels");
    match err {
        ClientError::Server { code, message } => {
            assert_eq!(code, ErrorCode::ChannelUnsupported);
            assert!(
                message.contains("qds"),
                "message names the backend: {message}"
            );
        }
        other => panic!("wrong error: {other}"),
    }
    // Unbound: the next query is NotBound, exactly like `Unsupported`.
    let err = client
        .locate_batch(&[Point::new(0.0, 0.0)])
        .expect_err("session must be unbound after ChannelUnsupported");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::NotBound),
        other => panic!("wrong error: {other}"),
    }
    // The connection itself survives: rebinding works.
    client
        .bind_network(BackendId::ExactScan, 0.0, &net)
        .expect("rebind after unbind");
    let (_, values) = client
        .reception_prob_batch(
            16,
            7,
            &ChannelModel::RayleighFading,
            &[Point::new(0.5, 0.0)],
        )
        .expect("exact_scan serves channels");
    assert_eq!(values.len(), 1);

    // Invalid channel specs are per-request: the session survives them.
    let err = client
        .reception_prob_batch(
            16,
            7,
            &ChannelModel::LogNormalShadowing { sigma_db: -1.0 },
            &[Point::new(0.5, 0.0)],
        )
        .expect_err("negative sigma is invalid");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::InvalidChannel),
        other => panic!("wrong error: {other}"),
    }
    let err = client
        .reception_prob_batch(0, 7, &ChannelModel::RayleighFading, &[Point::new(0.5, 0.0)])
        .expect_err("zero trials is invalid");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::InvalidChannel),
        other => panic!("wrong error: {other}"),
    }
    let (_, values) = client
        .reception_prob_batch(16, 7, &ChannelModel::Deterministic, &[Point::new(0.5, 0.0)])
        .expect("session survives InvalidChannel");
    assert_eq!(values.len(), 1);
}

/// Seeded `ReceptionProbBatch` answers are pinned across the server
/// boundary and across mutation: after a churn of surgery frames, the
/// server's (incrementally patched) engine answers the same seeded
/// Monte-Carlo batch bit-identically to a fresh local engine at the
/// same revision — and replaying the identical request frame returns
/// the identical bytes.
#[test]
fn seeded_reception_probs_pinned_across_server_and_mutation() {
    let server = Server::bind("127.0.0.1:0").expect("bind ephemeral");
    let handle = server.spawn().expect("spawn server");

    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
    let mut mirror = random_network(0xC0FFEE, false);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut revision = client
        .bind_network(BackendId::SimdScan, 0.0, &mirror)
        .expect("bind");

    // Churn the network so the served engine is the patched one, never
    // a fresh build.
    for _ in 0..12 {
        let ops = random_timestep(&mut rng, &mut mirror, false);
        revision = client.mutate(revision, &ops).expect("mutate");
    }
    assert_eq!(revision, mirror.revision());

    let channel = ChannelModel::Composed(vec![
        ChannelModel::LogNormalShadowing { sigma_db: 4.0 },
        ChannelModel::RayleighFading,
    ]);
    let points = random_queries(&mut rng, 300);
    let (rev, first) = client
        .reception_prob_batch(48, 0x5EED, &channel, &points)
        .expect("server answers");
    assert_eq!(rev, mirror.revision());

    let local =
        build_backend(BackendId::SimdScan, 0.0, &mirror).expect("exact backends always build");
    let mut expected = vec![0.0; points.len()];
    local
        .reception_probability_batch(&channel, McConfig::new(48, 0x5EED), &points, &mut expected)
        .expect("local replay");
    for (k, (got, want)) in first.iter().zip(&expected).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "server diverged from fresh local engine at point {k}"
        );
    }

    // Replaying the identical request is bit-identical.
    let (_, second) = client
        .reception_prob_batch(48, 0x5EED, &channel, &points)
        .expect("replay");
    assert_eq!(
        first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        second.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
    // A different seed decorrelates (some point must differ).
    let (_, other_seed) = client
        .reception_prob_batch(48, 0x5EED ^ 1, &channel, &points)
        .expect("other seed");
    assert_ne!(first, other_seed, "different seeds must decorrelate");
    drop(client);
    handle.shutdown();
}
