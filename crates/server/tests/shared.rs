//! End-to-end suite for the shared-engine serving path: named networks
//! (`Register`/`Attach`), RCU snapshot publication, the worker-pool
//! session loop, SINR-quantile frames, and shutdown with idle sessions.
//!
//! The differential discipline is the same as `e2e.rs`: every server
//! answer is compared **bit-for-bit** against a fresh local engine
//! built from a client-side mirror of the network at the same revision.
//! What is new here is *who shares what*: many sessions attached to one
//! named network must answer from one shared snapshot per (backend,
//! revision) — asserted through the registry's introspection surface
//! (`Arc` identity, store counts), not just through answer equality.

use rand::{Rng, SeedableRng};
use sinr_core::engine::{BoxedEngine, QueryEngine};
use sinr_core::{ChannelModel, Located, McConfig, Network, StationId, SurgeryOp};
use sinr_geometry::Point;
use sinr_server::registry::build_backend;
use sinr_server::{BackendId, Client, ClientError, ErrorCode, Server, TcpTransport};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn grid_network(n_side: usize) -> Network {
    let mut b = Network::builder().background_noise(0.02).threshold(1.5);
    for i in 0..n_side {
        for j in 0..n_side {
            b = b.station(Point::new(i as f64 * 3.0, j as f64 * 3.0));
        }
    }
    b.build().expect("grid network")
}

fn random_queries(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.gen_range(-8.0..12.0), rng.gen_range(-8.0..12.0)))
        .collect()
}

fn assert_locate_matches(
    client: &mut Client<TcpTransport>,
    backend: BackendId,
    mirror: &Network,
    points: &[Point],
    what: &str,
) {
    let (rev, answers) = client
        .locate_batch(points)
        .unwrap_or_else(|e| panic!("{what}: locate failed: {e}"));
    assert_eq!(rev, mirror.revision(), "{what}: revision fence");
    let local = build_backend(backend, 0.0, mirror).expect("exact backends always build");
    let mut expected = vec![Located::Silent; points.len()];
    local.locate_batch(points, &mut expected);
    assert_eq!(answers, expected, "{what}: locate diff");
}

/// Register once, attach several clients with mixed backends, mutate
/// through one of them, and check every answer bit-for-bit against a
/// fresh local engine at the fenced revision — the shared-path
/// differential test.
#[test]
fn attached_sessions_differential_with_mutation() {
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    let mut mirror = grid_network(3);
    let mut registrar = Client::connect(addr).expect("connect");
    let rev = registrar
        .register_network("cell-grid", &mirror)
        .expect("register");
    assert_eq!(rev, 0);

    let backends = [
        BackendId::ExactScan,
        BackendId::SimdScan,
        BackendId::VoronoiAssisted,
        BackendId::ExactScan,
    ];
    let mut clients: Vec<(Client<TcpTransport>, BackendId)> = backends
        .iter()
        .map(|&backend| {
            let mut c = Client::connect(addr).expect("connect");
            let rev = c.attach("cell-grid", backend, 0.0).expect("attach");
            assert_eq!(rev, mirror.revision(), "attach revision");
            (c, backend)
        })
        .collect();

    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5A4E);
    for round in 0..12 {
        // Every attached session answers for the current shared
        // revision, each through its own backend.
        let points = random_queries(&mut rng, 48);
        for (client, backend) in &mut clients {
            assert_locate_matches(
                client,
                *backend,
                &mirror,
                &points,
                &format!("round {round}"),
            );
        }
        // SINR + quantiles through one of the clients (exact kernels
        // are shared, so any backend agrees with ExactScan on sinrs).
        let station = StationId(rng.gen_range(0..mirror.len()));
        let (rev, sinrs) = clients[0]
            .0
            .sinr_batch(station, &points)
            .expect("sinr_batch");
        assert_eq!(rev, mirror.revision());
        let local =
            build_backend(BackendId::ExactScan, 0.0, &mirror).expect("exact backends always build");
        let mut expected = vec![0.0; points.len()];
        local.sinr_batch(station, &points, &mut expected);
        for (k, (got, want)) in sinrs.iter().zip(&expected).enumerate() {
            assert!(
                got == want || (got.is_infinite() && want.is_infinite()),
                "sinr diff at {k}: {got} vs {want}"
            );
        }

        // Mutate through a rotating client; every mirror-valid op list
        // is accepted once, fenced at the shared revision.
        let mutator = round % clients.len();
        let op = SurgeryOp::Move {
            id: StationId(rng.gen_range(0..mirror.len())),
            to: Point::new(rng.gen_range(-6.0..10.0), rng.gen_range(-6.0..10.0)),
        };
        let fenced = mirror.revision();
        mirror.apply_op(&op).expect("mirror op");
        let new_rev = clients[mutator]
            .0
            .mutate(fenced, &[op])
            .expect("shared mutate");
        assert_eq!(new_rev, mirror.revision(), "published revision");
    }

    // A mutate fenced at a stale revision is rejected for everyone.
    let op = SurgeryOp::Move {
        id: StationId(0),
        to: Point::new(1.0, 1.0),
    };
    match clients[1].0.mutate(0, &[op]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::RevisionMismatch),
        other => panic!("expected RevisionMismatch, got {other:?}"),
    }

    drop(clients);
    drop(registrar);
    handle.shutdown();
}

/// The memory-scaling acceptance test: N sessions attached with one
/// backend share exactly one snapshot store and one published snapshot
/// `Arc`; a mutation publishes a *new* snapshot while the old one —
/// still held by an in-flight reader — keeps answering at its own
/// revision and is freed when that reader lets go.
#[test]
fn snapshots_are_shared_and_rcu_published() {
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let registry = server.registry();
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    let mut mirror = grid_network(3);
    let mut clients: Vec<Client<TcpTransport>> = Vec::new();
    let mut first = Client::connect(addr).expect("connect");
    first.register_network("shared", &mirror).expect("register");
    first
        .attach("shared", BackendId::ExactScan, 0.0)
        .expect("attach");
    clients.push(first);
    for _ in 0..7 {
        let mut c = Client::connect(addr).expect("connect");
        c.attach("shared", BackendId::ExactScan, 0.0)
            .expect("attach");
        clients.push(c);
    }
    let probe = [Point::new(0.5, 0.2), Point::new(4.0, 4.0)];
    for c in &mut clients {
        let (rev, _) = c.locate_batch(&probe).expect("query");
        assert_eq!(rev, 0);
    }

    let named = registry.get("shared").expect("registered network");
    assert_eq!(
        named.store_count(),
        1,
        "8 sessions, one backend: exactly one store"
    );

    // One published snapshot Arc, shared by every load of revision 0.
    let snap0 = named
        .snapshot(BackendId::ExactScan, 0.0)
        .expect("published snapshot");
    let again = named.snapshot(BackendId::ExactScan, 0.0).expect("reload");
    assert!(Arc::ptr_eq(&snap0, &again), "loads of one revision share");
    drop(again);
    assert_eq!(snap0.revision(), 0);

    // A second backend flavour adds exactly one more store — memory
    // scales with (network, backend) pairs, not with session count.
    let mut simd = Client::connect(addr).expect("connect");
    simd.attach("shared", BackendId::SimdScan, 0.0)
        .expect("attach simd");
    assert_eq!(named.store_count(), 2);

    // Mutate: a NEW snapshot is published for everyone...
    snap0.engine().freshness().expect("old snapshot serves");
    let before = snap0.engine().locate(Point::new(0.5, 0.2));
    let op = SurgeryOp::Move {
        id: StationId(0),
        to: Point::new(7.5, 7.5),
    };
    mirror.apply_op(&op).expect("mirror op");
    let new_rev = clients[3]
        .mutate(0, &[op])
        .expect("mutate through an attached session");
    assert_eq!(new_rev, 1);
    let snap1 = named
        .snapshot(BackendId::ExactScan, 0.0)
        .expect("new snapshot");
    assert_eq!(snap1.revision(), 1);
    assert!(
        !Arc::ptr_eq(&snap0, &snap1),
        "mutation must publish a fresh snapshot"
    );

    // ...while the old Arc (an in-flight reader) still answers for its
    // own revision, unaffected by the mutation (RCU grace period).
    snap0
        .engine()
        .freshness()
        .expect("frozen snapshot never goes stale");
    assert_eq!(snap0.engine().locate(Point::new(0.5, 0.2)), before);
    assert_eq!(snap0.revision(), 0);
    // The store released revision 0 at publication: this test is the
    // last holder, so dropping `snap0` frees that engine.
    assert_eq!(Arc::strong_count(&snap0), 1, "old snapshot ready to free");

    // Every attached session observes the new revision on its next
    // query, bit-identically to a fresh local engine at that revision.
    for c in &mut clients {
        assert_locate_matches(c, BackendId::ExactScan, &mirror, &probe, "post-mutate");
    }

    drop(clients);
    drop(simd);
    handle.shutdown();
}

/// The worker-pool acceptance test: hundreds of concurrent connections
/// on a fixed-size pool, all attached to one named network, mixing
/// Attach / Mutate / LocateBatch — every answer bit-identical to a
/// fresh local engine at the fenced revision.
#[test]
fn worker_pool_serves_hundreds_of_light_clients() {
    const CLIENTS: usize = 260;
    const POOL: usize = 4;

    let server = Server::bind("127.0.0.1:0").expect("bind");
    let handle = server.spawn_pooled(POOL).expect("spawn pooled");
    let addr = handle.addr();

    let mut mirror = grid_network(3);
    let mut registrar = Client::connect(addr).expect("connect");
    registrar
        .register_network("popular", &mirror)
        .expect("register");

    // Hundreds of concurrently-open light sessions on POOL worker
    // threads. All attach up front and stay connected throughout.
    let mut clients: Vec<Client<TcpTransport>> = (0..CLIENTS)
        .map(|k| {
            let mut c = Client::connect(addr).unwrap_or_else(|e| panic!("connect client {k}: {e}"));
            let rev = c
                .attach("popular", BackendId::ExactScan, 0.0)
                .unwrap_or_else(|e| panic!("attach client {k}: {e}"));
            assert_eq!(rev, 0);
            c
        })
        .collect();

    // Two query phases around a mutation, each phase driven by 8
    // threads over disjoint slices of the open connections — real
    // concurrent in-flight frames on the pool.
    for phase in 0..2 {
        let mirror_ref = &mirror;
        std::thread::scope(|s| {
            for (slice_idx, chunk) in clients.chunks_mut(CLIENTS / 8 + 1).enumerate() {
                s.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(
                        0xC11E47 ^ ((phase as u64) << 32) ^ slice_idx as u64,
                    );
                    for (k, client) in chunk.iter_mut().enumerate() {
                        let points = random_queries(&mut rng, 24);
                        assert_locate_matches(
                            client,
                            BackendId::ExactScan,
                            mirror_ref,
                            &points,
                            &format!("phase {phase}, slice {slice_idx}, client {k}"),
                        );
                    }
                });
            }
        });
        if phase == 0 {
            // One attached session mutates; every one of the hundreds
            // of others observes the published snapshot next query.
            let op = SurgeryOp::Move {
                id: StationId(4),
                to: Point::new(-2.0, 5.0),
            };
            let fenced = mirror.revision();
            mirror.apply_op(&op).expect("mirror op");
            let rev = clients[17].mutate(fenced, &[op]).expect("pooled mutate");
            assert_eq!(rev, mirror.revision());
        }
    }

    // The pool multiplexed every connection: store sharing held.
    let named = handle.registry().get("popular").expect("registered");
    assert_eq!(named.store_count(), 1);

    drop(clients);
    drop(registrar);
    handle.shutdown();
}

/// One mixed script (register, attach, bind-private, mutate through
/// each, then locate, SINR and quantiles) on the pool: the attached and
/// the private session both answer bit-identically to a fresh local
/// engine on the mirror network.
#[test]
fn pooled_answers_match_local_engines() {
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let handle = server.spawn_pooled(2).expect("spawn pooled");
    let addr = handle.addr();
    let mut mirror = grid_network(2);

    let mut a = Client::connect(addr).expect("connect");
    a.register_network("n", &mirror).expect("register");
    a.attach("n", BackendId::SimdScan, 0.0).expect("attach");
    let mut b = Client::connect(addr).expect("connect");
    b.attach("n", BackendId::SimdScan, 0.0).expect("attach");
    let mut private = Client::connect(addr).expect("connect");
    private
        .bind_network(BackendId::SimdScan, 0.0, &mirror)
        .expect("bind");

    let op = SurgeryOp::SetPower {
        id: StationId(1),
        power: 1.7,
    };
    mirror.apply_op(&op).expect("mirror");
    a.mutate(0, std::slice::from_ref(&op)).expect("mutate");
    private.mutate(0, &[op]).expect("private mutate");

    let points: Vec<Point> = (0..40)
        .map(|k| Point::new(k as f64 * 0.31 - 4.0, (k % 7) as f64 * 0.83 - 2.0))
        .collect();
    let channel = ChannelModel::LogNormalShadowing { sigma_db: 3.0 };
    let quantiles = [0.1, 0.5, 0.9];
    let local =
        build_backend(BackendId::SimdScan, 0.0, &mirror).expect("exact backends always build");
    let mut want_sinrs = vec![0.0; points.len()];
    local.sinr_batch(StationId(0), &points, &mut want_sinrs);
    let mut want_quants = vec![0.0; points.len() * quantiles.len()];
    local
        .sinr_quantiles_batch(
            &channel,
            McConfig::new(16, 7),
            StationId(0),
            &points,
            &quantiles,
            &mut want_quants,
        )
        .expect("local quantiles");

    for (what, client) in [("attached", &mut b), ("private", &mut private)] {
        assert_locate_matches(client, BackendId::SimdScan, &mirror, &points, what);
        let (rev, sinrs) = client.sinr_batch(StationId(0), &points).expect("sinrs");
        assert_eq!(rev, 1, "{what}");
        let (_, quants) = client
            .sinr_quantiles_batch(StationId(0), 16, 7, &channel, &quantiles, &points)
            .expect("quantiles");
        for (got, want) in sinrs.iter().zip(&want_sinrs) {
            assert_eq!(got.to_bits(), want.to_bits(), "{what}: sinr answers differ");
        }
        for (got, want) in quants.iter().zip(&want_quants) {
            assert_eq!(got.to_bits(), want.to_bits(), "{what}: quantiles differ");
        }
    }
    drop((a, b, private));
    assert_eq!(handle.shutdown(), 0);
}

/// `SinrQuantilesBatch` differential on both the private (`Bind`) and
/// shared (`Attach`) paths, plus its typed failure corners.
#[test]
fn quantiles_differential_and_typed_corners() {
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();
    let net = grid_network(3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0CAF);

    let check = |client: &mut Client<TcpTransport>, what: &str, rng: &mut rand::rngs::StdRng| {
        let channel = ChannelModel::LogNormalShadowing { sigma_db: 2.5 };
        let quantiles = [0.0, 0.25, 0.5, 0.9, 1.0];
        let points = random_queries(rng, 33);
        let station = StationId(2);
        let (rev, values) = client
            .sinr_quantiles_batch(station, 24, 99, &channel, &quantiles, &points)
            .unwrap_or_else(|e| panic!("{what}: quantiles failed: {e}"));
        assert_eq!(rev, 0, "{what}");
        assert_eq!(values.len(), points.len() * quantiles.len(), "{what}");
        let local = BoxedEngine::exact_scan(&net);
        let mut expected = vec![0.0; values.len()];
        local
            .sinr_quantiles_batch(
                &channel,
                McConfig::new(24, 99),
                station,
                &points,
                &quantiles,
                &mut expected,
            )
            .expect("local replay");
        for (k, (got, want)) in values.iter().zip(&expected).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what}: quantile diff at slot {k}: {got} vs {want}"
            );
        }
    };

    // Private path.
    let mut private = Client::connect(addr).expect("connect");
    private
        .bind_network(BackendId::ExactScan, 0.0, &net)
        .expect("bind");
    check(&mut private, "private", &mut rng);

    // Shared path: same answers, served from the shared snapshot.
    private.register_network("q", &net).expect("register");
    let mut shared = Client::connect(addr).expect("connect");
    shared
        .attach("q", BackendId::ExactScan, 0.0)
        .expect("attach");
    check(&mut shared, "attached", &mut rng);

    // Typed corners, all per-request (the session survives each).
    let p = [Point::new(0.5, 0.5)];
    match shared.sinr_quantiles_batch(
        StationId(99),
        8,
        1,
        &ChannelModel::Deterministic,
        &[0.5],
        &p,
    ) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::StationOutOfRange),
        other => panic!("expected StationOutOfRange, got {other:?}"),
    }
    match shared.sinr_quantiles_batch(StationId(0), 8, 1, &ChannelModel::Deterministic, &[1.5], &p)
    {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::InvalidChannel),
        other => panic!("expected InvalidChannel for quantile 1.5, got {other:?}"),
    }
    // A grid whose response could not fit one frame is refused, typed.
    let many_points = vec![Point::new(0.0, 0.0); 60_000];
    let many_quantiles = vec![0.5; 40_000];
    match shared.sinr_quantiles_batch(
        StationId(0),
        8,
        1,
        &ChannelModel::Deterministic,
        &many_quantiles,
        &many_points,
    ) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::MalformedFrame);
            assert!(message.contains("frame limit"), "message: {message}");
        }
        other => panic!("expected MalformedFrame for oversized grid, got {other:?}"),
    }
    // Still attached and serving after every typed error.
    let (rev, _) = shared.locate_batch(&p).expect("still attached");
    assert_eq!(rev, 0);

    drop(private);
    drop(shared);
    handle.shutdown();
}

/// A mutation the attached backend cannot represent poisons only that
/// backend's shared store: its sessions detach with a typed error (and
/// can re-attach with a capable backend); other backends keep serving.
#[test]
fn poisoned_store_detaches_only_its_backend() {
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    // β > 1, uniform power: qds-eligible.
    let net = Network::uniform(
        vec![
            Point::new(0.0, 0.0),
            Point::new(6.0, 0.0),
            Point::new(3.0, 5.0),
        ],
        0.01,
        1.6,
    )
    .expect("uniform net");

    let mut exact = Client::connect(addr).expect("connect");
    exact.register_network("uni", &net).expect("register");
    exact
        .attach("uni", BackendId::ExactScan, 0.0)
        .expect("attach exact");
    let mut qds = Client::connect(addr).expect("connect");
    qds.attach("uni", BackendId::Qds, 0.25).expect("attach qds");

    let probe = [Point::new(0.5, 0.1)];
    qds.locate_batch(&probe).expect("qds serves while uniform");
    let named = handle.registry().get("uni").expect("registered");
    assert_eq!(named.store_count(), 2);

    // Non-uniform power: the qds store cannot follow and is poisoned.
    let rev = exact
        .mutate(
            0,
            &[SurgeryOp::SetPower {
                id: StationId(0),
                power: 2.0,
            }],
        )
        .expect("the mutation itself succeeds");
    assert_eq!(rev, 1);
    assert_eq!(named.store_count(), 1, "poisoned store dropped");

    // The qds session detaches with the typed code...
    match qds.locate_batch(&probe) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::UnknownNetwork);
            assert!(message.contains("detached"), "message: {message}");
        }
        other => panic!("expected UnknownNetwork detach, got {other:?}"),
    }
    // ...is then unbound...
    match qds.locate_batch(&probe) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::NotBound),
        other => panic!("expected NotBound after detach, got {other:?}"),
    }
    // ...and may re-attach with a backend that can represent the
    // mutated network.
    let rev = qds
        .attach("uni", BackendId::SimdScan, 0.0)
        .expect("re-attach");
    assert_eq!(rev, 1);
    qds.locate_batch(&probe).expect("serving again");

    // The exact session never noticed.
    let (rev, _) = exact.locate_batch(&probe).expect("exact still attached");
    assert_eq!(rev, 1);

    drop(exact);
    drop(qds);
    handle.shutdown();
}

/// An attached session whose own `Mutate` poisons its own store is
/// answered `Unsupported` and unbound on the spot, exactly like a bound
/// session; the mutation itself stands, and a session attached with a
/// backend that can represent it reads the new revision.
#[test]
fn own_poisoning_mutate_unbinds_an_attached_session() {
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    let mut mirror = grid_network(2);
    let mut exact = Client::connect(addr).expect("connect");
    exact.register_network("own", &mirror).expect("register");
    exact
        .attach("own", BackendId::ExactScan, 0.0)
        .expect("attach exact");
    let mut qds = Client::connect(addr).expect("connect");
    qds.attach("own", BackendId::Qds, 0.25).expect("attach qds");

    let op = SurgeryOp::SetPower {
        id: StationId(0),
        power: 2.0,
    };
    match qds.mutate(0, &[op]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Unsupported),
        other => panic!("expected Unsupported, got {other:?}"),
    }
    let probe = [Point::new(0.5, 0.1)];
    match qds.locate_batch(&probe) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::NotBound),
        other => panic!("expected NotBound after Unsupported, got {other:?}"),
    }

    mirror.apply_op(&op).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(15);
    let points = random_queries(&mut rng, 200);
    let (rev, answers) = exact.locate_batch(&points).expect("exact still attached");
    assert_eq!(rev, mirror.revision());
    let mut expected = vec![Located::Silent; points.len()];
    build_backend(BackendId::ExactScan, 0.0, &mirror)
        .expect("exact backends always build")
        .locate_batch(&points, &mut expected);
    assert_eq!(answers, expected);

    drop(exact);
    drop(qds);
    handle.shutdown();
}

/// Registration and attachment failure corners, all typed and all
/// survivable.
#[test]
fn register_attach_corners_are_typed() {
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();
    let net = grid_network(2);

    let mut c = Client::connect(addr).expect("connect");
    // Attach before anything is registered: UnknownNetwork, session
    // stays usable.
    match c.attach("ghost", BackendId::ExactScan, 0.0) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownNetwork),
        other => panic!("expected UnknownNetwork, got {other:?}"),
    }
    c.register_network("réseau-7", &net).expect("register");
    // Duplicate name: NameTaken.
    match c.register_network("réseau-7", &net) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::NameTaken),
        other => panic!("expected NameTaken, got {other:?}"),
    }
    // Bad qds epsilon at attach: BackendBuild, still unbound.
    match c.attach("réseau-7", BackendId::Qds, 2.0) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BackendBuild),
        other => panic!("expected BackendBuild, got {other:?}"),
    }
    c.attach("réseau-7", BackendId::ExactScan, 0.0)
        .expect("attach after errors");
    // Attach while attached / bind while attached: AlreadyBound.
    match c.attach("réseau-7", BackendId::ExactScan, 0.0) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::AlreadyBound),
        other => panic!("expected AlreadyBound, got {other:?}"),
    }
    match c.bind_network(BackendId::ExactScan, 0.0, &net) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::AlreadyBound),
        other => panic!("expected AlreadyBound, got {other:?}"),
    }
    // Register from an attached session is fine (mode unchanged).
    c.register_network("second", &net)
        .expect("register while attached");
    let (rev, _) = c
        .locate_batch(&[Point::new(0.1, 0.1)])
        .expect("still attached");
    assert_eq!(rev, 0);

    // A bound (private) session may also register, and its binding
    // survives.
    let mut private = Client::connect(addr).expect("connect");
    private
        .bind_network(BackendId::SimdScan, 0.0, &net)
        .expect("bind");
    private
        .register_network("third", &net)
        .expect("register from bound session");
    match private.attach("third", BackendId::ExactScan, 0.0) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::AlreadyBound),
        other => panic!("expected AlreadyBound, got {other:?}"),
    }
    private
        .locate_batch(&[Point::new(0.0, 0.0)])
        .expect("binding intact");

    drop(c);
    drop(private);
    handle.shutdown();
}

/// Idle connected sessions cannot wedge `ServerHandle::shutdown`: their
/// sockets are closed and the join returns promptly.
#[test]
fn shutdown_returns_despite_idle_connected_sessions() {
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    // Three connected clients; one bound mid-conversation, two idle
    // since connecting. None will ever disconnect on their own.
    let mut bound = Client::connect(addr).expect("connect");
    bound
        .bind_network(BackendId::ExactScan, 0.0, &grid_network(2))
        .expect("bind");
    let idle_a = Client::connect(addr).expect("connect");
    let idle_b = Client::connect(addr).expect("connect");

    let started = Instant::now();
    handle.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(8),
        "shutdown wedged on idle sessions: {took:?}"
    );
    drop(bound);
    drop(idle_a);
    drop(idle_b);
}

/// Same contract on an explicitly sized pool.
#[test]
fn pooled_shutdown_returns_despite_idle_sessions() {
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let handle = server.spawn_pooled(2).expect("spawn pooled");
    let addr = handle.addr();

    let mut active = Client::connect(addr).expect("connect");
    active
        .register_network("n", &grid_network(2))
        .expect("register");
    active
        .attach("n", BackendId::ExactScan, 0.0)
        .expect("attach");
    active
        .locate_batch(&[Point::new(0.0, 0.0)])
        .expect("serving");
    let idle = Client::connect(addr).expect("connect");

    let started = Instant::now();
    handle.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(8),
        "pooled shutdown wedged: {took:?}"
    );
    drop(active);
    drop(idle);
}

/// `HeatmapBatch` differential: the server's hierarchical raster must
/// equal a local dense raster pixel-for-pixel, in both engine-ownership
/// modes, and the guard rails (degenerate window, oversized grid,
/// unbound session) must answer typed errors without killing the
/// session.
#[test]
fn heatmap_batch_differential_and_guards() {
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();
    let net = grid_network(3);
    let min = Point::new(-4.0, -3.0);
    let max = Point::new(10.0, 9.5);
    let (w, h) = (96u32, 64u32);

    let check = |client: &mut Client<TcpTransport>, backend: BackendId, what: &str| {
        let (rev, cells, cells_evaluated) = client
            .heatmap_batch(min, max, w, h)
            .unwrap_or_else(|e| panic!("{what}: heatmap failed: {e}"));
        assert_eq!(rev, net.revision(), "{what}: revision fence");
        assert_eq!(cells.len(), (w * h) as usize, "{what}: pixel count");
        assert!(
            cells_evaluated <= u64::from(w * h),
            "{what}: evaluated more pixels than exist"
        );
        // The server contract: identical to locating every pixel centre
        // on the same backend (dense raster, bottom-first row-major).
        let local = build_backend(backend, 0.0, &net).expect("exact backends always build");
        let dense = sinr_diagram::ReceptionMap::compute_with_engine(
            &local,
            sinr_geometry::BBox::new(min, max),
            w as usize,
            h as usize,
        );
        for row in 0..h as usize {
            for col in 0..w as usize {
                let expected = match dense.at(col, row) {
                    sinr_diagram::PixelLabel::Heard(i) => Located::Reception(i),
                    sinr_diagram::PixelLabel::Silent => Located::Silent,
                };
                assert_eq!(
                    cells[row * w as usize + col],
                    expected,
                    "{what}: pixel ({col}, {row})"
                );
            }
        }
    };

    // Private mode.
    let mut private = Client::connect(addr).expect("connect");
    private
        .bind_network(BackendId::VoronoiAssisted, 0.0, &net)
        .expect("bind");
    check(&mut private, BackendId::VoronoiAssisted, "private");

    // Attached mode (shared snapshot).
    let mut registrar = Client::connect(addr).expect("connect");
    registrar.register_network("heat", &net).expect("register");
    let mut attached = Client::connect(addr).expect("connect");
    attached
        .attach("heat", BackendId::SimdScan, 0.0)
        .expect("attach");
    check(&mut attached, BackendId::SimdScan, "attached");

    // Unbound session: NotBound, survivable.
    let mut unbound = Client::connect(addr).expect("connect");
    match unbound.heatmap_batch(min, max, w, h) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::NotBound),
        other => panic!("expected NotBound, got {other:?}"),
    }

    // Degenerate windows and zero dims: MalformedFrame, survivable.
    for (bad_min, bad_max, bw, bh) in [
        (min, max, 0u32, 64u32),
        (min, max, 64, 0),
        (min, Point::new(min.x, max.y), 8, 8),
        (min, Point::new(max.x, min.y), 8, 8),
        (Point::new(f64::NAN, 0.0), max, 8, 8),
        (Point::new(f64::NEG_INFINITY, -1.0), max, 8, 8),
    ] {
        match private.heatmap_batch(bad_min, bad_max, bw, bh) {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(
                    code,
                    ErrorCode::MalformedFrame,
                    "for {bad_min:?}..{bad_max:?} {bw}x{bh}"
                )
            }
            other => panic!("expected MalformedFrame, got {other:?}"),
        }
    }
    // Regression: a 2048² grid (4 Mi pixels — whose *worst-case* RLE
    // would be 9 B/pixel ≈ 36 MiB, over the frame limit) must round-trip
    // over the wire, because its *actual* run-length encoding of a few
    // dozen fat reception zones is a few hundred KB. The old guard
    // refused this on the worst-case estimate before computing anything.
    {
        let (w2, h2) = (2048u32, 2048u32);
        let (rev, cells, _) = private
            .heatmap_batch(min, max, w2, h2)
            .expect("2048x2048 near-uniform heatmap must round-trip");
        assert_eq!(rev, net.revision(), "2048²: revision fence");
        assert_eq!(cells.len(), (w2 as usize) * (h2 as usize), "2048²: pixels");
        // Pixel-for-pixel against the same hierarchical raster computed
        // locally (itself pinned bit-identical to the dense sweep by the
        // diagram suites).
        let local = build_backend(BackendId::VoronoiAssisted, 0.0, &net)
            .expect("exact backends always build");
        let (map, _) = sinr_diagram::ReceptionMap::compute_hierarchical_with_engine(
            &local,
            sinr_geometry::BBox::new(min, max),
            w2 as usize,
            h2 as usize,
        );
        for row in 0..h2 as usize {
            for col in 0..w2 as usize {
                let expected = match map.at(col, row) {
                    sinr_diagram::PixelLabel::Heard(i) => Located::Reception(i),
                    sinr_diagram::PixelLabel::Silent => Located::Silent,
                };
                assert_eq!(
                    cells[row * w2 as usize + col],
                    expected,
                    "2048² ({col}, {row})"
                );
            }
        }
    }
    // A grid over the dense pixel cap (16 Mi pixels): refused before any
    // computation — that cap bounds the materialised raster and the
    // client's decode allocation, not the encoded size…
    match private.heatmap_batch(min, max, 8192, 8192) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("expected MalformedFrame for over-cap grid, got {other:?}"),
    }
    // …and the session still serves afterwards.
    check(
        &mut private,
        BackendId::VoronoiAssisted,
        "private after errors",
    );

    drop(private);
    drop(registrar);
    drop(attached);
    drop(unbound);
    handle.shutdown();
}

/// `Unregister` lifecycle: unknown names are typed, live attachments
/// refuse with `StillAttached`, a detached network unregisters, and the
/// name becomes reusable — with the refcount observable through the
/// registry the whole way.
#[test]
fn unregister_refcount_lifecycle() {
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let registry = server.registry();
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();
    let net = grid_network(2);

    let mut admin = Client::connect(addr).expect("connect");
    match admin.unregister_network("ghost") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownNetwork),
        other => panic!("expected UnknownNetwork, got {other:?}"),
    }
    admin.register_network("grid", &net).expect("register");
    assert_eq!(
        registry.get("grid").expect("registered").attached_count(),
        0
    );

    let mut attacher = Client::connect(addr).expect("connect");
    attacher
        .attach("grid", BackendId::ExactScan, 0.0)
        .expect("attach");
    assert_eq!(
        registry.get("grid").expect("registered").attached_count(),
        1
    );
    match admin.unregister_network("grid") {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::StillAttached);
            assert!(message.contains("1 session"), "message: {message}");
        }
        other => panic!("expected StillAttached, got {other:?}"),
    }
    // The refusal changed nothing: the attached session keeps serving.
    attacher
        .locate_batch(&[Point::new(0.0, 0.0)])
        .expect("still attached and serving");

    // Closing the attached session releases the refcount (the session
    // thread drops its guard on EOF — poll for it).
    drop(attacher);
    let network = registry.get("grid").expect("still registered");
    let deadline = Instant::now() + Duration::from_secs(10);
    while network.attached_count() > 0 {
        assert!(
            Instant::now() < deadline,
            "attachment refcount never released after session close"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    admin.unregister_network("grid").expect("unregister");
    assert!(registry.get("grid").is_none(), "name gone after unregister");

    // The name is reusable immediately.
    admin
        .register_network("grid", &net)
        .expect("re-register after unregister");

    drop(admin);
    handle.shutdown();
}
