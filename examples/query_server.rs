//! The streaming query server as a runnable binary.
//!
//! Modes:
//!
//! * no arguments — **self-demo**: bind an ephemeral port, drive a short
//!   TCP client session against it in-process (private `Bind` first,
//!   then a shared `Register`/`Attach` round with concurrent sessions
//!   on one named network), shut down (what CI's example smoke loop
//!   runs);
//! * `--serve-one [--listen ADDR]` — accept exactly one connection,
//!   serve it to completion with the blocking session loop, exit (the
//!   server half of the CI client/server pair smoke);
//! * `--listen ADDR` — serve forever on the worker pool, one worker per
//!   available CPU, multiplexing every connection;
//! * `--listen ADDR --pool N` — the same on exactly N workers.
//!
//! Run with: `cargo run --release --example query_server -- --listen 127.0.0.1:7878 --pool 4`

use sinr_diagrams::prelude::*;
use sinr_diagrams::server::{
    serve_session, BackendId, Client, ClientError, ErrorCode, IoTransport, Server, ServerConfig,
};
use std::net::TcpListener;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let listen = args
        .iter()
        .position(|a| a == "--listen")
        .map(|i| args.get(i + 1).cloned().ok_or("--listen needs an address"))
        .transpose()?;
    let serve_one = args.iter().any(|a| a == "--serve-one");
    let pool: Option<usize> = args
        .iter()
        .position(|a| a == "--pool")
        .map(|i| {
            args.get(i + 1)
                .ok_or("--pool needs a worker count")?
                .parse()
                .map_err(|e| format!("--pool: {e}"))
        })
        .transpose()?;

    match (listen, serve_one) {
        (addr, true) => {
            let listener = TcpListener::bind(addr.as_deref().unwrap_or("127.0.0.1:0"))?;
            println!("serving one session on {}", listener.local_addr()?);
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            serve_session(IoTransport::new(stream));
            println!("session complete; exiting");
        }
        (Some(addr), false) => {
            let server = Server::bind(addr.as_str())?;
            let local = server.local_addr()?;
            // The background accept loop and workers serve every
            // session; this thread only has to stay alive.
            let _handle = match pool {
                Some(workers) => {
                    println!("serving on {local} ({workers}-worker pool; ctrl-c to stop)");
                    server.spawn_pooled(workers)?
                }
                None => {
                    println!("serving on {local} (one worker per CPU; ctrl-c to stop)");
                    server.spawn()?
                }
            };
            loop {
                std::thread::park();
            }
        }
        (None, false) => self_demo()?,
    }
    Ok(())
}

/// Everything over one ephemeral TCP port: bind a network, stream a
/// batch, mutate in place, stream again — the round trip CI smokes.
fn self_demo() -> Result<(), Box<dyn std::error::Error>> {
    let server = Server::bind("127.0.0.1:0")?;
    let handle = server.spawn()?;
    println!("self-demo server on {}", handle.addr());

    let net = Network::builder()
        .station(Point::new(-2.0, 0.0))
        .station(Point::new(2.0, 0.0))
        .station(Point::new(0.0, 3.0))
        .background_noise(0.01)
        .threshold(1.5)
        .build()?;

    let mut client = Client::connect(handle.addr())?;
    let revision = client.bind_network(BackendId::VoronoiAssisted, 0.0, &net)?;
    println!("bound voronoi_assisted at revision {revision}");

    let probes: Vec<Point> = (0..1000)
        .map(|k| Point::new((k % 40) as f64 * 0.2 - 4.0, (k / 40) as f64 * 0.3 - 3.0))
        .collect();
    let (rev, answers) = client.locate_batch(&probes)?;
    let heard = answers.iter().filter(|a| a.station().is_some()).count();
    println!(
        "locate_batch: {heard}/{} probes in some reception zone (revision {rev})",
        probes.len()
    );

    // Differential check against the local ground truth.
    let local = ExactScan::new(&net);
    for (p, a) in probes.iter().zip(&answers) {
        assert_eq!(*a, local.locate(*p), "server answer diverged at {p}");
    }
    println!(
        "all {} answers bit-identical to a local ExactScan",
        probes.len()
    );

    let rev = client.mutate(
        rev,
        &[SurgeryOp::Move {
            id: StationId(2),
            to: Point::new(1.0, -2.0),
        }],
    )?;
    let (rev2, after) = client.locate_batch(&probes)?;
    assert_eq!(rev2, rev);
    let moved = net.with_station_moved(StationId(2), Point::new(1.0, -2.0))?;
    let local = ExactScan::new(&moved);
    for (p, a) in probes.iter().zip(&after) {
        assert_eq!(*a, local.locate(*p), "post-mutate answer diverged at {p}");
    }
    let changed = answers.iter().zip(&after).filter(|(a, b)| a != b).count();
    println!(
        "after moving s2 in place: {changed} probes changed zone (revision {rev}); verified again"
    );

    // Shared phase (PR 7): publish the mutated network under a name and
    // let several sessions answer from ONE shared engine snapshot —
    // versus the engine each `Bind` above built for its own network.
    let rev = client.register_network("demo", &moved)?;
    println!("registered the current network as 'demo' (revision {rev})");
    let mut attached: Vec<Client<_>> = (0..3)
        .map(|_| {
            let mut c = Client::connect(handle.addr())?;
            c.attach("demo", BackendId::SimdScan, 0.0)?;
            Ok::<_, Box<dyn std::error::Error>>(c)
        })
        .collect::<Result<_, _>>()?;
    for (i, c) in attached.iter_mut().enumerate() {
        let (rev, answers) = c.locate_batch(&probes)?;
        assert_eq!(rev, 0, "fresh name starts at revision 0");
        let heard = answers.iter().filter(|a| a.station().is_some()).count();
        println!(
            "attached session {i}: {heard}/{} probes heard",
            probes.len()
        );
    }
    let shared = handle
        .registry()
        .get("demo")
        .expect("the registered network");
    println!(
        "{} attached sessions share {} engine store(s): memory scales with (network, backend), not sessions",
        attached.len(),
        shared.store_count()
    );
    // One session mutates the named network; everyone observes the new
    // revision on their next request (RCU snapshot publication).
    let rev = attached[0].mutate(
        0,
        &[SurgeryOp::SetPower {
            id: StationId(0),
            power: 1.5,
        }],
    )?;
    for c in &mut attached {
        let (r, _) = c.locate_batch(&probes)?;
        assert_eq!(r, rev, "every attached session observes the mutation");
    }
    println!("one Mutate on 'demo' published revision {rev} to all attached sessions");

    drop(attached);
    drop(client);
    handle.shutdown();
    println!("server shut down cleanly");

    // Hardened phase (PR 10): the same server with a `ServerConfig` —
    // a connection cap plus session deadlines. Past the cap, a new
    // connection is shed with ONE typed `Overloaded` frame before any
    // request byte is read, which is what makes retrying it
    // unconditionally safe.
    let capped = Server::bind("127.0.0.1:0")?.with_config(ServerConfig {
        max_connections: Some(2),
        idle_deadline: Some(std::time::Duration::from_secs(30)),
        frame_deadline: Some(std::time::Duration::from_secs(5)),
        ..ServerConfig::default()
    });
    let capped = capped.spawn()?;
    println!(
        "hardened server on {} (cap 2, idle 30s, frame 5s)",
        capped.addr()
    );
    let holders: Vec<Client<_>> = (0..2)
        .map(|_| {
            let mut c = Client::connect(capped.addr())?;
            c.bind_network(BackendId::ExactScan, 0.0, &moved)?;
            Ok::<_, Box<dyn std::error::Error>>(c)
        })
        .collect::<Result<_, _>>()?;
    let mut third = Client::connect(capped.addr())?;
    match third.bind_network(BackendId::ExactScan, 0.0, &moved) {
        Err(ClientError::Server {
            code: ErrorCode::Overloaded,
            ..
        }) => {
            println!("third connection shed with typed Overloaded: nothing processed, retry-safe")
        }
        other => return Err(format!("expected an Overloaded shed, got {other:?}").into()),
    }
    drop(third);
    drop(holders);
    let abandoned = capped.shutdown();
    assert_eq!(abandoned, 0, "bounded shutdown leaked a session");
    println!("hardened server shut down cleanly (0 sessions abandoned)");
    Ok(())
}
