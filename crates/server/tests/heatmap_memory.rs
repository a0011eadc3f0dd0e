//! Peak-memory regression test for served heatmaps.
//!
//! The session rasterises a `HeatmapBatch` into label runs and encodes
//! straight from them, so serving a map costs memory in proportion to
//! its run count, not its pixel count. This binary holds one test, so
//! no other test moves the process's high-water mark (`VmHWM`): an
//! in-process server serves two concurrent cap-sized (4096², 16 Mi
//! pixel) near-uniform maps to two run-level clients, and the peak
//! resident set may grow by at most two frames' worth. A dense raster
//! would need 16 B/pixel — 256 MiB per map — on the server alone.

#![cfg(target_os = "linux")]

use sinr_core::Network;
use sinr_geometry::Point;
use sinr_server::protocol::MAX_HEATMAP_PIXELS;
use sinr_server::transport::MAX_FRAME_LEN;
use sinr_server::{BackendId, Client, Server, TcpTransport};

/// The process's peak resident set, in bytes (`VmHWM` of
/// `/proc/self/status`).
fn peak_rss() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kib: usize = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value in kB");
    kib * 1024
}

/// One cap-sized map through [`Client::heatmap_runs`], checked for
/// pixel count and for run shape.
fn serve_map(client: &mut Client<TcpTransport>, side: u32) -> usize {
    let (min, max) = (Point::new(-2.0, -2.0), Point::new(6.0, 5.0));
    let (_, runs, evaluated) = client
        .heatmap_runs(min, max, side, side)
        .expect("cap-sized heatmap must be served");
    let pixels: u64 = runs.iter().map(|&(_, len)| u64::from(len)).sum();
    assert_eq!(pixels, u64::from(side) * u64::from(side), "pixel count");
    assert!(evaluated < pixels / 50, "map should be near-uniform");
    assert!(
        runs.windows(2).all(|w| w[0].0 != w[1].0),
        "runs are maximal"
    );
    runs.len()
}

#[test]
fn concurrent_cap_sized_heatmaps_stay_within_two_frames() {
    const CONCURRENT: usize = 2;
    let side = (MAX_HEATMAP_PIXELS as f64).sqrt() as u32;
    assert_eq!(u64::from(side) * u64::from(side), MAX_HEATMAP_PIXELS);
    let net = Network::uniform(
        vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 3.0),
        ],
        0.01,
        1.5,
    )
    .expect("network");

    let server = Server::bind("127.0.0.1:0").expect("bind");
    let handle = server.spawn().expect("spawn");
    let mut clients: Vec<Client<TcpTransport>> = (0..CONCURRENT)
        .map(|_| {
            let mut client = Client::connect(handle.addr()).expect("connect");
            client
                .bind_network(BackendId::VoronoiAssisted, 0.0, &net)
                .expect("bind network");
            client
        })
        .collect();

    // Warm-up: the first map grows the allocator's arenas and the
    // scheduler's threads once; the measured window starts after it.
    serve_map(&mut clients[0], side);
    let before = peak_rss();

    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            scope.spawn(move || serve_map(client, side));
        }
    });
    let growth = peak_rss().saturating_sub(before);
    println!("peak resident set grew by {growth} bytes");
    assert!(
        growth <= 2 * MAX_FRAME_LEN,
        "serving {CONCURRENT} concurrent {side}² heatmaps grew the peak resident set by \
         {growth} bytes, over the {} allowed",
        2 * MAX_FRAME_LEN
    );

    drop(clients);
    handle.shutdown();
}
