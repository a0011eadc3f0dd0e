//! Serial/parallel crossover regression tests for the batch drivers.
//!
//! `batch_map` switches from a serial loop to the parallel scheduler at
//! [`PARALLEL_BATCH_THRESHOLD`]; historically that boundary is where
//! splitting bugs live (the PR-1 static split spawned dozens of
//! near-empty threads for `len` barely above the threshold). These tests
//! pin, for batch lengths `THRESHOLD − 1`, `THRESHOLD` and
//! `THRESHOLD + 1`:
//!
//! * `locate_batch` ≡ per-point serial `locate`, **exactly** (`assert_eq`
//!   on `Located`, no tolerance), for every backend — [`ExactScan`],
//!   [`VoronoiAssisted`], every supported [`SimdScan`] kernel, and the
//!   Theorem-3 `PointLocator`;
//! * the work-stealing `batch_map` computes exactly what a plain serial
//!   loop computes.
//!
//! Exactness holds because batch and serial answers run the *same*
//! kernel per point — parallel scheduling must never change which code
//! computes an answer, only where it runs.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sinr_core::engine::{
    batch_map, ExactScan, Located, QueryEngine, VoronoiAssisted, BATCH_TILE,
    PARALLEL_BATCH_THRESHOLD,
};
use sinr_core::simd::{SimdKernel, SimdScan};
use sinr_core::tile::{TileConfig, TILED_MIN_STATIONS};
use sinr_core::{gen, Network, SinrEvaluator};
use sinr_geometry::Point;
use sinr_pointloc::{PointLocator, QdsConfig};

/// The three batch lengths that straddle the serial/parallel crossover.
const BOUNDARY_LENS: [usize; 3] = [
    PARALLEL_BATCH_THRESHOLD - 1,
    PARALLEL_BATCH_THRESHOLD,
    PARALLEL_BATCH_THRESHOLD + 1,
];

/// A deterministic query batch of exactly `len` points spread over the
/// window, including points at and just off the stations.
fn query_batch(net: &Network, len: usize, seed: u64) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pts = Vec::with_capacity(len);
    for i in net.ids() {
        pts.push(net.position(i));
    }
    while pts.len() < len {
        pts.push(Point::new(
            rng.gen_range(-6.0..6.0),
            rng.gen_range(-6.0..6.0),
        ));
    }
    pts.truncate(len);
    pts
}

/// Random small networks, uniform and non-uniform power.
fn networks() -> impl Strategy<Value = Network> {
    (2usize..6, any::<u64>(), any::<bool>()).prop_map(|(n, seed, uniform)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pts: Vec<Point> = Vec::new();
        let mut guard = 0;
        while pts.len() < n && guard < 10_000 {
            guard += 1;
            let cand = Point::new(rng.gen_range(-5.0..=5.0), rng.gen_range(-5.0..=5.0));
            if pts.iter().all(|p| p.dist(cand) >= 0.8) {
                pts.push(cand);
            }
        }
        let mut b = Network::builder().background_noise(0.02).threshold(1.5);
        for p in pts {
            if uniform {
                b = b.station(p);
            } else {
                b = b.station_with_power(p, rng.gen_range(0.5..2.5));
            }
        }
        b.build().expect("≥ 2 separated stations")
    })
}

fn assert_batch_equals_serial<E: QueryEngine>(
    name: &str,
    engine: &E,
    points: &[Point],
) -> Result<(), TestCaseError> {
    let mut batch = vec![Located::Silent; points.len()];
    engine.locate_batch(points, &mut batch);
    for (p, got) in points.iter().zip(&batch) {
        let serial = engine.locate(*p);
        prop_assert_eq!(
            *got,
            serial,
            "{} batch/serial mismatch at {} (len {})",
            name,
            p,
            points.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every backend answers a batch exactly like a serial loop of
    /// `locate` calls at all three crossover lengths.
    #[test]
    fn locate_batch_equals_serial_at_threshold_boundaries(
        net in networks(),
        seed in any::<u64>(),
    ) {
        for len in BOUNDARY_LENS {
            let points = query_batch(&net, len, seed);
            assert_batch_equals_serial("ExactScan", &ExactScan::new(&net), &points)?;
            assert_batch_equals_serial("VoronoiAssisted", &VoronoiAssisted::new(&net), &points)?;
            for kernel in SimdKernel::ALL {
                if !kernel.is_supported() {
                    continue;
                }
                let simd = SimdScan::with_kernel(SinrEvaluator::new(&net), kernel);
                assert_batch_equals_serial(kernel.name(), &simd, &points)?;
            }
        }
    }

    /// The work-stealing scheduler produces exactly the outputs of a
    /// plain serial loop at the crossover lengths (below the threshold
    /// it *is* that loop).
    #[test]
    fn schedulers_agree_at_threshold_boundaries(offset in 0u64..1024) {
        for len in BOUNDARY_LENS {
            let inputs: Vec<u64> = (offset..offset + len as u64).collect();
            let mut stolen = vec![0u64; len];
            batch_map(&inputs, &mut stolen, |x| x.rotate_left(7) ^ 0xA5A5);
            let serial: Vec<u64> = inputs.iter().map(|x| x.rotate_left(7) ^ 0xA5A5).collect();
            prop_assert_eq!(&stolen, &serial, "scheduler disagrees with a serial loop at len {}", len);
        }
    }
}

/// The PR-5 spatial tiler and the work-stealing scheduler share one
/// batch-granularity knob: `TileConfig`'s default tile size IS
/// `BATCH_TILE`, and its default engagement thresholds are the
/// documented constants. A drift here means someone re-introduced a
/// second knob.
#[test]
fn tile_config_defaults_share_the_batch_knob() {
    let cfg = TileConfig::default();
    assert_eq!(cfg.tile_points, BATCH_TILE);
    assert_eq!(cfg.min_points, PARALLEL_BATCH_THRESHOLD);
    assert_eq!(cfg.min_stations, TILED_MIN_STATIONS);
    assert!(cfg.engages(PARALLEL_BATCH_THRESHOLD, TILED_MIN_STATIONS));
    assert!(!cfg.engages(PARALLEL_BATCH_THRESHOLD - 1, TILED_MIN_STATIONS));
    assert!(!cfg.engages(PARALLEL_BATCH_THRESHOLD, TILED_MIN_STATIONS - 1));
}

/// The tiled-executor crossover: at `TILED_MIN_STATIONS ± 1` stations
/// and `PARALLEL_BATCH_THRESHOLD ± 1` points — every combination of
/// which path (serial / per-point parallel / tiled) runs — all backends
/// and kernels stay bit-identical to the serial per-point loop.
#[test]
fn tiled_executor_threshold_boundaries_stay_serial_identical() {
    for stations in [TILED_MIN_STATIONS - 1, TILED_MIN_STATIONS] {
        let half = 2.0 * (stations as f64).sqrt();
        let net = gen::random_uniform_network(0x71E5 + stations as u64, stations, half, 0.01, 2.0)
            .unwrap();
        for len in BOUNDARY_LENS {
            let points = query_batch_window(&net, len, 0xAB, half * 1.1);
            assert_batch_equals_serial_exact("ExactScan", &ExactScan::new(&net), &points);
            assert_batch_equals_serial_exact(
                "VoronoiAssisted",
                &VoronoiAssisted::new(&net),
                &points,
            );
            for kernel in SimdKernel::ALL {
                if !kernel.is_supported() {
                    continue;
                }
                let simd = SimdScan::with_kernel(SinrEvaluator::new(&net), kernel);
                assert_batch_equals_serial_exact(kernel.name(), &simd, &points);
            }
        }
    }
}

/// Like `query_batch` but spread over the given window (the tiled-scale
/// networks live in larger windows than the ±6 proptest nets).
fn query_batch_window(net: &Network, len: usize, seed: u64, half: f64) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pts = Vec::with_capacity(len);
    for i in net.ids().take(32) {
        pts.push(net.position(i));
    }
    while pts.len() < len {
        pts.push(Point::new(
            rng.gen_range(-half..half),
            rng.gen_range(-half..half),
        ));
    }
    pts.truncate(len);
    pts
}

fn assert_batch_equals_serial_exact<E: QueryEngine>(name: &str, engine: &E, points: &[Point]) {
    let mut batch = vec![Located::Silent; points.len()];
    engine.locate_batch(points, &mut batch);
    for (p, got) in points.iter().zip(&batch) {
        assert_eq!(
            *got,
            engine.locate(*p),
            "{name} batch/serial mismatch at {p} (len {})",
            points.len()
        );
    }
}

/// The Theorem-3 QDS backend at the crossover lengths: its batch driver
/// rides the same `batch_map`, and its per-point answers (including
/// `Uncertain`) are deterministic, so batch ≡ serial exactly.
#[test]
fn qds_backend_batch_equals_serial_at_threshold_boundaries() {
    let net = Network::uniform(
        vec![
            Point::new(-2.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 3.0),
        ],
        0.02,
        2.0,
    )
    .unwrap();
    let ds = PointLocator::build(&net, &QdsConfig::with_epsilon(0.3)).unwrap();
    for len in BOUNDARY_LENS {
        let points = query_batch(&net, len, 0xD5);
        let mut batch = vec![Located::Silent; points.len()];
        QueryEngine::locate_batch(&ds, &points, &mut batch);
        for (p, got) in points.iter().zip(&batch) {
            assert_eq!(*got, ds.locate(*p), "QDS batch/serial mismatch at {p}");
        }
    }
}
