//! The tiled executor's no-silent-reorder contract.
//!
//! PR 5's spatially-coherent tiled batch executor (`sinr_core::tile`)
//! reorders *scheduling* — Morton tiles, shared candidate pruning,
//! certified decisions — but must never reorder or change *answers*.
//! These suites pin exactly that, at scales where the pruned path
//! actually engages (`TILED_MIN_STATIONS` stations and
//! `PARALLEL_BATCH_THRESHOLD` points and beyond):
//!
//! * **tiled ≡ serial** — `locate_batch` answers are bit-identical to a
//!   serial loop of `locate` calls, for every backend and every
//!   supported SIMD kernel (including `avx512` where the CPU has it);
//! * **permutation invariance** — running the same point set through
//!   `locate_batch`/`sinr_batch` in any input order yields bit-identical
//!   per-point answers (`f64` compared by bits);
//! * the certified executor driven directly with hostile configs (tiny
//!   tiles, forced engagement) still matches the serial kernel, and its
//!   stats prove the pruned path ran (candidate sets strictly smaller
//!   than the network);
//! * non-finite query points take the wholesale-fallback tile and still
//!   match the serial path;
//! * `VoronoiAssisted`'s strongest-station walk matches a same-kernel
//!   `SimdScan`, serial, tiled and through `locate_in_cell`, including
//!   at a hostile exact energy tie under `β < 1`.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sinr_core::engine::PARALLEL_BATCH_THRESHOLD;
use sinr_core::engine::{ExactScan, Located, QueryEngine, VoronoiAssisted};
use sinr_core::simd::{SimdKernel, SimdScan};
use sinr_core::tile::{self, Select, TileConfig, TILED_MIN_STATIONS};
use sinr_core::{gen, Network, SinrEvaluator, StationId};
use sinr_geometry::Point;

/// A random network big enough to engage the pruned tiled path.
fn big_network(seed: u64, n: usize, uniform: bool) -> Network {
    let half = 2.0 * (n as f64).sqrt();
    if uniform {
        gen::random_uniform_network(seed, n, half, 0.01, 2.0).unwrap()
    } else {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = Network::builder().background_noise(0.01).threshold(1.6);
        let mut placed = 0;
        while placed < n {
            let p = Point::new(rng.gen_range(-half..half), rng.gen_range(-half..half));
            b = b.station_with_power(p, rng.gen_range(0.5..2.0));
            placed += 1;
        }
        b.build().unwrap()
    }
}

/// A query batch mixing area coverage, station positions (the `{sᵢ}`
/// clause and `d² = 0` kernels), near-boundary jitter and duplicates.
fn query_batch(net: &Network, len: usize, seed: u64) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let half = 2.2 * (net.len() as f64).sqrt();
    let mut pts = Vec::with_capacity(len);
    for i in net.ids().take(64) {
        let s = net.position(i);
        pts.push(s);
        // Near-station jitter lands inside/near zones.
        pts.push(Point::new(s.x + rng.gen_range(-0.5..0.5), s.y + 1e-3));
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

/// The `(min, max)` corners of a non-empty point set.
fn bounding_box(points: &[Point]) -> (Point, Point) {
    points.iter().fold((points[0], points[0]), |(min, max), p| {
        (
            Point::new(min.x.min(p.x), min.y.min(p.y)),
            Point::new(max.x.max(p.x), max.y.max(p.y)),
        )
    })
}

fn assert_tiled_equals_serial<E: QueryEngine>(name: &str, engine: &E, points: &[Point]) {
    let mut batch = vec![Located::Silent; points.len()];
    engine.locate_batch(points, &mut batch);
    for (p, got) in points.iter().zip(&batch) {
        assert_eq!(
            *got,
            engine.locate(*p),
            "{name}: batch/serial mismatch at {p}"
        );
    }
}

#[test]
fn tiled_locate_batch_equals_serial_for_every_backend_and_kernel() {
    for (seed, uniform) in [(11u64, true), (12, false)] {
        let net = big_network(seed, TILED_MIN_STATIONS + 72, uniform);
        let points = query_batch(&net, PARALLEL_BATCH_THRESHOLD + 513, seed ^ 0xFF);
        assert_tiled_equals_serial("ExactScan", &ExactScan::new(&net), &points);
        assert_tiled_equals_serial("VoronoiAssisted", &VoronoiAssisted::new(&net), &points);
        for kernel in SimdKernel::ALL {
            if !kernel.is_supported() {
                continue;
            }
            let simd = SimdScan::with_kernel(SinrEvaluator::new(&net), kernel);
            assert_tiled_equals_serial(kernel.name(), &simd, &points);
        }
    }
}

#[test]
fn tiled_locate_batch_handles_non_finite_points() {
    let net = big_network(21, TILED_MIN_STATIONS + 8, true);
    let mut points = query_batch(&net, PARALLEL_BATCH_THRESHOLD + 64, 0xA5);
    points[17] = Point::new(f64::NAN, 0.0);
    points[PARALLEL_BATCH_THRESHOLD] = Point::new(f64::INFINITY, -3.0);
    points[100] = Point::new(2.0, f64::NEG_INFINITY);
    for kernel in SimdKernel::ALL.into_iter().filter(|k| k.is_supported()) {
        let engine = SimdScan::with_kernel(SinrEvaluator::new(&net), kernel);
        assert_tiled_equals_serial(kernel.name(), &engine, &points);
    }
    assert_tiled_equals_serial("ExactScan", &ExactScan::new(&net), &points);
}

#[test]
fn locate_batch_is_permutation_invariant_for_every_backend_and_kernel() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(777);
    for uniform in [true, false] {
        let net = big_network(31 + uniform as u64, TILED_MIN_STATIONS + 40, uniform);
        let points = query_batch(&net, PARALLEL_BATCH_THRESHOLD + 321, 0xBEEF);
        // A deterministic shuffle of the same point set.
        let mut perm: Vec<usize> = (0..points.len()).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let shuffled: Vec<Point> = perm.iter().map(|&i| points[i]).collect();

        let engines: Vec<(String, Box<dyn QueryEngine>)> = {
            let mut v: Vec<(String, Box<dyn QueryEngine>)> = vec![
                ("exact_scan".into(), Box::new(ExactScan::new(&net))),
                (
                    "voronoi_assisted".into(),
                    Box::new(VoronoiAssisted::new(&net)),
                ),
            ];
            for kernel in SimdKernel::ALL.into_iter().filter(|k| k.is_supported()) {
                v.push((
                    format!("simd_{}", kernel.name()),
                    Box::new(SimdScan::with_kernel(SinrEvaluator::new(&net), kernel)),
                ));
            }
            v
        };
        for (name, engine) in &engines {
            let mut base = vec![Located::Silent; points.len()];
            engine.locate_batch(&points, &mut base);
            let mut shuf = vec![Located::Silent; points.len()];
            engine.locate_batch(&shuffled, &mut shuf);
            for (slot, &orig) in perm.iter().enumerate() {
                assert_eq!(
                    shuf[slot], base[orig],
                    "{name}: ordering changed the answer for point {orig} ({})",
                    points[orig]
                );
            }
        }
    }
}

/// A network with one station astronomically far away (its energy
/// rounds to `+0.0` everywhere near the origin) and a 2048-point grid
/// around the others.
fn far_station_case() -> (Network, Vec<Point>) {
    let mut pts = vec![Point::new(1e200, 0.0)];
    for k in 0..160 {
        let a = k as f64 * std::f64::consts::FRAC_PI_8;
        pts.push(Point::new(3.0 * a.cos() + 0.01 * k as f64, 3.0 * a.sin()));
    }
    let queries = (0..2048)
        .map(|k| {
            let x = (k % 64) as f64 * 0.1 - 3.2;
            let y = (k / 64) as f64 * 0.2 - 3.2;
            Point::new(x, y)
        })
        .collect();
    (Network::uniform(pts, 0.05, 2.0).unwrap(), queries)
}

#[test]
fn sinr_batch_is_permutation_invariant_bit_for_bit() {
    let net = big_network(41, TILED_MIN_STATIONS + 16, true);
    let points = query_batch(&net, PARALLEL_BATCH_THRESHOLD + 100, 0xCAFE);
    let (far_net, far_points) = far_station_case();
    for (net, points, station) in [
        (&net, &points, StationId(3)),
        (&far_net, &far_points, StationId(0)),
        (&far_net, &far_points, StationId(1)),
    ] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut perm: Vec<usize> = (0..points.len()).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let shuffled: Vec<Point> = perm.iter().map(|&i| points[i]).collect();
        let eval = SinrEvaluator::new(net);
        let mut base = vec![0.0f64; points.len()];
        eval.sinr_batch(station, points, &mut base);
        let mut shuf = vec![0.0f64; points.len()];
        eval.sinr_batch(station, &shuffled, &mut shuf);
        for (slot, &orig) in perm.iter().enumerate() {
            assert_eq!(
                shuf[slot].to_bits(),
                base[orig].to_bits(),
                "sinr value for point {orig} changed under reordering"
            );
            // And bit-identical to the serial call.
            assert_eq!(
                base[orig].to_bits(),
                eval.sinr(station, points[orig]).to_bits()
            );
        }
    }
}

/// Driving the executor directly with hostile configs: tiny tiles and
/// forced engagement on small batches must still match the serial
/// kernel bit-for-bit, and the stats must show real pruning.
#[test]
fn direct_executor_matches_serial_under_custom_configs() {
    let net = big_network(51, 300, true);
    let eval = SinrEvaluator::new(&net);
    let points = query_batch(&net, 1500, 0xD00D);
    for tile_points in [1usize, 7, 64, 512, 4096] {
        let cfg = TileConfig {
            tile_points,
            min_stations: 2,
            min_points: 1,
        };
        let mut out = vec![Located::Silent; points.len()];
        let stats = tile::locate_batch_tiled(
            &eval,
            SimdKernel::detect(),
            Select::MaxEnergy,
            &points,
            &mut out,
            &cfg,
            |p| eval.locate(p),
        );
        assert_eq!(stats.points as usize, points.len());
        assert_eq!(stats.tiles as usize, points.len().div_ceil(tile_points));
        for (p, got) in points.iter().zip(&out) {
            assert_eq!(*got, eval.locate(*p), "tile_points={tile_points} at {p}");
        }
        // With 1500 points, tiles of ≤ 64 points have bounding boxes
        // small enough (relative to the window) that pruning must
        // engage; bigger tiles may legitimately cover too much area.
        if tile_points <= 64 {
            assert!(stats.pruned_tiles > 0, "no tile pruned at {tile_points}");
            let mean = stats.mean_candidates().unwrap();
            assert!(
                mean < net.len() as f64 * 0.9,
                "candidate sets not smaller than the network: {mean}"
            );
        }
    }
}

/// A hostile exact tie under `β = 0.5`: from the origin, station `A`
/// lies one ulp of squared distance nearer than station `B`, yet `1/d²`
/// rounds to the same energy for both, so both pass the reception test
/// there. `B` sits at the smaller index, so the first-index argmax names
/// `B` where the nearest-station rule would name `A`. The other stations
/// are far away.
fn hostile_tie_case() -> (Network, Vec<Point>) {
    let b = Point::new(0.6998643962544917, -1.1870441553945856);
    let a = Point::new(-0.9534461862073409, 0.9948991758001339);
    let (da, db) = (a.x * a.x + a.y * a.y, b.x * b.x + b.y * b.y);
    assert!(da < db && 1.0 / da == 1.0 / db, "fixture lost its tie");
    let mut stations = vec![b, a];
    for k in 0..14 {
        let t = k as f64 * std::f64::consts::TAU / 14.0;
        stations.push(Point::new(1000.0 * t.cos(), 1000.0 * t.sin()));
    }
    let queries = (0..49)
        .map(|k| Point::new((k % 7) as f64 * 0.01 - 0.03, (k / 7) as f64 * 0.01 - 0.03))
        .collect();
    (Network::uniform(stations, 0.01, 0.5).unwrap(), queries)
}

/// `VoronoiAssisted` against a same-kernel `SimdScan`: its batch path,
/// the tiled executor under `Select::MaxEnergy` driven directly, and
/// `locate_in_cell` under a certificate of the batch's bounding box all
/// answer as the scan does, and on the tie network name the first index.
/// The tiled executor under the nearest-station rule, with the engine's
/// `locate` as fallback, still replays that `locate` exactly.
#[test]
fn voronoi_assisted_matches_same_kernel_simd_scan() {
    let net = big_network(61, 256, true);
    let points = query_batch(&net, 3000, 0xF00);
    for (net, points) in [(net, points), hostile_tie_case()] {
        let va = VoronoiAssisted::new(&net);
        let simd = SimdScan::with_kernel(SinrEvaluator::new(&net), va.kernel());
        let want: Vec<Located> = points.iter().map(|p| simd.locate(*p)).collect();
        let mut batch = vec![Located::Silent; points.len()];
        va.locate_batch(&points, &mut batch);
        let cfg = TileConfig {
            tile_points: 128,
            min_stations: 2,
            min_points: 1,
        };
        let tiled = |select| {
            let mut out = vec![Located::Silent; points.len()];
            let eval = va.evaluator();
            tile::locate_batch_tiled(eval, va.kernel(), select, &points, &mut out, &cfg, |p| {
                va.locate(p)
            });
            out
        };
        let (max_energy, nearest) = (tiled(Select::MaxEnergy), tiled(Select::Nearest));
        let (min, max) = bounding_box(&points);
        let cert = va
            .sinr_bounds_cell(min, max, None)
            .expect("VoronoiAssisted certifies cells");
        let mut in_cell = vec![None; points.len()];
        assert!(va.locate_in_cell(&cert, &points, &mut in_cell));
        for (k, p) in points.iter().enumerate() {
            assert_eq!(batch[k], want[k], "locate_batch mismatch at {p}");
            assert_eq!(max_energy[k], want[k], "max-energy tiled mismatch at {p}");
            assert_eq!(
                nearest[k],
                va.locate(*p),
                "nearest-mode replay mismatch at {p}"
            );
            if let Some(got) = in_cell[k] {
                assert_eq!(got, want[k], "locate_in_cell mismatch at {p}");
            }
        }
    }
    let (net, _) = hostile_tie_case();
    let va = VoronoiAssisted::new(&net);
    let simd = SimdScan::with_kernel(SinrEvaluator::new(&net), va.kernel());
    assert_eq!(simd.locate(Point::ORIGIN), Located::Reception(StationId(0)));
    assert_eq!(va.locate(Point::ORIGIN), Located::Reception(StationId(0)));
}

/// Max-energy-mode certification against the *weighted* kd-tree serial
/// path, driven directly on a non-uniform network: the tiled executor's
/// candidate argmax and the tree's best-first `strongest` walk must
/// select the same dominator everywhere.
#[test]
fn direct_executor_max_energy_matches_weighted_tree_path() {
    let net = big_network(62, 256, false);
    assert!(!net.is_uniform_power());
    let engine = VoronoiAssisted::new(&net);
    let eval = SinrEvaluator::new(&net);
    let points = query_batch(&net, 3000, 0xF01);
    let cfg = TileConfig {
        tile_points: 128,
        min_stations: 2,
        min_points: 1,
    };
    let mut out = vec![Located::Silent; points.len()];
    tile::locate_batch_tiled(
        &eval,
        SimdKernel::detect(),
        Select::MaxEnergy,
        &points,
        &mut out,
        &cfg,
        |p| engine.locate(p),
    );
    for (p, got) in points.iter().zip(&out) {
        assert_eq!(*got, engine.locate(*p), "max-energy-mode mismatch at {p}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random permutations of random batches over random tiled-scale
    /// networks: every backend answers every point identically in every
    /// order.
    #[test]
    fn permutation_invariance_proptest(
        seed in any::<u64>(),
        uniform in any::<bool>(),
    ) {
        let net = big_network(seed % 1000, TILED_MIN_STATIONS, uniform);
        let points = query_batch(&net, PARALLEL_BATCH_THRESHOLD + (seed % 700) as usize, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5A5A);
        let mut perm: Vec<usize> = (0..points.len()).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let shuffled: Vec<Point> = perm.iter().map(|&i| points[i]).collect();
        let exact = ExactScan::new(&net);
        let voronoi = VoronoiAssisted::new(&net);
        let simd = SimdScan::new(&net);
        let mut base = vec![Located::Silent; points.len()];
        let mut shuf = vec![Located::Silent; points.len()];
        for (name, engine) in [
            ("exact", &exact as &dyn QueryEngine),
            ("voronoi", &voronoi),
            ("simd", &simd),
        ] {
            engine.locate_batch(&points, &mut base);
            engine.locate_batch(&shuffled, &mut shuf);
            for (slot, &orig) in perm.iter().enumerate() {
                prop_assert_eq!(
                    shuf[slot],
                    base[orig],
                    "{} not permutation-invariant at original index {}",
                    name,
                    orig
                );
            }
        }
    }
}
