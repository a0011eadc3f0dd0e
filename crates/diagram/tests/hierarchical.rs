//! Differential pinning of the hierarchical (quadtree-refined) raster.
//!
//! The contract under test: `ReceptionMap::compute_hierarchical_with_engine`
//! is **bit-identical** to the dense `ReceptionMap::compute_with_engine`
//! on the *same* backend — for every backend and SIMD kernel, for
//! hostile windows (degenerate-adjacent co-located stations, overflow
//! windows next to huge-coordinate stations, windows far outside every
//! zone), and for thresholds above/below every station's reach. The
//! certificates may only change *where* pixels are answered (wholesale
//! vs per-point), never *what* the answer is.
//!
//! Plus the decision-soundness property: a certificate's uniform
//! decision and its per-point `locate_in_cell` answers agree with
//! `locate` at sampled points of the cell, chained or not.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sinr_core::engine::{BoxedEngine, ExactScan, QueryEngine, VoronoiAssisted};
use sinr_core::simd::{SimdKernel, SimdScan};
use sinr_core::{gen, CellDecision, Located, Network, SinrEvaluator};
use sinr_diagram::quadtree::hierarchical_map;
use sinr_diagram::ReceptionMap;
use sinr_geometry::{BBox, Point};
use sinr_pointloc::{PointLocator, QdsConfig};

/// Every backend the workspace ships, boxed behind the trait object the
/// server serves through (the Theorem-3 locator is added by callers that
/// can build one).
fn backends(net: &Network) -> Vec<(String, Box<dyn QueryEngine + Send + Sync>)> {
    let mut engines: Vec<(String, Box<dyn QueryEngine + Send + Sync>)> = vec![
        ("ExactScan".into(), Box::new(ExactScan::new(net))),
        (
            "VoronoiAssisted".into(),
            Box::new(VoronoiAssisted::new(net)),
        ),
        (
            "BoxedEngine".into(),
            Box::new(BoxedEngine::new("exact_scan", ExactScan::new(net))),
        ),
    ];
    for kernel in SimdKernel::ALL.into_iter().filter(|k| k.is_supported()) {
        engines.push((
            format!("SimdScan/{kernel:?}"),
            Box::new(SimdScan::with_kernel(SinrEvaluator::new(net), kernel)),
        ));
    }
    engines
}

fn assert_hier_equals_dense(net: &Network, window: BBox, width: usize, height: usize, tag: &str) {
    let qds = locator(net);
    assert_all_equal_dense(net, qds.as_ref(), window, width, height, tag);
}

/// The approximate Theorem-3 locator, for the networks it can serve
/// here. (Its boundary reconstruction asserts on overflow-scale
/// coordinates, so only modest networks exercise this leg; and the
/// build is far too slow for large station counts in debug builds —
/// the certificate contract it pins, `None` ⇒ dense-equivalent, is
/// station-count-independent anyway.)
fn locator(net: &Network) -> Option<PointLocator> {
    let modest = net
        .ids()
        .all(|i| net.position(i).x.abs() < 1e6 && net.position(i).y.abs() < 1e6);
    if !modest || net.len() > 24 {
        return None;
    }
    PointLocator::build(net, &QdsConfig::with_epsilon(0.2)).ok()
}

fn assert_all_equal_dense(
    net: &Network,
    qds: Option<&PointLocator>,
    window: BBox,
    width: usize,
    height: usize,
    tag: &str,
) {
    for (name, engine) in backends(net) {
        let dense = ReceptionMap::compute_with_engine(engine.as_ref(), window, width, height);
        let (hier, stats) =
            ReceptionMap::compute_hierarchical_with_engine(engine.as_ref(), window, width, height);
        assert_eq!(
            dense, hier,
            "{tag}: hierarchical ≠ dense for {name} over {window} at {width}×{height}"
        );
        assert_eq!(stats.pixels, (width * height) as u64, "{tag}: {name}");
        assert_eq!(
            stats.cells_evaluated + stats.certified_pixels,
            stats.pixels,
            "{tag}: {name}: pixel accounting"
        );
    }
    // The locator has no certificates: the hierarchical path must
    // degrade to exactly the dense raster.
    if let Some(qds) = qds {
        let dense = ReceptionMap::compute_with_engine(qds, window, width, height);
        let (hier, stats) =
            ReceptionMap::compute_hierarchical_with_engine(qds, window, width, height);
        assert_eq!(dense, hier, "{tag}: Qds locator");
        assert_eq!(
            stats.certified_pixels, 0,
            "{tag}: a certificate-less backend cannot certify pixels"
        );
    }
}

#[test]
fn hierarchical_equals_dense_across_backends() {
    let nets = [
        (
            "uniform-beta2",
            gen::random_uniform_network(3, 150, 10.0, 0.0, 2.0).unwrap(),
        ),
        (
            "uniform-noisy-beta04",
            gen::random_uniform_network(4, 40, 8.0, 0.05, 0.4).unwrap(),
        ),
        (
            "nonuniform",
            Network::builder()
                .station_with_power(Point::new(0.0, 0.0), 4.0)
                .station(Point::new(3.0, 0.0))
                .station_with_power(Point::new(-1.0, 4.0), 0.5)
                .station_with_power(Point::new(2.0, -3.0), 1.5)
                .background_noise(0.01)
                .threshold(1.5)
                .build()
                .unwrap(),
        ),
        (
            "alpha4",
            Network::builder()
                .station(Point::new(0.0, 0.0))
                .station(Point::new(4.0, 1.0))
                .station(Point::new(-3.0, 2.0))
                .path_loss(4.0)
                .threshold(2.0)
                .build()
                .unwrap(),
        ),
    ];
    for (tag, net) in &nets {
        assert_hier_equals_dense(net, BBox::centered_square(9.0), 96, 96, tag);
        // Non-square raster + off-centre window.
        let window = BBox::new(Point::new(-7.0, -2.0), Point::new(5.0, 3.0));
        assert_hier_equals_dense(net, window, 60, 33, tag);
    }
}

/// Rasters large enough that the refinement fans out into parallel
/// subtrees (every other fixed row here is at most 96 pixels a side),
/// including 1-wide strips, whose quadtree halves along the long axis
/// only. The network is small enough for the Theorem-3 locator leg.
#[test]
fn large_rasters_cross_subtree_splits() {
    let net = gen::random_uniform_network(21, 6, 6.0, 0.01, 1.5).unwrap();
    let qds = locator(&net);
    assert!(qds.is_some(), "the locator leg must run");
    let window = BBox::centered_square(9.0);
    for (width, height) in [(512, 512), (1024, 257), (1, 4096), (4096, 1)] {
        let tag = format!("{width}×{height}");
        assert_all_equal_dense(&net, qds.as_ref(), window, width, height, &tag);
    }
}

/// Scheduling must not leak into the output: the same map, computed
/// repeatedly (with workers claiming subtrees in whatever order they
/// race to), gives the same raster and the same counters every time.
#[test]
fn parallel_refinement_is_deterministic() {
    let net = gen::random_uniform_network(5, 150, 10.0, 0.0, 2.0).unwrap();
    let engine = net.query_engine();
    let window = BBox::centered_square(9.0);
    let (first, first_stats) =
        ReceptionMap::compute_hierarchical_with_engine(&engine, window, 512, 512);
    for run in 1..8 {
        let (map, stats) =
            ReceptionMap::compute_hierarchical_with_engine(&engine, window, 512, 512);
        assert_eq!(map, first, "run {run}: raster differs");
        assert_eq!(stats, first_stats, "run {run}: stats differ");
    }
}

#[test]
fn hostile_windows_degenerate_adjacent() {
    // Co-located pair (its coincidence point forces ∞ envelopes in any
    // containing cell) plus a normal station.
    let net = Network::uniform(
        vec![Point::ORIGIN, Point::ORIGIN, Point::new(3.0, 0.0)],
        0.0,
        2.0,
    )
    .unwrap();
    // Window centred exactly on the co-located pair…
    assert_hier_equals_dense(&net, BBox::centered_square(2.0), 33, 33, "colocated-center");
    // …and a window whose corner touches it.
    let window = BBox::new(Point::ORIGIN, Point::new(4.0, 4.0));
    assert_hier_equals_dense(&net, window, 32, 32, "colocated-corner");
    // Stations exactly on pixel centres: a 2-station net over a window
    // chosen so both stations are sampled (coincident query points take
    // the evaluators' special-case branches).
    let net =
        Network::uniform(vec![Point::new(-0.5, -0.5), Point::new(0.5, 0.5)], 0.0, 2.0).unwrap();
    assert_hier_equals_dense(&net, BBox::centered_square(1.0), 2, 2, "stations-on-pixels");
}

#[test]
fn hostile_windows_nonfinite_adjacent() {
    // Huge finite coordinates: squared distances overflow to ∞, rounded
    // energies collapse to 0 — every certificate degenerates but must
    // never make a wrong uniform claim.
    let net = Network::uniform(
        vec![
            Point::new(1e154, 0.0),
            Point::new(-1e154, 0.0),
            Point::new(0.0, 3.0),
        ],
        0.01,
        2.0,
    )
    .unwrap();
    assert_hier_equals_dense(&net, BBox::centered_square(6.0), 48, 48, "huge-stations");
    // Window itself at overflow scale, stations tiny in comparison.
    let window = BBox::new(Point::new(1e153, 1e153), Point::new(2e153, 2e153));
    assert_hier_equals_dense(&net, window, 16, 16, "overflow-window");
}

#[test]
fn beta_above_and_below_every_reach() {
    let pts = vec![
        Point::new(-2.0, 0.0),
        Point::new(2.0, 0.0),
        Point::new(0.0, 3.0),
    ];
    // β so large nobody is heard anywhere (noise floors every test).
    let deaf = Network::uniform(pts.clone(), 0.5, 1e12).unwrap();
    assert_hier_equals_dense(&deaf, BBox::centered_square(5.0), 64, 64, "beta-huge");
    // β so small everyone's zone is huge: the window splits between
    // stations with almost no silent area.
    let loud = Network::uniform(pts, 0.0, 1e-6).unwrap();
    assert_hier_equals_dense(&loud, BBox::centered_square(5.0), 64, 64, "beta-tiny");
    // Window entirely outside every zone (deep silence, certified at
    // the root or near it).
    let net =
        Network::uniform(vec![Point::new(-2.0, 0.0), Point::new(2.0, 0.0)], 0.05, 2.0).unwrap();
    let window = BBox::new(Point::new(500.0, 500.0), Point::new(520.0, 520.0));
    for (name, engine) in backends(&net) {
        let (hier, stats) =
            ReceptionMap::compute_hierarchical_with_engine(engine.as_ref(), window, 64, 64);
        let dense = ReceptionMap::compute_with_engine(engine.as_ref(), window, 64, 64);
        assert_eq!(dense, hier, "far-silent: {name}");
        assert_eq!(
            stats.cells_evaluated, 0,
            "far-silent window must certify at the root for {name}"
        );
    }
}

/// Random small networks, uniform and non-uniform power.
fn networks() -> impl Strategy<Value = Network> {
    (2usize..7, any::<u64>(), any::<bool>()).prop_map(|(n, seed, uniform)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pts: Vec<Point> = Vec::new();
        let mut guard = 0;
        while pts.len() < n && guard < 10_000 {
            guard += 1;
            let cand = Point::new(rng.gen_range(-5.0..=5.0), rng.gen_range(-5.0..=5.0));
            if pts.iter().all(|p| p.dist(cand) >= 0.6) {
                pts.push(cand);
            }
        }
        let mut b = Network::builder().background_noise(0.02).threshold(1.2);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cell-decision soundness: for random cells and random sample
    /// points inside them, a uniform (non-`Mixed`) certificate decision
    /// equals `locate` at every sampled point of its cell, and every
    /// `Some` that `locate_in_cell` answers from the certificate equals
    /// `locate` — both for root certificates and for children chained
    /// through a containing parent.
    #[test]
    fn certified_decisions_match_sampled_locate(
        net in networks(),
        seed in any::<u64>(),
        cx in -6.0f64..6.0,
        cy in -6.0f64..6.0,
        half in 0.01f64..4.0,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let engine = ExactScan::new(&net);
        let min = Point::new(cx - half, cy - half);
        let max = Point::new(cx + half, cy + half);
        let root = engine
            .sinr_bounds_cell(min, max, None)
            .expect("exact backends certify");
        // A chained child: the inner quarter of the cell.
        let cmin = Point::new(cx - 0.5 * half, cy - 0.5 * half);
        let cmax = Point::new(cx + 0.5 * half, cy + 0.5 * half);
        let child = engine
            .sinr_bounds_cell(cmin, cmax, Some(&root))
            .expect("exact backends certify");
        let samples: Vec<Point> = (0..24)
            .map(|_| Point::new(rng.gen_range(min.x..=max.x), rng.gen_range(min.y..=max.y)))
            .collect();
        for (name, cert, lo, hi) in [("root", &root, min, max), ("child", &child, cmin, cmax)] {
            let inside: Vec<Point> = samples
                .iter()
                .copied()
                .filter(|p| (lo.x..=hi.x).contains(&p.x) && (lo.y..=hi.y).contains(&p.y))
                .collect();
            let mut certified = vec![None; inside.len()];
            prop_assert!(engine.locate_in_cell(cert, &inside, &mut certified));
            for (&p, got) in inside.iter().zip(&certified) {
                let want = engine.locate(p);
                match cert.decision() {
                    CellDecision::Reception(i) => prop_assert_eq!(
                        want,
                        Located::Reception(i),
                        "{}: certified Reception({}) but locate({}) = {:?}",
                        name, i, p, want
                    ),
                    CellDecision::Silent => prop_assert_eq!(
                        want,
                        Located::Silent,
                        "{}: certified Silent but locate({}) = {:?}",
                        name, p, want
                    ),
                    CellDecision::Mixed => {}
                }
                if let Some(got) = *got {
                    prop_assert_eq!(
                        got,
                        want,
                        "{}: locate_in_cell({}) = {:?} but locate = {:?}",
                        name, p, got, want
                    );
                }
            }
        }
    }

    /// Differential under proptest: random network, random window,
    /// random raster shape — hierarchical ≡ dense on the recommended
    /// engine.
    #[test]
    fn hierarchical_equals_dense_random(
        net in networks(),
        cx in -4.0f64..4.0,
        cy in -4.0f64..4.0,
        half in 0.5f64..8.0,
        width in 1usize..80,
        height in 1usize..80,
    ) {
        let window = BBox::new(
            Point::new(cx - half, cy - half),
            Point::new(cx + half, cy + half),
        );
        let engine = net.query_engine();
        let dense = ReceptionMap::compute_with_engine(&engine, window, width, height);
        let (hier, stats) =
            ReceptionMap::compute_hierarchical_with_engine(&engine, window, width, height);
        prop_assert_eq!(dense, hier);
        prop_assert_eq!(stats.cells_evaluated + stats.certified_pixels, stats.pixels);
    }
}

/// Checks what `hierarchical_map` promises of its runs on one backend:
/// every length positive, no two neighbouring runs with one label, the
/// lengths summing to `width × height`, and `expand()` equal to the
/// dense raster — with the same stats the expanded entry point reports.
fn assert_runs_invariants<E: QueryEngine + Sync + ?Sized>(
    engine: &E,
    window: BBox,
    width: usize,
    height: usize,
    tag: &str,
) {
    let (map, stats) = hierarchical_map(engine, window, width, height);
    assert_eq!((map.width(), map.height()), (width, height), "{tag}");
    assert_eq!(map.window(), &window, "{tag}");
    let runs = map.runs();
    assert!(runs.iter().all(|&(_, len)| len > 0), "{tag}: empty run");
    assert!(
        runs.windows(2).all(|w| w[0].0 != w[1].0),
        "{tag}: neighbouring runs share a label"
    );
    let total: u64 = runs.iter().map(|&(_, len)| u64::from(len)).sum();
    assert_eq!(total, (width * height) as u64, "{tag}: run lengths");
    let dense = ReceptionMap::compute_with_engine(engine, window, width, height);
    assert_eq!(map.expand(), dense, "{tag}: expand() ≠ dense");
    let (_, expanded_stats) =
        ReceptionMap::compute_hierarchical_with_engine(engine, window, width, height);
    assert_eq!(stats, expanded_stats, "{tag}: stats");
}

/// The runs' invariants on every backend and kernel plus the Theorem-3
/// locator, over uniform and non-uniform networks, square and skewed
/// rasters and a 1-wide strip.
#[test]
fn runs_are_maximal_and_expand_to_dense_on_every_backend() {
    let nets = [
        (
            "uniform-beta2",
            gen::random_uniform_network(3, 150, 10.0, 0.0, 2.0).unwrap(),
        ),
        (
            "uniform-small",
            gen::random_uniform_network(21, 6, 6.0, 0.01, 1.5).unwrap(),
        ),
        (
            "nonuniform",
            Network::builder()
                .station_with_power(Point::new(0.0, 0.0), 4.0)
                .station(Point::new(3.0, 0.0))
                .station_with_power(Point::new(-1.0, 4.0), 0.5)
                .station_with_power(Point::new(2.0, -3.0), 1.5)
                .background_noise(0.01)
                .threshold(1.5)
                .build()
                .unwrap(),
        ),
    ];
    let skewed = BBox::new(Point::new(-7.0, -2.0), Point::new(5.0, 3.0));
    for (tag, net) in &nets {
        let qds = locator(net);
        for (window, width, height) in [
            (BBox::centered_square(9.0), 96, 96),
            (skewed, 60, 33),
            (BBox::centered_square(9.0), 1, 300),
            (BBox::centered_square(9.0), 300, 1),
        ] {
            let tag = format!("{tag} {width}×{height}");
            for (name, engine) in backends(net) {
                assert_runs_invariants(
                    engine.as_ref(),
                    window,
                    width,
                    height,
                    &format!("{tag} {name}"),
                );
            }
            if let Some(qds) = &qds {
                assert_runs_invariants(qds, window, width, height, &format!("{tag} Qds"));
            }
        }
    }
}

/// The Theorem-3 locator certifies nothing, so refinement splits every
/// cell without a certificate and every pixel is answered by `locate`
/// in a quadtree leaf. Over a grid of more than `2 * CHUNK` (64 Ki)
/// pixels — every subtree, tens of thousands of leaves — the runs must
/// still be maximal and expand to the dense raster.
#[test]
fn qds_runs_stay_maximal_across_per_pixel_leaves() {
    const CHUNK: usize = 32 * 1024;
    let net = gen::random_uniform_network(21, 6, 6.0, 0.01, 1.5).unwrap();
    let qds = locator(&net).expect("the locator leg must run");
    let (width, height) = (320, 250);
    assert!(width * height > 2 * CHUNK);
    let window = BBox::centered_square(9.0);
    assert_runs_invariants(&qds, window, width, height, "qds chunks");
    let (_, stats) = hierarchical_map(&qds, window, width, height);
    assert_eq!(stats.cells_evaluated, (width * height) as u64);
    assert_eq!(stats.certified_pixels, 0);
}
