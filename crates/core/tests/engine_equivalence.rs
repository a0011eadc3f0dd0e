//! Backend-equivalence property tests for the query engine.
//!
//! For random networks — uniform and non-uniform power, `α ∈ {2, 3, 4}`,
//! `β` above and below 1 — every [`QueryEngine`] backend must agree with
//! the scalar ground truth [`sinr_core::sinr::heard_at`] on a dense point
//! sample:
//!
//! * [`ExactScan`] and [`VoronoiAssisted`] are exact backends: they must
//!   match everywhere except within numeric tolerance of a reception
//!   boundary (where the amortized one-pass arithmetic may round the
//!   `SINR = β` tie the other way);
//! * [`VoronoiAssisted`] answers bit-identically to a [`SimdScan`] pinned
//!   to its kernel, on uniform and non-uniform networks alike;
//! * the Theorem-3 `PointLocator` (crate `sinr-pointloc`) may answer
//!   `Uncertain`, but only near the zone boundary `∂Hᵢ`; its definite
//!   answers must be correct.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sinr_core::engine::{ExactScan, Located, QueryEngine, VoronoiAssisted};
use sinr_core::gen::min_separation;
use sinr_core::simd::{SimdKernel, SimdScan};
use sinr_core::{Network, SinrEvaluator};
use sinr_geometry::{Point, Vector};
use sinr_pointloc::{PointLocator, QdsConfig};

/// Random networks across the whole parameter space the engine claims to
/// support: uniform and per-station power, `α ∈ {2, 3, 4}`, `β` above and
/// below 1, with and without noise.
fn networks() -> impl Strategy<Value = Network> {
    (
        2usize..7,
        any::<u64>(),
        0usize..3,
        any::<bool>(),
        any::<bool>(),
        0.0f64..0.05,
    )
        .prop_map(|(n, seed, alpha_idx, uniform, beta_low, noise)| {
            let pts = min_separation(&mut rand::rngs::StdRng::seed_from_u64(seed), n, 5.0, 0.8);
            let alpha = [2.0, 3.0, 4.0][alpha_idx];
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBEEF);
            let beta = if beta_low {
                rng.gen_range(0.3..0.9)
            } else {
                rng.gen_range(1.2..4.0)
            };
            let mut b = Network::builder()
                .background_noise(noise)
                .threshold(beta)
                .path_loss(alpha);
            for p in pts {
                if uniform {
                    b = b.station(p);
                } else {
                    b = b.station_with_power(p, rng.gen_range(0.5..2.5));
                }
            }
            b.build().expect("separated_points yields ≥ 2 stations")
        })
}

/// The dense query sample: a grid over the station window plus points at
/// and just off every station (the degenerate corners).
fn sample_points(net: &Network) -> Vec<Point> {
    let mut pts = Vec::new();
    for a in -12..=12 {
        for b in -12..=12 {
            pts.push(Point::new(a as f64 * 0.5, b as f64 * 0.5));
        }
    }
    for i in net.ids() {
        let s = net.position(i);
        pts.push(s);
        pts.push(s + Vector::new(1e-7, -1e-7));
        pts.push(s + Vector::new(0.3, 0.2));
    }
    pts
}

/// True when the scalar model puts `p` within numeric tolerance of some
/// reception boundary (where one-pass and per-station arithmetic may
/// legitimately round a `SINR = β` tie differently).
fn near_decision_boundary(net: &Network, p: Point) -> bool {
    net.ids().any(|i| {
        let s = net.sinr(i, p);
        s.is_finite() && (s - net.beta()).abs() <= 1e-9 * (1.0 + net.beta())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ExactScan, SimdScan and VoronoiAssisted agree with the scalar
    /// ground truth on the full parameter space (modulo boundary-rounding
    /// ties).
    #[test]
    fn exact_backends_match_scalar_ground_truth(net in networks()) {
        let exact = ExactScan::new(&net);
        let simd = SimdScan::new(&net);
        let voronoi = VoronoiAssisted::new(&net);

        let points = sample_points(&net);
        let mut exact_out = vec![Located::Silent; points.len()];
        let mut simd_out = vec![Located::Silent; points.len()];
        let mut voronoi_out = vec![Located::Silent; points.len()];
        exact.locate_batch(&points, &mut exact_out);
        simd.locate_batch(&points, &mut simd_out);
        voronoi.locate_batch(&points, &mut voronoi_out);

        for (k, p) in points.iter().enumerate() {
            let truth = net.heard_at(*p);
            for (name, got) in [
                ("ExactScan", exact_out[k]),
                ("SimdScan", simd_out[k]),
                ("VoronoiAssisted", voronoi_out[k]),
            ] {
                prop_assert!(
                    !matches!(got, Located::Uncertain(_)),
                    "{} answered Uncertain at {} — exact backends never do", name, p
                );
                if got.station() != truth && !near_decision_boundary(&net, *p) {
                    prop_assert!(
                        false,
                        "{} disagrees with heard_at at {} in {}: {:?} vs {:?}",
                        name, p, net, got.station(), truth
                    );
                }
            }
        }
    }

    /// The weighted (power-diagram) dispatch: a network with any
    /// non-uniform power assignment dispatches through the kd-tree's
    /// nearest-*dominator* walk (`argmax Pᵢ · att(d²)` — the
    /// Observation-2.2 analogue of Kantor et al.), and its answers are
    /// **bit-identical** to `SimdScan` pinned to the same kernel (the
    /// candidate sum rides the same lanes in the same order), hence
    /// identical to `ExactScan` everywhere but `SINR = β` boundary
    /// rounding.
    #[test]
    fn non_uniform_power_uses_weighted_dispatch(
        (n, seed) in (2usize..7, any::<u64>()),
    ) {
        let pts = min_separation(&mut rand::rngs::StdRng::seed_from_u64(seed), n, 5.0, 0.8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD15C);
        let mut b = Network::builder().background_noise(0.01).threshold(1.5);
        // At least one station with power ≠ 1 makes the assignment
        // non-uniform by construction.
        for (m, p) in pts.into_iter().enumerate() {
            let power = if m == 0 { 3.0 } else { rng.gen_range(0.5..2.5) };
            b = b.station_with_power(p, power);
        }
        let net = b.build().expect("≥ 2 separated stations");
        prop_assert!(!net.is_uniform_power());

        let voronoi = VoronoiAssisted::new(&net);
        let simd = SimdScan::with_kernel(SinrEvaluator::new(&net), voronoi.kernel());
        let exact = ExactScan::new(&net);
        let points = sample_points(&net);
        let mut voronoi_out = vec![Located::Silent; points.len()];
        let mut simd_out = vec![Located::Silent; points.len()];
        let mut exact_out = vec![Located::Silent; points.len()];
        voronoi.locate_batch(&points, &mut voronoi_out);
        simd.locate_batch(&points, &mut simd_out);
        exact.locate_batch(&points, &mut exact_out);
        // Same kernel, same summation order, same argmax: exact
        // equality, boundaries included.
        prop_assert_eq!(&voronoi_out, &simd_out);
        for (k, p) in points.iter().enumerate() {
            if voronoi_out[k] != exact_out[k] {
                prop_assert!(
                    near_decision_boundary(&net, *p),
                    "weighted dispatch disagrees with ExactScan off-boundary at {} in {}: {:?} vs {:?}",
                    p, net, voronoi_out[k], exact_out[k]
                );
            }
        }
    }

    /// The uniform-power twin of the property above: equal weights make
    /// the strongest-station walk name the nearest station, with the
    /// scan's first-index tie rule, so the answers are bit-identical to
    /// `SimdScan` pinned to the same kernel, boundaries and `β < 1`
    /// included.
    #[test]
    fn uniform_power_weighted_dispatch_bit_identical_to_simd(
        (n, seed, alpha_idx, beta_idx) in (2usize..7, any::<u64>(), 0usize..2, 0usize..3),
    ) {
        let mut b = Network::builder()
            .background_noise(0.01)
            .threshold([0.5, 1.0, 1.5][beta_idx])
            .path_loss([2.0, 3.0][alpha_idx]);
        for p in min_separation(&mut rand::rngs::StdRng::seed_from_u64(seed), n, 5.0, 0.8) {
            b = b.station(p);
        }
        let net = b.build().expect("≥ 2 separated stations");
        prop_assert!(net.is_uniform_power());

        let voronoi = VoronoiAssisted::new(&net);
        let simd = SimdScan::with_kernel(SinrEvaluator::new(&net), voronoi.kernel());
        let points = sample_points(&net);
        let mut voronoi_out = vec![Located::Silent; points.len()];
        let mut simd_out = vec![Located::Silent; points.len()];
        voronoi.locate_batch(&points, &mut voronoi_out);
        simd.locate_batch(&points, &mut simd_out);
        prop_assert_eq!(&voronoi_out, &simd_out);
    }

    /// Per-kernel pinning of the weighted path: for every supported SIMD
    /// kernel, a `VoronoiAssisted`-shaped candidate dispatch must agree
    /// with that kernel's full scan bit-for-bit on non-uniform networks.
    /// (`VoronoiAssisted` itself always runs the detected kernel; the
    /// per-kernel loop pins the shared `candidate_scan` lanes on every
    /// width the machine has, avx512 included.)
    #[test]
    fn weighted_dispatch_bit_identical_per_kernel(
        (n, seed) in (3usize..8, any::<u64>()),
    ) {
        let pts = min_separation(&mut rand::rngs::StdRng::seed_from_u64(seed), n, 5.0, 0.8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xA11A);
        let mut b = Network::builder()
            .background_noise(0.02)
            .threshold(1.2)
            .path_loss(if n % 2 == 0 { 2.0 } else { 3.0 });
        for p in pts {
            b = b.station_with_power(p, rng.gen_range(0.25..4.0));
        }
        let net = b.build().expect("≥ 3 separated stations");
        let voronoi = VoronoiAssisted::new(&net);
        let points = sample_points(&net);
        let mut voronoi_out = vec![Located::Silent; points.len()];
        voronoi.locate_batch(&points, &mut voronoi_out);
        for kernel in SimdKernel::ALL {
            if !kernel.is_supported() || kernel == voronoi.kernel() {
                continue;
            }
            let simd = SimdScan::with_kernel(SinrEvaluator::new(&net), kernel);
            let mut simd_out = vec![Located::Silent; points.len()];
            simd.locate_batch(&points, &mut simd_out);
            for (k, p) in points.iter().enumerate() {
                if voronoi_out[k] != simd_out[k] {
                    prop_assert!(
                        near_decision_boundary(&net, *p),
                        "kernel {} disagrees with weighted dispatch off-boundary at {}",
                        kernel.name(), p
                    );
                }
            }
        }
    }

    /// The scalar-consistency of `sinr_batch` across backends.
    #[test]
    fn sinr_batch_matches_scalar(net in networks()) {
        let exact = ExactScan::new(&net);
        let points = sample_points(&net);
        let mut out = vec![0.0; points.len()];
        for i in net.ids() {
            exact.sinr_batch(i, &points, &mut out);
            for (p, got) in points.iter().zip(&out) {
                let expected = net.sinr(i, *p);
                if expected.is_finite() {
                    prop_assert!(
                        (got - expected).abs() <= 1e-9 * (1.0 + expected.abs()),
                        "sinr_batch({}, {}) = {} vs scalar {}", i, p, got, expected
                    );
                } else {
                    prop_assert!(got.is_infinite(), "sinr_batch({}, {}) = {} vs ∞", i, p, got);
                }
            }
        }
    }
}

/// Theorem-3 preconditions: uniform power, `α = 2`, `β > 1`.
fn theorem3_networks() -> impl Strategy<Value = Network> {
    (2usize..5, any::<u64>(), 0.0f64..0.03).prop_map(|(n, seed, noise)| {
        let pts = min_separation(&mut rand::rngs::StdRng::seed_from_u64(seed), n, 5.0, 0.8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xF00D);
        let beta = rng.gen_range(1.3..3.5);
        Network::uniform(pts, noise, beta).expect("valid network")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The QDS backend through the shared `QueryEngine` interface:
    /// definite answers match the scalar ground truth; `Uncertain` is
    /// only allowed near `∂Hᵢ` (checked radially against the zone's
    /// boundary radius — the `ε = 0.2` band is far narrower than the
    /// 50% slack asserted here).
    #[test]
    fn qds_backend_definite_answers_correct_uncertain_only_near_boundary(
        net in theorem3_networks(),
    ) {
        let ds = match PointLocator::build(&net, &QdsConfig::with_epsilon(0.2)) {
            Ok(ds) => ds,
            // Resource-budget failures are a build concern, not an
            // equivalence concern.
            Err(_) => return Ok(()),
        };
        let points = sample_points(&net);
        let mut out = vec![Located::Silent; points.len()];
        QueryEngine::locate_batch(&ds, &points, &mut out);

        for (p, got) in points.iter().zip(&out) {
            match got {
                Located::Reception(i) => prop_assert!(
                    net.is_heard(*i, *p),
                    "QDS claimed reception of {} at {} in {}", i, p, net
                ),
                Located::Silent => prop_assert_eq!(
                    net.heard_at(*p), None,
                    "QDS claimed silence at {} in {}", p, net
                ),
                Located::Uncertain(i) => {
                    // Near-boundary check: the point's radial distance
                    // from the station is within 50% of the zone's
                    // boundary radius along the same direction.
                    let s = net.position(*i);
                    let r = s.dist(*p);
                    prop_assert!(r > 0.0, "Uncertain at the station itself");
                    let dir = *p - s;
                    let theta = dir.y.atan2(dir.x);
                    let zone = net.reception_zone(*i);
                    let rb = zone.boundary_radius(theta);
                    prop_assert!(
                        rb.is_some(),
                        "Uncertain({}) at {} but the zone has no boundary radius", i, p
                    );
                    let rb = rb.unwrap();
                    prop_assert!(
                        (r - rb).abs() <= 0.5 * rb + 1e-9,
                        "Uncertain({}) at {} is not near ∂H: r = {}, boundary radius = {}",
                        i, p, r, rb
                    );
                }
            }
        }
    }
}
