//! Contract suite of the stochastic channel layer (`sinr_core::channel`).
//!
//! * **Degenerate-channel contract** (proptest): every identity /
//!   zero-variance channel makes `reception_probability_batch` return
//!   exactly `0.0` / `1.0`, matching `locate_batch` bit-for-bit on every
//!   backend and every supported SIMD kernel — the stochastic path may
//!   never disagree with the deterministic one.
//! * **Replay differential**: the Monte-Carlo executor (tiled, pruned,
//!   SoA-reusing) is pinned bit-for-bit against a naive baseline that
//!   rebuilds a scaled `Network` + fresh engine per trial by replaying
//!   the public `gains_for_trial` stream.
//! * **Determinism**: same `(model, seed, trials)` → identical
//!   probabilities across repeated calls, backends, and SIMD kernels;
//!   different seeds decorrelate.
//! * **Quantiles**: deterministic channels collapse every quantile onto
//!   the `sinr_batch` value bitwise; stochastic quantiles are monotone
//!   in the quantile level.
//! * **Typed errors**: stale engines, malformed models, and backends
//!   without the stochastic path all answer with the right
//!   `ChannelError`.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sinr_core::channel::{ChannelError, ChannelModel, McConfig};
use sinr_core::engine::{ExactScan, Located, QueryEngine, VoronoiAssisted};
use sinr_core::simd::{SimdKernel, SimdScan};
use sinr_core::tile::TILED_MIN_STATIONS;
use sinr_core::{gen, Network, SinrEvaluator, StationId};
use sinr_geometry::Point;

fn big_network(seed: u64, n: usize, uniform: bool) -> Network {
    let half = 2.0 * (n as f64).sqrt();
    if uniform {
        gen::random_uniform_network(seed, n, half, 0.01, 2.0).unwrap()
    } else {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = Network::builder().background_noise(0.01).threshold(1.6);
        for _ in 0..n {
            let p = Point::new(rng.gen_range(-half..half), rng.gen_range(-half..half));
            b = b.station_with_power(p, rng.gen_range(0.5..2.0));
        }
        b.build().unwrap()
    }
}

/// Query points mixing area coverage, exact station positions (the
/// `{sᵢ}` clause) and near-station jitter.
fn query_batch(net: &Network, len: usize, seed: u64) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let half = 2.2 * (net.len() as f64).sqrt();
    let mut pts = Vec::with_capacity(len);
    for i in net.ids().take(32) {
        let s = net.position(i);
        pts.push(s);
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

fn identity_models(n: usize) -> Vec<ChannelModel> {
    vec![
        ChannelModel::Deterministic,
        ChannelModel::LogNormalShadowing { sigma_db: 0.0 },
        ChannelModel::FixedGains {
            gains: vec![1.0; n],
        },
        ChannelModel::Composed(vec![
            ChannelModel::Deterministic,
            ChannelModel::LogNormalShadowing { sigma_db: 0.0 },
        ]),
    ]
}

#[test]
fn degenerate_channel_matches_locate_batch_on_fixtures() {
    for (seed, uniform) in [(3u64, true), (4, false)] {
        let net = big_network(seed, TILED_MIN_STATIONS + 37, uniform);
        let points = query_batch(&net, 700, seed ^ 0xAA);
        run_identity_contract(&net, &points);
    }
    // Small network: the untiled per-point path.
    let net = big_network(9, 24, true);
    let points = query_batch(&net, 300, 0x17);
    run_identity_contract(&net, &points);
}

fn run_identity_contract(net: &Network, points: &[Point]) {
    let n = net.len();
    let check = |name: &str, engine: &dyn QueryEngine| {
        let mut located = vec![Located::Silent; points.len()];
        engine.locate_batch(points, &mut located);
        for model in identity_models(n) {
            let mut probs = vec![f64::NAN; points.len()];
            engine
                .reception_probability_batch(
                    &model,
                    McConfig::new(17, 0xDEAD_BEEF),
                    points,
                    &mut probs,
                )
                .unwrap();
            for (i, (p, l)) in probs.iter().zip(&located).enumerate() {
                let expect: f64 = if l.station().is_some() { 1.0 } else { 0.0 };
                assert_eq!(
                    p.to_bits(),
                    expect.to_bits(),
                    "{name}: identity channel {model:?} disagrees with locate_batch at point {i}"
                );
            }
        }
    };
    check("ExactScan", &ExactScan::new(net));
    check("VoronoiAssisted", &VoronoiAssisted::new(net));
    for kernel in SimdKernel::ALL {
        if !kernel.is_supported() {
            continue;
        }
        check(
            kernel.name(),
            &SimdScan::with_kernel(SinrEvaluator::new(net), kernel),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The degenerate-channel contract over random networks, batch
    /// sizes, seeds, and both power regimes.
    #[test]
    fn degenerate_channel_proptest(seed in any::<u64>(), uniform in any::<bool>()) {
        let n = TILED_MIN_STATIONS + (seed % 50) as usize;
        let net = big_network(seed % 1000, n, uniform);
        let points = query_batch(&net, 400 + (seed % 300) as usize, seed);
        run_identity_contract(&net, &points);
    }
}

/// The executor against a from-scratch replay: per trial, rebuild a
/// `Network` with the gain-scaled powers (via the public
/// `gains_for_trial` stream) and a fresh `ExactScan`, count receptions
/// per point. Probabilities must agree bit-for-bit — this exercises the
/// cached-envelope scaling, candidate pruning, and certified decisions
/// of the real Monte-Carlo path against unarguable ground truth.
#[test]
fn monte_carlo_matches_rebuild_per_trial_replay() {
    // Log-normal only: its gains are always finite and positive, so the
    // naive baseline can rebuild a valid `Network` per trial.
    let model = ChannelModel::LogNormalShadowing { sigma_db: 5.0 };
    let trials = 24u32;
    let mc = McConfig::new(trials, 0x5EED);
    for (n, points_len) in [(TILED_MIN_STATIONS + 72, 400), (40, 200)] {
        let net = big_network(77, n, true);
        let points = query_batch(&net, points_len, 0x123);
        let engine = ExactScan::new(&net);
        let mut probs = vec![f64::NAN; points.len()];
        engine
            .reception_probability_batch(&model, mc, &points, &mut probs)
            .unwrap();

        let positions: Vec<Point> = net.ids().map(|i| net.position(i)).collect();
        let powers: Vec<f64> = net.ids().map(|i| net.power(i)).collect();
        let mut counts = vec![0u32; points.len()];
        let mut gains = vec![1.0; n];
        for t in 0..trials {
            model.gains_for_trial(mc.seed, t, &mut gains);
            let mut b = Network::builder()
                .background_noise(net.noise())
                .threshold(net.beta());
            for (p, (w, g)) in positions.iter().zip(powers.iter().zip(&gains)) {
                b = b.station_with_power(*p, w * g);
            }
            let scaled = ExactScan::new(&b.build().unwrap());
            for (c, p) in counts.iter_mut().zip(&points) {
                if scaled.locate(*p).station().is_some() {
                    *c += 1;
                }
            }
        }
        for (i, (got, c)) in probs.iter().zip(&counts).enumerate() {
            let expect = *c as f64 / trials as f64;
            assert_eq!(
                got.to_bits(),
                expect.to_bits(),
                "n={n}: MC executor disagrees with rebuild-per-trial replay at point {i}"
            );
        }
    }
}

/// Fixed per-station gain offsets are gain-deterministic: one trial,
/// exact 0/1 probabilities, equal to a fresh engine on the statically
/// scaled network.
#[test]
fn fixed_gains_match_statically_scaled_network() {
    let n = TILED_MIN_STATIONS + 16;
    let net = big_network(55, n, true);
    let points = query_batch(&net, 500, 0x77);
    // Powers of two: `w * g` is exact, so the two constructions agree
    // bit-for-bit with no rounding caveats.
    let gains: Vec<f64> = (0..n).map(|j| [0.5, 1.0, 2.0, 4.0][j % 4]).collect();
    let model = ChannelModel::FixedGains {
        gains: gains.clone(),
    };
    let mut b = Network::builder()
        .background_noise(net.noise())
        .threshold(net.beta());
    for (i, g) in net.ids().zip(&gains) {
        b = b.station_with_power(net.position(i), net.power(i) * g);
    }
    let scaled_engine = ExactScan::new(&b.build().unwrap());
    let mut located = vec![Located::Silent; points.len()];
    scaled_engine.locate_batch(&points, &mut located);

    for kernel in SimdKernel::ALL.into_iter().filter(|k| k.is_supported()) {
        let engine = SimdScan::with_kernel(SinrEvaluator::new(&net), kernel);
        let mut probs = vec![f64::NAN; points.len()];
        engine
            .reception_probability_batch(&model, McConfig::new(64, 1), &points, &mut probs)
            .unwrap();
        for (i, (p, l)) in probs.iter().zip(&located).enumerate() {
            let expect: f64 = if l.station().is_some() { 1.0 } else { 0.0 };
            assert_eq!(
                p.to_bits(),
                expect.to_bits(),
                "{}: fixed-gain channel disagrees with scaled network at point {i}",
                kernel.name()
            );
        }
    }
}

/// Same `(model, seed)` must replay identical probabilities across
/// calls, backends, and SIMD kernels; a different seed must decorrelate.
#[test]
fn seeded_answers_are_reproducible_across_backends_and_kernels() {
    let net = big_network(13, TILED_MIN_STATIONS + 30, true);
    let points = query_batch(&net, 600, 0x44);
    let model = ChannelModel::Composed(vec![
        ChannelModel::LogNormalShadowing { sigma_db: 4.0 },
        ChannelModel::RayleighFading,
    ]);
    let mc = McConfig::new(48, 0xC0FFEE);
    let run = |engine: &dyn QueryEngine| {
        let mut probs = vec![f64::NAN; points.len()];
        engine
            .reception_probability_batch(&model, mc, &points, &mut probs)
            .unwrap();
        probs
    };
    let exact = ExactScan::new(&net);
    let reference = run(&exact);
    assert_eq!(reference, run(&exact), "repeat call must replay exactly");
    assert_eq!(
        reference,
        run(&VoronoiAssisted::new(&net)),
        "VoronoiAssisted must replay the seeded answer"
    );
    for kernel in SimdKernel::ALL.into_iter().filter(|k| k.is_supported()) {
        assert_eq!(
            reference,
            run(&SimdScan::with_kernel(SinrEvaluator::new(&net), kernel)),
            "{} must replay the seeded answer",
            kernel.name()
        );
    }
    let mut other = vec![f64::NAN; points.len()];
    exact
        .reception_probability_batch(&model, McConfig::new(48, 0xC0FFEF), &points, &mut other)
        .unwrap();
    assert_ne!(reference, other, "different seeds must decorrelate");

    // Sanity: every probability is an integer count over the trials, a
    // station's own position always receives, and values stay in [0,1].
    for (i, p) in reference.iter().enumerate() {
        assert!((0.0..=1.0).contains(p), "probability out of range: {p}");
        let scaled = p * 48.0;
        assert_eq!(scaled, scaled.round(), "non-integral trial count at {i}");
    }
    let station_probe = [net.position(StationId(0))];
    let mut at_station = [0.0];
    exact
        .reception_probability_batch(&model, mc, &station_probe, &mut at_station)
        .unwrap();
    assert_eq!(
        at_station[0], 1.0,
        "a point at a station's position receives in every trial"
    );
}

#[test]
fn quantiles_collapse_for_deterministic_channels_and_are_monotone() {
    let net = big_network(29, 60, true);
    let points = query_batch(&net, 120, 0x31);
    let station = StationId(3);
    let quantiles = [0.0, 0.25, 0.5, 0.75, 1.0];
    let engine = SimdScan::new(&net);

    let mut expected = vec![0.0; points.len()];
    engine.sinr_batch(station, &points, &mut expected);
    let mut out = vec![f64::NAN; points.len() * quantiles.len()];
    engine
        .sinr_quantiles_batch(
            &ChannelModel::Deterministic,
            McConfig::new(32, 9),
            station,
            &points,
            &quantiles,
            &mut out,
        )
        .unwrap();
    for (i, e) in expected.iter().enumerate() {
        for (qi, _) in quantiles.iter().enumerate() {
            assert_eq!(
                out[i * quantiles.len() + qi].to_bits(),
                e.to_bits(),
                "deterministic quantiles must equal sinr_batch bitwise"
            );
        }
    }

    engine
        .sinr_quantiles_batch(
            &ChannelModel::RayleighFading,
            McConfig::new(64, 9),
            station,
            &points,
            &quantiles,
            &mut out,
        )
        .unwrap();
    for i in 0..points.len() {
        let row = &out[i * quantiles.len()..(i + 1) * quantiles.len()];
        for w in row.windows(2) {
            assert!(
                w[0] <= w[1] || (w[0].is_nan() && w[1].is_nan()),
                "quantiles must be monotone, got {row:?}"
            );
        }
    }
}

#[test]
fn typed_errors_for_stale_invalid_and_unsupported() {
    let mut net = big_network(41, 20, true);
    let engine = ExactScan::new(&net);
    let points = [Point::new(0.5, 0.5)];
    let mut out = [0.0];

    // Invalid models and configs.
    let bad_sigma = ChannelModel::LogNormalShadowing { sigma_db: -2.0 };
    assert!(matches!(
        engine.reception_probability_batch(&bad_sigma, McConfig::new(4, 0), &points, &mut out),
        Err(ChannelError::InvalidChannel(_))
    ));
    let wrong_len = ChannelModel::FixedGains { gains: vec![2.0] };
    assert!(matches!(
        engine.reception_probability_batch(&wrong_len, McConfig::new(4, 0), &points, &mut out),
        Err(ChannelError::InvalidChannel(_))
    ));
    assert!(matches!(
        engine.reception_probability_batch(
            &ChannelModel::RayleighFading,
            McConfig::new(0, 0),
            &points,
            &mut out
        ),
        Err(ChannelError::InvalidChannel(_))
    ));
    assert!(matches!(
        engine.sinr_quantiles_batch(
            &ChannelModel::RayleighFading,
            McConfig::new(4, 0),
            StationId(0),
            &points,
            &[1.5],
            &mut out
        ),
        Err(ChannelError::InvalidChannel(_))
    ));

    // Staleness: mutate the source network, leave the engine behind.
    net.set_power(StationId(0), 3.0).unwrap();
    assert!(matches!(
        engine.reception_probability_batch(
            &ChannelModel::RayleighFading,
            McConfig::new(4, 0),
            &points,
            &mut out
        ),
        Err(ChannelError::Stale(_))
    ));

    // Backends without the stochastic path keep the default `Unsupported`.
    struct NoChannels;
    impl QueryEngine for NoChannels {
        fn locate(&self, _p: Point) -> Located {
            Located::Silent
        }
        fn sinr_batch(&self, _i: StationId, _points: &[Point], out: &mut [f64]) {
            out.fill(0.0);
        }
        fn freshness(&self) -> Result<(), sinr_core::LocateError> {
            Ok(())
        }
        fn revision(&self) -> u64 {
            0
        }
        fn is_stale(&self) -> bool {
            false
        }
        fn apply(&mut self, _delta: &sinr_core::NetworkDelta) -> Result<(), sinr_core::SyncError> {
            Ok(())
        }
        fn sync(&mut self, _net: &Network) -> Result<(), sinr_core::SyncError> {
            Ok(())
        }
    }
    assert!(matches!(
        NoChannels.reception_probability_batch(
            &ChannelModel::Deterministic,
            McConfig::new(1, 0),
            &points,
            &mut out
        ),
        Err(ChannelError::Unsupported(_))
    ));
}

/// Non-finite query points through the tiled Monte-Carlo executor: the
/// batch holds 1023 finite points and three non-finite ones (NaN, +∞,
/// −∞). Non-finite points sort last in the Morton order (in input
/// order), so with 512-point tiles tile 0 is all finite (the pruned
/// path), tile 1 mixes 511 finite points with the NaN, and tile 2 holds
/// the two infinities — both non-finite tiles run the serial kernel
/// wholesale. Probabilities must equal, bit for bit, a replay that
/// rebuilds the scaled network per trial and asks the same backend's
/// `locate`.
#[test]
fn non_finite_points_match_rebuild_per_trial_replay() {
    let model = ChannelModel::LogNormalShadowing { sigma_db: 5.0 };
    let trials = 12u32;
    let mc = McConfig::new(trials, 0xF1A7);
    let n = TILED_MIN_STATIONS + 40;
    let net = big_network(91, n, true);
    let mut points = query_batch(&net, 1023, 0x99);
    points.insert(5, Point::new(f64::NAN, 0.0));
    points.insert(300, Point::new(f64::INFINITY, 1.0));
    points.insert(900, Point::new(0.5, f64::NEG_INFINITY));
    assert_eq!(points.len(), 1026);

    let positions: Vec<Point> = net.ids().map(|i| net.position(i)).collect();
    let powers: Vec<f64> = net.ids().map(|i| net.power(i)).collect();
    let scaled_networks: Vec<Network> = (0..trials)
        .map(|t| {
            let mut gains = vec![1.0; n];
            model.gains_for_trial(mc.seed, t, &mut gains);
            let mut b = Network::builder()
                .background_noise(net.noise())
                .threshold(net.beta());
            for (p, (w, g)) in positions.iter().zip(powers.iter().zip(&gains)) {
                b = b.station_with_power(*p, w * g);
            }
            b.build().unwrap()
        })
        .collect();
    let check = |name: &str, build: &dyn Fn(&Network) -> Box<dyn QueryEngine>| {
        let mut probs = vec![f64::NAN; points.len()];
        build(&net)
            .reception_probability_batch(&model, mc, &points, &mut probs)
            .unwrap();
        let mut counts = vec![0u32; points.len()];
        for scaled in &scaled_networks {
            let engine = build(scaled);
            for (c, p) in counts.iter_mut().zip(&points) {
                if engine.locate(*p).station().is_some() {
                    *c += 1;
                }
            }
        }
        for (i, (got, c)) in probs.iter().zip(&counts).enumerate() {
            let expect = *c as f64 / trials as f64;
            assert_eq!(
                got.to_bits(),
                expect.to_bits(),
                "{name}: MC executor disagrees with the replay at point {i} ({:?})",
                points[i]
            );
        }
    };
    check("ExactScan", &|net| Box::new(ExactScan::new(net)));
    for kernel in SimdKernel::ALL.into_iter().filter(|k| k.is_supported()) {
        check(kernel.name(), &|net| {
            Box::new(SimdScan::with_kernel(SinrEvaluator::new(net), kernel))
        });
    }
}
