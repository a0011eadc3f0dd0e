//! Dynamic updates on the Theorem-3 locator: incremental
//! [`QueryEngine::apply`] with lazy per-zone rebuilds must be
//! bit-for-bit indistinguishable from an eager rebuild from the mutated
//! network, and the staleness / precondition contracts must hold.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sinr_core::engine::{QueryEngine, SyncError};
use sinr_core::gen::min_separation;
use sinr_core::{Network, StationId};
use sinr_geometry::Point;
use sinr_pointloc::{Located, PointLocator, QdsConfig};

fn sample_points(net: &Network) -> Vec<Point> {
    let mut pts = Vec::new();
    for a in -10..=10 {
        for b in -10..=10 {
            pts.push(Point::new(a as f64 * 0.5, b as f64 * 0.5));
        }
    }
    for i in net.ids() {
        pts.push(net.position(i));
    }
    pts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Geometry churn (add / move / remove): the incrementally applied
    /// locator, with its zones rebuilt lazily on dispatch, answers
    /// exactly like `PointLocator::build` over the mutated network —
    /// including which points land `Uncertain`.
    #[test]
    fn apply_with_lazy_rebuild_equals_fresh_build(
        (seed, n) in (any::<u64>(), 3usize..5),
    ) {
        let pts = min_separation(&mut rand::rngs::StdRng::seed_from_u64(seed), n, 4.0, 1.3);
        let mut net = Network::uniform(pts, 0.01, 2.0).expect("valid network");
        let config = QdsConfig::with_epsilon(0.3);
        let mut ds = match PointLocator::build(&net, &config) {
            Ok(ds) => ds,
            // Resource-budget build failures are a build concern, not an
            // update-equivalence concern.
            Err(_) => return Ok(()),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9D5);

        for step in 0..4 {
            let delta = match step % 3 {
                0 => {
                    let i = rng.gen_range(0..net.len());
                    let jitter = Point::new(
                        net.position(StationId(i)).x + rng.gen_range(-0.4..0.4),
                        net.position(StationId(i)).y + rng.gen_range(-0.4..0.4),
                    );
                    net.move_station(StationId(i), jitter).expect("valid move")
                }
                1 => net
                    .add_station(
                        Point::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)),
                        1.0,
                    )
                    .expect("valid add"),
                _ => {
                    let i = rng.gen_range(0..net.len());
                    net.remove_station(StationId(i)).expect("n > 2")
                }
            };
            prop_assert!(ds.is_stale());
            ds.apply(&delta).expect("uniform-power delta applies");
            prop_assert!(!ds.is_stale());
            // Every zone is invalidated (interference is global)…
            prop_assert_eq!(ds.stale_zones(), net.len());
        }

        let fresh = match PointLocator::build(&net, &config) {
            Ok(fresh) => fresh,
            // The mutated geometry can exceed the cell budget; the lazy
            // path degrades per-station instead, so there is no fresh
            // baseline to compare against here.
            Err(_) => return Ok(()),
        };
        let points = sample_points(&net);
        let mut lazy_out = vec![Located::Silent; points.len()];
        let mut fresh_out = vec![Located::Silent; points.len()];
        QueryEngine::locate_batch(&ds, &points, &mut lazy_out);
        QueryEngine::locate_batch(&fresh, &points, &mut fresh_out);
        for (p, (a, b)) in points.iter().zip(lazy_out.iter().zip(&fresh_out)) {
            prop_assert_eq!(*a, *b, "lazy vs fresh diverge at {} in {}", p, net);
        }
        // …and only the dispatched-to zones were rebuilt by the batch.
        prop_assert!(ds.stale_zones() <= net.len());
        prop_assert_eq!(ds.total_question_cells(), fresh.total_question_cells());
        prop_assert_eq!(ds.stale_zones(), 0);
    }
}

#[test]
fn non_uniform_power_delta_is_unsupported() {
    let mut net = Network::uniform(
        vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 3.5),
        ],
        0.0,
        2.0,
    )
    .unwrap();
    let mut ds = PointLocator::build(&net, &QdsConfig::with_epsilon(0.3)).unwrap();
    let before = ds.revision();
    let delta = net.set_power(StationId(0), 2.0).unwrap();
    assert!(matches!(ds.apply(&delta), Err(SyncError::Unsupported(_))));
    // The locator did not advance — and being stale, it refuses queries.
    assert_eq!(ds.revision(), before);
    assert!(ds.is_stale());
    assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ds.locate(Point::new(0.1, 0.0))
    }))
    .is_err());
    // Restoring uniform power and syncing recovers the locator.
    net.set_power(StationId(0), 1.0).unwrap();
    ds.sync(&net).unwrap();
    assert!(!ds.is_stale());
    assert_eq!(
        ds.locate(net.position(StationId(0))),
        Located::Reception(StationId(0))
    );
    // sync against a non-uniform network reports Unsupported.
    net.set_power(StationId(1), 3.0).unwrap();
    let mut ds2 = ds.clone();
    assert!(matches!(ds2.sync(&net), Err(SyncError::Unsupported(_))));
}

#[test]
fn physical_noop_power_delta_keeps_zones_fresh() {
    let mut net = Network::uniform(
        vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 3.5),
        ],
        0.0,
        2.0,
    )
    .unwrap();
    let mut ds = PointLocator::build(&net, &QdsConfig::with_epsilon(0.3)).unwrap();
    let delta = net.set_power(StationId(0), 1.0).unwrap();
    ds.apply(&delta).unwrap();
    // 1 → 1 on a uniform network moves no boundary: nothing invalidated.
    assert_eq!(ds.stale_zones(), 0);
    assert!(!ds.is_stale());
}
