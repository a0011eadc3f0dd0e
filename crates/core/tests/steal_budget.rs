//! The shared worker budget of `tile::steal_tiles`: the calls in flight
//! in one process share its cores. One test in its own binary, so no
//! other test's batches hold workers while it counts them.

use sinr_core::tile::steal_tiles;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;

#[test]
fn calls_in_flight_share_the_cores() {
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    // Alone, a call takes one worker per core (the caller among them).
    let solo = || steal_tiles::<(), _>(4 * cores, usize::MAX, |_, _| {}).len();
    assert_eq!(solo(), cores);

    // A call made inside a tile finds every core held by the outer
    // call, so it runs all its tiles, in order, on the thread that made
    // it.
    let outer = steal_tiles::<Vec<Vec<usize>>, _>(4 * cores, usize::MAX, |_, nested| {
        let caller = thread::current().id();
        let inner = steal_tiles::<Vec<usize>, _>(8, usize::MAX, |t, seen| {
            assert_eq!(thread::current().id(), caller, "tile {t} left its caller");
            seen.push(t);
        });
        nested.extend(inner);
    });
    assert_eq!(outer.len(), cores);
    for seen in outer.into_iter().flatten() {
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }
    // The outer call released its workers on return.
    assert_eq!(solo(), cores);

    // So does a call whose tile panics.
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        steal_tiles::<(), _>(4 * cores, usize::MAX, |t, _| {
            assert_ne!(t, 1, "tile 1 panics");
        })
    }));
    assert!(panicked.is_err());
    assert_eq!(solo(), cores);
}
