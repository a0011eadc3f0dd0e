//! RCU-style shared engine snapshots: one immutable engine per
//! (network, backend, revision), served to any number of concurrent
//! readers behind an [`Arc`].
//!
//! ## Why
//!
//! The SINR diagram is a pure function of the network (the paper's
//! model: zones are determined by `⟨S, ψ, N, β⟩` alone), so between
//! mutations an engine is immutable — N readers do not need N engines.
//! The share-nothing serving model (one engine clone per session)
//! multiplies every kd-tree and SoA column by the session count; this
//! module replaces it with **read-copy-update** publication:
//!
//! * Readers call [`SnapshotStore::load`] and get an
//!   `Arc<EngineSnapshot>` — a cheap pointer clone under a mutex held
//!   for nanoseconds, never blocked by writers doing real work.
//! * A writer calls [`SnapshotStore::advance`] with the deltas of a
//!   mutation. The store holds only the published snapshot, so the
//!   deltas apply to it (the epoch/delta path — no rebuild) through
//!   [`Arc::make_mut`]: in place when no reader holds it, on a clone of
//!   it while one does. A [frozen](QueryEngine::freeze) engine still
//!   accepts its own network's deltas, so no live engine is kept.
//! * In-flight batches keep answering on whatever `Arc` they loaded —
//!   frozen snapshots stay fresh at their pinned revision, so a
//!   mutation mid-batch can never flip them stale or change them. The
//!   old snapshot deallocates when the last reader drops its `Arc`
//!   (classic RCU grace-period-by-refcount).
//!
//! Publication costs an `O(n)` engine clone only while a reader holds
//! the current snapshot — paid by the mutator, once, regardless of
//! reader count — instead of one engine *rebuild or catch-up per
//! session* per revision. One engine per (network, backend, revision)
//! is all the store keeps.
//!
//! ## Staleness contract
//!
//! A published snapshot intentionally steps outside the live staleness
//! machinery: [`EngineSnapshot::engine`] always reports fresh at
//! [`EngineSnapshot::revision`]. Readers that need the *current*
//! revision must re-`load` — the store's revision fence, mirrored by
//! `sinr-server`'s protocol (every response carries the revision it
//! answers for).

use crate::engine::{BoxedEngine, QueryEngine, SyncError};
use crate::network::{Network, NetworkDelta};
use std::sync::{Arc, Mutex};

/// An immutable engine pinned at one network revision, shared behind an
/// [`Arc`] by every reader of that revision.
///
/// The wrapped engine is [frozen](QueryEngine::freeze): it answers for
/// [`EngineSnapshot::revision`] regardless of what the source network
/// does next. Only a [`SnapshotStore`] holding the sole reference moves
/// it to a later revision.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    engine: BoxedEngine,
    stations: usize,
}

impl EngineSnapshot {
    /// Freezes `engine` (pinning it at its current revision) and wraps
    /// it; `stations` is the station count at that revision (recorded
    /// here because [`QueryEngine`] does not expose it, and servers
    /// need it to range-check station ids without consulting the —
    /// possibly already mutated — live network).
    pub fn freeze(mut engine: BoxedEngine, stations: usize) -> EngineSnapshot {
        engine.freeze();
        EngineSnapshot { engine, stations }
    }

    /// The frozen engine. Always fresh at [`EngineSnapshot::revision`].
    pub fn engine(&self) -> &BoxedEngine {
        &self.engine
    }

    /// The network revision this snapshot answers for.
    pub fn revision(&self) -> u64 {
        self.engine.revision()
    }

    /// The station count at this revision.
    pub fn stations(&self) -> usize {
        self.stations
    }

    /// Brings this snapshot's engine to `net`'s revision: incremental
    /// per delta ([`QueryEngine::apply`]); if that leaves it behind, one
    /// full [`QueryEngine::sync`] and a fresh freeze.
    fn catch_up(&mut self, net: &Network, deltas: &[NetworkDelta]) -> Result<(), SyncError> {
        for delta in deltas {
            if self.engine.apply(delta).is_err() {
                break;
            }
        }
        if self.engine.revision() != net.revision() {
            self.engine.sync(net)?;
            self.engine.freeze();
        }
        self.stations = net.len();
        Ok(())
    }
}

/// Why a [`SnapshotStore`] can no longer serve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A mutation produced a network the store's backend cannot
    /// represent (e.g. the Theorem-3 locator's uniform-power
    /// precondition). The store is poisoned: every later
    /// [`SnapshotStore::load`]/[`SnapshotStore::advance`] repeats this
    /// error, and readers should detach.
    Unsupported(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Unsupported(msg) => {
                write!(f, "snapshot store cannot represent the network: {msg}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The publication side of RCU: the currently published
/// [`EngineSnapshot`] of one live [`Network`].
///
/// One store serves one (network, backend) pair; a server keeps one
/// store per backend a client has attached with (see `sinr-server`'s
/// registry). All methods take `&self` — the store is shared behind an
/// [`Arc`] by every session attached to it.
#[derive(Debug)]
pub struct SnapshotStore {
    inner: Mutex<StoreInner>,
}

#[derive(Debug)]
struct StoreInner {
    published: Arc<EngineSnapshot>,
    /// Set when a mutation escaped the backend's representable space;
    /// sticky (see [`SnapshotError::Unsupported`]).
    poisoned: Option<String>,
}

impl SnapshotStore {
    /// Freezes a freshly built engine for `net` in place and publishes
    /// it as the initial snapshot at the current revision.
    pub fn new(net: &Network, engine: BoxedEngine) -> SnapshotStore {
        SnapshotStore {
            inner: Mutex::new(StoreInner {
                published: Arc::new(EngineSnapshot::freeze(engine, net.len())),
                poisoned: None,
            }),
        }
    }

    /// The currently published snapshot — an `Arc` clone under a
    /// briefly held mutex. Hold the returned `Arc` for the duration of
    /// a batch: concurrent [`SnapshotStore::advance`] calls never
    /// change a snapshot a reader holds.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] once the store is poisoned.
    pub fn load(&self) -> Result<Arc<EngineSnapshot>, SnapshotError> {
        let inner = self.inner.lock().expect("snapshot store lock");
        match &inner.poisoned {
            Some(msg) => Err(SnapshotError::Unsupported(msg.clone())),
            None => Ok(Arc::clone(&inner.published)),
        }
    }

    /// Publishes `net`'s current revision, given the deltas of the
    /// mutation that produced it (in emission order). The deltas apply
    /// to the published snapshot through [`Arc::make_mut`] — in place
    /// when no reader holds it, on a clone otherwise; any refusal falls
    /// back to one full [`QueryEngine::sync`]. Idempotent on an
    /// already-current store (republishing nothing).
    ///
    /// Readers holding the previous `Arc` are unaffected — their
    /// snapshot stays frozen-fresh at its own revision.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] when the backend cannot represent
    /// the mutated network at all; the store is then poisoned and the
    /// previously published snapshot is withdrawn.
    pub fn advance(
        &self,
        net: &Network,
        deltas: &[NetworkDelta],
    ) -> Result<Arc<EngineSnapshot>, SnapshotError> {
        let mut inner = self.inner.lock().expect("snapshot store lock");
        if let Some(msg) = &inner.poisoned {
            return Err(SnapshotError::Unsupported(msg.clone()));
        }
        if inner.published.revision() != net.revision() {
            if let Err(e) = Arc::make_mut(&mut inner.published).catch_up(net, deltas) {
                let msg = e.to_string();
                inner.poisoned = Some(msg.clone());
                return Err(SnapshotError::Unsupported(msg));
            }
        }
        Ok(Arc::clone(&inner.published))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ExactScan, Located};
    use crate::network::SurgeryOp;
    use crate::station::StationId;
    use sinr_geometry::Point;

    fn net() -> Network {
        Network::uniform(
            vec![
                Point::new(-3.0, 0.0),
                Point::new(3.0, 0.0),
                Point::new(0.0, 4.0),
            ],
            0.01,
            1.5,
        )
        .unwrap()
    }

    #[test]
    fn frozen_snapshot_survives_source_mutation() {
        let mut net = net();
        let store = SnapshotStore::new(&net, BoxedEngine::exact_scan(&net));
        let snap0 = store.load().unwrap();
        assert_eq!(snap0.revision(), 0);
        assert_eq!(snap0.stations(), 3);

        let p = Point::new(-2.5, 0.0);
        snap0.engine().freshness().unwrap();
        let before = snap0.engine().locate(p);

        // Mutate the live network: the snapshot must stay fresh and
        // keep answering for revision 0.
        let delta = net
            .apply_op(&SurgeryOp::Move {
                id: StationId(2),
                to: Point::new(0.5, -1.0),
            })
            .unwrap();
        snap0.engine().freshness().unwrap();
        assert_eq!(
            snap0.engine().locate(p),
            before,
            "frozen snapshot changed its answer after a source mutation"
        );
        assert_eq!(snap0.revision(), 0);

        // Advance publishes a NEW snapshot (a clone, because this
        // reader holds the old one); the old Arc is untouched.
        let snap1 = store.advance(&net, std::slice::from_ref(&delta)).unwrap();
        assert_eq!(snap1.revision(), 1);
        assert!(!Arc::ptr_eq(&snap0, &snap1));
        assert_eq!(snap0.revision(), 0);
        snap0.engine().freshness().unwrap();
        assert_eq!(snap0.engine().revision(), 0);
        assert_eq!(
            snap0.engine().locate(p),
            before,
            "a held snapshot changed its answer across an advance"
        );

        // The new snapshot answers bit-identically to a fresh engine at
        // the mutated revision.
        let fresh = ExactScan::new(&net);
        let probes: Vec<Point> = (0..200)
            .map(|k| Point::new((k % 20) as f64 * 0.4 - 4.0, (k / 20) as f64 * 0.5 - 2.0))
            .collect();
        let mut got = vec![Located::Silent; probes.len()];
        let mut want = vec![Located::Silent; probes.len()];
        snap1.engine().freshness().unwrap();
        snap1.engine().locate_batch(&probes, &mut got);
        fresh.locate_batch(&probes, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn advance_is_idempotent_and_load_shares_one_arc() {
        let mut net = net();
        let store = SnapshotStore::new(&net, BoxedEngine::simd_scan(&net));
        let a = store.load().unwrap();
        let b = store.load().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "loads of one revision must share");

        let delta = net
            .apply_op(&SurgeryOp::SetPower {
                id: StationId(0),
                power: 1.0,
            })
            .unwrap();
        let c = store.advance(&net, std::slice::from_ref(&delta)).unwrap();
        let d = store.advance(&net, &[]).unwrap();
        assert!(
            Arc::ptr_eq(&c, &d),
            "advance on a current store must republish the same Arc"
        );
        assert_eq!(store.load().unwrap().revision(), 1);
    }

    #[test]
    fn advance_without_readers_reuses_the_allocation() {
        for build in [BoxedEngine::exact_scan, BoxedEngine::voronoi_assisted] {
            let mut net = net();
            let store = SnapshotStore::new(&net, build(&net));
            let before = Arc::as_ptr(&store.load().unwrap());
            let delta = net
                .apply_op(&SurgeryOp::Move {
                    id: StationId(0),
                    to: Point::new(-1.0, 2.0),
                })
                .unwrap();
            let after = store.advance(&net, std::slice::from_ref(&delta)).unwrap();
            assert_eq!(
                Arc::as_ptr(&after),
                before,
                "an advance with no reader must apply in place"
            );
            assert_eq!(after.revision(), 1);
            after.engine().freshness().unwrap();
            let p = Point::new(-1.2, 1.9);
            assert_eq!(after.engine().locate(p), ExactScan::new(&net).locate(p));
        }
    }

    #[test]
    fn old_snapshots_drop_on_last_release() {
        let mut net = net();
        let store = SnapshotStore::new(&net, BoxedEngine::exact_scan(&net));
        let old = store.load().unwrap();
        assert_eq!(Arc::strong_count(&old), 2, "store + this reader");
        let delta = net
            .apply_op(&SurgeryOp::Move {
                id: StationId(1),
                to: Point::new(2.0, 1.0),
            })
            .unwrap();
        store.advance(&net, std::slice::from_ref(&delta)).unwrap();
        // The store released its reference at publication; this reader
        // is the sole remaining owner — dropping it frees the engine.
        assert_eq!(Arc::strong_count(&old), 1);
    }
}
