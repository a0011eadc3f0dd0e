//! The server-side registry of **named networks**: the one engine-
//! ownership path of every session.
//!
//! A network is [registered](NetworkRegistry::register) once under a
//! name, any number of sessions [attach](NetworkRegistry::attach) to
//! it, and all sessions attached with the same (backend, epsilon) share
//! **one** [`SnapshotStore`] — one engine per (network, backend,
//! revision), regardless of session count. `Bind` takes the same path
//! with a network no registry lists ([`NamedNetwork::anonymous`]), so
//! only the binding session can reach it.
//!
//! Mutation goes through [`NamedNetwork::mutate`]: the network is
//! revision-fenced, then the emitted
//! deltas advance every store (incremental
//! [`sinr_core::QueryEngine::apply`], one publication per store)
//! **off the network lock** — the lock is held only long enough to
//! fence and apply the ops, so a slow advancement (worst case a full
//! rebuild on the sync fallback) never stalls a concurrent attach or
//! reader. Every attached session observes the new snapshot at its
//! next request. A store whose backend cannot represent the mutated
//! network (e.g. the Theorem-3 locator after a non-uniform `SetPower`)
//! is poisoned and dropped from the registry; sessions holding it see
//! the poison on their next load and detach.
//!
//! Lock discipline: timesteps serialize on a dedicated per-network
//! mutation lock, acquired before (and released after) the network's
//! inner lock; the registry map lock and a network's inner lock are
//! never held together; and no store mutex is ever taken while the
//! inner lock is held — stores advance between two short critical
//! sections (fence + apply ops, then drop poisoned stores). Readers
//! never take the network lock at all — queries go
//! `Arc<SnapshotStore> → Arc<EngineSnapshot>`, both brief mutex-clone
//! hops.

use crate::protocol::{BackendId, NetworkSpec, MAX_NETWORK_NAME_LEN};
use sinr_core::engine::BoxedEngine;
use sinr_core::{EngineSnapshot, Network, NetworkError, SnapshotStore, SurgeryOp};
use sinr_pointloc::{PointLocator, QdsConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Builds the requested backend over `net`, as one erased engine.
///
/// # Errors
///
/// A human-readable build failure (bad `epsilon`, Theorem-3
/// preconditions) — the caller maps it onto
/// [`ErrorCode::BackendBuild`](crate::protocol::ErrorCode::BackendBuild).
pub fn build_backend(
    backend: BackendId,
    epsilon: f64,
    net: &Network,
) -> Result<BoxedEngine, String> {
    match backend {
        BackendId::ExactScan => Ok(BoxedEngine::exact_scan(net)),
        BackendId::SimdScan => Ok(BoxedEngine::simd_scan(net)),
        BackendId::VoronoiAssisted => Ok(BoxedEngine::voronoi_assisted(net)),
        BackendId::Qds => {
            if !(epsilon > 0.0 && epsilon < 1.0) {
                return Err(format!("qds needs 0 < epsilon < 1, got {epsilon}"));
            }
            PointLocator::build(net, &QdsConfig::with_epsilon(epsilon))
                .map(|locator| BoxedEngine::new("qds", locator))
                .map_err(|e| e.to_string())
        }
    }
}

/// Why a [`NetworkRegistry::register`] failed.
#[derive(Debug)]
pub enum RegisterError {
    /// The name is already registered.
    NameTaken,
    /// The name is empty or longer than [`MAX_NETWORK_NAME_LEN`] bytes
    /// (unreachable via the wire, whose length byte enforces the bound;
    /// reachable through the in-process API).
    InvalidName,
    /// The network spec failed [`Network`] validation.
    InvalidNetwork(NetworkError),
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::NameTaken => write!(f, "a network with this name is already registered"),
            RegisterError::InvalidName => {
                write!(f, "network names must be 1..={MAX_NETWORK_NAME_LEN} bytes")
            }
            RegisterError::InvalidNetwork(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegisterError {}

/// Why a [`NetworkRegistry::attach`] failed.
#[derive(Debug)]
pub enum AttachError {
    /// No network is registered under that name.
    UnknownNetwork,
    /// The backend refused the network (see [`build_backend`]).
    BackendBuild(String),
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::UnknownNetwork => write!(f, "no network registered under this name"),
            AttachError::BackendBuild(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for AttachError {}

/// Why a [`NamedNetwork::mutate`] failed.
#[derive(Debug)]
pub enum MutateError {
    /// The ops were computed against another revision; nothing was
    /// applied.
    RevisionMismatch {
        /// What the mutator expected.
        expected: u64,
        /// Where the network actually is.
        current: u64,
    },
    /// An op failed validation mid-timestep; the prefix stays applied
    /// (and was published to every store).
    Surgery {
        /// The batch error's display output (names the failing op).
        message: String,
        /// The network's revision after the applied prefix.
        revision: u64,
    },
}

/// What a successful [`NamedNetwork::mutate`] reports.
#[derive(Debug, Clone, Copy)]
pub struct MutateOk {
    /// The network's revision after the whole timestep.
    pub revision: u64,
    /// Number of ops applied.
    pub applied: u32,
}

/// One store per engine flavour serving a named network: the backend
/// plus (for [`BackendId::Qds`]) the approximation parameter, compared
/// bitwise so attaching with the same `epsilon` shares the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct StoreKey {
    backend: BackendId,
    epsilon_bits: u64,
}

impl StoreKey {
    fn new(backend: BackendId, epsilon: f64) -> StoreKey {
        StoreKey {
            backend,
            // Exact backends ignore epsilon — normalize so every attach
            // shares one store regardless of the junk in the field.
            epsilon_bits: match backend {
                BackendId::Qds => epsilon.to_bits(),
                _ => 0,
            },
        }
    }
}

/// Why a [`NetworkRegistry::unregister`] failed.
#[derive(Debug, PartialEq, Eq)]
pub enum UnregisterError {
    /// No network is registered under that name.
    UnknownNetwork,
    /// Sessions are still attached; the name stays registered. Detach
    /// them (close the sessions) and retry.
    StillAttached {
        /// How many attachments were alive at the time of the call.
        attached: usize,
    },
}

impl std::fmt::Display for UnregisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnregisterError::UnknownNetwork => write!(f, "no network registered under this name"),
            UnregisterError::StillAttached { attached } => write!(
                f,
                "{attached} session(s) are still attached to this network"
            ),
        }
    }
}

impl std::error::Error for UnregisterError {}

/// A served network: the live [`Network`] plus the shared
/// [`SnapshotStore`]s serving it (one per attached backend flavour).
/// Registered under a name, or anonymous (a `Bind` session's own).
#[derive(Debug)]
pub struct NamedNetwork {
    /// The registry name; `None` for an anonymous network.
    name: Option<String>,
    /// Live attachments (one per undropped [`AttachGuard`]); gates
    /// [`NetworkRegistry::unregister`].
    attached: AtomicUsize,
    /// Serializes whole timesteps (fence → apply → advance stores →
    /// drop poisoned). Always acquired before `inner`, and held across
    /// the off-lock store advancement so concurrent mutations cannot
    /// interleave their delta batches out of order.
    mutation: Mutex<()>,
    inner: Mutex<NamedInner>,
}

/// The refcount half of an [`AttachHandle`]: one attachment, released
/// exactly once when the last clone of the handle drops — cloning a
/// handle shares the guard rather than double-counting.
#[derive(Debug)]
pub struct AttachGuard {
    network: Arc<NamedNetwork>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        self.network.attached.fetch_sub(1, Ordering::AcqRel);
    }
}

#[derive(Debug)]
struct NamedInner {
    net: Network,
    stores: HashMap<StoreKey, Arc<SnapshotStore>>,
}

impl NamedNetwork {
    fn new(name: Option<String>, net: Network) -> NamedNetwork {
        NamedNetwork {
            name,
            attached: AtomicUsize::new(0),
            mutation: Mutex::new(()),
            inner: Mutex::new(NamedInner {
                net,
                stores: HashMap::new(),
            }),
        }
    }

    /// A network no registry lists: reachable only through the handles
    /// [`NamedNetwork::attach`] hands out (a `Bind` session's network).
    pub fn anonymous(net: Network) -> Arc<NamedNetwork> {
        Arc::new(NamedNetwork::new(None, net))
    }

    /// How error messages name this network: `network '<name>'` when
    /// registered, `the session network` when anonymous.
    pub(crate) fn description(&self) -> String {
        match &self.name {
            Some(name) => format!("network '{name}'"),
            None => "the session network".to_owned(),
        }
    }

    /// Number of live snapshot stores (one per attached backend
    /// flavour) — the memory-scaling observable: N sessions attached
    /// with one backend keep this at 1.
    pub fn store_count(&self) -> usize {
        self.inner.lock().expect("named network lock").stores.len()
    }

    /// Number of live attachments (undropped [`AttachGuard`]s) — the
    /// count that gates [`NetworkRegistry::unregister`].
    pub fn attached_count(&self) -> usize {
        self.attached.load(Ordering::Acquire)
    }

    /// The currently published snapshot of the store for
    /// (`backend`, `epsilon`), if one exists and is healthy — `Arc`
    /// identity is the test observable for snapshot sharing.
    pub fn snapshot(&self, backend: BackendId, epsilon: f64) -> Option<Arc<EngineSnapshot>> {
        let inner = self.inner.lock().expect("named network lock");
        let store = inner.stores.get(&StoreKey::new(backend, epsilon))?;
        store.load().ok()
    }

    /// Attaches to this network with the given backend flavour,
    /// creating the shared store on first attach and joining it on
    /// every later one.
    ///
    /// # Errors
    ///
    /// The backend's build failure (see [`build_backend`]).
    pub fn attach(
        self: &Arc<NamedNetwork>,
        backend: BackendId,
        epsilon: f64,
    ) -> Result<AttachHandle, String> {
        let key = StoreKey::new(backend, epsilon);
        let store = {
            let mut inner = self.inner.lock().expect("named network lock");
            match inner.stores.get(&key) {
                Some(store) => Arc::clone(store),
                None => {
                    let engine = build_backend(backend, epsilon, &inner.net)?;
                    let store = Arc::new(SnapshotStore::new(&inner.net, engine));
                    inner.stores.insert(key, Arc::clone(&store));
                    store
                }
            }
        };
        // A store in the map is almost always healthy (mutation drops
        // poisoned ones), but a mutation advancing stores off-lock may
        // not have unpublished a just-poisoned store yet — surface the
        // poison as a build failure and let the client retry.
        let revision = store.load().map_err(|e| e.to_string())?.revision();
        self.attached.fetch_add(1, Ordering::AcqRel);
        let guard = Arc::new(AttachGuard {
            network: Arc::clone(self),
        });
        Ok(AttachHandle {
            network: Arc::clone(self),
            store,
            revision,
            guard,
        })
    }

    /// Applies a revision-fenced timestep of surgery to the live
    /// network and publishes the result to **every** store: after this
    /// returns, each healthy store's next load answers for the new
    /// revision, while snapshots already loaded by in-flight batches
    /// stay valid at their own revision (RCU). Stores whose backend
    /// cannot represent the mutated network are poisoned and dropped —
    /// their sessions detach on next use.
    ///
    /// Store advancement (including the full-rebuild sync fallback)
    /// runs with **no network lock held**: a concurrent
    /// [`NetworkRegistry::attach`] or snapshot load proceeds while the
    /// stores catch up, and simply observes the pre-advancement
    /// snapshot until the new one is published. Timesteps themselves
    /// stay strictly serialized (per-network mutation lock), so each
    /// store sees every delta batch exactly once, in emission order.
    ///
    /// # Errors
    ///
    /// [`MutateError::RevisionMismatch`] (nothing applied) or
    /// [`MutateError::Surgery`] (prefix applied and published).
    pub fn mutate(
        &self,
        expected_revision: u64,
        ops: &[SurgeryOp],
    ) -> Result<MutateOk, MutateError> {
        let _timestep = self.mutation.lock().expect("mutation lock");

        // Critical section 1: fence the revision, apply the ops, and
        // snapshot what advancement needs (the mutated network and the
        // store handles) — then let go of the lock before any store
        // does real work.
        let (outcome, net, deltas, stores) = {
            let mut inner = self.inner.lock().expect("named network lock");
            let current = inner.net.revision();
            if expected_revision != current {
                return Err(MutateError::RevisionMismatch {
                    expected: expected_revision,
                    current,
                });
            }
            let (outcome, deltas) = match inner.net.apply_ops(ops) {
                Ok(deltas) => {
                    let ok = MutateOk {
                        revision: inner.net.revision(),
                        applied: deltas.len() as u32,
                    };
                    (Ok(ok), deltas)
                }
                Err(batch) => {
                    let err = MutateError::Surgery {
                        message: batch.to_string(),
                        revision: inner.net.revision(),
                    };
                    (Err(err), batch.applied)
                }
            };
            let stores: Vec<(StoreKey, Arc<SnapshotStore>)> = inner
                .stores
                .iter()
                .map(|(key, store)| (*key, Arc::clone(store)))
                .collect();
            (outcome, inner.net.clone(), deltas, stores)
        };

        // Off-lock: advance every store. A store that cannot follow is
        // poisoned by its own `advance` (the poisoned Arc keeps erroring
        // for the sessions still holding it).
        let mut dropped: Vec<StoreKey> = Vec::new();
        for (key, store) in &stores {
            if store.advance(&net, &deltas).is_err() {
                dropped.push(*key);
            }
        }

        // Critical section 2: unpublish the poisoned stores so later
        // attaches build fresh. The mutation lock guarantees no other
        // timestep touched the map in between, and attach never
        // replaces a key that is present, so removal by key drops
        // exactly the stores advanced above.
        if !dropped.is_empty() {
            let mut inner = self.inner.lock().expect("named network lock");
            for key in &dropped {
                inner.stores.remove(key);
            }
        }
        outcome
    }
}

/// The server-wide name → network map. Shared behind an [`Arc`] by
/// every session a server accepts (each [`crate::Server`] owns one).
#[derive(Debug, Default)]
pub struct NetworkRegistry {
    networks: Mutex<HashMap<String, Arc<NamedNetwork>>>,
}

/// What [`NamedNetwork::attach`] hands a session: the network (for
/// mutation) and the shared snapshot store (for queries).
#[derive(Debug, Clone)]
pub struct AttachHandle {
    /// The attached network.
    pub network: Arc<NamedNetwork>,
    /// The shared store for the requested backend flavour.
    pub store: Arc<SnapshotStore>,
    /// The published revision at attach time.
    pub revision: u64,
    /// The attachment refcount token: the network counts as attached
    /// until the last clone of this handle drops.
    pub guard: Arc<AttachGuard>,
}

impl NetworkRegistry {
    /// An empty registry.
    pub fn new() -> NetworkRegistry {
        NetworkRegistry::default()
    }

    /// Builds and registers a network under `name`; returns its
    /// starting revision.
    ///
    /// # Errors
    ///
    /// See [`RegisterError`]. On error nothing is registered.
    pub fn register(&self, name: &str, spec: &NetworkSpec) -> Result<u64, RegisterError> {
        if name.is_empty() || name.len() > MAX_NETWORK_NAME_LEN {
            return Err(RegisterError::InvalidName);
        }
        let net = spec.build().map_err(RegisterError::InvalidNetwork)?;
        let mut networks = self.networks.lock().expect("registry lock");
        if networks.contains_key(name) {
            return Err(RegisterError::NameTaken);
        }
        let revision = net.revision();
        networks.insert(
            name.to_owned(),
            Arc::new(NamedNetwork::new(Some(name.to_owned()), net)),
        );
        Ok(revision)
    }

    /// Attaches to a registered network with the given backend flavour
    /// (see [`NamedNetwork::attach`]).
    ///
    /// # Errors
    ///
    /// See [`AttachError`].
    pub fn attach(
        &self,
        name: &str,
        backend: BackendId,
        epsilon: f64,
    ) -> Result<AttachHandle, AttachError> {
        self.get(name)
            .ok_or(AttachError::UnknownNetwork)?
            .attach(backend, epsilon)
            .map_err(AttachError::BackendBuild)
    }

    /// Removes a registered network, provided no session is attached.
    ///
    /// The attachment check and the removal run under the registry
    /// lock, but an `attach` racing this call may have already looked
    /// the network up: that attacher keeps a working (now anonymous)
    /// handle — its snapshots stay valid, only the *name* is gone. This
    /// is the same semantics a file gets from `unlink(2)` with open
    /// descriptors, and it is why unregistration can never poison a
    /// running session.
    ///
    /// # Errors
    ///
    /// See [`UnregisterError`]. On error nothing changes.
    pub fn unregister(&self, name: &str) -> Result<(), UnregisterError> {
        let mut networks = self.networks.lock().expect("registry lock");
        let network = networks.get(name).ok_or(UnregisterError::UnknownNetwork)?;
        let attached = network.attached.load(Ordering::Acquire);
        if attached > 0 {
            return Err(UnregisterError::StillAttached { attached });
        }
        networks.remove(name);
        Ok(())
    }

    /// The named network, if registered.
    pub fn get(&self, name: &str) -> Option<Arc<NamedNetwork>> {
        self.networks
            .lock()
            .expect("registry lock")
            .get(name)
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_core::{LocateError, Located, NetworkDelta, QueryEngine, StationId, SyncError};
    use sinr_geometry::Point;
    use std::sync::atomic::AtomicBool;
    use std::sync::Condvar;
    use std::thread;
    use std::time::Duration;

    fn spec() -> NetworkSpec {
        NetworkSpec {
            noise: 0.01,
            beta: 1.5,
            alpha: 2.0,
            stations: vec![
                (Point::new(-3.0, 0.0), 1.0),
                (Point::new(3.0, 0.0), 1.0),
                (Point::new(0.0, 4.0), 1.0),
            ],
        }
    }

    /// Two-phase rendezvous for [`SlowApplyEngine`]: the engine parks
    /// inside `apply` (signalling `entered`) until the test `release`s
    /// it — a deterministic stand-in for a slow incremental update or
    /// rebuild.
    struct Gate {
        state: Mutex<(bool, bool)>, // (entered, released)
        cond: Condvar,
    }

    impl Gate {
        fn new() -> Arc<Gate> {
            Arc::new(Gate {
                state: Mutex::new((false, false)),
                cond: Condvar::new(),
            })
        }

        fn enter_and_wait(&self) {
            let mut st = self.state.lock().unwrap();
            st.0 = true;
            self.cond.notify_all();
            while !st.1 {
                st = self.cond.wait(st).unwrap();
            }
        }

        fn wait_entered(&self) {
            let mut st = self.state.lock().unwrap();
            while !st.0 {
                st = self.cond.wait(st).unwrap();
            }
        }

        fn release(&self) {
            let mut st = self.state.lock().unwrap();
            st.1 = true;
            self.cond.notify_all();
        }
    }

    /// An [`ExactScan`]-backed engine whose `apply` blocks on a
    /// [`Gate`] — only the store's `advance` calls `apply`.
    #[derive(Clone)]
    struct SlowApplyEngine {
        inner: BoxedEngine,
        gate: Arc<Gate>,
    }

    impl QueryEngine for SlowApplyEngine {
        fn locate(&self, p: Point) -> Located {
            self.inner.locate(p)
        }

        fn sinr_batch(&self, i: StationId, points: &[Point], out: &mut [f64]) {
            self.inner.sinr_batch(i, points, out);
        }

        fn freshness(&self) -> Result<(), LocateError> {
            self.inner.freshness()
        }

        fn revision(&self) -> u64 {
            self.inner.revision()
        }

        fn is_stale(&self) -> bool {
            self.inner.is_stale()
        }

        fn apply(&mut self, delta: &NetworkDelta) -> Result<(), SyncError> {
            self.gate.enter_and_wait();
            self.inner.apply(delta)
        }

        fn sync(&mut self, net: &Network) -> Result<(), SyncError> {
            self.inner.sync(net)
        }

        fn freeze(&mut self) {
            self.inner.freeze();
        }
    }

    /// The locked-rebuild regression: a store whose advancement is slow
    /// must not stall a concurrent attach. Before the off-lock
    /// restructure, `mutate` held the network's inner lock across
    /// `SnapshotStore::advance`, so the attach below would block until
    /// the gate released — the assertion window catches that.
    #[test]
    fn slow_store_advancement_does_not_block_attach() {
        let registry = Arc::new(NetworkRegistry::new());
        registry.register("shared", &spec()).unwrap();
        let network = registry.get("shared").unwrap();

        // Plant a slow store under a key no attach below will use.
        let gate = Gate::new();
        {
            let mut inner = network.inner.lock().unwrap();
            let engine = BoxedEngine::new(
                "slow_apply",
                SlowApplyEngine {
                    inner: BoxedEngine::exact_scan(&inner.net),
                    gate: Arc::clone(&gate),
                },
            );
            let store = Arc::new(SnapshotStore::new(&inner.net, engine));
            inner
                .stores
                .insert(StoreKey::new(BackendId::SimdScan, 0.0), store);
        }

        let mutator = thread::spawn({
            let network = Arc::clone(&network);
            move || {
                network.mutate(
                    0,
                    &[SurgeryOp::Move {
                        id: StationId(0),
                        to: Point::new(-2.0, 1.0),
                    }],
                )
            }
        });
        // The mutator is now parked inside the slow store's advance.
        gate.wait_entered();

        // A concurrent attach (different backend → builds a new store
        // from the already-mutated network) must complete while the
        // slow store is still catching up.
        let attached = Arc::new(AtomicBool::new(false));
        let attacher = thread::spawn({
            let registry = Arc::clone(&registry);
            let attached = Arc::clone(&attached);
            move || {
                let handle = registry
                    .attach("shared", BackendId::ExactScan, 0.0)
                    .expect("attach during slow advancement");
                attached.store(true, Ordering::Release);
                handle.revision
            }
        });
        let mut waited = Duration::ZERO;
        while !attached.load(Ordering::Acquire) && waited < Duration::from_secs(10) {
            thread::sleep(Duration::from_millis(5));
            waited += Duration::from_millis(5);
        }
        assert!(
            attached.load(Ordering::Acquire),
            "attach blocked behind an in-flight store advancement"
        );
        // The new store is built from the live network, which already
        // carries the fenced timestep.
        assert_eq!(attacher.join().unwrap(), 1);

        // Unpark the slow store; the mutation completes and publishes.
        gate.release();
        let ok = mutator.join().unwrap().expect("mutation");
        assert_eq!(ok.revision, 1);
        assert_eq!(ok.applied, 1);
        assert_eq!(
            network
                .snapshot(BackendId::SimdScan, 0.0)
                .expect("slow store still published")
                .revision(),
            1
        );
    }

    /// Off-lock advancement still drops a store whose backend cannot
    /// represent the mutated network, exactly like the in-lock path
    /// did: the poisoned store vanishes from the map and later attaches
    /// with that flavour rebuild fresh.
    #[test]
    fn poisoned_store_is_dropped_after_offlock_advancement() {
        let registry = NetworkRegistry::new();
        registry.register("shared", &spec()).unwrap();
        // Theorem-3 locator: poisoned by a non-uniform SetPower.
        let handle = registry
            .attach("shared", BackendId::Qds, 0.25)
            .expect("attach qds");
        assert_eq!(handle.network.store_count(), 1);
        handle
            .network
            .mutate(
                0,
                &[SurgeryOp::SetPower {
                    id: StationId(0),
                    power: 7.0,
                }],
            )
            .expect("mutation itself succeeds");
        assert_eq!(
            handle.network.store_count(),
            0,
            "poisoned store must be unpublished"
        );
        assert!(handle.store.load().is_err(), "held Arc stays poisoned");
    }
}
