//! The wireless network `A = ⟨S, ψ, N, β⟩`, its builder, and the
//! epoch-versioned dynamic-surgery machinery.
//!
//! ## Epochs and deltas
//!
//! The paper notes that the SINR diagram "changes dynamically with time"
//! (Section 1.1) and leaves dynamic settings open (Section 1.4). This
//! module makes the model *mutable in place*: every [`Network`] carries a
//! monotonically increasing **revision** counter (its *epoch*), and the
//! in-place surgery operations — [`Network::add_station`],
//! [`Network::remove_station`], [`Network::move_station`],
//! [`Network::set_power`] — bump it and emit a [`NetworkDelta`]
//! describing exactly what changed. Query engines record the revision
//! they were built at and **refuse to answer for a stale network**
//! (checked at query time); a delta can be
//! [`apply`](crate::engine::QueryEngine::apply)-ed to bring an engine
//! back in sync incrementally instead of rebuilding it.
//!
//! Removal is by **swap-remove**: the last station moves into the freed
//! index, so only one index is disturbed per removal (and engines can
//! patch their structure-of-arrays columns in `O(1)`). Callers that need
//! to follow a station across removals use the stable
//! [`StationKey`] handles
//! ([`Network::station_key`] / [`Network::station_by_key`]).
//!
//! The classic immutable surgery ([`Network::with_station`],
//! [`Network::with_station_moved`], [`Network::without_station`]) remains
//! as the escape hatch for the paper's proof moves; the first two are now
//! thin wrappers over the delta machinery (clone + in-place op).

use crate::power::PowerAssignment;
use crate::sinr;
use crate::station::{Station, StationId, StationKey};
use crate::zone::ReceptionZone;
use sinr_geometry::{BBox, Point, Similarity};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Errors produced when building or transforming a [`Network`].
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// The paper's model assumes at least two stations (`n ≥ 2`).
    TooFewStations(usize),
    /// Background noise must be non-negative and finite.
    InvalidNoise(f64),
    /// The reception threshold must be strictly positive and finite.
    InvalidThreshold(f64),
    /// The path-loss exponent must be strictly positive and finite.
    InvalidPathLoss(f64),
    /// A transmit power was invalid (message carries details).
    InvalidPower(String),
    /// A station position was not finite.
    InvalidPosition(usize),
    /// A surgery operation named a station index the network does not
    /// have.
    StationOutOfRange(usize),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::TooFewStations(n) => {
                write!(f, "network needs at least 2 stations, got {n}")
            }
            NetworkError::InvalidNoise(v) => write!(f, "background noise must be ≥ 0, got {v}"),
            NetworkError::InvalidThreshold(v) => {
                write!(f, "reception threshold must be > 0, got {v}")
            }
            NetworkError::InvalidPathLoss(v) => {
                write!(f, "path-loss exponent must be > 0, got {v}")
            }
            NetworkError::InvalidPower(msg) => write!(f, "invalid power assignment: {msg}"),
            NetworkError::InvalidPosition(i) => {
                write!(f, "station {i} has a non-finite position")
            }
            NetworkError::StationOutOfRange(i) => {
                write!(f, "station index {i} is out of range")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// One in-place surgery step, described precisely enough for a query
/// engine to patch itself instead of rebuilding.
///
/// Produced by [`Network::add_station`], [`Network::remove_station`],
/// [`Network::move_station`] and [`Network::set_power`]; consumed by
/// [`QueryEngine::apply`](crate::engine::QueryEngine::apply). A delta is
/// bound to the network instance that emitted it (engines reject deltas
/// from any other network) and to one revision step
/// ([`NetworkDelta::from_revision`] → [`NetworkDelta::to_revision`]), so
/// deltas must be applied in emission order with none skipped.
#[derive(Debug, Clone)]
pub struct NetworkDelta {
    from_revision: u64,
    to_revision: u64,
    uniform_after: bool,
    op: DeltaOp,
    /// Identity of the emitting network (pointer-compared by engines so a
    /// delta can never be applied to an engine of a different network).
    source: Arc<AtomicU64>,
}

impl NetworkDelta {
    /// The network revision this delta applies on top of.
    pub fn from_revision(&self) -> u64 {
        self.from_revision
    }

    /// The network revision reached after this delta.
    pub fn to_revision(&self) -> u64 {
        self.to_revision
    }

    /// Whether the power assignment is uniform *after* this delta (the
    /// [`VoronoiAssisted`](crate::engine::VoronoiAssisted) dispatch
    /// contract is re-checked against this on every application).
    pub fn uniform_after(&self) -> bool {
        self.uniform_after
    }

    /// What changed.
    pub fn op(&self) -> &DeltaOp {
        &self.op
    }

    /// True when `cell` is the epoch cell of the emitting network.
    pub(crate) fn is_from(&self, cell: &Arc<AtomicU64>) -> bool {
        Arc::ptr_eq(&self.source, cell)
    }
}

/// The operation a [`NetworkDelta`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// A station was appended at index `id` (the previous station count).
    Add {
        /// Index of the new station.
        id: StationId,
        /// Its stable key.
        key: StationKey,
        /// Its position.
        position: Point,
        /// Its transmit power.
        power: f64,
    },
    /// Station `id` was removed by swap-remove: the station formerly at
    /// `last_index` (the old `n − 1`) now occupies index `id` (unless
    /// `id == last_index`, in which case nothing moved).
    Remove {
        /// Index the station was removed from.
        id: StationId,
        /// The old last index whose station swapped into `id`.
        last_index: usize,
        /// Position of the removed station.
        position: Point,
        /// Power of the removed station.
        power: f64,
    },
    /// Station `id` was relocated.
    Move {
        /// The station.
        id: StationId,
        /// Where it was.
        from: Point,
        /// Where it is now.
        to: Point,
    },
    /// Station `id` changed transmit power.
    SetPower {
        /// The station.
        id: StationId,
        /// The previous power.
        from: f64,
        /// The new power.
        to: f64,
    },
}

/// A requested in-place surgery step, in plain serializable form.
///
/// [`SurgeryOp`] is the *request* shape of the dynamic path, the way
/// [`DeltaOp`] is the *record* shape: a caller (a test harness, a replay
/// log, a network client of `sinr-server`) describes what it wants done,
/// [`Network::apply_op`] performs it, and the emitted [`NetworkDelta`]
/// records what actually happened (swap-remove index discipline,
/// uniformity after, revision fencing).
///
/// Ops carry no revision and no instance binding — validation happens at
/// application time against the network they are applied to. The binary
/// wire encoding ([`SurgeryOp::encode_into`] / [`SurgeryOp::decode`]) is
/// what `sinr-server`'s `Mutate` frames carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SurgeryOp {
    /// Append a station (mirrors [`Network::add_station`]).
    Add {
        /// Where the new station transmits from.
        position: Point,
        /// Its transmit power.
        power: f64,
    },
    /// Remove the station at `id` by swap-remove (mirrors
    /// [`Network::remove_station`]).
    Remove {
        /// The station to remove.
        id: StationId,
    },
    /// Relocate station `id` (mirrors [`Network::move_station`]).
    Move {
        /// The station to move.
        id: StationId,
        /// Its new position.
        to: Point,
    },
    /// Change station `id`'s transmit power (mirrors
    /// [`Network::set_power`]).
    SetPower {
        /// The station.
        id: StationId,
        /// Its new power.
        power: f64,
    },
}

/// Wire tags of the [`SurgeryOp`] variants (one byte each).
const OP_TAG_ADD: u8 = 0;
const OP_TAG_REMOVE: u8 = 1;
const OP_TAG_MOVE: u8 = 2;
const OP_TAG_SET_POWER: u8 = 3;

/// Why a [`SurgeryOp`] could not be decoded from bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the op did.
    Truncated {
        /// How many more bytes the op needed.
        missing: usize,
    },
    /// The leading tag byte does not name a [`SurgeryOp`] variant.
    UnknownOpTag(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { missing } => {
                write!(f, "surgery op truncated: {missing} more bytes needed")
            }
            WireError::UnknownOpTag(tag) => write!(f, "unknown surgery-op tag {tag:#04x}"),
        }
    }
}

impl std::error::Error for WireError {}

impl SurgeryOp {
    /// Appends the op's binary wire form (tag byte + little-endian
    /// fields) to `buf`. The inverse of [`SurgeryOp::decode`].
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            SurgeryOp::Add { position, power } => {
                buf.push(OP_TAG_ADD);
                buf.extend_from_slice(&position.x.to_le_bytes());
                buf.extend_from_slice(&position.y.to_le_bytes());
                buf.extend_from_slice(&power.to_le_bytes());
            }
            SurgeryOp::Remove { id } => {
                buf.push(OP_TAG_REMOVE);
                buf.extend_from_slice(&(id.0 as u32).to_le_bytes());
            }
            SurgeryOp::Move { id, to } => {
                buf.push(OP_TAG_MOVE);
                buf.extend_from_slice(&(id.0 as u32).to_le_bytes());
                buf.extend_from_slice(&to.x.to_le_bytes());
                buf.extend_from_slice(&to.y.to_le_bytes());
            }
            SurgeryOp::SetPower { id, power } => {
                buf.push(OP_TAG_SET_POWER);
                buf.extend_from_slice(&(id.0 as u32).to_le_bytes());
                buf.extend_from_slice(&power.to_le_bytes());
            }
        }
    }

    /// Decodes one op from the front of `bytes`, returning it together
    /// with the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when `bytes` ends mid-op;
    /// [`WireError::UnknownOpTag`] for an unrecognized tag byte. Decoding
    /// never panics on adversarial input (non-finite floats are *not*
    /// rejected here — they fail [`Network::apply_op`]'s validation, the
    /// single authority on model invariants).
    pub fn decode(bytes: &[u8]) -> Result<(SurgeryOp, usize), WireError> {
        fn f64_at(bytes: &[u8], at: usize) -> Result<f64, WireError> {
            let end = at + 8;
            if bytes.len() < end {
                return Err(WireError::Truncated {
                    missing: end - bytes.len(),
                });
            }
            Ok(f64::from_le_bytes(bytes[at..end].try_into().expect("8")))
        }
        fn u32_at(bytes: &[u8], at: usize) -> Result<u32, WireError> {
            let end = at + 4;
            if bytes.len() < end {
                return Err(WireError::Truncated {
                    missing: end - bytes.len(),
                });
            }
            Ok(u32::from_le_bytes(bytes[at..end].try_into().expect("4")))
        }
        let Some(&tag) = bytes.first() else {
            return Err(WireError::Truncated { missing: 1 });
        };
        match tag {
            OP_TAG_ADD => Ok((
                SurgeryOp::Add {
                    position: Point::new(f64_at(bytes, 1)?, f64_at(bytes, 9)?),
                    power: f64_at(bytes, 17)?,
                },
                25,
            )),
            OP_TAG_REMOVE => Ok((
                SurgeryOp::Remove {
                    id: StationId(u32_at(bytes, 1)? as usize),
                },
                5,
            )),
            OP_TAG_MOVE => Ok((
                SurgeryOp::Move {
                    id: StationId(u32_at(bytes, 1)? as usize),
                    to: Point::new(f64_at(bytes, 5)?, f64_at(bytes, 13)?),
                },
                21,
            )),
            OP_TAG_SET_POWER => Ok((
                SurgeryOp::SetPower {
                    id: StationId(u32_at(bytes, 1)? as usize),
                    power: f64_at(bytes, 5)?,
                },
                13,
            )),
            other => Err(WireError::UnknownOpTag(other)),
        }
    }
}

/// A batched surgery application that failed partway (see
/// [`Network::apply_ops`]): the ops before `index` were applied and
/// their deltas are returned so engines can still be brought in sync
/// with the partially mutated network.
#[derive(Debug, Clone)]
pub struct BatchSurgeryError {
    /// Deltas of the successfully applied prefix (in emission order).
    pub applied: Vec<NetworkDelta>,
    /// Index of the op that failed.
    pub index: usize,
    /// Why it failed.
    pub error: NetworkError,
}

impl fmt::Display for BatchSurgeryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "surgery op #{} failed after {} applied: {}",
            self.index,
            self.applied.len(),
            self.error
        )
    }
}

impl std::error::Error for BatchSurgeryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A wireless network `A = ⟨S, ψ, N, β⟩` with path-loss exponent `α`.
///
/// The *physics* fields are immutable after [`NetworkBuilder::build`];
/// the station set is mutable through the epoch-versioned in-place
/// surgery ops ([`Network::add_station`], [`Network::remove_station`],
/// [`Network::move_station`], [`Network::set_power`] — see the [module
/// docs](self)), while the classic copying surgery (silencing, adding or
/// relocating stations — the moves used throughout the paper's proofs
/// and figures) returns new networks.
///
/// # Examples
///
/// ```
/// use sinr_core::Network;
/// use sinr_geometry::Point;
///
/// // Figure 1-style network: three uniform stations.
/// let net = Network::builder()
///     .station(Point::new(-2.0, 0.0))
///     .station(Point::new(2.0, 0.0))
///     .station(Point::new(0.0, 3.0))
///     .background_noise(0.01)
///     .threshold(1.5)
///     .build()?;
/// assert_eq!(net.len(), 3);
/// assert!(net.is_uniform_power());
/// # Ok::<(), sinr_core::NetworkError>(())
/// ```
#[derive(Debug)]
pub struct Network {
    positions: Vec<Point>,
    power: PowerAssignment,
    noise: f64,
    beta: f64,
    alpha: f64,
    /// Stable per-station keys, index-aligned with `positions`.
    keys: Vec<StationKey>,
    /// The next key [`Network::add_station`] hands out (never reused).
    next_key: u64,
    /// The shared epoch cell: bumped by every in-place mutation and
    /// observed by the engines built from this network, which is how a
    /// stale engine detects it must not answer.
    epoch: Arc<AtomicU64>,
}

impl Clone for Network {
    /// Clones the network **data** with a fresh, independent epoch cell:
    /// mutating a clone never invalidates engines built from the
    /// original (and vice versa).
    fn clone(&self) -> Self {
        Network {
            positions: self.positions.clone(),
            power: self.power.clone(),
            noise: self.noise,
            beta: self.beta,
            alpha: self.alpha,
            keys: self.keys.clone(),
            next_key: self.next_key,
            epoch: Arc::new(AtomicU64::new(self.epoch.load(Ordering::Relaxed))),
        }
    }
}

impl PartialEq for Network {
    /// Physics equality: `⟨S, ψ, N, β⟩` and `α`. The epoch counter and
    /// the stable keys (which record churn *history*, not current
    /// physics) do not participate.
    fn eq(&self, other: &Self) -> bool {
        self.positions == other.positions
            && self.power == other.power
            && self.noise == other.noise
            && self.beta == other.beta
            && self.alpha == other.alpha
    }
}

impl Network {
    /// Starts building a network.
    pub fn builder() -> NetworkBuilder {
        NetworkBuilder::new()
    }

    /// Convenience constructor for a *uniform power* network with the
    /// paper's default path loss `α = 2`.
    ///
    /// # Errors
    ///
    /// Returns a [`NetworkError`] if validation fails (see
    /// [`NetworkBuilder::build`]).
    pub fn uniform(positions: Vec<Point>, noise: f64, beta: f64) -> Result<Network, NetworkError> {
        let mut b = Network::builder().background_noise(noise).threshold(beta);
        for p in positions {
            b = b.station(p);
        }
        b.build()
    }

    /// Number of stations `n`.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the network has no stations (never true for a built
    /// network, which has `n ≥ 2`).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The position of station `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn position(&self, i: StationId) -> Point {
        self.positions[i.0]
    }

    /// All station positions in index order.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The station record for index `i`.
    pub fn station(&self, i: StationId) -> Station {
        Station::new(i, self.positions[i.0], self.power.power(i.0))
    }

    /// Iterates over all stations.
    pub fn stations(&self) -> impl Iterator<Item = Station> + '_ {
        (0..self.len()).map(|i| self.station(StationId(i)))
    }

    /// All station ids `s₀ … s_{n−1}`.
    pub fn ids(&self) -> impl Iterator<Item = StationId> {
        (0..self.len()).map(StationId)
    }

    /// The transmit power `ψᵢ` of station `i`.
    pub fn power(&self, i: StationId) -> f64 {
        self.power.power(i.0)
    }

    /// The power assignment.
    pub fn power_assignment(&self) -> &PowerAssignment {
        &self.power
    }

    /// Background noise `N ≥ 0`.
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Reception threshold `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Path-loss exponent `α` (2 unless overridden).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// True when every station transmits with power 1 (`ψ = 1̄`).
    pub fn is_uniform_power(&self) -> bool {
        self.power.is_uniform()
    }

    /// True for the paper's *trivial* network: `|S| = 2`, `N = 0`, `β = 1`
    /// (and uniform power). Trivial networks are the single case with
    /// unbounded reception zones (each `Hᵢ` is a half-plane).
    pub fn is_trivial(&self) -> bool {
        self.len() == 2 && self.noise == 0.0 && self.beta == 1.0 && self.is_uniform_power()
    }

    /// True when the theorem preconditions of the paper hold: uniform
    /// power, `α = 2`, `β ≥ 1`. Under these, Theorem 1 guarantees convex
    /// reception zones (and for `β > 1`, Theorem 2 guarantees fatness).
    pub fn satisfies_convexity_preconditions(&self) -> bool {
        self.is_uniform_power() && self.alpha == 2.0 && self.beta >= 1.0
    }

    /// The minimum distance from station `i` to any other station — the
    /// `κ` of Theorem 4.1.
    ///
    /// Returns 0 when another station shares the location.
    pub fn kappa(&self, i: StationId) -> f64 {
        let p = self.position(i);
        self.positions
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i.0)
            .map(|(_, q)| p.dist(*q))
            .fold(f64::INFINITY, f64::min)
    }

    /// True if some other station shares the location of `i` (then
    /// `Hᵢ = {sᵢ}` degenerates to a point).
    pub fn is_colocated(&self, i: StationId) -> bool {
        self.kappa(i) == 0.0
    }

    /// The bounding box of the station positions.
    pub fn bbox(&self) -> BBox {
        BBox::from_points(self.positions.iter().copied()).expect("n ≥ 2")
    }

    // --- Reception API (delegates to the sinr module) -------------------

    /// Energy `E(sᵢ, p) = ψᵢ·dist(sᵢ, p)^{−α}` (infinite at `p = sᵢ`).
    pub fn energy(&self, i: StationId, p: Point) -> f64 {
        sinr::energy(self, i, p)
    }

    /// Interference to `sᵢ` at `p`: `I(sᵢ, p) = Σ_{j≠i} E(sⱼ, p)`.
    pub fn interference(&self, i: StationId, p: Point) -> f64 {
        sinr::interference(self, i, p)
    }

    /// The SINR of station `i` at `p` (Eq. (1) of the paper).
    pub fn sinr(&self, i: StationId, p: Point) -> f64 {
        sinr::sinr(self, i, p)
    }

    /// The fundamental reception rule: is `sᵢ` heard at `p`?
    /// (`SINR(sᵢ, p) ≥ β`, with `sᵢ ∈ Hᵢ` by definition.)
    pub fn is_heard(&self, i: StationId, p: Point) -> bool {
        sinr::is_heard(self, i, p)
    }

    /// Which station (if any) is heard at `p`?
    ///
    /// For `β > 1` at most one station can be heard anywhere, so the
    /// answer is unique; for `β ≤ 1` the strongest heard station is
    /// returned.
    pub fn heard_at(&self, p: Point) -> Option<StationId> {
        sinr::heard_at(self, p)
    }

    /// A handle onto the reception zone `Hᵢ`.
    pub fn reception_zone(&self, i: StationId) -> ReceptionZone<'_> {
        ReceptionZone::new(self, i)
    }

    /// The recommended batched query backend for this network: a
    /// [`VoronoiAssisted`](crate::engine::VoronoiAssisted) engine
    /// (weighted kd-tree dispatch, exact for every power assignment).
    /// Build it once, then use
    /// [`QueryEngine::locate_batch`](crate::engine::QueryEngine::locate_batch)
    /// for many points — `O(n)` per point instead of the scalar `O(n²)`.
    pub fn query_engine(&self) -> crate::engine::VoronoiAssisted {
        crate::engine::VoronoiAssisted::new(self)
    }

    // --- Epochs and in-place surgery (the dynamic path) ------------------

    /// The network's current revision (its *epoch*). Starts at 0 for a
    /// freshly built network and increases by one per in-place surgery
    /// op. Engines record this at build/sync time and refuse to answer
    /// once it has moved on.
    pub fn revision(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The shared epoch cell engines subscribe to (see
    /// [`crate::engine`]).
    pub(crate) fn epoch_cell(&self) -> &Arc<AtomicU64> {
        &self.epoch
    }

    /// The stable key of the station currently at index `i` (see
    /// [`StationKey`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn station_key(&self, i: StationId) -> StationKey {
        self.keys[i.0]
    }

    /// Resolves a stable key to the station's *current* index, or `None`
    /// if the station has been removed.
    pub fn station_by_key(&self, key: StationKey) -> Option<StationId> {
        self.keys.iter().position(|k| *k == key).map(StationId)
    }

    /// Bumps the epoch and returns `(from, to)` for the delta.
    fn bump_epoch(&mut self) -> (u64, u64) {
        let from = self.epoch.load(Ordering::Relaxed);
        self.epoch.store(from + 1, Ordering::Relaxed);
        (from, from + 1)
    }

    fn delta(&self, (from, to): (u64, u64), op: DeltaOp) -> NetworkDelta {
        NetworkDelta {
            from_revision: from,
            to_revision: to,
            uniform_after: self.power.is_uniform(),
            op,
            source: Arc::clone(&self.epoch),
        }
    }

    /// Appends a station **in place** at `position` with transmit power
    /// `power`, bumping the epoch. The new station's index is the old
    /// station count.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] on an invalid power or position (the
    /// network is left untouched and the epoch does not move).
    pub fn add_station(
        &mut self,
        position: Point,
        power: f64,
    ) -> Result<NetworkDelta, NetworkError> {
        if !(power > 0.0 && power.is_finite()) {
            return Err(NetworkError::InvalidPower(format!("power {power}")));
        }
        if !position.is_finite() {
            return Err(NetworkError::InvalidPosition(self.len()));
        }
        let id = StationId(self.len());
        let key = StationKey(self.next_key);
        self.next_key += 1;
        self.power = self.power.extended(self.positions.len(), power);
        self.positions.push(position);
        self.keys.push(key);
        let rev = self.bump_epoch();
        Ok(self.delta(
            rev,
            DeltaOp::Add {
                id,
                key,
                position,
                power,
            },
        ))
    }

    /// Removes station `i` **in place** by swap-remove (the last station
    /// moves into index `i`; see [`DeltaOp::Remove`]), bumping the epoch.
    ///
    /// Contrast with [`Network::without_station`], which preserves the
    /// relative order of the survivors by shifting every index above `i`
    /// down — the right semantics for the paper's proof narrations, but
    /// `O(n)` index churn that no engine can patch incrementally.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::TooFewStations`] — fewer than two stations would
    ///   remain;
    /// * [`NetworkError::StationOutOfRange`] — no station at `i`.
    pub fn remove_station(&mut self, i: StationId) -> Result<NetworkDelta, NetworkError> {
        if self.len() <= 2 {
            return Err(NetworkError::TooFewStations(self.len().saturating_sub(1)));
        }
        if i.0 >= self.len() {
            return Err(NetworkError::StationOutOfRange(i.0));
        }
        let last_index = self.len() - 1;
        let power = self.power.power(i.0);
        let position = self.positions.swap_remove(i.0);
        self.power.swap_remove(i.0);
        self.keys.swap_remove(i.0);
        let rev = self.bump_epoch();
        Ok(self.delta(
            rev,
            DeltaOp::Remove {
                id: i,
                last_index,
                position,
                power,
            },
        ))
    }

    /// Moves station `i` **in place** to `position`, bumping the epoch.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::InvalidPosition`] — non-finite target;
    /// * [`NetworkError::StationOutOfRange`] — no station at `i`.
    pub fn move_station(
        &mut self,
        i: StationId,
        position: Point,
    ) -> Result<NetworkDelta, NetworkError> {
        if !position.is_finite() {
            return Err(NetworkError::InvalidPosition(i.0));
        }
        if i.0 >= self.len() {
            return Err(NetworkError::StationOutOfRange(i.0));
        }
        let from = self.positions[i.0];
        self.positions[i.0] = position;
        let rev = self.bump_epoch();
        Ok(self.delta(
            rev,
            DeltaOp::Move {
                id: i,
                from,
                to: position,
            },
        ))
    }

    /// Changes the transmit power of station `i` **in place**, bumping
    /// the epoch. Power changes can flip the network between uniform and
    /// non-uniform — engines re-check their dispatch contracts on every
    /// applied power delta.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::InvalidPower`] — non-positive or non-finite;
    /// * [`NetworkError::StationOutOfRange`] — no station at `i`.
    pub fn set_power(&mut self, i: StationId, power: f64) -> Result<NetworkDelta, NetworkError> {
        if !(power > 0.0 && power.is_finite()) {
            return Err(NetworkError::InvalidPower(format!("power {power}")));
        }
        if i.0 >= self.len() {
            return Err(NetworkError::StationOutOfRange(i.0));
        }
        let from = self.power.power(i.0);
        self.power.set(i.0, power, self.len());
        let rev = self.bump_epoch();
        Ok(self.delta(
            rev,
            DeltaOp::SetPower {
                id: i,
                from,
                to: power,
            },
        ))
    }

    /// Performs one requested [`SurgeryOp`] — the dynamic dispatch
    /// counterpart of calling [`Network::add_station`] /
    /// [`Network::remove_station`] / [`Network::move_station`] /
    /// [`Network::set_power`] directly.
    ///
    /// # Errors
    ///
    /// The respective op's [`NetworkError`]; the network is untouched and
    /// the epoch does not move on error.
    pub fn apply_op(&mut self, op: &SurgeryOp) -> Result<NetworkDelta, NetworkError> {
        match op {
            SurgeryOp::Add { position, power } => self.add_station(*position, *power),
            SurgeryOp::Remove { id } => self.remove_station(*id),
            SurgeryOp::Move { id, to } => self.move_station(*id, *to),
            SurgeryOp::SetPower { id, power } => self.set_power(*id, *power),
        }
    }

    /// Applies a whole timestep of surgery ops in one pass, returning
    /// every emitted delta in order — the batched/coalesced counterpart
    /// of calling [`Network::apply_op`] in a loop, and the application
    /// path of `sinr-server`'s `Mutate` frames.
    ///
    /// Ops are applied strictly in sequence (later ops see the index
    /// shifts of earlier ones, exactly as the one-at-a-time path would),
    /// and each op bumps the epoch by one, so the returned deltas chain
    /// `from_revision → to_revision` gaplessly and feed
    /// [`QueryEngine::apply`](crate::engine::QueryEngine::apply)
    /// unchanged. Equivalence with the one-at-a-time path is pinned
    /// bit-for-bit (per backend) by `tests/dynamic_apply.rs`.
    ///
    /// # Errors
    ///
    /// On the first failing op the batch stops: the *prefix stays
    /// applied* (this is in-place surgery, not a transaction) and the
    /// returned [`BatchSurgeryError`] carries the prefix's deltas, the
    /// failing index and the underlying [`NetworkError`], so callers can
    /// still bring their engines in sync with the partially mutated
    /// network.
    pub fn apply_ops(&mut self, ops: &[SurgeryOp]) -> Result<Vec<NetworkDelta>, BatchSurgeryError> {
        let mut applied = Vec::with_capacity(ops.len());
        for (index, op) in ops.iter().enumerate() {
            match self.apply_op(op) {
                Ok(delta) => applied.push(delta),
                Err(error) => {
                    return Err(BatchSurgeryError {
                        applied,
                        index,
                        error,
                    })
                }
            }
        }
        Ok(applied)
    }

    // --- Surgery (the paper's proof moves) -------------------------------

    /// The network with station `i` removed ("silenced", as in
    /// Figure 1(C)). Station indices above `i` shift down by one.
    ///
    /// This is the *immutable, order-preserving* removal used by the
    /// paper's reductions; the dynamic path is
    /// [`Network::remove_station`] (in place, swap-remove, emits a
    /// [`NetworkDelta`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::TooFewStations`] if fewer than two stations
    /// would remain.
    pub fn without_station(&self, i: StationId) -> Result<Network, NetworkError> {
        if self.len() <= 2 {
            return Err(NetworkError::TooFewStations(self.len().saturating_sub(1)));
        }
        let keep: Vec<bool> = (0..self.len()).map(|j| j != i.0).collect();
        let positions = self
            .positions
            .iter()
            .zip(keep.iter())
            .filter_map(|(p, k)| k.then_some(*p))
            .collect();
        let keys = self
            .keys
            .iter()
            .zip(keep.iter())
            .filter_map(|(key, k)| k.then_some(*key))
            .collect();
        Ok(Network {
            positions,
            power: self.power.filtered(&keep),
            keys,
            ..self.clone()
        })
    }

    /// The network with an extra station at `position` with power `power`
    /// (used by the noise-elimination reduction of Section 3.4 and by
    /// Lemma 3.10's replacement construction).
    ///
    /// The immutable counterpart of [`Network::add_station`] — and since
    /// this PR a thin wrapper over it (clone + in-place op), so the two
    /// paths cannot drift.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] on an invalid power or position.
    pub fn with_station(&self, position: Point, power: f64) -> Result<Network, NetworkError> {
        let mut next = self.clone();
        next.add_station(position, power)?;
        Ok(next)
    }

    /// The network with station `i` moved to `position` (Figure 1(B)) —
    /// the immutable counterpart of (and a thin wrapper over)
    /// [`Network::move_station`].
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::InvalidPosition`] for a non-finite target
    /// and [`NetworkError::StationOutOfRange`] for a missing station.
    pub fn with_station_moved(
        &self,
        i: StationId,
        position: Point,
    ) -> Result<Network, NetworkError> {
        let mut next = self.clone();
        next.move_station(i, position)?;
        Ok(next)
    }

    /// The network with the background noise replaced.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::InvalidNoise`] for negative or non-finite
    /// noise.
    pub fn with_noise(&self, noise: f64) -> Result<Network, NetworkError> {
        if !(noise >= 0.0 && noise.is_finite()) {
            return Err(NetworkError::InvalidNoise(noise));
        }
        Ok(Network {
            noise,
            ..self.clone()
        })
    }

    /// Applies a similarity map `f` to the network per **Lemma 2.3**: all
    /// stations are mapped through `f` and the noise is divided by `σ²`
    /// (where `σ` is the scale of `f`), so that
    /// `SINR_A(sᵢ, p) = SINR_{f(A)}(f(sᵢ), f(p))` for all `i, p`.
    pub fn transformed(&self, f: &Similarity) -> Network {
        let sigma = f.scale();
        Network {
            positions: self.positions.iter().map(|p| f.apply(*p)).collect(),
            noise: self.noise / (sigma * sigma),
            ..self.clone()
        }
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Network(n={}, N={}, β={}, α={}, {})",
            self.len(),
            self.noise,
            self.beta,
            self.alpha,
            if self.is_uniform_power() {
                "uniform"
            } else {
                "per-station power"
            }
        )
    }
}

/// Builder for [`Network`] (non-consuming, per C-BUILDER).
///
/// # Examples
///
/// ```
/// use sinr_core::Network;
/// use sinr_geometry::Point;
///
/// let mut b = Network::builder().threshold(6.0); // β ≈ 6, the textbook value
/// for k in 0..4 {
///     b = b.station(Point::new(k as f64, 0.0));
/// }
/// let net = b.build()?;
/// assert_eq!(net.len(), 4);
/// assert_eq!(net.beta(), 6.0);
/// assert_eq!(net.alpha(), 2.0);
/// # Ok::<(), sinr_core::NetworkError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    positions: Vec<Point>,
    powers: Option<Vec<f64>>,
    noise: f64,
    beta: f64,
    alpha: f64,
}

impl Default for NetworkBuilder {
    fn default() -> Self {
        NetworkBuilder::new()
    }
}

impl NetworkBuilder {
    /// Creates a builder with the paper's defaults: no noise, `β = 1`,
    /// `α = 2`, uniform power.
    pub fn new() -> Self {
        NetworkBuilder {
            positions: Vec::new(),
            powers: None,
            noise: 0.0,
            beta: 1.0,
            alpha: 2.0,
        }
    }

    /// Adds a station with power 1 at `position`.
    pub fn station(mut self, position: Point) -> Self {
        self.positions.push(position);
        if let Some(ps) = &mut self.powers {
            ps.push(1.0);
        }
        self
    }

    /// Adds a station with the given transmit power at `position`.
    pub fn station_with_power(mut self, position: Point, power: f64) -> Self {
        if self.powers.is_none() {
            self.powers = Some(vec![1.0; self.positions.len()]);
        }
        self.positions.push(position);
        self.powers.as_mut().expect("just initialised").push(power);
        self
    }

    /// Adds many uniform-power stations.
    pub fn stations<I: IntoIterator<Item = Point>>(mut self, positions: I) -> Self {
        for p in positions {
            self = self.station(p);
        }
        self
    }

    /// Sets the background noise `N ≥ 0` (default 0).
    pub fn background_noise(mut self, noise: f64) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the reception threshold `β` (default 1). The paper's theorems
    /// need `β ≥ 1`; smaller values are allowed for experiments such as
    /// the non-convex diagram of Figure 5.
    pub fn threshold(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the path-loss exponent `α` (default 2 — the paper's setting;
    /// `2 ≤ α ≤ 4` is the physically plausible range).
    pub fn path_loss(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Validates and builds the network.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::TooFewStations`] — fewer than 2 stations;
    /// * [`NetworkError::InvalidNoise`] — negative or non-finite noise;
    /// * [`NetworkError::InvalidThreshold`] — non-positive threshold;
    /// * [`NetworkError::InvalidPathLoss`] — non-positive exponent;
    /// * [`NetworkError::InvalidPower`] — a non-positive station power;
    /// * [`NetworkError::InvalidPosition`] — a non-finite coordinate.
    pub fn build(&self) -> Result<Network, NetworkError> {
        if self.positions.len() < 2 {
            return Err(NetworkError::TooFewStations(self.positions.len()));
        }
        if !(self.noise >= 0.0 && self.noise.is_finite()) {
            return Err(NetworkError::InvalidNoise(self.noise));
        }
        if !(self.beta > 0.0 && self.beta.is_finite()) {
            return Err(NetworkError::InvalidThreshold(self.beta));
        }
        if !(self.alpha > 0.0 && self.alpha.is_finite()) {
            return Err(NetworkError::InvalidPathLoss(self.alpha));
        }
        for (i, p) in self.positions.iter().enumerate() {
            if !p.is_finite() {
                return Err(NetworkError::InvalidPosition(i));
            }
        }
        let power = match &self.powers {
            None => PowerAssignment::Uniform,
            Some(v) => {
                let pa = PowerAssignment::PerStation(v.clone());
                pa.validate(self.positions.len())
                    .map_err(NetworkError::InvalidPower)?;
                if pa.is_uniform() {
                    PowerAssignment::Uniform
                } else {
                    pa
                }
            }
        };
        Ok(Network {
            keys: (0..self.positions.len() as u64).map(StationKey).collect(),
            next_key: self.positions.len() as u64,
            positions: self.positions.clone(),
            power,
            noise: self.noise,
            beta: self.beta,
            alpha: self.alpha,
            epoch: Arc::new(AtomicU64::new(0)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_station_net(beta: f64) -> Network {
        Network::uniform(vec![Point::new(0.0, 0.0), Point::new(4.0, 0.0)], 0.0, beta).unwrap()
    }

    #[test]
    fn builder_validation() {
        assert!(matches!(
            Network::builder().station(Point::ORIGIN).build(),
            Err(NetworkError::TooFewStations(1))
        ));
        assert!(matches!(
            Network::builder()
                .station(Point::ORIGIN)
                .station(Point::new(1.0, 0.0))
                .background_noise(-1.0)
                .build(),
            Err(NetworkError::InvalidNoise(_))
        ));
        assert!(matches!(
            Network::builder()
                .station(Point::ORIGIN)
                .station(Point::new(1.0, 0.0))
                .threshold(0.0)
                .build(),
            Err(NetworkError::InvalidThreshold(_))
        ));
        assert!(matches!(
            Network::builder()
                .station(Point::ORIGIN)
                .station(Point::new(1.0, 0.0))
                .path_loss(-2.0)
                .build(),
            Err(NetworkError::InvalidPathLoss(_))
        ));
        assert!(matches!(
            Network::builder()
                .station(Point::ORIGIN)
                .station_with_power(Point::new(1.0, 0.0), -5.0)
                .build(),
            Err(NetworkError::InvalidPower(_))
        ));
        assert!(matches!(
            Network::builder()
                .station(Point::ORIGIN)
                .station(Point::new(f64::NAN, 0.0))
                .build(),
            Err(NetworkError::InvalidPosition(1))
        ));
    }

    #[test]
    fn accessors() {
        let net = two_station_net(2.0);
        assert_eq!(net.len(), 2);
        assert!(!net.is_empty());
        assert_eq!(net.position(StationId(1)), Point::new(4.0, 0.0));
        assert_eq!(net.power(StationId(0)), 1.0);
        assert_eq!(net.beta(), 2.0);
        assert_eq!(net.alpha(), 2.0);
        assert_eq!(net.noise(), 0.0);
        assert!(net.is_uniform_power());
        assert_eq!(net.stations().count(), 2);
        assert_eq!(net.ids().count(), 2);
        assert_eq!(net.kappa(StationId(0)), 4.0);
        assert!(!net.is_colocated(StationId(0)));
    }

    #[test]
    fn triviality() {
        assert!(two_station_net(1.0).is_trivial());
        assert!(!two_station_net(2.0).is_trivial());
        let noisy = Network::uniform(vec![Point::ORIGIN, Point::new(1.0, 0.0)], 0.5, 1.0).unwrap();
        assert!(!noisy.is_trivial());
    }

    #[test]
    fn preconditions() {
        assert!(two_station_net(1.0).satisfies_convexity_preconditions());
        assert!(two_station_net(6.0).satisfies_convexity_preconditions());
        assert!(!two_station_net(0.3).satisfies_convexity_preconditions());
        let nonuniform = Network::builder()
            .station(Point::ORIGIN)
            .station_with_power(Point::new(1.0, 0.0), 2.0)
            .threshold(2.0)
            .build()
            .unwrap();
        assert!(!nonuniform.satisfies_convexity_preconditions());
        let alpha4 = Network::builder()
            .station(Point::ORIGIN)
            .station(Point::new(1.0, 0.0))
            .path_loss(4.0)
            .threshold(2.0)
            .build()
            .unwrap();
        assert!(!alpha4.satisfies_convexity_preconditions());
    }

    #[test]
    fn surgery_remove_add_move() {
        let net = Network::uniform(
            vec![Point::ORIGIN, Point::new(4.0, 0.0), Point::new(0.0, 4.0)],
            0.0,
            2.0,
        )
        .unwrap();
        let smaller = net.without_station(StationId(2)).unwrap();
        assert_eq!(smaller.len(), 2);
        assert_eq!(smaller.position(StationId(1)), Point::new(4.0, 0.0));
        // removing from a 2-station network fails
        assert!(smaller.without_station(StationId(0)).is_err());
        // adding
        let bigger = net.with_station(Point::new(2.0, 2.0), 1.0).unwrap();
        assert_eq!(bigger.len(), 4);
        assert!(bigger.is_uniform_power());
        let weighted = net.with_station(Point::new(2.0, 2.0), 3.0).unwrap();
        assert!(!weighted.is_uniform_power());
        assert_eq!(weighted.power(StationId(3)), 3.0);
        assert!(net.with_station(Point::new(1.0, 1.0), 0.0).is_err());
        // moving
        let moved = net
            .with_station_moved(StationId(0), Point::new(-1.0, -1.0))
            .unwrap();
        assert_eq!(moved.position(StationId(0)), Point::new(-1.0, -1.0));
        assert_eq!(moved.len(), 3);
    }

    #[test]
    fn in_place_surgery_emits_sequential_deltas() {
        let mut net = Network::uniform(
            vec![Point::ORIGIN, Point::new(4.0, 0.0), Point::new(0.0, 4.0)],
            0.01,
            2.0,
        )
        .unwrap();
        assert_eq!(net.revision(), 0);

        let d1 = net.add_station(Point::new(2.0, 2.0), 1.0).unwrap();
        assert_eq!((d1.from_revision(), d1.to_revision()), (0, 1));
        assert!(d1.uniform_after());
        assert!(matches!(
            d1.op(),
            DeltaOp::Add { id: StationId(3), power, .. } if *power == 1.0
        ));
        assert_eq!(net.len(), 4);
        assert_eq!(net.revision(), 1);

        let d2 = net
            .move_station(StationId(0), Point::new(-1.0, 0.0))
            .unwrap();
        assert_eq!((d2.from_revision(), d2.to_revision()), (1, 2));
        assert_eq!(net.position(StationId(0)), Point::new(-1.0, 0.0));

        let d3 = net.set_power(StationId(1), 3.0).unwrap();
        assert!(!d3.uniform_after());
        assert!(!net.is_uniform_power());
        assert_eq!(net.power(StationId(1)), 3.0);

        // Swap-remove: the last station (index 3) moves into slot 1.
        let before_last = net.position(StationId(3));
        let d4 = net.remove_station(StationId(1)).unwrap();
        assert!(matches!(
            d4.op(),
            DeltaOp::Remove {
                id: StationId(1),
                last_index: 3,
                ..
            }
        ));
        assert_eq!(net.len(), 3);
        assert_eq!(net.position(StationId(1)), before_last);
        // The non-uniform power left with the removed station.
        assert!(d4.uniform_after());
        assert_eq!(net.revision(), 4);
    }

    #[test]
    fn in_place_surgery_validation_leaves_epoch_alone() {
        let mut net = two_station_net(2.0);
        assert!(net.add_station(Point::new(1.0, 1.0), 0.0).is_err());
        assert!(net.add_station(Point::new(f64::NAN, 0.0), 1.0).is_err());
        assert!(net.move_station(StationId(7), Point::ORIGIN).is_err());
        assert!(net.set_power(StationId(0), f64::INFINITY).is_err());
        assert!(matches!(
            net.remove_station(StationId(0)),
            Err(NetworkError::TooFewStations(1))
        ));
        assert_eq!(net.revision(), 0);
        let mut net3 = net.with_station(Point::new(0.0, 3.0), 1.0).unwrap();
        assert!(matches!(
            net3.remove_station(StationId(9)),
            Err(NetworkError::StationOutOfRange(9))
        ));
    }

    #[test]
    fn stable_keys_survive_swap_remove() {
        let mut net = Network::uniform(
            vec![Point::ORIGIN, Point::new(4.0, 0.0), Point::new(0.0, 4.0)],
            0.0,
            2.0,
        )
        .unwrap();
        let k2 = net.station_key(StationId(2));
        net.remove_station(StationId(0)).unwrap();
        assert_eq!(net.station_by_key(k2), Some(StationId(0)));
        // Fresh keys are never reused.
        let d = net.add_station(Point::new(1.0, 1.0), 1.0).unwrap();
        let DeltaOp::Add { key, .. } = d.op() else {
            panic!("expected Add");
        };
        assert_ne!(*key, k2);
        assert_eq!(net.station_by_key(*key), Some(StationId(2)));
    }

    #[test]
    fn clone_isolates_the_epoch() {
        let mut net = Network::uniform(
            vec![Point::ORIGIN, Point::new(4.0, 0.0), Point::new(0.0, 4.0)],
            0.0,
            2.0,
        )
        .unwrap();
        let clone = net.clone();
        net.move_station(StationId(0), Point::new(1.0, 1.0))
            .unwrap();
        assert_eq!(net.revision(), 1);
        assert_eq!(clone.revision(), 0);
        // Immutable surgery (clone + op) never disturbs the original.
        let bigger = clone.with_station(Point::new(2.0, 2.0), 1.0).unwrap();
        assert_eq!(clone.revision(), 0);
        assert_eq!(bigger.len(), 4);
        assert_eq!(bigger.revision(), 1);
    }

    #[test]
    fn lemma_2_3_invariance() {
        // SINR is invariant under rotation+translation+scaling with noise
        // divided by σ².
        let net = Network::uniform(
            vec![
                Point::new(1.0, 2.0),
                Point::new(-2.0, 0.5),
                Point::new(3.0, -1.0),
            ],
            0.07,
            1.8,
        )
        .unwrap();
        let f = Similarity::new(0.9, 2.5, sinr_geometry::Vector::new(3.0, -4.0));
        let mapped = net.transformed(&f);
        assert!((mapped.noise() - 0.07 / 6.25).abs() < 1e-12);
        for &(x, y) in &[(0.3, 0.4), (-1.0, 2.0), (2.0, 2.0)] {
            let p = Point::new(x, y);
            for i in net.ids() {
                let lhs = net.sinr(i, p);
                let rhs = mapped.sinr(i, f.apply(p));
                assert!(
                    (lhs - rhs).abs() <= 1e-9 * (1.0 + lhs.abs()),
                    "Lemma 2.3 violated at {p} for {i}: {lhs} vs {rhs}"
                );
            }
        }
    }

    #[test]
    fn bbox_and_display() {
        let net = two_station_net(2.0);
        let bb = net.bbox();
        assert_eq!(bb.min, Point::new(0.0, 0.0));
        assert_eq!(bb.max, Point::new(4.0, 0.0));
        assert!(format!("{net}").contains("n=2"));
    }

    #[test]
    fn colocated_stations_detected() {
        let net = Network::uniform(
            vec![Point::ORIGIN, Point::ORIGIN, Point::new(1.0, 0.0)],
            0.0,
            2.0,
        )
        .unwrap();
        assert!(net.is_colocated(StationId(0)));
        assert!(net.is_colocated(StationId(1)));
        assert!(!net.is_colocated(StationId(2)));
    }
}
