//! The batched, SoA-backed SINR query engine.
//!
//! The scalar functions of [`crate::sinr`] are the numeric ground truth,
//! but they answer one `(station, point)` question at a time and re-derive
//! everything per call — `heard_at` is `O(n²)` per point. The
//! production-shaped query is *many points against one network*, and this
//! module is that API:
//!
//! * [`SinrEvaluator`] — a per-network precomputation: stations in
//!   structure-of-arrays layout (split `xs` / `ys` / `powers` vectors for
//!   cache-friendly scans), the reception test rewritten division-free
//!   (`E ≥ β·(I + N)` instead of `E/(I+N) ≥ β`), and the path-loss
//!   attenuation monomorphized through the sealed [`PathLoss`] strategy so
//!   the paper's `α = 2` case compiles to a single multiply-free division
//!   per station. One evaluator pass answers "who is heard at `p`" in
//!   `O(n)` — the scalar loop needs `O(n²)`.
//! * [`QueryEngine`] — the backend-independent trait: [`QueryEngine::
//!   locate`], [`QueryEngine::locate_batch`] and [`QueryEngine::
//!   sinr_batch`]. Large batches run in parallel through [`batch_map`],
//!   a std-only work-stealing scheduler: the batch is cut into
//!   fixed-size tiles and worker threads claim tiles through one atomic
//!   counter, so skewed workloads (cheap rows next to expensive rows)
//!   keep every core busy.
//! * Backends: [`ExactScan`] (one amortized SoA pass per point, exact for
//!   every network), [`SimdScan`](crate::simd::SimdScan) (the same scan
//!   explicitly vectorized — 8×f64 AVX-512 or 4×f64 AVX2 lanes when the
//!   CPU has them, with SSE2 and portable scalar fallbacks), [`VoronoiAssisted`]
//!   (weighted kd-tree dispatch to the power-diagram cell's strongest
//!   station, exact for every power assignment; under uniform power that
//!   is the nearest station, per Observation 2.2), and the
//!   Theorem-3 `PointLocator` of `sinr-pointloc` (sublinear per query,
//!   `ε`-approximate near zone boundaries).
//!
//! The three exact backends share **one** [`QueryEngine`] impl and
//! differ only in a few per-backend hooks (see the trait docs).
//!
//! The [`Located`] answer type lives here so that every backend — across
//! crates — speaks the same language; `sinr-pointloc` re-exports it.
//!
//! ## Epochs, deltas and the staleness contract
//!
//! Engines snapshot the network at construction, so any later
//! [`Network`] surgery would silently desynchronize them. The epoch
//! protocol closes that hole:
//!
//! * every [`Network`] carries a revision counter, bumped by the
//!   in-place surgery ops ([`Network::add_station`],
//!   [`Network::remove_station`], [`Network::move_station`],
//!   [`Network::set_power`]), each of which emits a
//!   [`NetworkDelta`];
//! * every engine records the revision it reflects
//!   ([`QueryEngine::revision`]) and watches the network's counter;
//!   querying a stale engine ([`QueryEngine::is_stale`]) **panics** with
//!   a revision-mismatch message — a stale engine never answers, and in
//!   particular never answers *wrong*;
//! * [`QueryEngine::apply`] consumes one delta and patches the engine
//!   incrementally — [`ExactScan`]/[`SimdScan`](crate::simd::SimdScan)
//!   edit their SoA columns in place (`O(1)` per delta thanks to the
//!   network's swap-remove index discipline), [`VoronoiAssisted`]
//!   maintains its weighted kd-tree through tombstones and an overflow
//!   list with a rebuild-threshold heuristic (power deltas re-weight
//!   the index in place, so uniform ↔ non-uniform transitions keep the
//!   tree), and the Theorem-3
//!   `PointLocator` patches its dispatcher eagerly while rebuilding
//!   invalidated per-zone grids lazily, on first dispatch;
//! * [`QueryEngine::sync`] is the catch-up path when the deltas were
//!   lost (or came from a different network): rebuild from the current
//!   network state.
//!
//! Deltas are bound to the emitting network *instance* and must be
//! applied in order; [`SyncError`] reports skipped/foreign deltas, and
//! backends with preconditions (the Theorem-3 locator) report mutations
//! they cannot represent as [`SyncError::Unsupported`].
//!
//! ## Which backend?
//!
//! | backend | query cost | exact? | preconditions |
//! |---|---|---|---|
//! | [`ExactScan`] | `O(n)` | yes | none |
//! | [`SimdScan`](crate::simd::SimdScan) | `O(n)`, ~`lanes`× smaller constants | yes | none (runtime CPU detection, scalar fallback) |
//! | [`VoronoiAssisted`] | `O(n)`, smaller constants | yes (bit-identical to a same-kernel `SimdScan`) | none (every power assignment dispatches through the weighted tree — the power-diagram cell lookup) |
//! | `PointLocator` | `O(log n)` | `ε`-approximate near `∂Hᵢ` | uniform power, `α = 2`, `β > 1` |
//!
//! ## Execution model
//!
//! How a `locate_batch` call actually runs, in order of engagement:
//!
//! 1. **Serial** — batches shorter than one tile ([`BATCH_TILE`]
//!    points), and batches shorter than [`PARALLEL_BATCH_THRESHOLD`]
//!    against *small* networks (fewer than
//!    [`TILED_MIN_STATIONS`](crate::tile::TILED_MIN_STATIONS)
//!    stations), run a plain per-point loop on the calling thread.
//! 2. **Per-point work stealing** — batches of at least
//!    [`PARALLEL_BATCH_THRESHOLD`] points against small networks are
//!    cut into [`BATCH_TILE`]-input tiles claimed by worker threads
//!    through one atomic counter ([`batch_map`]).
//! 3. **Spatially-coherent tiled execution** ([`crate::tile`]) —
//!    batches of at least [`BATCH_TILE`] points against larger networks
//!    are Morton-sorted (an index permutation; output positions never
//!    change) and cut into spatial tiles of at most [`BATCH_TILE`]
//!    points that are separated Morton cells
//!    ([`crate::tile::morton_tiles`]: distant hotspots never share a
//!    tile). Below [`PARALLEL_BATCH_THRESHOLD`] the tiles run on the
//!    calling thread, from it on across the cores. Each tile amortizes
//!    its work:
//!    * one `O(n)` pass computes every station's certified energy
//!      envelope over the tile's bounding box
//!      ([`crate::bounds::energy_envelope`]); stations provably
//!      dominated everywhere in the tile are **pruned** from the
//!      per-point scans, their interference carried as a certified
//!      residual interval;
//!    * each point scans only the gathered candidate columns (through
//!      the same SIMD kernels as the full scans), and the reception
//!      test is evaluated at both ends of the residual interval — a
//!      **pruning certificate**: agreement on both ends proves the
//!      full scan would decide identically;
//!    * **fallback conditions**: a point whose certificate is
//!      inconclusive (its margin to the `SINR = β` boundary is inside
//!      the interval width), any tile containing a non-finite query
//!      point, and any tile where pruning cannot drop ≳ 1/8 of the
//!      stations re-run the backend's own serial kernel, point by
//!      point — so tiled answers are **bit-identical** to the serial
//!      path for every backend and kernel (pinned by the
//!      tiled-differential and permutation-invariance suites).
//!
//!    Tiles are also the stealable work units, so the scheduler knob is
//!    shared: [`BATCH_TILE`] is the steal granularity, the largest
//!    spatial tile and the shortest tiled batch
//!    ([`crate::tile::TileConfig`] makes it tunable per call), while
//!    [`PARALLEL_BATCH_THRESHOLD`] decides only the thread fan-out.
//!    The fan-out is shared, too: a parallel batch spawns helpers only
//!    for cores that no other batch in flight holds
//!    ([`crate::tile::steal_tiles`]), so concurrent sessions each run
//!    their batch inline rather than oversubscribe the cores.
//!
//! [`VoronoiAssisted`] layers **proximity dispatch** on top: each query
//! first finds the one station that could possibly be heard, the station
//! maximising `Pᵢ · att(d²)` (the power-diagram cell of Kantor et al.,
//! found by the weighted kd-tree's best-first walk; under uniform power
//! it is the nearest station, Observation 2.2), then runs a single
//! candidate interference sum instead of an `O(n)` argmax scan. The walk
//! breaks exact energy ties toward the smallest index, as the scan
//! kernels' argmax does, so `VoronoiAssisted` answers bit-identically to
//! a [`SimdScan`](crate::simd::SimdScan) with the same kernel on every
//! network, and every exact backend's tiled executor certifies under
//! [`Select::MaxEnergy`](crate::tile::Select::MaxEnergy).
//!
//! `sinr_batch` runs the engine's own serial kernel per point in Morton
//! tile order ([`crate::tile::batch_map_morton`]) for spatial locality,
//! so it stays bit-identical to the serial path; the Theorem-3
//! `PointLocator` reuses the tile grouping so queries dispatching to the
//! same zone grid are processed together.
//!
//! ## Interval certificates
//!
//! [`QueryEngine::sinr_bounds_cell`] extends the per-tile envelope
//! machinery into a queryable API: a [`CellCert`](crate::tile::CellCert)
//! carries, for an axis-aligned cell, a whole-cell decision
//! ([`CellDecision`](crate::tile::CellDecision)) certified from
//! per-station energy envelopes and leave-one-out interference brackets
//! over the cell:
//!
//! * **`Reception(i)`** is claimed only when every *other* station is
//!   certified silent across the cell **and** station `i`'s reception
//!   test passes at the adversarial ends of its interference bracket —
//!   sound for every point of the cell under the same
//!   `BOUND_MARGIN`/deep-fade widening rules as the batch certificates
//!   (the margins are one-sided: looseness degrades to `Mixed`, never
//!   to a wrong uniform claim);
//! * **`Silent`** requires every station's certified silence;
//! * **`Mixed`** is the honest "subdivide or evaluate per-point"
//!   answer, and the *only* possible answer for cells touching
//!   non-finite coordinates.
//!
//! Certificates chain: passing a parent cell's certificate for a
//! contained child re-envelopes only the parent's surviving candidates
//! (certified-silent stations freeze into a shared interference
//! residual), so quadtree refinement costs `O(candidates)` per cell,
//! not `O(n)`. [`QueryEngine::locate_in_cell`] closes the loop at
//! point scale: individual points inside a certified cell are answered
//! from the certificate's candidates alone (exact kernel energies plus
//! the frozen residual bracket, `O(candidates)` per point,
//! bit-identical to [`QueryEngine::locate`] wherever the margins pin
//! the answer), so refinement leaves only the truly ambiguous sliver
//! of points to a full [`QueryEngine::locate`]. The default
//! implementations return `None`/`false` — backends without sound
//! envelopes (the ε-approximate Theorem-3 locator) opt out, and callers
//! degrade to dense evaluation. `sinr-diagram` builds hierarchical rasterisation
//! on exactly this contract.
//!
//! ## Stochastic channels
//!
//! [`QueryEngine::reception_probability_batch`] and
//! [`QueryEngine::sinr_quantiles_batch`] layer a stochastic
//! [`ChannelModel`] over the
//! deterministic model by **gain folding**: a channel trial is a
//! multiplicative per-station gain vector `g`, and since the received
//! energy is linear in transmit power,
//! `Eⱼ(p | gain gⱼ) = gⱼ · ψⱼ / d(sⱼ, p)^α`, evaluating a trial is
//! exactly evaluating the deterministic model on scaled powers
//! `gⱼ·ψⱼ`. Everything power-independent is therefore built **once**
//! per call — the SoA columns, the Morton point tiling, and each
//! station's *unit-power* energy envelope per tile — and a trial costs
//! two multiplies per station per tile (scaling the cached `[lo, hi]`
//! envelope by `gⱼ·ψⱼ`) before the usual certified pruning and
//! candidate scan run unchanged. A gain of exactly `0.0` (a deep-fade
//! draw) times an infinite envelope top (station inside the tile box)
//! is NaN; the executor **widens** such envelopes to the trivial
//! `[0, ∞]` so the station stays a candidate and the pruning
//! certificate stays sound. Uncertain points fall back to the
//! backend's serial kernel on the scaled evaluator, so per-trial
//! answers are bit-identical to rebuilding a scaled network and
//! engine from scratch — the degenerate
//! [`ChannelModel::Deterministic`]
//! channel short-circuits through the backend's own `locate_batch`
//! and returns exactly `0.0`/`1.0`.
//!
//! The **seeding contract** makes every run replayable from one
//! explicit `u64` ([`McConfig`]): trial `t`
//! draws from `StdRng::seed_from_u64(seed ^ (t+1)·0x9E37_79B9_…)`,
//! composed atoms consume one shared stream in atom order, and every
//! atom draws unconditionally — so trial gains depend only on
//! `(seed, trial, model, n)`, never on thread scheduling or which
//! worker claimed the trial. The same seed over the wire
//! (`ReceptionProbBatch`) reproduces the same probabilities
//! bit-for-bit on any machine.
//!
//! ## Example
//!
//! ```
//! use sinr_core::engine::{Located, QueryEngine, VoronoiAssisted};
//! use sinr_core::{Network, StationId};
//! use sinr_geometry::Point;
//!
//! let net = Network::uniform(
//!     vec![Point::new(0.0, 0.0), Point::new(6.0, 0.0)],
//!     0.0,
//!     2.0,
//! ).unwrap();
//! let engine = VoronoiAssisted::new(&net);
//!
//! let queries = [Point::new(0.5, 0.0), Point::new(3.0, 0.0)];
//! let mut answers = [Located::Silent; 2];
//! engine.locate_batch(&queries, &mut answers);
//! assert_eq!(answers[0], Located::Reception(StationId(0)));
//! assert_eq!(answers[1], Located::Silent);
//! ```

use crate::channel::{ChannelError, ChannelModel, McConfig};
use crate::network::{DeltaOp, Network, NetworkDelta};
use crate::simd::SimdKernel;
use crate::station::StationId;
use sinr_algebra::KahanSum;
use sinr_geometry::Point;
use sinr_voronoi::KdTree;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Why an engine could not be brought in sync with its network.
#[derive(Debug, Clone, PartialEq)]
pub enum SyncError {
    /// The delta does not apply on top of the engine's revision — a
    /// delta was skipped, reordered, or applied twice. Recover with
    /// [`QueryEngine::sync`].
    RevisionMismatch {
        /// The revision the engine currently reflects.
        engine_revision: u64,
        /// The revision the delta applies on top of.
        delta_from: u64,
    },
    /// The delta was emitted by a different [`Network`] instance than
    /// the engine was built from.
    ForeignDelta,
    /// The backend cannot represent the requested network state (e.g.
    /// the Theorem-3 locator and a non-uniform power assignment).
    Unsupported(String),
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::RevisionMismatch {
                engine_revision,
                delta_from,
            } => write!(
                f,
                "delta applies on top of revision {delta_from} but the engine \
                 is at revision {engine_revision} (delta skipped or replayed)"
            ),
            SyncError::ForeignDelta => {
                write!(f, "delta was emitted by a different network instance")
            }
            SyncError::Unsupported(msg) => write!(f, "unsupported by this backend: {msg}"),
        }
    }
}

impl std::error::Error for SyncError {}

/// Why an engine declined to answer a query.
///
/// This is the *recoverable* face of the staleness contract: the plain
/// query entry points ([`QueryEngine::locate`] and friends) **panic** on
/// a stale engine — a stale answer could be silently wrong, and a panic
/// is the loudest possible refusal — while the one fallible entry point,
/// [`QueryEngine::freshness`], reports the same condition as this typed
/// error, which long-lived services (the `sinr-server` session loop)
/// check before querying and serialize to their clients instead of
/// dying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocateError {
    /// The source network has mutated past the engine's revision; catch
    /// up with [`QueryEngine::apply`] or [`QueryEngine::sync`].
    Stale {
        /// The revision the engine currently reflects.
        engine_revision: u64,
        /// The network's current revision.
        network_revision: u64,
    },
}

impl std::fmt::Display for LocateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LocateError::Stale {
                engine_revision,
                network_revision,
            } => write!(
                f,
                "stale query engine: the network is at revision {network_revision} but this \
                 engine was synced at revision {engine_revision}; apply the missed \
                 NetworkDeltas or sync(&network)"
            ),
        }
    }
}

impl std::error::Error for LocateError {}

/// The engine side of the epoch protocol: the source network's revision
/// cell (which names the network whose deltas apply, frozen or not),
/// the revision this engine's data reflects, and whether freshness
/// reads the cell (live) or `seen` itself (frozen — so a clone that
/// applies a delta never moves what the original answers for).
#[derive(Debug, Clone)]
struct EpochTag {
    cell: Arc<AtomicU64>,
    seen: u64,
    frozen: bool,
}

impl EpochTag {
    fn of(net: &Network) -> Self {
        EpochTag {
            cell: Arc::clone(net.epoch_cell()),
            seen: net.revision(),
            frozen: false,
        }
    }

    /// The revision freshness compares `seen` against.
    #[inline]
    fn current(&self) -> u64 {
        if self.frozen {
            self.seen
        } else {
            self.cell.load(Ordering::Relaxed)
        }
    }
}

/// The answer of a point-location query, shared by every backend.
///
/// The exact backends ([`ExactScan`], [`VoronoiAssisted`]) never produce
/// [`Located::Uncertain`]; the Theorem-3 approximate structure uses it for
/// points inside the `ε`-area band `Hᵢ?` along a zone boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Located {
    /// The point is inside the reception zone of this station
    /// (`p ∈ Hᵢ`; for approximate backends `p ∈ Hᵢ⁺ ⊆ Hᵢ`).
    Reception(StationId),
    /// The point lies in the uncertain boundary band `Hᵢ?` of this
    /// station (the only candidate); its true status is unresolved at the
    /// backend's resolution.
    Uncertain(StationId),
    /// The point is outside every reception zone (`p ∈ H_∅`).
    Silent,
}

impl Located {
    /// The candidate station, if any.
    pub fn station(&self) -> Option<StationId> {
        match self {
            Located::Reception(i) | Located::Uncertain(i) => Some(*i),
            Located::Silent => None,
        }
    }
}

mod sealed {
    /// Seals [`super::PathLoss`]: the algebraic machinery of this
    /// workspace (characteristic polynomials, Sturm tests) is specific to
    /// the implemented attenuation laws, so downstream crates must not add
    /// their own.
    pub trait Sealed {}
    impl Sealed for super::InverseSquare {}
    impl Sealed for super::GeneralAlpha {}
}

/// A path-loss attenuation strategy (sealed).
///
/// Monomorphizing the evaluator kernels over this trait gives the paper's
/// `α = 2` setting a dedicated fast path — [`InverseSquare`] turns
/// `dist(s, p)^{−α}` into one division by the squared distance, with no
/// `powf` and no square root anywhere in the scan.
pub trait PathLoss: sealed::Sealed + Copy + Send + Sync {
    /// The attenuation `dist^{−α}` given the *squared* distance `d2 > 0`.
    fn attenuation(self, d2: f64) -> f64;
}

/// The paper's default `α = 2`: attenuation is `1/d²`.
#[derive(Debug, Clone, Copy)]
pub struct InverseSquare;

impl PathLoss for InverseSquare {
    #[inline(always)]
    fn attenuation(self, d2: f64) -> f64 {
        1.0 / d2
    }
}

/// General `α > 0`: attenuation is `(d²)^{−α/2}`.
#[derive(Debug, Clone, Copy)]
pub struct GeneralAlpha {
    half_alpha: f64,
}

impl GeneralAlpha {
    /// The strategy for path-loss exponent `alpha`.
    pub fn new(alpha: f64) -> Self {
        GeneralAlpha {
            half_alpha: alpha / 2.0,
        }
    }
}

impl PathLoss for GeneralAlpha {
    #[inline(always)]
    fn attenuation(self, d2: f64) -> f64 {
        d2.powf(-self.half_alpha)
    }
}

/// Batches at least this long are processed in parallel; shorter ones
/// run on the calling thread, spawning nothing. This decides only the
/// thread fan-out: whether a batch takes the tiled executor is
/// [`crate::tile::TileConfig::engages`]'s call, and a tiled batch below
/// this length runs its tiles inline.
///
/// Public so the threshold-boundary regression tests (and downstream
/// batch drivers) can pin behaviour exactly at the serial/parallel
/// crossover.
pub const PARALLEL_BATCH_THRESHOLD: usize = 2048;

/// The batch granularity: the work-stealing scheduler hands out tiles
/// of this many inputs, the spatial tiler of [`crate::tile`] cuts tiles
/// of at most this many points, and a batch of at least this many
/// points against a large network takes the tiled executor — **one
/// knob, not three**. Coarse enough that the shared atomic counter is
/// cold and a tile's per-station envelope pass amortizes over its
/// points, fine enough that skewed workloads rebalance across threads
/// and tiles stay spatially tight. Shorter batches run per point: on
/// uniformly scattered batches against 4096 stations, on one CPU, the
/// tiled path cost 19% more than the per-point loop at 64 points and 6%
/// more at 256, and broke even near 512. Bench-tunable per
/// call through [`crate::tile::TileConfig`] (this constant is the
/// default of its `tile_points` and `min_points`).
pub const BATCH_TILE: usize = 512;

/// Applies `f` to every input, writing results into `out` — work-stolen
/// across the available cores when the batch is large, serial otherwise.
///
/// This is the shared batch driver of every [`QueryEngine`] backend
/// (including the Theorem-3 locator in `sinr-pointloc`). Large batches
/// are split into fixed-size tiles claimed by worker threads through one
/// atomic counter, so skewed per-input costs (e.g. rasters where some
/// rows hit a fast path and others fall back to an exact scan) no longer
/// idle whole threads the way a one-chunk-per-core split would.
///
/// # Panics
///
/// Panics if `inputs` and `out` have different lengths.
pub fn batch_map<I, O, F>(inputs: &[I], out: &mut [O], f: F)
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    assert_eq!(
        inputs.len(),
        out.len(),
        "batch_map: {} inputs but {} output slots",
        inputs.len(),
        out.len()
    );
    let len = inputs.len();
    let slots = steal::OutputSlots::new(out);
    // One scheduler for the whole crate: the same tile-claiming loop
    // drives this per-point path and the spatial executors of
    // `crate::tile`, under the same fan-out rule.
    crate::tile::steal_tiles::<(), _>(
        len.div_ceil(BATCH_TILE),
        batch_workers(len),
        |tile, _scratch| {
            let start = tile * BATCH_TILE;
            let end = (start + BATCH_TILE).min(len);
            for (i, p) in inputs[start..end].iter().enumerate() {
                // Tiles are claimed exactly once (fetch_add), so every
                // index is written by exactly one worker.
                slots.write(start + i, f(p));
            }
        },
    );
}

/// The worker cap of a `len`-input batch: one (the calling thread,
/// nothing spawned) below [`PARALLEL_BATCH_THRESHOLD`], no cap from it
/// on but the cores other batches leave free. The one fan-out rule of
/// the batch paths: [`batch_map`] and the
/// executors of [`crate::tile`] pass it to
/// [`crate::tile::steal_tiles`].
pub fn batch_workers(len: usize) -> usize {
    if len < PARALLEL_BATCH_THRESHOLD {
        1
    } else {
        usize::MAX
    }
}

/// The one unsafe corner of the scheduler: a `Send + Sync` handle to the
/// output slice that lets workers write disjoint slots concurrently.
#[allow(unsafe_code)]
pub(crate) mod steal {
    /// Shared view of `&mut [O]` for the work-stealing workers.
    ///
    /// Soundness: the handle is created from an exclusive borrow that
    /// outlives the thread scope, every index is written by exactly one
    /// worker (contiguous tiles are claimed via `fetch_add`, and the
    /// Morton-permuted tiles of [`crate::tile`] own disjoint index sets
    /// because the order is a permutation), and `write` bounds-checks
    /// the index. Writes go through `&mut`-style assignment so the
    /// previous value is dropped on the writing thread (hence
    /// `O: Send`).
    pub(crate) struct OutputSlots<O> {
        ptr: *mut O,
        len: usize,
    }

    // SAFETY: see the struct docs — slot ownership is partitioned by the
    // tile counter, so no two threads touch the same index.
    unsafe impl<O: Send> Send for OutputSlots<O> {}
    unsafe impl<O: Send> Sync for OutputSlots<O> {}

    impl<O> OutputSlots<O> {
        pub(crate) fn new(out: &mut [O]) -> Self {
            OutputSlots {
                ptr: out.as_mut_ptr(),
                len: out.len(),
            }
        }

        /// Writes `value` into slot `i`, dropping the previous value.
        #[inline]
        pub(crate) fn write(&self, i: usize, value: O) {
            assert!(i < self.len, "output slot {i} out of bounds ({})", self.len);
            // SAFETY: `i` is in bounds (asserted) and, per the tile
            // protocol, no other thread reads or writes this slot.
            unsafe { *self.ptr.add(i) = value }
        }
    }
}

/// One station scan: the quantities every reception decision needs.
///
/// Produced by the scalar kernels here and by the vectorized kernels of
/// [`crate::simd`]; consumed by [`SinrEvaluator::decide`].
pub(crate) struct Scan {
    /// Total energy `E(S, p)` (compensated sum).
    pub(crate) total: f64,
    /// Index of the maximum-energy station (first on ties).
    pub(crate) best: usize,
    /// Its energy.
    pub(crate) best_energy: f64,
}

/// The SoA-backed per-network evaluator: build once, query many.
///
/// Station coordinates and powers are split into `xs` / `ys` / `powers`
/// vectors so the per-point scan is three linear streams, and the
/// reception test is evaluated division-free (`E ≥ β·(I + N)`).
///
/// The key algebraic fact making one pass sufficient: with
/// `T = E(S, p)` the total energy, every station's SINR is
/// `E(sᵢ,p) / (T − E(sᵢ,p) + N)`, which is *strictly increasing* in
/// `E(sᵢ,p)`. The maximum-energy station is therefore the maximum-SINR
/// station for **any** power assignment and any `β` — so `locate` needs
/// one scan (total + argmax), not `n` interference sums.
#[derive(Debug, Clone)]
pub struct SinrEvaluator {
    xs: Vec<f64>,
    ys: Vec<f64>,
    powers: Vec<f64>,
    uniform: bool,
    noise: f64,
    beta: f64,
    alpha: f64,
    epoch: EpochTag,
}

impl SinrEvaluator {
    /// Builds the evaluator for a network (an `O(n)` copy).
    pub fn new(net: &Network) -> Self {
        let n = net.len();
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for p in net.positions() {
            xs.push(p.x);
            ys.push(p.y);
        }
        let powers = net.ids().map(|i| net.power(i)).collect();
        SinrEvaluator {
            xs,
            ys,
            powers,
            uniform: net.is_uniform_power(),
            noise: net.noise(),
            beta: net.beta(),
            alpha: net.alpha(),
            epoch: EpochTag::of(net),
        }
    }

    /// The network revision this evaluator's data reflects.
    pub fn revision(&self) -> u64 {
        self.epoch.seen
    }

    /// True when the source network has mutated past this evaluator.
    pub fn is_stale(&self) -> bool {
        self.epoch.current() != self.epoch.seen
    }

    /// The staleness check in fallible form: `Ok(())` when this
    /// evaluator still reflects the source network, the
    /// [`LocateError::Stale`] describing the revision gap otherwise.
    ///
    /// Every backend's [`QueryEngine::freshness`] delegates here.
    #[inline]
    pub fn freshness(&self) -> Result<(), LocateError> {
        let now = self.epoch.current();
        if now == self.epoch.seen {
            Ok(())
        } else {
            Err(LocateError::Stale {
                engine_revision: self.epoch.seen,
                network_revision: now,
            })
        }
    }

    /// Enforces the staleness contract on every query entry point.
    ///
    /// # Panics
    ///
    /// Panics when the source network has mutated past this engine's
    /// revision — a stale engine must never answer (its answer could be
    /// silently wrong). Catch up with
    /// [`apply`](SinrEvaluator::apply)/[`sync`](SinrEvaluator::sync).
    /// The recoverable form of the same check is
    /// [`SinrEvaluator::freshness`].
    #[inline]
    pub fn assert_fresh(&self) {
        if let Err(e) = self.freshness() {
            panic!("{e}");
        }
    }

    /// Patches the evaluator in place with one [`NetworkDelta`] — `O(1)`
    /// column surgery instead of the `O(n)` rebuild of
    /// [`SinrEvaluator::new`].
    ///
    /// # Errors
    ///
    /// [`SyncError::ForeignDelta`] when the delta was emitted by a
    /// different network; [`SyncError::RevisionMismatch`] when a delta
    /// was skipped or replayed. The evaluator is untouched on error.
    pub fn apply(&mut self, delta: &NetworkDelta) -> Result<(), SyncError> {
        if !delta.is_from(&self.epoch.cell) {
            return Err(SyncError::ForeignDelta);
        }
        if delta.from_revision() != self.epoch.seen {
            return Err(SyncError::RevisionMismatch {
                engine_revision: self.epoch.seen,
                delta_from: delta.from_revision(),
            });
        }
        match delta.op() {
            DeltaOp::Add {
                position, power, ..
            } => {
                self.xs.push(position.x);
                self.ys.push(position.y);
                self.powers.push(*power);
            }
            DeltaOp::Remove { id, .. } => {
                self.xs.swap_remove(id.0);
                self.ys.swap_remove(id.0);
                self.powers.swap_remove(id.0);
            }
            DeltaOp::Move { id, to, .. } => {
                self.xs[id.0] = to.x;
                self.ys[id.0] = to.y;
            }
            DeltaOp::SetPower { id, to, .. } => {
                self.powers[id.0] = *to;
            }
        }
        self.uniform = delta.uniform_after();
        self.epoch.seen = delta.to_revision();
        Ok(())
    }

    /// Rebuilds from the network's current state — the catch-up path
    /// when the deltas were lost, or when retargeting the evaluator at a
    /// different network.
    pub fn sync(&mut self, net: &Network) {
        *self = SinrEvaluator::new(net);
    }

    /// Stops the evaluator reading its source network's epoch cell,
    /// pinning it **fresh** at its current revision: later mutations of
    /// the source network no longer flip it stale. Its source network's
    /// deltas still apply, moving the pinned revision with them; deltas
    /// of any other network stay [`SyncError::ForeignDelta`]. A frozen
    /// evaluator answers for the revision it last reached until it is
    /// changed through `&mut`; this is the primitive behind
    /// [`crate::snapshot`]'s shared engine snapshots.
    pub fn freeze(&mut self) {
        self.epoch.frozen = true;
    }

    /// Overwrites the power column with `base[j] · gains[j]` — the
    /// gain-folding step of the stochastic channel layer
    /// ([`crate::channel`]): a channel trial is the deterministic model
    /// on the scaled powers, so only this column changes between trials
    /// while `xs`/`ys` (and everything derived from them) are reused.
    /// The uniform-power flag is recomputed, keeping the
    /// Observation-2.2 dispatch contract honest on scaled clones.
    pub(crate) fn set_scaled_powers(&mut self, base: &[f64], gains: &[f64]) {
        debug_assert_eq!(base.len(), self.powers.len());
        debug_assert_eq!(gains.len(), self.powers.len());
        for ((w, &b), &g) in self.powers.iter_mut().zip(base).zip(gains) {
            *w = b * g;
        }
        self.uniform = self.powers.iter().all(|&w| w == 1.0);
    }

    /// The station positions as points, in current index order.
    pub(crate) fn position_points(&self) -> Vec<Point> {
        self.xs
            .iter()
            .zip(&self.ys)
            .map(|(&x, &y)| Point::new(x, y))
            .collect()
    }

    /// Number of stations.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when the evaluator covers no stations (never for one built
    /// from a [`Network`], which has `n ≥ 2`).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The reception threshold `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The background noise `N`.
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// The path-loss exponent `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// True when every station transmits with power 1.
    pub fn is_uniform_power(&self) -> bool {
        self.uniform
    }

    /// The position of station `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn position(&self, i: StationId) -> Point {
        Point::new(self.xs[i.0], self.ys[i.0])
    }

    /// Dispatches `f` with the monomorphized path-loss strategy — `α = 2`
    /// networks take the [`InverseSquare`] fast path.
    #[inline]
    fn with_kernel<T>(&self, f: impl FnOnce(&Self, DynKernel) -> T) -> T {
        if self.alpha == 2.0 {
            f(self, DynKernel::Square(InverseSquare))
        } else {
            f(self, DynKernel::General(GeneralAlpha::new(self.alpha)))
        }
    }

    /// One SoA pass: total energy plus the maximum-energy station.
    /// Returns `Err(j)` when `p` coincides with station `j` (first such
    /// index — reception is then decided by the `{sᵢ}` zone clause).
    #[inline]
    fn scan<K: PathLoss>(&self, k: K, p: Point) -> Result<Scan, usize> {
        let mut acc = KahanSum::new();
        let mut best = 0usize;
        let mut best_energy = f64::NEG_INFINITY;
        for j in 0..self.xs.len() {
            let dx = self.xs[j] - p.x;
            let dy = self.ys[j] - p.y;
            let d2 = dx * dx + dy * dy;
            if d2 == 0.0 {
                return Err(j);
            }
            let e = k.attenuation(d2) * self.powers[j];
            acc.add(e);
            if e > best_energy {
                best_energy = e;
                best = j;
            }
        }
        Ok(Scan {
            total: acc.value(),
            best,
            best_energy,
        })
    }

    /// The station arrays in structure-of-arrays layout:
    /// `(xs, ys, powers)` — the streams the vectorized kernels of
    /// [`crate::simd`] consume.
    pub(crate) fn soa(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.xs, &self.ys, &self.powers)
    }

    /// Turns a completed [`Scan`] (or a coincident-station index) into
    /// the reception decision — shared by the scalar kernels here and the
    /// vectorized kernels of [`crate::simd`].
    #[inline]
    pub(crate) fn decide(&self, scan: Result<Scan, usize>) -> Located {
        match scan {
            // At a station's own position reception holds by the `{sᵢ}`
            // clause; for co-located stations the scalar ground truth
            // resolves to the first index, and `Err` carries exactly that.
            Err(j) => Located::Reception(StationId(j)),
            Ok(scan) => {
                let interference_plus_noise = (scan.total - scan.best_energy) + self.noise;
                // Division-free reception test: E ≥ β·(I + N). A
                // non-positive denominator means the interference
                // underflowed to zero with no noise — SINR is +∞.
                if interference_plus_noise <= 0.0
                    || scan.best_energy >= self.beta * interference_plus_noise
                {
                    Located::Reception(StationId(scan.best))
                } else {
                    Located::Silent
                }
            }
        }
    }

    #[inline]
    fn locate_with<K: PathLoss>(&self, k: K, p: Point) -> Located {
        self.decide(self.scan(k, p))
    }

    /// The scalar per-point kernel without the freshness check — the
    /// serial ground truth the tiled executor ([`crate::tile`]) falls
    /// back to per point (batch entry points assert freshness once).
    #[inline]
    pub(crate) fn locate_scalar(&self, p: Point) -> Located {
        self.with_kernel(|ev, k| match k {
            DynKernel::Square(k) => ev.locate_with(k, p),
            DynKernel::General(k) => ev.locate_with(k, p),
        })
    }

    /// Decides reception for the single candidate station `cand` (the
    /// [`VoronoiAssisted`] path — `cand` must be the maximum-energy
    /// station) from a candidate scan `(e_cand, total)` as produced by
    /// [`crate::simd::candidate_scan`]; `Err(j)` is a point coinciding
    /// with station `j`.
    #[inline]
    pub(crate) fn decide_candidate(&self, cand: usize, scan: Result<(f64, f64), usize>) -> Located {
        match scan {
            Err(j) => Located::Reception(StationId(j)),
            Ok((e_cand, total)) => {
                let interference_plus_noise = (total - e_cand) + self.noise;
                if interference_plus_noise <= 0.0 || e_cand >= self.beta * interference_plus_noise {
                    Located::Reception(StationId(cand))
                } else {
                    Located::Silent
                }
            }
        }
    }

    /// SINR of station `i` at `p`, matching [`crate::sinr::sinr`]'s
    /// conventions for points coinciding with stations.
    ///
    /// Unlike the `locate` kernels, the interference is summed directly
    /// over `j ≠ i` rather than derived as `total − eᵢ`: close to `sᵢ`
    /// the energy dominates the total and the subtraction would cancel
    /// catastrophically. (The `locate` decision is immune — cancellation
    /// is only severe when `eᵢ ≫ I`, which is far from the `β`
    /// boundary — but reported SINR values must be accurate everywhere.)
    #[inline]
    fn sinr_with<K: PathLoss>(&self, k: K, i: usize, p: Point) -> f64 {
        let mut acc = KahanSum::new();
        let mut e_i = 0.0;
        for j in 0..self.xs.len() {
            let dx = self.xs[j] - p.x;
            let dy = self.ys[j] - p.y;
            let d2 = dx * dx + dy * dy;
            if d2 == 0.0 {
                // `p` is at station `j`. At `sᵢ` itself the SINR is +∞
                // unless an interferer is co-located (then 0); at another
                // station the interference is +∞, so the SINR is 0.
                if j != i && (self.xs[j] != self.xs[i] || self.ys[j] != self.ys[i]) {
                    return 0.0;
                }
                let colocated = (0..self.xs.len())
                    .any(|m| m != i && self.xs[m] == self.xs[i] && self.ys[m] == self.ys[i]);
                return if colocated { 0.0 } else { f64::INFINITY };
            }
            let e = k.attenuation(d2) * self.powers[j];
            if j == i {
                e_i = e;
            } else {
                acc.add(e);
            }
        }
        let denom = acc.value() + self.noise;
        if denom <= 0.0 {
            f64::INFINITY
        } else {
            e_i / denom
        }
    }

    /// Who (if anyone) is heard at `p` — the `O(n)` single-pass answer,
    /// equivalent to the scalar [`crate::sinr::heard_at`].
    ///
    /// # Panics
    ///
    /// Panics if the source network has mutated past this engine (see
    /// [`SinrEvaluator::assert_fresh`]).
    pub fn locate(&self, p: Point) -> Located {
        self.assert_fresh();
        self.locate_scalar(p)
    }

    /// The SINR of station `i` at `p`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sinr(&self, i: StationId, p: Point) -> f64 {
        self.assert_fresh();
        assert!(i.0 < self.len(), "station {i} out of range");
        self.with_kernel(|ev, k| match k {
            DynKernel::Square(k) => ev.sinr_with(k, i.0, p),
            DynKernel::General(k) => ev.sinr_with(k, i.0, p),
        })
    }

    /// Batched [`SinrEvaluator::sinr`] for one station across many
    /// points — scheduled in Morton-tile order for spatial coherence
    /// ([`crate::tile::batch_map_morton`]). Every point runs the
    /// unchanged per-point kernel, so values stay bit-identical to
    /// serial [`SinrEvaluator::sinr`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the slice lengths differ.
    pub fn sinr_batch(&self, i: StationId, points: &[Point], out: &mut [f64]) {
        self.assert_fresh();
        assert!(i.0 < self.len(), "station {i} out of range");
        let cfg = crate::tile::TileConfig::default();
        self.with_kernel(|ev, k| match k {
            DynKernel::Square(k) => {
                crate::tile::batch_map_morton(points, out, &cfg, |p| ev.sinr_with(k, i.0, p))
            }
            DynKernel::General(k) => {
                crate::tile::batch_map_morton(points, out, &cfg, |p| ev.sinr_with(k, i.0, p))
            }
        });
    }

    /// Interval-certified evaluation of the axis-aligned cell
    /// `[min, max]`: per-station energy envelopes and leave-one-out
    /// interference brackets over the cell decide — when the margins
    /// allow — a uniform reception
    /// [`CellDecision`](crate::tile::CellDecision) for the whole cell;
    /// the [`CellCert`](crate::tile::CellCert) keeps that decision, the
    /// surviving candidate stations and the frozen residual.
    ///
    /// Pass a certificate of a **containing** cell as `parent` to
    /// re-envelope only its surviving candidates (the refinement
    /// contract; see [`crate::tile`]).
    ///
    /// # Panics
    ///
    /// Panics if the engine is stale.
    pub fn sinr_bounds_cell(
        &self,
        min: Point,
        max: Point,
        parent: Option<&crate::tile::CellCert>,
    ) -> crate::tile::CellCert {
        self.assert_fresh();
        crate::tile::cell_certificate(self, min, max, parent)
    }
}

/// Runtime kernel choice, resolved once per call (not once per point).
#[derive(Clone, Copy)]
enum DynKernel {
    Square(InverseSquare),
    General(GeneralAlpha),
}

/// The backend-independent query interface: one network, many points.
///
/// Implementations: the exact backends [`ExactScan`],
/// [`SimdScan`](crate::simd::SimdScan) and [`VoronoiAssisted`] (one
/// shared impl, see below), the type-erased [`BoxedEngine`] (this
/// crate), and the Theorem-3 `PointLocator` (`sinr-pointloc`). All of
/// them agree with the scalar ground truth [`crate::sinr::heard_at`]
/// wherever they answer definitely; only approximate backends may answer
/// [`Located::Uncertain`].
///
/// The three exact backends do not write this impl themselves: one
/// blanket `impl<T: exact::Backend> QueryEngine for T` holds every
/// method (freshness checks, the batch split, cell certificates, both
/// Monte-Carlo methods, the epoch plumbing), over a sealed crate-private
/// trait through which each backend supplies only its hooks: its
/// evaluator, the kernel of its candidate scans, its full scan (also the
/// Monte-Carlo per-trial fallback on a gain-scaled evaluator), its
/// serial per-point kernel when that is not the full scan
/// ([`VoronoiAssisted`]'s tree walk), and its delta/sync upkeep when it
/// holds more than the evaluator ([`VoronoiAssisted`]'s kd-tree). Large
/// `locate_batch` calls run through the tiled executor
/// ([`crate::tile::locate_batch_tiled`]) when
/// [`TileConfig::engages`](crate::tile::TileConfig::engages), through
/// [`batch_map`] otherwise.
pub trait QueryEngine {
    /// Who (if anyone) is heard at `p`?
    fn locate(&self, p: Point) -> Located;

    /// Batched [`QueryEngine::locate`]: `out[k]` receives the answer for
    /// `points[k]`.
    ///
    /// The default implementation is a serial loop; the exact backends
    /// run the tiled executor or the work-stealing [`batch_map`]
    /// scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `points` and `out` have different lengths.
    fn locate_batch(&self, points: &[Point], out: &mut [Located]) {
        assert_eq!(
            points.len(),
            out.len(),
            "locate_batch: {} points but {} output slots",
            points.len(),
            out.len()
        );
        for (p, slot) in points.iter().zip(out.iter_mut()) {
            *slot = self.locate(*p);
        }
    }

    /// The SINR of station `i` at each point, written into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the slice lengths differ.
    fn sinr_batch(&self, i: StationId, points: &[Point], out: &mut [f64]);

    // --- The dynamic path (epochs and deltas) ----------------------------

    /// The staleness contract in fallible form: `Ok(())` when the engine
    /// still reflects its source network, [`LocateError::Stale`] (with
    /// both revisions) otherwise.
    ///
    /// The plain query methods *panic* on staleness; a caller that must
    /// not die (a long-lived service serializing the condition) checks
    /// this first and calls the plain method only on `Ok`.
    /// Implementations delegate to [`SinrEvaluator::freshness`].
    fn freshness(&self) -> Result<(), LocateError>;

    // --- Interval certificates ([`crate::tile`]) -------------------------

    /// Interval-certified evaluation of one axis-aligned cell: a
    /// [`CellCert`](crate::tile::CellCert) holding, when the certified
    /// envelopes over `[min, max]` clear the margins, a uniform
    /// [`CellDecision`](crate::tile::CellDecision) that is **sound for
    /// this backend's own `locate`** at every point of the cell, plus
    /// the candidates and frozen residual that refining it needs. Certificates chain: pass a containing cell's
    /// certificate as `parent` so only its surviving candidate stations
    /// are re-enveloped (the quadtree-refinement contract).
    ///
    /// The default declines with `None` — backends that cannot tie the
    /// envelope arithmetic to their answer path (approximate locators)
    /// keep it, and consumers must fall back to per-point evaluation.
    /// The exact backends override it via the generic executor.
    fn sinr_bounds_cell(
        &self,
        min: Point,
        max: Point,
        parent: Option<&crate::tile::CellCert>,
    ) -> Option<crate::tile::CellCert> {
        let _ = (min, max, parent);
        None
    }

    /// Certified per-point location against an ancestor cell
    /// certificate: for each point (all of which must lie inside
    /// `cert`'s cell), writes `Some` of this backend's own
    /// [`QueryEngine::locate`] answer when the certificate's surviving
    /// candidates plus its frozen residual bracket pin the decision
    /// ([`crate::tile::locate_in_cell`] — `O(candidates)` instead of a
    /// full scan), `None` when they cannot — the caller answers those
    /// with [`QueryEngine::locate`]. Returns `true` when the backend
    /// supports the path at all. Every `Some` is bit-identical to
    /// `locate` (and so to `locate_batch`) on the same point. This is
    /// how the quadtree rasteriser keeps boundary pixels cheap: the
    /// refinement already holds a tight certificate for each one.
    ///
    /// The default declines with `false` (`out` untouched) — paired
    /// with [`QueryEngine::sinr_bounds_cell`]'s default, so consumers
    /// of a backend without certificates answer every point with
    /// [`QueryEngine::locate`].
    ///
    /// # Panics
    ///
    /// Panics if `points` and `out` have different lengths (like every
    /// batched method).
    fn locate_in_cell(
        &self,
        cert: &crate::tile::CellCert,
        points: &[Point],
        out: &mut [Option<Located>],
    ) -> bool {
        let _ = (cert, points, out);
        false
    }

    // --- Stochastic channels ([`crate::channel`]) ------------------------

    /// Monte-Carlo reception probability under a stochastic channel:
    /// `out[k]` receives the fraction of `mc.trials` seeded channel
    /// draws ([`ChannelModel::gains_for_trial`]) in which `points[k]`
    /// receives *some* station. Identity channels answer exactly `0.0` /
    /// `1.0`, bit-identical to [`QueryEngine::locate_batch`] (the
    /// degenerate-channel contract); see [`crate::channel`] for the
    /// gain-folding construction and the seeding contract.
    ///
    /// The default implementation declines with
    /// [`ChannelError::Unsupported`] — backends whose structures assume
    /// the deterministic power assignment (the Theorem-3 locator) keep
    /// it.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Stale`] on a stale engine (`out` untouched),
    /// [`ChannelError::InvalidChannel`] for a malformed model or trial
    /// count, [`ChannelError::Unsupported`] from backends without the
    /// stochastic path.
    ///
    /// # Panics
    ///
    /// Panics if `points` and `out` have different lengths.
    fn reception_probability_batch(
        &self,
        model: &ChannelModel,
        mc: McConfig,
        points: &[Point],
        out: &mut [f64],
    ) -> Result<(), ChannelError> {
        let _ = (model, mc, points, out);
        Err(ChannelError::Unsupported(
            "this backend does not implement stochastic channels",
        ))
    }

    /// Monte-Carlo SINR distribution of station `i`: for each point, the
    /// requested `quantiles` (each in `[0, 1]`, nearest-rank over the
    /// `mc.trials` sampled SINR values) are written row-major into `out`
    /// (`out[k * quantiles.len() + q]` is quantile `q` of point `k`).
    /// Per-trial values are bit-identical to
    /// [`QueryEngine::sinr_batch`] on the gain-scaled network.
    ///
    /// The default implementation declines with
    /// [`ChannelError::Unsupported`].
    ///
    /// # Errors
    ///
    /// As [`QueryEngine::reception_probability_batch`], plus
    /// [`ChannelError::InvalidChannel`] for quantiles outside `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `out` is not
    /// `points.len() × quantiles.len()` long.
    fn sinr_quantiles_batch(
        &self,
        model: &ChannelModel,
        mc: McConfig,
        i: StationId,
        points: &[Point],
        quantiles: &[f64],
        out: &mut [f64],
    ) -> Result<(), ChannelError> {
        let _ = (model, mc, i, points, quantiles, out);
        Err(ChannelError::Unsupported(
            "this backend does not implement stochastic channels",
        ))
    }

    /// The network revision this engine currently answers for.
    fn revision(&self) -> u64;

    /// True when the source network has mutated past this engine —
    /// queries will panic until [`QueryEngine::apply`] catches up on the
    /// missed deltas or [`QueryEngine::sync`] rebuilds. The provided
    /// body reads [`QueryEngine::freshness`].
    fn is_stale(&self) -> bool {
        self.freshness().is_err()
    }

    /// Applies one [`NetworkDelta`] incrementally, avoiding a rebuild.
    ///
    /// Deltas must be applied in emission order with none skipped; the
    /// engine is unchanged on error.
    ///
    /// # Errors
    ///
    /// * [`SyncError::ForeignDelta`] — the delta came from a different
    ///   network instance;
    /// * [`SyncError::RevisionMismatch`] — a delta was skipped or
    ///   replayed (recover with [`QueryEngine::sync`]);
    /// * [`SyncError::Unsupported`] — the backend cannot represent the
    ///   post-delta network (e.g. the Theorem-3 locator's uniform-power
    ///   precondition).
    fn apply(&mut self, delta: &NetworkDelta) -> Result<(), SyncError>;

    /// Rebuilds the engine from the network's current state — the
    /// catch-up path when deltas were lost, and the only way to retarget
    /// an engine at a different network.
    ///
    /// # Errors
    ///
    /// [`SyncError::Unsupported`] when the backend's preconditions do
    /// not hold for `net`.
    fn sync(&mut self, net: &Network) -> Result<(), SyncError>;

    /// Detaches the engine's freshness from its source network, pinning
    /// it **fresh** at its current revision: later mutations of the
    /// source network no longer flip it stale. The source network's
    /// deltas still apply ([`QueryEngine::apply`] moves the pinned
    /// revision with them); deltas of any other network stay
    /// [`SyncError::ForeignDelta`]. A frozen engine behind an `Arc` is
    /// an immutable snapshot of the revision it answers for — the
    /// primitive behind the RCU-style shared snapshots of
    /// [`crate::snapshot`] (a *live* clone still reads the source's
    /// epoch cell and would go stale mid-batch at the next mutation;
    /// freezing is what makes it safely shareable).
    ///
    /// The default is a no-op, which is only correct for engines whose
    /// freshness never changes (e.g. test doubles without an epoch tag);
    /// every epoch-tracking backend overrides it via
    /// [`SinrEvaluator::freeze`].
    fn freeze(&mut self) {}
}

/// The per-backend half of the exact engines' one [`QueryEngine`] impl.
///
/// Sealed: [`Backend`](exact::Backend) is public inside a crate-private
/// module, so no other crate can name or implement it, and their own
/// `impl QueryEngine` blocks (the Theorem-3 `PointLocator`, test
/// doubles) never overlap the blanket impl below.
pub(crate) mod exact {
    use super::{Located, Network, NetworkDelta, SimdKernel, SinrEvaluator, SyncError};
    use sinr_geometry::Point;

    /// What an exact backend supplies; the blanket impl does the rest.
    pub trait Backend: Sync {
        /// The wrapped evaluator.
        fn eval(&self) -> &SinrEvaluator;

        /// The wrapped evaluator, for delta and sync upkeep.
        fn eval_mut(&mut self) -> &mut SinrEvaluator;

        /// The kernel of the candidate scans: the tiled executor's, the
        /// cell-certified path's and the Monte-Carlo executor's.
        fn scan_kernel(&self) -> SimdKernel;

        /// This backend's full scan of `ev` at `p`, without a freshness
        /// check. The Monte-Carlo executor's per-trial fallback runs it
        /// on the gain-scaled evaluator.
        fn full_scan(&self, ev: &SinrEvaluator, p: Point) -> Located;

        /// The serial per-point kernel, without a freshness check:
        /// `locate`, the per-point batch path and the tiled executor's
        /// fallback. Defaults to the full scan of [`Backend::eval`].
        #[inline]
        fn serial(&self, p: Point) -> Located {
            self.full_scan(self.eval(), p)
        }

        /// Applies one delta. The default patches the evaluator's SoA
        /// columns; the scan kernel stays as constructed.
        fn apply_delta(&mut self, delta: &NetworkDelta) -> Result<(), SyncError> {
            self.eval_mut().apply(delta)
        }

        /// Rebuilds from `net`. The default rebuilds the evaluator; the
        /// scan kernel stays as constructed.
        fn resync(&mut self, net: &Network) {
            self.eval_mut().sync(net);
        }
    }
}

impl<T: exact::Backend> QueryEngine for T {
    fn locate(&self, p: Point) -> Located {
        self.eval().assert_fresh();
        self.serial(p)
    }

    fn locate_batch(&self, points: &[Point], out: &mut [Located]) {
        let eval = self.eval();
        eval.assert_fresh();
        let cfg = crate::tile::TileConfig::default();
        if cfg.engages(points.len(), eval.len()) {
            let (kernel, select) = (self.scan_kernel(), crate::tile::Select::MaxEnergy);
            crate::tile::locate_batch_tiled(eval, kernel, select, points, out, &cfg, |p| {
                self.serial(p)
            });
        } else {
            batch_map(points, out, |p| self.serial(*p));
        }
    }

    fn sinr_batch(&self, i: StationId, points: &[Point], out: &mut [f64]) {
        // Reported SINR values need the direct `j ≠ i` interference sum
        // (see `SinrEvaluator::sinr`), which every backend shares.
        self.eval().sinr_batch(i, points, out);
    }

    fn sinr_bounds_cell(
        &self,
        min: Point,
        max: Point,
        parent: Option<&crate::tile::CellCert>,
    ) -> Option<crate::tile::CellCert> {
        Some(self.eval().sinr_bounds_cell(min, max, parent))
    }

    fn locate_in_cell(
        &self,
        cert: &crate::tile::CellCert,
        points: &[Point],
        out: &mut [Option<Located>],
    ) -> bool {
        let eval = self.eval();
        eval.assert_fresh();
        // Uncertifiable points stay `None` for the caller's `locate`.
        crate::tile::locate_in_cell(eval, self.scan_kernel(), cert, points, out);
        true
    }

    fn freshness(&self) -> Result<(), LocateError> {
        self.eval().freshness()
    }

    fn reception_probability_batch(
        &self,
        model: &ChannelModel,
        mc: McConfig,
        points: &[Point],
        out: &mut [f64],
    ) -> Result<(), ChannelError> {
        // Identity channels answer through `locate_batch`, so degenerate
        // answers keep this backend's own summation order bit for bit.
        crate::channel::reception_probability_driver(
            self.eval(),
            self.scan_kernel(),
            model,
            mc,
            points,
            out,
            |ev, p| self.full_scan(ev, p),
            |pts, located| self.locate_batch(pts, located),
        )
    }

    fn sinr_quantiles_batch(
        &self,
        model: &ChannelModel,
        mc: McConfig,
        i: StationId,
        points: &[Point],
        quantiles: &[f64],
        out: &mut [f64],
    ) -> Result<(), ChannelError> {
        crate::channel::sinr_quantiles_driver(self.eval(), model, mc, i, points, quantiles, out)
    }

    fn revision(&self) -> u64 {
        self.eval().revision()
    }

    fn apply(&mut self, delta: &NetworkDelta) -> Result<(), SyncError> {
        self.apply_delta(delta)
    }

    fn sync(&mut self, net: &Network) -> Result<(), SyncError> {
        self.resync(net);
        Ok(())
    }

    fn freeze(&mut self) {
        self.eval_mut().freeze();
    }
}

/// The exact linear-scan backend: one amortized SoA pass per point.
///
/// Exact for **every** network (any power assignment, any `α`, any `β`).
/// This is the engine-shaped replacement of the naive per-station loop:
/// same answers, `O(n)` instead of `O(n²)` per point.
#[derive(Debug, Clone)]
pub struct ExactScan {
    eval: SinrEvaluator,
}

impl ExactScan {
    /// Builds the backend for a network.
    pub fn new(net: &Network) -> Self {
        ExactScan {
            eval: SinrEvaluator::new(net),
        }
    }

    /// Wraps an already-built evaluator.
    pub fn from_evaluator(eval: SinrEvaluator) -> Self {
        ExactScan { eval }
    }

    /// The underlying evaluator.
    pub fn evaluator(&self) -> &SinrEvaluator {
        &self.eval
    }
}

impl exact::Backend for ExactScan {
    fn eval(&self) -> &SinrEvaluator {
        &self.eval
    }

    fn eval_mut(&mut self) -> &mut SinrEvaluator {
        &mut self.eval
    }

    fn scan_kernel(&self) -> SimdKernel {
        SimdKernel::Portable
    }

    #[inline]
    fn full_scan(&self, ev: &SinrEvaluator, p: Point) -> Located {
        ev.locate_scalar(p)
    }
}

/// The incrementally maintained station index of [`VoronoiAssisted`]: a
/// static weighted [`KdTree`] over a past snapshot, with **tombstones**
/// for stations removed, relocated, or re-powered since, and a linear
/// **overflow list** (position, power, index) for stations added or
/// changed since. Queries take the strongest station over both, by
/// `power · att(d²)` (the power-diagram rule), with ties
/// breaking toward the smallest current index, exactly the fresh-tree
/// rule, so an incrementally patched tree answers bit-for-bit like a
/// rebuilt one.
///
/// When tombstones + overflow cross the rebuild threshold (a quarter of
/// the stations, with a small-n floor) the structure is rebuilt from
/// scratch — the amortized-rebuild heuristic that keeps the overflow
/// scan from degrading the `O(log n)` dispatch toward `O(n)`.
#[derive(Debug, Clone)]
struct DynamicTree {
    tree: KdTree,
    /// kd-tree site slot → current station index; `None` = tombstone.
    tree_to_cur: Vec<Option<usize>>,
    /// current station index → where the station lives.
    cur_to_slot: Vec<SlotRef>,
    /// Stations living outside the tree:
    /// `(position, power, current index)`.
    overflow: Vec<(Point, f64, usize)>,
    /// Number of tombstoned tree slots.
    dead: usize,
}

#[derive(Debug, Clone, Copy)]
enum SlotRef {
    /// Index into `DynamicTree::tree` sites.
    Tree(usize),
    /// Index into `DynamicTree::overflow`.
    Overflow(usize),
}

impl DynamicTree {
    fn build(positions: Vec<Point>, powers: Vec<f64>) -> Self {
        let n = positions.len();
        DynamicTree {
            tree: KdTree::build_weighted(positions, powers),
            tree_to_cur: (0..n).map(Some).collect(),
            cur_to_slot: (0..n).map(SlotRef::Tree).collect(),
            overflow: Vec::new(),
            dead: 0,
        }
    }

    /// Strongest live station under `att`:
    /// `(current index, squared distance, strength)` maximising
    /// `power · att(d²)` — the power-diagram (weighted Voronoi)
    /// nearest-dominator dispatch, legal for every power assignment.
    fn strongest(&self, p: Point, att: impl Fn(f64) -> f64) -> (usize, f64, f64) {
        let mut best = self
            .tree
            .strongest_mapped(p, &att, |slot| self.tree_to_cur[slot]);
        for &(q, w, cur) in &self.overflow {
            let d2 = q.dist_sq(p);
            let strength = att(d2) * w;
            let better = match best {
                None => true,
                Some((bi, _, bs)) => strength > bs || (strength == bs && cur < bi),
            };
            if better {
                best = Some((cur, d2, strength));
            }
        }
        best.expect("a built network has ≥ 2 stations")
    }

    /// Detaches station `i` from whichever store holds it (tombstoning a
    /// tree slot, or swap-removing an overflow entry and re-pointing the
    /// entry that took its place).
    fn detach(&mut self, i: usize) {
        match self.cur_to_slot[i] {
            SlotRef::Tree(t) => {
                self.tree_to_cur[t] = None;
                self.dead += 1;
            }
            SlotRef::Overflow(o) => {
                self.overflow.swap_remove(o);
                if o < self.overflow.len() {
                    let moved_cur = self.overflow[o].2;
                    self.cur_to_slot[moved_cur] = SlotRef::Overflow(o);
                }
            }
        }
    }

    /// Mirrors [`DeltaOp::Add`]: the new station gets the next index.
    fn add(&mut self, position: Point, power: f64) {
        let cur = self.cur_to_slot.len();
        self.cur_to_slot
            .push(SlotRef::Overflow(self.overflow.len()));
        self.overflow.push((position, power, cur));
    }

    /// Mirrors [`DeltaOp::Remove`]'s swap-remove index discipline.
    fn remove(&mut self, i: usize, last_index: usize) {
        self.detach(i);
        if i != last_index {
            // `detach` above may have re-pointed `last_index`'s slot ref
            // (overflow swap), so read it only now.
            let moved = self.cur_to_slot[last_index];
            self.cur_to_slot[i] = moved;
            match moved {
                SlotRef::Tree(t) => self.tree_to_cur[t] = Some(i),
                SlotRef::Overflow(o) => self.overflow[o].2 = i,
            }
        }
        self.cur_to_slot.pop();
    }

    /// Mirrors [`DeltaOp::Move`]: in-tree stations are tombstoned and
    /// reinserted into the overflow (carrying their current power);
    /// overflow stations move in place.
    fn relocate(&mut self, i: usize, to: Point, power: f64) {
        match self.cur_to_slot[i] {
            SlotRef::Overflow(o) => self.overflow[o].0 = to,
            SlotRef::Tree(t) => {
                self.tree_to_cur[t] = None;
                self.dead += 1;
                self.cur_to_slot[i] = SlotRef::Overflow(self.overflow.len());
                self.overflow.push((to, power, i));
            }
        }
    }

    /// Mirrors [`DeltaOp::SetPower`]: overflow stations re-weight in
    /// place; in-tree stations whose baked weight already equals the new
    /// power are untouched (the static aggregates stay exact), otherwise
    /// they are tombstoned and reinserted with the new power.
    fn set_power(&mut self, i: usize, to: f64) {
        match self.cur_to_slot[i] {
            SlotRef::Overflow(o) => self.overflow[o].1 = to,
            SlotRef::Tree(t) => {
                if self.tree.weights()[t] == to {
                    return;
                }
                let position = self.tree.sites()[t];
                self.tree_to_cur[t] = None;
                self.dead += 1;
                self.cur_to_slot[i] = SlotRef::Overflow(self.overflow.len());
                self.overflow.push((position, to, i));
            }
        }
    }

    /// The rebuild-threshold heuristic: rebuild once a quarter of the
    /// stations (floor 16) have left the static tree.
    fn should_rebuild(&self) -> bool {
        self.dead + self.overflow.len() > (self.cur_to_slot.len() / 4).max(16)
    }
}

/// The proximity-dispatch backend: kd-tree nearest-*dominator* search.
///
/// The only station that can be heard at `p` is the one maximising
/// `Pᵢ · att(d²)`: the weighted Voronoi — power-diagram — cell lookup of
/// Kantor–Lotker–Parter–Peleg, which under uniform power names the
/// nearest station (Observation 2.2). Each query finds it with the
/// kd-tree's best-first branch-and-bound over per-subtree
/// `(bbox, max power)` aggregates ([`KdTree::strongest_mapped`]), then
/// runs a single interference sum. Exact for all `β` (for `β ≤ 1` the
/// strongest heard station is the strongest overall, by the same
/// monotonicity as [`SinrEvaluator`]).
///
/// The candidate interference sum rides the vectorized lanes of
/// [`crate::simd`] (the same runtime kernel selection as
/// [`SimdScan`](crate::simd::SimdScan), minus the argmax bookkeeping the
/// kd-tree dispatch makes redundant), so this backend answers
/// bit-identically to a `SimdScan` with the same kernel: both match the
/// scalar ground truth everywhere except within rounding tolerance of a
/// `SINR = β` decision boundary.
///
/// Under [`QueryEngine::apply`] the kd-tree is maintained through
/// tombstones and an overflow list with a rebuild threshold (see
/// `DynamicTree`); power deltas re-weight the index in place.
#[derive(Debug, Clone)]
pub struct VoronoiAssisted {
    eval: SinrEvaluator,
    /// The weighted proximity index; never dropped.
    tree: DynamicTree,
    /// The vectorized kernel for the candidate interference sum.
    kernel: SimdKernel,
}

impl VoronoiAssisted {
    /// Builds the backend: `O(n log n)` for the kd-tree.
    pub fn new(net: &Network) -> Self {
        let eval = SinrEvaluator::new(net);
        let powers = eval.soa().2.to_vec();
        let tree = DynamicTree::build(net.positions().to_vec(), powers);
        VoronoiAssisted {
            eval,
            tree,
            kernel: SimdKernel::detect(),
        }
    }

    /// The underlying evaluator.
    pub fn evaluator(&self) -> &SinrEvaluator {
        &self.eval
    }

    /// The SIMD kernel the candidate interference sum resolved to.
    pub fn kernel(&self) -> SimdKernel {
        self.kernel
    }
}

impl exact::Backend for VoronoiAssisted {
    fn eval(&self) -> &SinrEvaluator {
        &self.eval
    }

    fn eval_mut(&mut self) -> &mut SinrEvaluator {
        &mut self.eval
    }

    fn scan_kernel(&self) -> SimdKernel {
        self.kernel
    }

    /// The exact scalar scan. Non-identity channel trials scale the
    /// powers per trial, which the tree's baked weights do not track,
    /// so the per-trial fallback cannot walk the tree.
    #[inline]
    fn full_scan(&self, ev: &SinrEvaluator, p: Point) -> Located {
        ev.locate_scalar(p)
    }

    /// The strongest-station walk plus one candidate interference sum.
    /// The walk and the scan kernels' argmax maximise the same
    /// per-station energies with the same smallest-index tie rule, so
    /// the tiled executor and the cell certificates, which certify
    /// under [`Select::MaxEnergy`](crate::tile::Select::MaxEnergy),
    /// name the station this walk names.
    #[inline]
    fn serial(&self, p: Point) -> Located {
        let (cand, d2, _) = self.eval.with_kernel(|_, k| match k {
            DynKernel::Square(kk) => self.tree.strongest(p, |d2| kk.attenuation(d2)),
            DynKernel::General(kk) => self.tree.strongest(p, |d2| kk.attenuation(d2)),
        });
        if d2 == 0.0 {
            // At a station's position: reception by the `{sᵢ}` clause.
            // The walk breaks co-location ties toward the smallest index
            // (all co-located stations tie at infinite strength),
            // matching the scalar ground truth.
            return Located::Reception(StationId(cand));
        }
        self.eval.decide_candidate(
            cand,
            crate::simd::candidate_scan(&self.eval, self.kernel, cand, p),
        )
    }

    fn apply_delta(&mut self, delta: &NetworkDelta) -> Result<(), SyncError> {
        self.eval.apply(delta)?;
        // The weighted index absorbs every delta kind; power changes
        // are re-weights.
        match delta.op() {
            DeltaOp::Add {
                position, power, ..
            } => self.tree.add(*position, *power),
            DeltaOp::Remove { id, last_index, .. } => self.tree.remove(id.0, *last_index),
            DeltaOp::Move { id, to, .. } => {
                let power = self.eval.soa().2[id.0];
                self.tree.relocate(id.0, *to, power);
            }
            DeltaOp::SetPower { id, to, .. } => self.tree.set_power(id.0, *to),
        }
        if self.tree.should_rebuild() {
            self.tree = DynamicTree::build(self.eval.position_points(), self.eval.soa().2.to_vec());
        }
        Ok(())
    }

    fn resync(&mut self, net: &Network) {
        *self = VoronoiAssisted::new(net);
    }
}

/// A backend chosen at runtime: any [`QueryEngine`] behind one owned,
/// object-safe handle.
///
/// The concrete backends are distinct types (deliberately — batch hot
/// loops monomorphize over them), which is the wrong shape for callers
/// that pick a backend from a config value, a CLI flag, or a network
/// client's `Bind` frame (`sinr-server`). `BoxedEngine` erases the type
/// while keeping the whole [`QueryEngine`] contract, including the
/// dynamic path (`apply`/`sync`), and remembers a stable backend name
/// for logs and wire responses.
///
/// Constructors cover this crate's backends; [`BoxedEngine::new`] wraps
/// any other implementation (e.g. the Theorem-3 `PointLocator` of
/// `sinr-pointloc`).
///
/// # Examples
///
/// ```
/// use sinr_core::engine::{BoxedEngine, QueryEngine};
/// use sinr_core::Network;
/// use sinr_geometry::Point;
///
/// let net = Network::uniform(
///     vec![Point::new(0.0, 0.0), Point::new(6.0, 0.0)],
///     0.0,
///     2.0,
/// ).unwrap();
/// let engine = match "simd_scan" {
///     "exact_scan" => BoxedEngine::exact_scan(&net),
///     "simd_scan" => BoxedEngine::simd_scan(&net),
///     _ => BoxedEngine::voronoi_assisted(&net),
/// };
/// assert_eq!(engine.backend_name(), "simd_scan");
/// assert!(engine.locate(Point::new(0.5, 0.0)).station().is_some());
/// ```
pub struct BoxedEngine {
    inner: Box<dyn CloneableEngine>,
    backend: &'static str,
}

/// Object-safe clone support for the erased engine: a blanket impl
/// covers every cloneable, thread-safe [`QueryEngine`], so
/// [`BoxedEngine`] itself can be [`Clone`] + [`Sync`] — the shape
/// snapshot publication ([`crate::snapshot`]) needs (share a frozen
/// engine behind an `Arc`, clone it while a reader still holds it).
trait CloneableEngine: QueryEngine + Send + Sync {
    fn boxed_clone(&self) -> Box<dyn CloneableEngine>;
}

impl<E: QueryEngine + Clone + Send + Sync + 'static> CloneableEngine for E {
    fn boxed_clone(&self) -> Box<dyn CloneableEngine> {
        Box::new(self.clone())
    }
}

impl Clone for BoxedEngine {
    fn clone(&self) -> Self {
        BoxedEngine {
            inner: self.inner.boxed_clone(),
            backend: self.backend,
        }
    }
}

impl std::fmt::Debug for BoxedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoxedEngine")
            .field("backend", &self.backend)
            .field("revision", &self.inner.revision())
            .finish()
    }
}

impl BoxedEngine {
    /// Wraps any engine under the given stable backend name. The engine
    /// must be `Clone + Send + Sync` so the erased handle stays
    /// cloneable and shareable (every shipped backend is).
    pub fn new<E: QueryEngine + Clone + Send + Sync + 'static>(
        backend: &'static str,
        engine: E,
    ) -> Self {
        BoxedEngine {
            inner: Box::new(engine),
            backend,
        }
    }

    /// An [`ExactScan`] behind the erased handle (`"exact_scan"`).
    pub fn exact_scan(net: &Network) -> Self {
        BoxedEngine::new("exact_scan", ExactScan::new(net))
    }

    /// A [`SimdScan`](crate::simd::SimdScan) behind the erased handle
    /// (`"simd_scan"`).
    pub fn simd_scan(net: &Network) -> Self {
        BoxedEngine::new("simd_scan", crate::simd::SimdScan::new(net))
    }

    /// A [`VoronoiAssisted`] behind the erased handle
    /// (`"voronoi_assisted"`).
    pub fn voronoi_assisted(net: &Network) -> Self {
        BoxedEngine::new("voronoi_assisted", VoronoiAssisted::new(net))
    }

    /// The stable name of the wrapped backend.
    pub fn backend_name(&self) -> &'static str {
        self.backend
    }
}

impl QueryEngine for BoxedEngine {
    fn locate(&self, p: Point) -> Located {
        self.inner.locate(p)
    }

    fn locate_batch(&self, points: &[Point], out: &mut [Located]) {
        self.inner.locate_batch(points, out);
    }

    fn sinr_batch(&self, i: StationId, points: &[Point], out: &mut [f64]) {
        self.inner.sinr_batch(i, points, out);
    }

    fn sinr_bounds_cell(
        &self,
        min: Point,
        max: Point,
        parent: Option<&crate::tile::CellCert>,
    ) -> Option<crate::tile::CellCert> {
        self.inner.sinr_bounds_cell(min, max, parent)
    }

    fn locate_in_cell(
        &self,
        cert: &crate::tile::CellCert,
        points: &[Point],
        out: &mut [Option<Located>],
    ) -> bool {
        self.inner.locate_in_cell(cert, points, out)
    }

    fn freshness(&self) -> Result<(), LocateError> {
        self.inner.freshness()
    }

    fn reception_probability_batch(
        &self,
        model: &ChannelModel,
        mc: McConfig,
        points: &[Point],
        out: &mut [f64],
    ) -> Result<(), ChannelError> {
        self.inner
            .reception_probability_batch(model, mc, points, out)
    }

    fn sinr_quantiles_batch(
        &self,
        model: &ChannelModel,
        mc: McConfig,
        i: StationId,
        points: &[Point],
        quantiles: &[f64],
        out: &mut [f64],
    ) -> Result<(), ChannelError> {
        self.inner
            .sinr_quantiles_batch(model, mc, i, points, quantiles, out)
    }

    fn revision(&self) -> u64 {
        self.inner.revision()
    }

    fn apply(&mut self, delta: &NetworkDelta) -> Result<(), SyncError> {
        self.inner.apply(delta)
    }

    fn sync(&mut self, net: &Network) -> Result<(), SyncError> {
        self.inner.sync(net)
    }

    fn freeze(&mut self) {
        self.inner.freeze();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinr;

    fn nets() -> Vec<Network> {
        vec![
            // Uniform, β > 1, no noise.
            Network::uniform(
                vec![
                    Point::new(0.0, 0.0),
                    Point::new(4.0, 0.0),
                    Point::new(1.0, 3.0),
                ],
                0.0,
                2.0,
            )
            .unwrap(),
            // Uniform, β < 1, noisy.
            Network::uniform(vec![Point::new(-2.0, 0.0), Point::new(2.0, 0.0)], 0.05, 0.4).unwrap(),
            // Non-uniform power.
            Network::builder()
                .station_with_power(Point::new(0.0, 0.0), 4.0)
                .station(Point::new(3.0, 0.0))
                .station_with_power(Point::new(0.0, 5.0), 0.5)
                .background_noise(0.01)
                .threshold(1.5)
                .build()
                .unwrap(),
            // α = 4.
            Network::builder()
                .station(Point::new(0.0, 0.0))
                .station(Point::new(4.0, 1.0))
                .path_loss(4.0)
                .threshold(2.0)
                .build()
                .unwrap(),
            // Co-located pair plus a third station.
            Network::uniform(
                vec![Point::ORIGIN, Point::ORIGIN, Point::new(3.0, 0.0)],
                0.0,
                2.0,
            )
            .unwrap(),
        ]
    }

    fn grid_points(half: f64, steps: i32) -> Vec<Point> {
        let mut pts = Vec::new();
        for a in -steps..=steps {
            for b in -steps..=steps {
                pts.push(Point::new(
                    a as f64 * half / steps as f64,
                    b as f64 * half / steps as f64,
                ));
            }
        }
        pts
    }

    #[test]
    fn exact_scan_matches_scalar_ground_truth() {
        for net in nets() {
            let engine = ExactScan::new(&net);
            for p in grid_points(6.0, 25) {
                let expected = sinr::heard_at(&net, p);
                assert_eq!(
                    engine.locate(p).station(),
                    expected,
                    "ExactScan disagrees at {p} in {net}"
                );
            }
        }
    }

    #[test]
    fn voronoi_assisted_matches_scalar_ground_truth() {
        for net in nets() {
            let engine = VoronoiAssisted::new(&net);
            for p in grid_points(6.0, 25) {
                let expected = sinr::heard_at(&net, p);
                let got = engine.locate(p).station();
                if got != expected {
                    // The candidate sum runs on the SIMD lanes, so (like
                    // SimdScan) only genuine SINR = β boundary rounding
                    // may differ from the scalar summation order.
                    let boundary = net.ids().any(|i| {
                        let s = sinr::sinr(&net, i, p);
                        s.is_finite() && (s - net.beta()).abs() <= 1e-9 * (1.0 + net.beta())
                    });
                    assert!(
                        boundary,
                        "VoronoiAssisted disagrees at {p} in {net}: {got:?} vs {expected:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn station_positions_locate_as_reception() {
        for net in nets() {
            for engine in [
                Box::new(ExactScan::new(&net)) as Box<dyn QueryEngine>,
                Box::new(VoronoiAssisted::new(&net)),
            ] {
                for i in net.ids() {
                    let got = engine.locate(net.position(i));
                    match got {
                        Located::Reception(_) => {}
                        other => panic!("station {i} of {net}: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn batch_agrees_with_scalar_calls_and_parallelizes() {
        let net = Network::uniform(
            vec![
                Point::new(0.0, 0.0),
                Point::new(4.0, 0.0),
                Point::new(1.0, 3.0),
            ],
            0.01,
            1.5,
        )
        .unwrap();
        let engine = VoronoiAssisted::new(&net);
        // Above PARALLEL_BATCH_THRESHOLD so the parallel path runs.
        let points = grid_points(5.0, 40);
        assert!(points.len() > PARALLEL_BATCH_THRESHOLD);
        let mut batch = vec![Located::Silent; points.len()];
        engine.locate_batch(&points, &mut batch);
        for (p, got) in points.iter().zip(&batch) {
            assert_eq!(*got, engine.locate(*p), "batch/scalar mismatch at {p}");
        }
    }

    #[test]
    fn sinr_batch_matches_scalar_sinr() {
        for net in nets() {
            let eval = SinrEvaluator::new(&net);
            let points = grid_points(5.0, 12);
            let mut out = vec![0.0; points.len()];
            for i in net.ids() {
                eval.sinr_batch(i, &points, &mut out);
                for (p, got) in points.iter().zip(&out) {
                    let expected = sinr::sinr(&net, i, *p);
                    if expected.is_infinite() {
                        assert!(got.is_infinite(), "{i} at {p}: {got} vs ∞");
                    } else {
                        assert!(
                            (got - expected).abs() <= 1e-9 * (1.0 + expected.abs()),
                            "{i} at {p}: {got} vs {expected}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn evaluator_accessors() {
        let net = Network::builder()
            .station_with_power(Point::new(1.0, 2.0), 3.0)
            .station(Point::new(-1.0, 0.5))
            .background_noise(0.07)
            .threshold(2.5)
            .path_loss(3.0)
            .build()
            .unwrap();
        let eval = SinrEvaluator::new(&net);
        assert_eq!(eval.len(), 2);
        assert!(!eval.is_empty());
        assert_eq!(eval.beta(), 2.5);
        assert_eq!(eval.noise(), 0.07);
        assert_eq!(eval.alpha(), 3.0);
        assert!(!eval.is_uniform_power());
        assert_eq!(eval.position(StationId(0)), Point::new(1.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "batch_map")]
    fn mismatched_batch_lengths_panic() {
        let net = Network::uniform(vec![Point::ORIGIN, Point::new(1.0, 0.0)], 0.0, 2.0).unwrap();
        let engine = ExactScan::new(&net);
        let mut out = vec![Located::Silent; 3];
        engine.locate_batch(&[Point::ORIGIN], &mut out);
    }

    #[test]
    fn batch_map_parallel_and_serial_agree() {
        let inputs: Vec<u64> = (0..10_000).collect();
        let mut out = vec![0u64; inputs.len()];
        batch_map(&inputs, &mut out, |x| x * 3 + 1);
        assert!(inputs.iter().zip(&out).all(|(x, y)| *y == x * 3 + 1));
        let small: Vec<u64> = (0..7).collect();
        let mut small_out = vec![0u64; 7];
        batch_map(&small, &mut small_out, |x| x + 1);
        assert_eq!(small_out, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn work_stealing_matches_serial_loop() {
        // Sizes straddling the threshold and the tile size, including a
        // non-multiple-of-tile length.
        for len in [
            PARALLEL_BATCH_THRESHOLD - 1,
            PARALLEL_BATCH_THRESHOLD,
            PARALLEL_BATCH_THRESHOLD + 1,
            3 * BATCH_TILE + 17,
            25_000,
        ] {
            let inputs: Vec<u64> = (0..len as u64).collect();
            let mut stolen = vec![0u64; len];
            batch_map(&inputs, &mut stolen, |x| x.wrapping_mul(0x9E37_79B9) ^ 7);
            let serial: Vec<u64> = inputs
                .iter()
                .map(|x| x.wrapping_mul(0x9E37_79B9) ^ 7)
                .collect();
            assert_eq!(
                stolen, serial,
                "scheduler disagrees with a serial loop at len {len}"
            );
        }
    }

    #[test]
    fn batch_map_drops_previous_values_exactly_once() {
        // The work-stealing writer overwrites initialized slots; each old
        // value must be dropped exactly once and each new value kept.
        let len = PARALLEL_BATCH_THRESHOLD + 123;
        let inputs: Vec<u64> = (0..len as u64).collect();
        let mut out: Vec<std::sync::Arc<u64>> = (0..len as u64).map(std::sync::Arc::new).collect();
        let probes: Vec<std::sync::Arc<u64>> = out.clone();
        batch_map(&inputs, &mut out, |x| std::sync::Arc::new(x + 1));
        for (x, slot) in inputs.iter().zip(&out) {
            assert_eq!(**slot, x + 1);
        }
        // The originals are only referenced by `probes` now.
        assert!(probes.iter().all(|p| std::sync::Arc::strong_count(p) == 1));
    }
}
