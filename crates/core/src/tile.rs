//! Spatially-coherent tiled batch execution.
//!
//! The per-point batch path treats a 100k-point `locate_batch` as 100k
//! independent queries: every point pays a full station scan (or its own
//! kd-tree walk). But SINR diagrams have exploitable spatial structure —
//! reception zones are fat and convex (Theorem 1 / Theorem 4.2), so
//! *nearby query points share almost all of their per-point work*. This
//! module is the batch-level amortization of that observation (the
//! regime of Aronov & Katz's batched point location): sort the batch
//! into Morton-ordered spatial tiles, compute a **shared, certified
//! candidate set** once per tile, and run the SIMD kernels over short
//! contiguous candidate columns instead of the whole network.
//!
//! ## The pipeline
//!
//! 1. **Morton ordering** — each query point is mapped to a 16-bit ×
//!    16-bit grid cell over the batch's bounding box and the cells are
//!    interleaved into a Z-order key; a stable radix sort by that key
//!    yields an index *permutation* (the input and output slices are
//!    never reordered — answers land at their original positions, so the
//!    output is positionally identical to the per-point path).
//! 2. **Per-tile candidate pruning** — consecutive runs of
//!    [`TileConfig::tile_points`] sorted points form a tile. One `O(n)`
//!    pass over the station columns computes each station's certified
//!    energy envelope over the tile's bounding box
//!    ([`crate::bounds::energy_envelope`]); stations whose envelope top
//!    is *provably dominated* (below the best envelope bottom `M`) can
//!    never be the strongest station for any point of the tile and are
//!    dropped from the per-point scan. Their interference is not
//!    dropped — it is carried as a certified residual interval
//!    `[L_R, U_R]` (the sums of the pruned envelopes). A tile whose
//!    pruning keeps at least 7/8 of the
//!    stations runs the serial kernel instead (`SERIAL_KEEP_EIGHTHS`).
//! 3. **Certified per-point decision** — each point scans only the
//!    gathered candidate columns (through the same SIMD kernels as the
//!    full scans — AVX-512/AVX2/SSE2/portable). Per-station energies are
//!    bit-identical to the full scan's by kernel contract, so the argmax
//!    choice is *exact*; the same scan serves [`locate_in_cell`]'s
//!    certificate candidates. The reception test is then
//!    evaluated at both ends of the residual interval: if both ends
//!    agree, the decision is certified and emitted; if they disagree
//!    (the point sits within the interval's width of the `SINR = β`
//!    boundary), the point **falls back to the backend's own serial
//!    kernel** — never an approximate answer.
//!
//! Steps 2 and 3 are one crate-private per-tile pass (`tile_box`,
//! `BoxEnvelope`, `Scratch::prune`, `Scratch::answer_tile`) with two
//! callers: [`locate_batch_tiled`], which envelopes every tile afresh,
//! and the Monte-Carlo executor behind
//! [`QueryEngine::reception_probability_batch`](crate::engine::QueryEngine::reception_probability_batch)
//! ([`crate::channel`]), which caches each tile's unit-power envelopes
//! once per batch and scales them by every trial's powers.
//!
//! ## The correctness contract
//!
//! Answers are **bit-identical** to the serial per-point path of the
//! same backend, for every input ordering — pinned by the
//! permutation-invariance and tiled-vs-serial differential suites. The
//! certificates are one-sided with explicit rounding margins
//! ([`BOUND_MARGIN`], [`TOTAL_MARGIN`]), so floating-point looseness can
//! only ever cause a fallback (a perf event), never a changed answer.
//! Tiles whose points are not all finite fall back wholesale.
//!
//! Tiles are the work-stealing scheduler's unit (the same
//! [`BATCH_TILE`]-point granularity as the
//! per-point scheduler), so skewed tiles rebalance across cores exactly
//! like skewed points did.

use crate::bounds::{dist2_range_to_box, energy_envelope};
use crate::engine::steal::OutputSlots;
use crate::engine::{
    GeneralAlpha, InverseSquare, Located, SinrEvaluator, BATCH_TILE, PARALLEL_BATCH_THRESHOLD,
};
use crate::simd::{self, SimdKernel};
use crate::station::StationId;
use sinr_algebra::KahanSum;
use sinr_geometry::Point;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Relative widening applied to each station's per-tile energy envelope
/// so it certifiably brackets the kernels' rounded energies (worst case
/// a few ulps ≈ `1e-15`; four orders of magnitude of slack).
pub const BOUND_MARGIN: f64 = 1e-12;

/// Relative widening applied to the total-energy interval before the
/// certified reception test, absorbing every summation-order difference
/// between kernels (compensated or plain, any lane count, any station
/// count the engine supports). Points whose reception margin is tighter
/// than this fall back to the serial kernel.
pub const TOTAL_MARGIN: f64 = 1e-8;

/// Below this many stations the pruned tile path is not engaged by the
/// default config: the full scan is already a few dozen nanoseconds, so
/// Morton sorting and per-tile envelopes would cost more than they save.
pub const TILED_MIN_STATIONS: usize = 128;

/// A tile whose pruning keeps at least this many eighths of the
/// stations runs the serial kernel: the gather and the certification
/// cannot pay for themselves when pruning drops less than ~1/8.
const SERIAL_KEEP_EIGHTHS: usize = 7;

/// Tuning knobs of the tiled executor.
///
/// The defaults are the shared batch granularity
/// ([`BATCH_TILE`] points per tile — one knob
/// for both the work-stealing scheduler and the spatial tiler) and the
/// thresholds the engines ship with; benches and differential tests
/// construct custom configs to sweep the tile size or force the tiled
/// path onto small inputs.
#[derive(Debug, Clone, Copy)]
pub struct TileConfig {
    /// Query points per spatial tile (and per stolen work unit).
    pub tile_points: usize,
    /// Minimum station count for the pruned path to pay for itself.
    pub min_stations: usize,
    /// Minimum batch length; shorter batches stay on the serial loop.
    pub min_points: usize,
}

impl Default for TileConfig {
    fn default() -> Self {
        TileConfig {
            tile_points: BATCH_TILE,
            min_stations: TILED_MIN_STATIONS,
            min_points: PARALLEL_BATCH_THRESHOLD,
        }
    }
}

impl TileConfig {
    /// True when a batch of `n_points` against `n_stations` should take
    /// the pruned tiled path under this config.
    pub fn engages(&self, n_points: usize, n_stations: usize) -> bool {
        n_points >= self.min_points && n_stations >= self.min_stations
    }
}

/// The candidate rule of the caller's `fallback`. Both rules run the
/// same SIMD argmax scan over the candidates; `Select` only decides
/// whether a certified reception may be answered from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Select {
    /// Maximum-energy station (first index on exact energy ties): the
    /// rule of every exact backend's serial path, exact for every
    /// network. The station envelopes the executor prunes with are
    /// per-station and power-aware, so pruning stays certified under
    /// any power assignment.
    MaxEnergy,
    /// Nearest station (first index on exact squared-distance ties), for
    /// uniform power only. With `β ≥ 1` a certified reception names the
    /// nearest station (a rounded-energy near-tie fails the certified
    /// test); with `β < 1` every certified reception falls back.
    /// Certified silence is answered as under `MaxEnergy`. A max-energy
    /// `fallback` stays exact too, since the guard only sends more
    /// points to it.
    Nearest,
}

/// Aggregate observability of one tiled run (for benches and tests —
/// the counters say nothing about answers, which are always exact).
#[derive(Debug, Default, Clone, Copy)]
pub struct TileStats {
    /// Total query points.
    pub points: u64,
    /// Tiles processed.
    pub tiles: u64,
    /// Tiles that ran the pruned candidate path (the rest fell back
    /// wholesale: non-finite points, or pruning could not drop enough
    /// stations to pay for the gather).
    pub pruned_tiles: u64,
    /// Σ |candidate set| over pruned tiles (divide by `pruned_tiles`
    /// for the mean candidate count the per-point scans actually ran).
    pub candidate_stations: u64,
    /// Points whose certified decision was inconclusive and re-ran the
    /// backend's serial kernel.
    pub fallback_points: u64,
}

impl TileStats {
    /// Mean candidate-set size over the pruned tiles (`None` when no
    /// tile took the pruned path).
    pub fn mean_candidates(&self) -> Option<f64> {
        (self.pruned_tiles > 0).then(|| self.candidate_stations as f64 / self.pruned_tiles as f64)
    }
}

/// Spreads the low 16 bits of `v` to the even bit positions.
fn spread16(v: u32) -> u32 {
    let mut x = v & 0xFFFF;
    x = (x | (x << 8)) & 0x00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333;
    x = (x | (x << 1)) & 0x5555_5555;
    x
}

/// The Morton (Z-order) permutation of `points`: indices sorted by the
/// interleaved 16+16-bit grid cell over the batch bounding box, ties
/// (and non-finite points, which all map to the max key) in original
/// order — the sort is a stable two-pass radix, so the permutation is
/// deterministic for any input.
pub fn morton_order(points: &[Point]) -> Vec<u32> {
    assert!(
        points.len() <= u32::MAX as usize,
        "batches beyond u32::MAX points are unsupported"
    );
    let mut min_x = f64::INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for p in points {
        if p.x.is_finite() && p.y.is_finite() {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
    }
    let scale_x = grid_scale(min_x, max_x);
    let scale_y = grid_scale(min_y, max_y);
    let mut keyed: Vec<(u32, u32)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let key = if p.x.is_finite() && p.y.is_finite() {
                // `as u32` saturates, so the top grid row stays in range.
                let gx = ((p.x - min_x) * scale_x) as u32;
                let gy = ((p.y - min_y) * scale_y) as u32;
                spread16(gx.min(0xFFFF)) | (spread16(gy.min(0xFFFF)) << 1)
            } else {
                u32::MAX
            };
            (key, i as u32)
        })
        .collect();
    // Stable LSD radix sort: O(n), and stability gives the
    // deterministic original-order tie rule for free. The digit width
    // follows the batch size — two 16-bit passes amortize their 64k
    // histograms only on large batches; smaller batches take four
    // 8-bit passes so a threshold-sized call does not pay ~1 MiB of
    // histogram zeroing to sort a few thousand keys.
    let (digit_bits, shifts): (u32, &[u32]) = if keyed.len() >= 1 << 15 {
        (16, &[0, 16])
    } else {
        (8, &[0, 8, 16, 24])
    };
    let mask = (1u32 << digit_bits) - 1;
    let mut aux = vec![(0u32, 0u32); keyed.len()];
    let mut counts = vec![0usize; 1 << digit_bits];
    for &shift in shifts {
        counts.iter_mut().for_each(|c| *c = 0);
        for &(k, _) in &keyed {
            counts[((k >> shift) & mask) as usize] += 1;
        }
        let mut pos = 0usize;
        for c in counts.iter_mut() {
            let n = *c;
            *c = pos;
            pos += n;
        }
        for &(k, i) in &keyed {
            let d = ((k >> shift) & mask) as usize;
            aux[counts[d]] = (k, i);
            counts[d] += 1;
        }
        std::mem::swap(&mut keyed, &mut aux);
    }
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Cells-per-unit for one axis of the Morton grid (0 collapses the axis
/// when the extent is degenerate or not finite).
fn grid_scale(min: f64, max: f64) -> f64 {
    let width = max - min;
    if width > 0.0 && width.is_finite() {
        65535.0 / width
    } else {
        0.0
    }
}

/// Runs `f(tile_index, &mut scratch)` over `0..num_tiles`, work-stolen
/// across the available cores through one atomic counter (inline when
/// one worker suffices). Each worker owns one `S` scratch value for the
/// whole run, so per-tile allocations amortize away; the scratch values
/// are returned (one per worker, in no particular order) so workers can
/// also accumulate results in them.
///
/// This is the **one** work-stealing scheduler of the workspace:
/// [`crate::engine::batch_map`]'s parallel branch, [`batch_map_morton`],
/// [`locate_batch_tiled`], the Monte-Carlo executor of
/// [`crate::channel`] (trials as the units) and the quadtree refinement
/// of `sinr-diagram` run through it,
/// so the worker-count clamp and the `fetch_add` claim protocol (which
/// the `OutputSlots` soundness argument leans on) exist in exactly one
/// place. Every tile index is claimed exactly once.
pub fn steal_tiles<S, F>(num_tiles: usize, f: F) -> Vec<S>
where
    S: Default + Send,
    F: Fn(usize, &mut S) + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = threads.min(num_tiles);
    if workers <= 1 {
        let mut scratch = S::default();
        for t in 0..num_tiles {
            f(t, &mut scratch);
        }
        return vec![scratch];
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = S::default();
                    loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        if t >= num_tiles {
                            break;
                        }
                        f(t, &mut scratch);
                    }
                    scratch
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Morton-permuted tile scheduling for an arbitrary per-point function:
/// same answers as a serial loop of `f` (it *is* `f`, per point — only
/// the visit order and the thread placement change), with spatially
/// coherent tiles as the stealable work units. This is the
/// locality-only flavour of the executor — the Theorem-3 `PointLocator`
/// routes `locate_batch` through it so queries dispatching to the same
/// zone grid are processed together, and `sinr_batch` uses it for its
/// batch path.
///
/// # Panics
///
/// Panics if `points` and `out` have different lengths.
pub fn batch_map_morton<O, F>(points: &[Point], out: &mut [O], cfg: &TileConfig, f: F)
where
    O: Send,
    F: Fn(Point) -> O + Sync,
{
    assert_eq!(
        points.len(),
        out.len(),
        "batch_map_morton: {} points but {} output slots",
        points.len(),
        out.len()
    );
    let tile = cfg.tile_points.max(1);
    if points.len() < cfg.min_points {
        for (p, slot) in points.iter().zip(out.iter_mut()) {
            *slot = f(*p);
        }
        return;
    }
    let order = morton_order(points);
    let slots = OutputSlots::new(out);
    let num_tiles = order.len().div_ceil(tile);
    steal_tiles::<(), _>(num_tiles, |t, _scratch| {
        let idxs = &order[t * tile..((t + 1) * tile).min(order.len())];
        for &i in idxs {
            // The Morton order is a permutation, so tiles own disjoint
            // original indices and every slot is written exactly once.
            slots.write(i as usize, f(points[i as usize]));
        }
    });
}

/// Gathered candidate stations as SoA columns, ascending by station
/// index (the argmax first-index tie rule rides on this) — the input of
/// the one per-point scan, [`Decider::certify`].
#[derive(Default)]
struct Candidates {
    xs: Vec<f64>,
    ys: Vec<f64>,
    ws: Vec<f64>,
    idx: Vec<u32>,
}

impl Candidates {
    fn with_capacity(n: usize) -> Self {
        Candidates {
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
            ws: Vec::with_capacity(n),
            idx: Vec::with_capacity(n),
        }
    }

    fn clear(&mut self) {
        self.xs.clear();
        self.ys.clear();
        self.ws.clear();
        self.idx.clear();
    }

    /// Appends station `j` of the evaluator's SoA columns.
    fn push(&mut self, (xs, ys, ws): (&[f64], &[f64], &[f64]), j: usize) {
        self.xs.push(xs[j]);
        self.ys.push(ys[j]);
        self.ws.push(ws[j]);
        self.idx.push(j as u32);
    }
}

/// The bounding box `(min, max)` of the tile's points `points[idxs]`,
/// or `None` when one of them is not finite — such a point poisons
/// every envelope, so the tile runs the serial kernel wholesale.
pub(crate) fn tile_box(points: &[Point], idxs: &[u32]) -> Option<(Point, Point)> {
    let mut min = Point::new(f64::INFINITY, f64::INFINITY);
    let mut max = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
    for &i in idxs {
        let p = points[i as usize];
        if !(p.x.is_finite() && p.y.is_finite()) {
            return None;
        }
        min = Point::new(min.x.min(p.x), min.y.min(p.y));
        max = Point::new(max.x.max(p.x), max.y.max(p.y));
    }
    Some((min, max))
}

/// Certified per-station energy envelopes over one box: the
/// [`energy_envelope`] of each station's squared-distance range to the
/// box, widened by [`BOUND_MARGIN`], with the `α = 2` fast path.
#[derive(Clone, Copy)]
pub(crate) struct BoxEnvelope {
    min: Point,
    max: Point,
    alpha: f64,
    general: GeneralAlpha,
}

impl BoxEnvelope {
    pub(crate) fn new(alpha: f64, (min, max): (Point, Point)) -> Self {
        BoxEnvelope {
            min,
            max,
            alpha,
            general: GeneralAlpha::new(alpha),
        }
    }

    /// The envelope `(lo, hi)` of a station at `(x, y)` with power `w`.
    #[inline]
    pub(crate) fn station(&self, x: f64, y: f64, w: f64) -> (f64, f64) {
        let (d_min, d_max) =
            dist2_range_to_box(self.min.x, self.min.y, self.max.x, self.max.y, x, y);
        if self.alpha == 2.0 {
            energy_envelope(InverseSquare, w, d_min, d_max, BOUND_MARGIN)
        } else {
            energy_envelope(self.general, w, d_min, d_max, BOUND_MARGIN)
        }
    }
}

/// Widens a NaN envelope (`∞ · 0` for a zero-power station inside the
/// box, or non-finite station coordinates) to the trivial `(0, ∞)`: the
/// station can then never be pruned, frozen or certified.
#[inline]
fn widen_nan((lo, hi): (f64, f64)) -> (f64, f64) {
    if lo.is_nan() || hi.is_nan() {
        (0.0, f64::INFINITY)
    } else {
        (lo, hi)
    }
}

/// Per-worker scratch of the box-pruned executors: the per-station
/// envelope columns and the gathered candidates, reused across tiles.
#[derive(Default)]
pub(crate) struct Scratch {
    lb: Vec<f64>,
    ub: Vec<f64>,
    cands: Candidates,
}

impl Scratch {
    /// Prunes one tile: `envelope(j)` is station `j`'s certified energy
    /// envelope over the tile box (NaN widens to `(0, ∞)`). Stations
    /// whose top is below the best bottom `M` are provably never the
    /// strongest in the tile; the rest are gathered from `soa` (the
    /// evaluator's columns the kernels scan) as the candidates. Returns
    /// the pruned stations' residual interval `(resid_lo, resid_hi)`, or
    /// `None` — run the serial kernel — when at least
    /// [`SERIAL_KEEP_EIGHTHS`] eighths of the stations survive.
    pub(crate) fn prune(
        &mut self,
        soa: (&[f64], &[f64], &[f64]),
        envelope: impl Fn(usize) -> (f64, f64),
    ) -> Option<(f64, f64)> {
        let n = soa.0.len();
        self.lb.clear();
        self.ub.clear();
        let mut m = f64::NEG_INFINITY;
        for j in 0..n {
            let (lo, hi) = widen_nan(envelope(j));
            self.lb.push(lo);
            self.ub.push(hi);
            if lo > m {
                m = lo;
            }
        }
        self.cands.clear();
        let mut resid_lo = 0.0f64;
        let mut resid_hi = 0.0f64;
        for j in 0..n {
            if self.ub[j] >= m {
                self.cands.push(soa, j);
            } else {
                resid_lo += self.lb[j];
                resid_hi += self.ub[j];
            }
        }
        (self.cands.idx.len() * 8 < n * SERIAL_KEEP_EIGHTHS).then_some((resid_lo, resid_hi))
    }

    /// Answers every point `points[i]`, `i ∈ idxs`, of one tile through
    /// `emit(i, answer)`: with `resid` (the tile's [`Scratch::prune`]
    /// result) by the certified decision over the gathered candidates,
    /// else — and wherever that decision is inconclusive — by
    /// `fallback`. Returns the number of inconclusive points.
    pub(crate) fn answer_tile(
        &self,
        decider: &Decider,
        resid: Option<(f64, f64)>,
        points: &[Point],
        idxs: &[u32],
        fallback: impl Fn(Point) -> Located,
        mut emit: impl FnMut(usize, Located),
    ) -> u64 {
        let mut inconclusive = 0u64;
        for &i in idxs {
            let p = points[i as usize];
            let answer = match resid {
                Some((lo, hi)) => decider.certify(&self.cands, p, lo, hi).unwrap_or_else(|| {
                    inconclusive += 1;
                    fallback(p)
                }),
                None => fallback(p),
            };
            emit(i as usize, answer);
        }
        inconclusive
    }
}

/// The reception test of [`SinrEvaluator::decide`] evaluated at an
/// assumed total energy — the exact expression shape of the serial
/// kernels, which is (weakly) anti-monotone in `total` under rounding,
/// making one-sided certification sound: reception at the interval's
/// top certifies reception at the kernel's true total, non-reception at
/// the bottom certifies silence.
#[inline]
fn receives_at_total(best_e: f64, total: f64, noise: f64, beta: f64) -> bool {
    let interference_plus_noise = (total - best_e) + noise;
    interference_plus_noise <= 0.0 || best_e >= beta * interference_plus_noise
}

/// The per-call constants of the one per-point certified decision: the
/// pinned scan kernel, the network's `α`, `N` and `β`, and whether a
/// certified reception may be answered at all (the `β < 1` guard of
/// [`Select::Nearest`]).
#[derive(Clone, Copy)]
pub(crate) struct Decider {
    kernel: SimdKernel,
    alpha: f64,
    noise: f64,
    beta: f64,
    receptions: bool,
}

impl Decider {
    pub(crate) fn new(eval: &SinrEvaluator, kernel: SimdKernel, select: Select) -> Self {
        debug_assert!(
            select == Select::MaxEnergy || eval.is_uniform_power(),
            "Select::Nearest requires uniform power (Observation 2.2)"
        );
        Decider {
            kernel,
            alpha: eval.alpha(),
            noise: eval.noise(),
            beta: eval.beta(),
            receptions: select == Select::MaxEnergy || eval.beta() >= 1.0,
        }
    }

    /// One certified point: a SIMD argmax scan of the candidate columns
    /// (per-station energies bit-identical to the full scan, so the
    /// argmax index is exact), then the reception test at both ends of
    /// the total-energy interval `[S_C + resid_lo, S_C + resid_hi]`
    /// widened by [`TOTAL_MARGIN`]. `None` when the ends disagree — the
    /// point sits within the interval's width of the `β` boundary — or
    /// when the `β < 1` guard declines a reception. Always inlined: its
    /// callers run it per point, and `locate_in_cell`'s short candidate
    /// lists make an out-of-line call a measurable share of its cost.
    #[inline(always)]
    fn certify(&self, c: &Candidates, p: Point, resid_lo: f64, resid_hi: f64) -> Option<Located> {
        let scan = match simd::scan_slices(self.kernel, self.alpha, &c.xs, &c.ys, &c.ws, p) {
            // Coincident stations always survive pruning (their envelope
            // top is ∞), so the first coincident candidate is the first
            // coincident station of the whole scan.
            Err(k) => return Some(Located::Reception(StationId(c.idx[k] as usize))),
            Ok(scan) => scan,
        };
        let hi = (scan.total + resid_hi) * (1.0 + TOTAL_MARGIN);
        let lo = (scan.total + resid_lo) * (1.0 - TOTAL_MARGIN);
        if receives_at_total(scan.best_energy, hi, self.noise, self.beta) {
            self.receptions
                .then(|| Located::Reception(StationId(c.idx[scan.best] as usize)))
        } else if !receives_at_total(scan.best_energy, lo, self.noise, self.beta) {
            Some(Located::Silent)
        } else {
            None
        }
    }
}

/// The tile-pruned batch executor behind
/// [`QueryEngine::locate_batch`](crate::engine::QueryEngine::locate_batch)
/// for the scan backends: Morton tiles, per-tile certified candidate
/// sets, SIMD candidate scans, certified decisions with serial-kernel
/// fallback (see the [module docs](self) for the pipeline and the
/// bit-identity contract).
///
/// `fallback` must be the *serial per-point kernel of the calling
/// backend* — it is consulted verbatim for non-finite tiles, unpruned
/// tiles and uncertifiable points, which is what makes the executor's
/// answers bit-identical to that backend's serial path. `kernel` drives
/// the candidate scans (any supported kernel yields identical answers;
/// backends pass their pinned kernel). Both selection rules run the same
/// argmax scan; `select` names the rule `fallback` follows (see
/// [`Select`]), and `Select::Nearest` additionally requires uniform
/// power (the Observation-2.2 precondition, the caller's contract).
///
/// Returns run statistics; answers are written into `out` at their
/// original positions.
///
/// # Panics
///
/// Panics if `points` and `out` have different lengths.
pub fn locate_batch_tiled<F>(
    eval: &SinrEvaluator,
    kernel: SimdKernel,
    select: Select,
    points: &[Point],
    out: &mut [Located],
    cfg: &TileConfig,
    fallback: F,
) -> TileStats
where
    F: Fn(Point) -> Located + Sync,
{
    assert_eq!(
        points.len(),
        out.len(),
        "locate_batch_tiled: {} points but {} output slots",
        points.len(),
        out.len()
    );
    let decider = Decider::new(eval, kernel, select);
    let tile = cfg.tile_points.max(1);
    let order = morton_order(points);
    let slots = OutputSlots::new(out);
    let num_tiles = order.len().div_ceil(tile);
    let soa = eval.soa();
    let (xs, ys, ws) = soa;
    let alpha = eval.alpha();
    let pruned_tiles = AtomicU64::new(0);
    let candidate_stations = AtomicU64::new(0);
    let fallback_points = AtomicU64::new(0);
    steal_tiles::<Scratch, _>(num_tiles, |t, scratch| {
        let idxs = &order[t * tile..((t + 1) * tile).min(order.len())];
        let resid = tile_box(points, idxs).and_then(|bbox| {
            let env = BoxEnvelope::new(alpha, bbox);
            scratch.prune(soa, |j| env.station(xs[j], ys[j], ws[j]))
        });
        if resid.is_some() {
            pruned_tiles.fetch_add(1, Ordering::Relaxed);
            candidate_stations.fetch_add(scratch.cands.idx.len() as u64, Ordering::Relaxed);
        }
        let inconclusive =
            scratch.answer_tile(&decider, resid, points, idxs, &fallback, |i, answer| {
                slots.write(i, answer)
            });
        if inconclusive > 0 {
            fallback_points.fetch_add(inconclusive, Ordering::Relaxed);
        }
    });
    TileStats {
        points: points.len() as u64,
        tiles: num_tiles as u64,
        pruned_tiles: pruned_tiles.into_inner(),
        candidate_stations: candidate_stations.into_inner(),
        fallback_points: fallback_points.into_inner(),
    }
}

// ---------------------------------------------------------------------
// Interval-certified cell evaluation
// ---------------------------------------------------------------------

/// Relative slack widening the leave-one-out interference sums of a
/// cell certificate. The sums are (at most) `n` compensated additions
/// plus the frozen residual's plain additions, so their relative rounding
/// is bounded by `n·ε ≈ 1e-12` at the engine's practical station
/// counts; `1e-11` dwarfs it while staying negligible against
/// [`TOTAL_MARGIN`].
const SUM_SLACK: f64 = 1e-11;

/// Relative envelope width below which a certified-silent station is
/// **frozen** into descendant certificates' residual sums instead of
/// being re-enveloped per descendant cell. Per-station widths
/// `hi ≤ lo·(1 + FREEZE_REL)` add up to an aggregate residual width of
/// at most `FREEZE_REL · I` over the frozen set, so descendants'
/// leave-one-out interference brackets widen by at most that *relative*
/// amount — only cells already within ~`FREEZE_REL` of the `β` boundary
/// can flip from resolved to [`CellDecision::Mixed`], and those sit
/// inside the boundary band the refinement subdivides anyway. This is
/// what makes a root-to-leaf quadtree refinement cost
/// `O(surviving candidates)` per cell instead of `O(n)`: a station at
/// distance `≳ 4/FREEZE_REL` cell radii freezes, so far stations drop
/// out after a few levels.
///
/// The value trades certificate cost against residual *width*: frozen
/// widths are paid by every descendant decision — including the
/// per-point certified path ([`locate_in_cell`]), whose hit rate near
/// the `β` boundary is set directly by the accumulated frozen width
/// (a point whose reception margin is smaller than the frozen residual
/// cannot be pinned and falls through to the backend's `O(n)` `locate`).
/// That uncertifiable band has a fixed width in the plane, so it spans
/// more pixels as the raster resolution grows; looser values make
/// certificates cheaper but widen the band that goes to the `O(n)`
/// fallback, which measures strictly worse on megapixel grids.
const FREEZE_REL: f64 = 0.05;

/// The uniform classification a [`CellCert`] proved for its whole cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellDecision {
    /// Every point of the cell locates as `Reception(i)` — the
    /// station's certified test passes everywhere in the cell *and*
    /// every other station is certified silent (which pins the argmax).
    Reception(StationId),
    /// Every point of the cell locates as `Silent`: every station's
    /// certified test fails everywhere in the cell.
    Silent,
    /// The certificate straddles a decision boundary (or the cell
    /// contains a station, or a bound degenerated): no uniform claim —
    /// subdivide or evaluate per point.
    Mixed,
}

/// Finite-part envelope totals over **all** stations of a cell, and the
/// counts of infinite envelope ends excluded from them.
#[derive(Debug, Clone, Copy)]
struct Totals {
    sum_lo: f64,
    sum_hi: f64,
    inf_lo: u32,
    inf_hi: u32,
}

impl Totals {
    /// Leave-one-out interference bracket for a station with energy
    /// envelope `(elo, ehi)`: totals minus the station's own ends, with
    /// infinity bookkeeping (an `∞` end elsewhere forces that side to
    /// `∞`) and [`SUM_SLACK`] widening against cancellation.
    fn leave_one_out(&self, elo: f64, ehi: f64) -> (f64, f64) {
        let inf_lo_others = self.inf_lo - u32::from(elo == f64::INFINITY);
        let lo = if inf_lo_others > 0 {
            f64::INFINITY
        } else {
            let own = if elo.is_finite() { elo } else { 0.0 };
            ((self.sum_lo - own) - SUM_SLACK * self.sum_lo).max(0.0)
        };
        let inf_hi_others = self.inf_hi - u32::from(ehi == f64::INFINITY);
        let hi = if inf_hi_others > 0 {
            f64::INFINITY
        } else {
            let own = if ehi.is_finite() { ehi } else { 0.0 };
            ((self.sum_hi - own) + SUM_SLACK * self.sum_hi).max(0.0)
        };
        (lo, hi)
    }
}

/// The certified uniform decision over one axis-aligned cell, with what
/// refining the cell needs: the surviving candidate stations and the
/// frozen residual `[frozen_lo, frozen_hi]` — the summed energy
/// envelopes of every station proved silent (with a tight envelope)
/// over this cell or an ancestor.
///
/// Certificates chain: passing one as the `parent` of
/// [`QueryEngine::sinr_bounds_cell`](crate::engine::QueryEngine::sinr_bounds_cell)
/// for a **contained** child cell re-envelopes only the parent's
/// surviving candidates, while stations the parent proved silent with
/// tight envelopes are carried in the frozen residual (their
/// ancestor-cell envelopes remain valid for any sub-cell). The
/// hierarchical raster refinement in `sinr-diagram` leans on this:
/// certificate cost tracks the *local* station set, not `n`.
#[derive(Debug, Clone)]
pub struct CellCert {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
    n: usize,
    decision: CellDecision,
    /// Surviving candidate station indices, ascending.
    cands: Vec<u32>,
    /// Plain sums of the frozen stations' envelope ends (all finite).
    frozen_lo: f64,
    frozen_hi: f64,
}

impl CellCert {
    /// The uniform classification this certificate proved.
    pub fn decision(&self) -> CellDecision {
        self.decision
    }

    /// Number of surviving (non-frozen) candidate stations — the cost
    /// driver of refining this certificate into child cells.
    pub fn candidates(&self) -> usize {
        self.cands.len()
    }
}

/// The certified reception test of one candidate over a whole cell:
/// with energy at least `lo` everywhere and interference+noise at most
/// `ipn_hi`, does the engine's division-free test pass at **every**
/// point? The slack term is scaled by the *envelope top* `hi` (not just
/// the interference) because the serial kernels derive interference as
/// `total − e`, whose rounding is relative to the total the station
/// itself can dominate.
#[inline]
fn cell_receives(lo: f64, hi: f64, others_hi: f64, noise: f64, beta: f64) -> bool {
    let ipn_hi = (others_hi + noise) + TOTAL_MARGIN * (hi + others_hi + noise);
    lo.is_finite() && (ipn_hi <= 0.0 || lo >= beta * ipn_hi)
}

/// The certified silence test: with energy at most `hi` everywhere and
/// interference+noise at least `ipn_lo`, the engine's test *fails* at
/// every point (and its `ipn ≤ 0` escape hatch certifiably cannot
/// fire). An infinite `hi` (a station inside the cell) is never
/// certifiably silent.
#[inline]
fn cell_silent(hi: f64, others_lo: f64, noise: f64, beta: f64) -> bool {
    let ipn_lo = (others_lo + noise) - TOTAL_MARGIN * (hi + others_lo + noise);
    hi.is_finite() && ipn_lo > 0.0 && hi < beta * ipn_lo
}

/// The generic cell-certificate executor behind
/// [`QueryEngine::sinr_bounds_cell`](crate::engine::QueryEngine::sinr_bounds_cell):
/// per-station energy envelopes over the cell box (the same
/// [`energy_envelope`] primitive as the batch pruning and the
/// stochastic-channel tile cache — unit-power attenuation times power,
/// widened by [`BOUND_MARGIN`]), leave-one-out interference brackets,
/// and the certified classification.
///
/// The classification is sound for **every** shipped backend: a
/// [`CellDecision::Reception`]/[`CellDecision::Silent`] answer is a
/// proof about the serial kernels' rounded arithmetic at every point of
/// the cell (see the per-test docs), and the scan/tree/SIMD backends
/// agree wherever such a proof exists (their summation-order differences
/// are inside [`TOTAL_MARGIN`], and a certified unique argmax is the
/// station the weighted tree walk names). Anything the
/// margins cannot prove comes back [`CellDecision::Mixed`] — never a
/// wrong uniform claim. Degenerate cells (non-finite corners, stations
/// inside the box, co-locations) degrade to `Mixed` through the
/// envelopes' `∞`/NaN widening.
///
/// `parent` must be a certificate of the **same evaluator** (same
/// revision) for a cell containing `[min, max]`; its surviving
/// candidates are re-enveloped over the child box while its frozen
/// residual is inherited as-is, and candidates the child proves silent
/// with relatively tight envelopes ([`FREEZE_REL`]) are frozen in turn.
pub(crate) fn cell_certificate(
    eval: &SinrEvaluator,
    min: Point,
    max: Point,
    parent: Option<&CellCert>,
) -> CellCert {
    let (xs, ys, ws) = eval.soa();
    let n = xs.len();
    let noise = eval.noise();
    let beta = eval.beta();
    if let Some(p) = parent {
        debug_assert_eq!(p.n, n, "parent certificate is for a different network");
        debug_assert!(
            p.min_x <= min.x && p.min_y <= min.y && max.x <= p.max_x && max.y <= p.max_y,
            "child cell not contained in the parent certificate's cell"
        );
    }
    let finite_cell = min.x.is_finite()
        && min.y.is_finite()
        && max.x.is_finite()
        && max.y.is_finite()
        && min.x <= max.x
        && min.y <= max.y;
    let env = BoxEnvelope::new(eval.alpha(), (min, max));
    // Pass 1: envelope every inherited candidate over the child box.
    let inherited = parent.map(|p| p.cands.len()).unwrap_or(n);
    let mut ent: Vec<(u32, f64, f64)> = Vec::with_capacity(inherited);
    let mut cand_lo = KahanSum::new();
    let mut cand_hi = KahanSum::new();
    let mut inf_lo = 0u32;
    let mut inf_hi = 0u32;
    let mut envelope = |j: usize| {
        // A NaN envelope (non-finite station coordinates) widens to the
        // trivial one, which can only force `Mixed`.
        let (lo, hi) = if finite_cell {
            widen_nan(env.station(xs[j], ys[j], ws[j]))
        } else {
            (0.0, f64::INFINITY)
        };
        if lo.is_finite() {
            cand_lo.add(lo);
        } else {
            inf_lo += 1;
        }
        if hi.is_finite() {
            cand_hi.add(hi);
        } else {
            inf_hi += 1;
        }
        ent.push((j as u32, lo, hi));
    };
    match parent {
        Some(p) => p.cands.iter().for_each(|&j| envelope(j as usize)),
        None => (0..n).for_each(&mut envelope),
    }
    let (mut frozen_lo, mut frozen_hi) = match parent {
        Some(p) => (p.frozen_lo, p.frozen_hi),
        None => (0.0, 0.0),
    };
    let totals = Totals {
        sum_lo: frozen_lo + cand_lo.value(),
        sum_hi: frozen_hi + cand_hi.value(),
        inf_lo,
        inf_hi,
    };
    // Pass 2: classify each candidate against the others' bracket, and
    // fold tight certified-silent candidates into the frozen residual.
    // Surviving candidates keep their ascending order, which the argmax
    // first-index tie rules ride on.
    let mut cands: Vec<u32> = Vec::with_capacity(ent.len());
    let mut non_silent = 0usize;
    let mut rx: Option<StationId> = None;
    let mut rx_certified = false;
    for &(j, lo, hi) in &ent {
        let (others_lo, others_hi) = totals.leave_one_out(lo, hi);
        if cell_silent(hi, others_lo, noise, beta) {
            if hi <= lo * (1.0 + FREEZE_REL) {
                frozen_lo += lo;
                frozen_hi += hi;
                continue;
            }
        } else {
            non_silent += 1;
            if non_silent == 1 {
                rx = Some(StationId(j as usize));
                rx_certified = cell_receives(lo, hi, others_hi, noise, beta);
            }
        }
        cands.push(j);
    }
    // Reception needs a *unique* non-silent candidate whose own test is
    // certified: silence of every other station pins the argmax (an
    // argmax `m ≠ i` with `e_m ≥ e_i ≥ β·(I_i + N) ≥ β·(I_m + N) > e_m`
    // is a contradiction), so the argmax lands on the certified
    // station. Two certified receivers (possible for
    // `β < 1`) stay `Mixed` — the argmax is not uniform there.
    let decision = if non_silent == 0 {
        CellDecision::Silent
    } else if non_silent == 1 && rx_certified {
        CellDecision::Reception(rx.expect("non_silent == 1 recorded a candidate"))
    } else {
        CellDecision::Mixed
    };
    CellCert {
        min_x: min.x,
        min_y: min.y,
        max_x: max.x,
        max_y: max.y,
        n,
        decision,
        cands,
        frozen_lo,
        frozen_hi,
    }
}

/// Batched point location against an ancestor [`CellCert`] — the
/// per-point counterpart of the refinement's whole-cell decisions,
/// behind
/// [`QueryEngine::locate_in_cell`](crate::engine::QueryEngine::locate_in_cell).
///
/// The certificate's surviving candidates are gathered once per call
/// into the same SoA columns the tiled executor scans, and each point
/// (which must lie inside the certificate's cell) runs the tiled
/// executor's per-point decision: the SIMD argmax over the candidates
/// plus the certificate's frozen residual bracket `[frozen_lo,
/// frozen_hi]`. A `Some` answer is **bit-identical to the backend's own
/// `locate`** at that point; points whose decision sits inside the
/// residual interval come back `None`, and the caller answers them with
/// the backend's own `locate`. Cost per point is `O(candidates)`: for
/// boundary pixels of a quadtree refinement the candidate list is the
/// handful of locally competitive stations, so even a modest hit rate
/// beats full scans. `kernel` is the calling backend's pinned kernel, as
/// for [`locate_batch_tiled`].
///
/// Soundness of answering from the candidates alone: every
/// non-candidate station is frozen **certified-silent** over an ancestor
/// cell containing the point. A certified reception for the candidate
/// argmax `c` pins the *global* argmax at `c` — a frozen `f` with
/// `e_f ≥ e_c` would pass the reception test whenever `c` does (the
/// test is monotone in energy at fixed total), contradicting its
/// silence certificate; the same exclusion argument as
/// [`CellDecision::Reception`]'s unique-argmax rule. A certified
/// failure answers `Silent`: the argmax has the largest energy, so every
/// station's test fails where its test fails.
///
/// # Panics
///
/// Panics if `points` and `out` have different lengths.
pub fn locate_in_cell(
    eval: &SinrEvaluator,
    kernel: SimdKernel,
    cert: &CellCert,
    points: &[Point],
    out: &mut [Option<Located>],
) {
    assert_eq!(
        points.len(),
        out.len(),
        "locate_in_cell: {} points but {} output slots",
        points.len(),
        out.len()
    );
    debug_assert_eq!(
        cert.n,
        eval.soa().0.len(),
        "certificate is for a different network"
    );
    let decider = Decider::new(eval, kernel, Select::MaxEnergy);
    let soa = eval.soa();
    let mut cands = Candidates::with_capacity(cert.cands.len());
    for &j in &cert.cands {
        cands.push(soa, j as usize);
    }
    for (p, slot) in points.iter().zip(out.iter_mut()) {
        let inside =
            p.x >= cert.min_x && p.x <= cert.max_x && p.y >= cert.min_y && p.y <= cert.max_y;
        *slot = if !inside {
            // Outside the certified cell the envelopes say nothing.
            None
        } else if cands.idx.is_empty() {
            // Every station is frozen certified-silent over an ancestor
            // cell containing `p`: whichever station any backend
            // selects, its test provably fails there.
            Some(Located::Silent)
        } else {
            decider.certify(&cands, *p, cert.frozen_lo, cert.frozen_hi)
        };
    }
}

#[cfg(test)]
mod cert_tests {
    use super::*;
    use crate::network::Network;

    fn nets() -> Vec<Network> {
        vec![
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
            Network::uniform(vec![Point::new(-2.0, 0.0), Point::new(2.0, 0.0)], 0.05, 0.4).unwrap(),
            Network::builder()
                .station_with_power(Point::new(0.0, 0.0), 4.0)
                .station(Point::new(3.0, 0.0))
                .station_with_power(Point::new(0.0, 5.0), 0.5)
                .background_noise(0.01)
                .threshold(1.5)
                .build()
                .unwrap(),
            Network::builder()
                .station(Point::new(0.0, 0.0))
                .station(Point::new(4.0, 1.0))
                .path_loss(4.0)
                .threshold(2.0)
                .build()
                .unwrap(),
            Network::uniform(
                vec![Point::ORIGIN, Point::ORIGIN, Point::new(3.0, 0.0)],
                0.0,
                2.0,
            )
            .unwrap(),
        ]
    }

    /// Sample points of the closed cell `[min, max]`: corners, edge
    /// midpoints, center, and an interior 3×3 lattice.
    fn samples(min: Point, max: Point) -> Vec<Point> {
        let mut pts = Vec::new();
        for fx in [0.0, 0.25, 0.5, 0.75, 1.0] {
            for fy in [0.0, 0.25, 0.5, 0.75, 1.0] {
                pts.push(Point::new(
                    min.x + fx * (max.x - min.x),
                    min.y + fy * (max.y - min.y),
                ));
            }
        }
        pts
    }

    fn check_cert_sound(eval: &SinrEvaluator, cert: &CellCert, min: Point, max: Point) {
        for p in samples(min, max) {
            let loc = eval.locate(p);
            match cert.decision() {
                CellDecision::Reception(i) => assert_eq!(
                    loc,
                    Located::Reception(i),
                    "cell [{min:?},{max:?}] certified Reception({i}) but locate({p:?}) = {loc:?}"
                ),
                CellDecision::Silent => assert_eq!(
                    loc,
                    Located::Silent,
                    "cell [{min:?},{max:?}] certified Silent but locate({p:?}) = {loc:?}"
                ),
                CellDecision::Mixed => {}
            }
        }
    }

    #[test]
    fn cell_certificates_sound_on_fixture_grids() {
        for net in nets() {
            let eval = SinrEvaluator::new(&net);
            let steps = 8;
            let half = 6.0;
            let w = 2.0 * half / steps as f64;
            for r in 0..steps {
                for c in 0..steps {
                    let min = Point::new(-half + c as f64 * w, -half + r as f64 * w);
                    let max = Point::new(min.x + w, min.y + w);
                    let cert = eval.sinr_bounds_cell(min, max, None);
                    check_cert_sound(&eval, &cert, min, max);
                }
            }
        }
    }

    #[test]
    fn chained_certificates_sound_and_prune() {
        let net = crate::gen::random_uniform_network(7, 200, 40.0, 0.01, 2.0).unwrap();
        let eval = SinrEvaluator::new(&net);
        let root_min = Point::new(-40.0, -40.0);
        let root_max = Point::new(40.0, 40.0);
        let root = eval.sinr_bounds_cell(root_min, root_max, None);
        let mut min_cands = usize::MAX;
        // Three levels of quadtree refinement down one diagonal, checking
        // soundness at every level and that freezing actually bites.
        let mut min = root_min;
        let mut max = root_max;
        let mut parent = root;
        for _ in 0..5 {
            let mid = Point::new(0.5 * (min.x + max.x), 0.5 * (min.y + max.y));
            max = mid;
            min = Point::new(0.5 * (min.x + mid.x), 0.5 * (min.y + mid.y));
            let child = eval.sinr_bounds_cell(min, max, Some(&parent));
            check_cert_sound(&eval, &child, min, max);
            // The unchained certificate must be sound too (fresh
            // envelopes, no inheritance).
            let fresh = eval.sinr_bounds_cell(min, max, None);
            check_cert_sound(&eval, &fresh, min, max);
            min_cands = min_cands.min(child.candidates());
            parent = child;
        }
        assert!(
            min_cands < 200,
            "five levels of refinement never froze a single station"
        );
    }

    #[test]
    fn degenerate_cells_answer_mixed() {
        let net = nets().remove(0);
        let eval = SinrEvaluator::new(&net);
        // Non-finite corner.
        let cert = eval.sinr_bounds_cell(Point::new(f64::NAN, 0.0), Point::new(1.0, 1.0), None);
        assert_eq!(cert.decision(), CellDecision::Mixed);
        // A station inside the cell: its envelope top is ∞, so no
        // uniform claim survives.
        let cert = eval.sinr_bounds_cell(Point::new(-1.0, -1.0), Point::new(1.0, 1.0), None);
        assert_eq!(cert.decision(), CellDecision::Mixed);
        // Point cell exactly on a co-located pair (last fixture).
        let net = nets().pop().unwrap();
        let eval = SinrEvaluator::new(&net);
        let cert = eval.sinr_bounds_cell(Point::ORIGIN, Point::ORIGIN, None);
        assert_eq!(cert.decision(), CellDecision::Mixed);
        check_cert_sound(&eval, &cert, Point::ORIGIN, Point::ORIGIN);
    }
}

#[cfg(test)]
mod pass_tests {
    use super::*;
    use crate::network::Network;

    type Columns = (Vec<f64>, Vec<f64>, Vec<f64>);

    fn soa(c: &Columns) -> (&[f64], &[f64], &[f64]) {
        (&c.0, &c.1, &c.2)
    }

    /// Stations at `near` unit-circle points around the origin (power 1)
    /// plus `far` ones at distance ≥ 1000.
    fn ring(near: usize, far: usize) -> Columns {
        let mut c: Columns = Default::default();
        for k in 0..near {
            let a = std::f64::consts::TAU * k as f64 / near as f64;
            c.0.push(a.cos());
            c.1.push(a.sin());
            c.2.push(1.0);
        }
        for k in 0..far {
            c.0.push(1000.0 + k as f64);
            c.1.push(0.0);
            c.2.push(1.0);
        }
        c
    }

    #[test]
    fn nan_envelope_stays_a_candidate() {
        // Station 0 sits inside the box with power 0 (a trial gain that
        // underflowed): its scaled unit-power envelope is `(0, ∞ · 0)`.
        let mut c = ring(0, 15);
        c.0.insert(0, 0.0);
        c.1.insert(0, 0.0);
        c.2.insert(0, 0.0);
        c.0.insert(1, 3.0);
        c.1.insert(1, 0.0);
        c.2.insert(1, 1.0);
        let env = BoxEnvelope::new(2.0, (Point::new(-1.0, -1.0), Point::new(1.0, 1.0)));
        let unit = |j: usize| env.station(c.0[j], c.1[j], 1.0);
        assert!((unit(0).1 * c.2[0]).is_nan(), "the fixture must make a NaN");
        let mut scratch = Scratch::default();
        let resid = scratch.prune(soa(&c), |j| (unit(j).0 * c.2[j], unit(j).1 * c.2[j]));
        assert!(
            resid.is_some(),
            "2 of 17 stations survive: the tile is pruned"
        );
        assert_eq!(scratch.cands.idx, [0, 1]);
        assert_eq!((scratch.lb[0], scratch.ub[0]), (0.0, f64::INFINITY));
    }

    #[test]
    fn seven_eighths_kept_runs_serial() {
        let env = BoxEnvelope::new(2.0, (Point::new(-1e-3, -1e-3), Point::new(1e-3, 1e-3)));
        let mut scratch = Scratch::default();
        for (near, far, pruned) in [(8, 0, false), (7, 1, false), (6, 2, true)] {
            let c = ring(near, far);
            let resid = scratch.prune(soa(&c), |j| env.station(c.0[j], c.1[j], c.2[j]));
            assert_eq!(resid.is_some(), pruned, "{near} of {} kept", near + far);
            assert_eq!(scratch.cands.idx.len(), near);
        }
    }

    #[test]
    fn residual_is_the_plain_sum_over_pruned_envelopes() {
        let net = crate::gen::random_uniform_network(5, 300, 30.0, 0.01, 2.0).unwrap();
        let eval = SinrEvaluator::new(&net);
        let (xs, ys, ws) = eval.soa();
        let env = BoxEnvelope::new(2.0, (Point::new(1.0, 2.0), Point::new(1.5, 2.5)));
        let mut scratch = Scratch::default();
        let (resid_lo, resid_hi) = scratch
            .prune(eval.soa(), |j| env.station(xs[j], ys[j], ws[j]))
            .expect("a half-unit box prunes most of 300 stations");
        let envs: Vec<(f64, f64)> = (0..xs.len())
            .map(|j| env.station(xs[j], ys[j], ws[j]))
            .collect();
        let m = envs.iter().map(|e| e.0).fold(f64::NEG_INFINITY, f64::max);
        let (mut lo, mut hi) = (0.0f64, 0.0f64);
        let mut kept = Vec::new();
        for (j, &(elo, ehi)) in envs.iter().enumerate() {
            if ehi >= m {
                kept.push(j as u32);
            } else {
                lo += elo;
                hi += ehi;
            }
        }
        assert_eq!(scratch.cands.idx, kept);
        assert_eq!(resid_lo.to_bits(), lo.to_bits());
        assert_eq!(resid_hi.to_bits(), hi.to_bits());
        for (k, &j) in kept.iter().enumerate() {
            let j = j as usize;
            assert_eq!(
                (
                    scratch.cands.xs[k],
                    scratch.cands.ys[k],
                    scratch.cands.ws[k]
                ),
                (xs[j], ys[j], ws[j])
            );
        }
    }

    #[test]
    #[should_panic(expected = "locate_batch_tiled")]
    fn locate_batch_tiled_names_itself_on_length_mismatch() {
        let net = Network::uniform(vec![Point::ORIGIN, Point::new(1.0, 0.0)], 0.0, 2.0).unwrap();
        let eval = SinrEvaluator::new(&net);
        let mut out = vec![Located::Silent; 1];
        locate_batch_tiled(
            &eval,
            SimdKernel::Portable,
            Select::MaxEnergy,
            &[Point::ORIGIN; 2],
            &mut out,
            &TileConfig::default(),
            |p| eval.locate(p),
        );
    }

    #[test]
    #[should_panic(expected = "batch_map_morton")]
    fn batch_map_morton_names_itself_on_length_mismatch() {
        let mut out = vec![0.0; 1];
        batch_map_morton(&[Point::ORIGIN; 2], &mut out, &TileConfig::default(), |p| {
            p.x
        });
    }
}
