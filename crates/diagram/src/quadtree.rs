//! Hierarchical (quadtree-refined) reception-map rasterisation.
//!
//! The dense path ([`ReceptionMap::compute`]) evaluates every pixel of
//! the grid. But by Theorem 1 (convexity) and Theorem 2 (fatness) of the
//! paper, reception zones are fat convex bodies: the set of pixels whose
//! status is *ambiguous at raster resolution* is a thin band around the
//! `SINR = β` zone boundaries, with measure proportional to boundary
//! *length* while the grid grows with *area*. This module exploits that
//! asymmetry through the interval certificates of `sinr-core`
//! ([`QueryEngine::sinr_bounds_cell`]): starting from the whole window,
//! any cell whose certified SINR brackets put every point strictly on
//! one side of the reception test is resolved wholesale, and only cells
//! the certificate leaves [`CellDecision::Mixed`] are subdivided — down
//! to pixel resolution, where the surviving pixels are answered
//! per-point *against the certificate in hand*
//! ([`QueryEngine::locate_in_cell`] — candidate-only certified
//! decisions, `O(candidates)` per pixel), and only what neither path
//! resolves goes to ordinary [`QueryEngine::locate_batch`] calls.
//!
//! ## Runs, not pixels
//!
//! The same fatness bounds the *output*: a raster's row-major label runs
//! grow with the zone perimeters, not with the pixel count. So the
//! product of [`hierarchical_map`] is a [`ReceptionRuns`] — maximal
//! row-major runs, bottom row first — and no dense label buffer is ever
//! allocated. Refinement records *pieces* `(row, c0, c1, label)`: a
//! certified cell is one piece per row, a per-pixel answer extends the
//! previous piece when it continues it, and unresolved pixels are
//! recorded as pending row ranges. The boundary pass locates the pending
//! ranges in bounded chunks (`BOUNDARY_CHUNK` points per
//! `locate_batch`). Each worker's pieces are bucketed by row in place
//! (a counting sort), each row gathers its pieces from every worker and
//! orders them by column, and one merge of equal neighbours (across row
//! ends too) turns them into runs. Memory is `O(pieces + chunk)`; for a
//! backend without certificates, whose root leaves every row pending,
//! that is one pending range per row plus the answered pieces, which
//! track the runs, not the pixels. [`ReceptionRuns::expand`]
//! is the thin dense expansion for callers who want a [`ReceptionMap`].
//!
//! ## The equivalence contract
//!
//! The expanded raster is **bit-identical** to the dense path of the
//! same backend, for every backend and kernel:
//!
//! * certificate-resolved pixels carry a decision that is *proved* for
//!   every point of the cell (the margins in `sinr-core::tile` are
//!   one-sided — looseness degrades to `Mixed`, never to a wrong uniform
//!   claim);
//! * every other pixel is answered by the backend itself — through
//!   `locate_in_cell` (certified candidate-only decisions with the
//!   backend's serial kernel as fallback, pinned bit-identical to its
//!   `locate`) or its own `locate_batch`, whose per-point answers are
//!   order- and composition-independent (the permutation-invariance
//!   differential suites pin this), so batching only the *unresolved*
//!   pixels, in chunks, changes nothing;
//! * a backend without certificates (`sinr_bounds_cell` → `None`, e.g.
//!   the approximate Theorem-3 locator) degrades to exactly the dense
//!   evaluation: every pixel is pending and goes through the chunked
//!   boundary pass.
//!
//! ## Parallel refinement
//!
//! The first `SERIAL_LEVELS` (3) levels of the quadtree are certified
//! serially. Every `Mixed` cell on the last of them hands its children
//! to `sinr-core`'s work-stealing scheduler ([`steal_tiles`]) as
//! independent subtrees, at most 64, each with a shared (`Arc`) copy of
//! its parent certificate. A worker refines each subtree it claims to
//! pixel resolution, collecting its pieces, pending ranges and counters
//! in per-worker scratch; workers share nothing writable. On one core
//! the scheduler runs the same subtrees inline.
//!
//! Scheduling cannot change a run: a cell's certificate depends only on
//! the cell and its parent certificate, so a subtree computes the same
//! certificates, fills and per-pixel answers whichever worker runs it
//! and when; the pending pixels reach `locate_batch` in a
//! scheduling-dependent order, but its per-point answers are
//! order-independent; the pieces are sorted before they are merged; and
//! the counters are sums.
//!
//! The payoff is reported, not assumed: [`HierarchicalStats`] carries
//! the evaluated-pixel fraction (the `cells_evaluated / pixels` metric
//! the perf harness trends).

use crate::raster::{assert_window, pixel_center, PixelLabel, Raster, ReceptionMap};
use sinr_core::engine::{Located, QueryEngine, BATCH_TILE};
use sinr_core::tile::{steal_tiles, CellCert, CellDecision};
use sinr_core::{Network, StationId};
use sinr_geometry::{BBox, Point};
use std::sync::Arc;

/// Below this many pixels a region skips certification and goes straight
/// to the batched per-pixel evaluation: a certificate costs at least a
/// candidate re-envelope pass, which cannot pay for itself on 1–3
/// pixels. Recursion therefore bottoms out at 2×2 cells — small enough
/// that the unresolved band hugs the zone boundaries at pixel scale.
const MIN_CERT_PIXELS: usize = 4;

/// Quadtree levels certified serially before the refinement fans out:
/// the children of every `Mixed` cell on the last serial level become
/// independent subtrees for the work-stealing scheduler — at most
/// `4^SERIAL_LEVELS = 64` steal units, enough to balance the cores
/// while the serial prefix stays at `1 + 4 + 16` certificates.
const SERIAL_LEVELS: usize = 3;

/// Observability of one hierarchical rasterisation (the counters say
/// nothing about answers, which are always bit-identical to the dense
/// path of the same backend).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HierarchicalStats {
    /// Total pixels of the raster (`width · height`).
    pub pixels: u64,
    /// Pixels answered by the backend's per-point paths
    /// (`locate_in_cell` against the enclosing certificate, or the
    /// boundary pass's `locate_batch`) because no cell-level
    /// certificate resolved them wholesale — the cost driver, and the
    /// numerator of [`HierarchicalStats::fraction`].
    pub cells_evaluated: u64,
    /// Interval certificates computed during refinement.
    pub certificates: u64,
    /// Of [`HierarchicalStats::cells_evaluated`], pixels answered by the
    /// per-point certified path ([`QueryEngine::locate_in_cell`] against
    /// the enclosing cell's certificate, `O(candidates)` each); the
    /// remainder went through the boundary pass's `locate_batch`.
    pub point_certified: u64,
    /// Pixels resolved wholesale by a certified uniform cell decision.
    pub certified_pixels: u64,
}

impl HierarchicalStats {
    /// Adds another run's counters (all but `pixels`) to these.
    fn absorb(&mut self, other: &HierarchicalStats) {
        self.cells_evaluated += other.cells_evaluated;
        self.certificates += other.certificates;
        self.point_certified += other.point_certified;
        self.certified_pixels += other.certified_pixels;
    }

    /// Fraction of pixels that paid a per-point engine evaluation
    /// (`cells_evaluated / pixels`) — the headline economy metric: the
    /// dense path is always exactly `1.0`.
    pub fn fraction(&self) -> f64 {
        if self.pixels == 0 {
            0.0
        } else {
            self.cells_evaluated as f64 / self.pixels as f64
        }
    }
}

/// Pending pixels located per [`QueryEngine::locate_batch`] call in the
/// boundary pass: large enough that the tiled executor sees full
/// Morton tiles (a multiple of [`BATCH_TILE`]), small enough that the
/// pass's point and answer buffers stay at 1 MiB however many pixels
/// are pending.
const BOUNDARY_CHUNK: usize = 64 * BATCH_TILE;

/// A reception map as maximal row-major label runs, bottom row first —
/// the product of [`hierarchical_map`].
///
/// Consecutive runs carry different labels (runs continue across row
/// ends), every length is positive, and the lengths sum to
/// `width · height`. The one exception is a run longer than `u32::MAX`
/// pixels, which is split into `u32::MAX`-pixel pieces.
#[derive(Debug, Clone, PartialEq)]
pub struct ReceptionRuns {
    window: BBox,
    width: usize,
    height: usize,
    runs: Vec<(PixelLabel, u32)>,
}

impl ReceptionRuns {
    /// The sampling window.
    pub fn window(&self) -> &BBox {
        &self.window
    }

    /// Raster width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Raster height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The runs, row-major, bottom row first.
    pub fn runs(&self) -> &[(PixelLabel, u32)] {
        &self.runs
    }

    /// Consumes the map, returning its runs without a copy.
    pub fn into_runs(self) -> Vec<(PixelLabel, u32)> {
        self.runs
    }

    /// The dense raster these runs encode.
    pub fn expand(&self) -> ReceptionMap {
        let mut cells = Vec::with_capacity(self.width * self.height);
        for &(label, len) in &self.runs {
            cells.extend(std::iter::repeat_n(label, len as usize));
        }
        Raster::from_cells(self.window, self.width, self.height, cells)
    }
}

/// A half-open pixel-index rectangle `[c0, c1) × [r0, r1)`.
#[derive(Debug, Clone, Copy)]
struct Region {
    c0: usize,
    c1: usize,
    r0: usize,
    r1: usize,
}

impl Region {
    fn pixels(&self) -> usize {
        (self.c1 - self.c0) * (self.r1 - self.r0)
    }

    /// The quadtree children: quarters, or halves along the long axis
    /// for 1-wide strips.
    fn children(&self) -> impl Iterator<Item = Region> {
        let Region { c0, c1, r0, r1 } = *self;
        let cm = if c1 - c0 > 1 { c0 + (c1 - c0) / 2 } else { c1 };
        let rm = if r1 - r0 > 1 { r0 + (r1 - r0) / 2 } else { r1 };
        [
            (c0, cm, r0, rm),
            (cm, c1, r0, rm),
            (c0, cm, rm, r1),
            (cm, c1, rm, r1),
        ]
        .into_iter()
        .filter(|&(c0, c1, r0, r1)| c0 < c1 && r0 < r1)
        .map(|(c0, c1, r0, r1)| Region { c0, c1, r0, r1 })
    }
}

/// Columns `[c0, c1)` of one row, all labelled `label` (or, as a pending
/// range, all still unresolved). 16 bytes: the label is packed
/// ([`pack`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Piece {
    row: u32,
    c0: u32,
    c1: u32,
    label: u32,
}

impl Piece {
    fn new(row: usize, c0: usize, c1: usize, label: PixelLabel) -> Piece {
        Piece {
            row: row as u32,
            c0: c0 as u32,
            c1: c1 as u32,
            label: pack(label),
        }
    }
}

/// The packed label of silent pixels; any other value is a station
/// index.
const SILENT: u32 = u32::MAX;

fn pack(label: PixelLabel) -> u32 {
    match label {
        PixelLabel::Silent => SILENT,
        PixelLabel::Heard(i) => u32::try_from(i.0)
            .ok()
            .filter(|&code| code != SILENT)
            .expect("station index must be below u32::MAX"),
    }
}

fn unpack(code: u32) -> PixelLabel {
    if code == SILENT {
        PixelLabel::Silent
    } else {
        PixelLabel::Heard(StationId(code as usize))
    }
}

/// Appends the pixel `(col, row)` to `pieces`, extending the last piece
/// when the pixel continues it with the same label.
fn push_pixel(pieces: &mut Vec<Piece>, col: usize, row: usize, label: PixelLabel) {
    let piece = Piece::new(row, col, col + 1, label);
    match pieces.last_mut() {
        Some(last) if last.row == piece.row && last.c1 == piece.c0 && last.label == piece.label => {
            last.c1 = piece.c1
        }
        _ => pieces.push(piece),
    }
}

/// The read-only side of a refinement, shared by every worker.
struct Grid<'a, E: ?Sized> {
    engine: &'a E,
    window: BBox,
    width: usize,
    height: usize,
}

impl<E: ?Sized> Grid<'_, E> {
    fn center(&self, col: usize, row: usize) -> Point {
        pixel_center(&self.window, self.width, self.height, col, row)
    }
}

/// A `Mixed` cell's child handed to the scheduler, with the certificate
/// of the cell it came from.
struct Subtree {
    region: Region,
    parent: Arc<CellCert>,
}

/// One worker's scratch: the pieces its regions resolved, the row
/// ranges they left unresolved, and its counters. The serial levels use
/// one too.
#[derive(Default)]
struct Refiner {
    pieces: Vec<Piece>,
    /// Unresolved row ranges (their `label` is a placeholder).
    pending: Vec<Piece>,
    stats: HierarchicalStats,
}

impl Refiner {
    /// Refines `region` under a (contained) parent certificate, down to
    /// pixel resolution.
    fn refine<E: QueryEngine + ?Sized>(
        &mut self,
        grid: &Grid<E>,
        region: Region,
        parent: Option<&CellCert>,
    ) {
        if let Some(cert) = self.certify(grid, region, parent) {
            for child in region.children() {
                self.refine(grid, child, Some(&cert));
            }
        }
    }

    /// The first [`SERIAL_LEVELS`] levels of [`Refiner::refine`]: the
    /// children of a `Mixed` cell on the last of them are pushed onto
    /// `subtrees` instead of being refined.
    fn split<E: QueryEngine + ?Sized>(
        &mut self,
        grid: &Grid<E>,
        region: Region,
        parent: Option<&CellCert>,
        level: usize,
        subtrees: &mut Vec<Subtree>,
    ) {
        let Some(cert) = self.certify(grid, region, parent) else {
            return;
        };
        if level + 1 >= SERIAL_LEVELS {
            let cert = Arc::new(cert);
            subtrees.extend(region.children().map(|region| Subtree {
                region,
                parent: Arc::clone(&cert),
            }));
        } else {
            for child in region.children() {
                self.split(grid, child, Some(&cert), level + 1, subtrees);
            }
        }
    }

    /// Resolves whatever `region`'s own certificate settles: a uniform
    /// decision fills the region, a region too small (or a backend
    /// without certificates) goes per pixel. Returns the certificate
    /// when it is `Mixed` and the region must be subdivided; children
    /// re-envelope only its surviving candidates.
    fn certify<E: QueryEngine + ?Sized>(
        &mut self,
        grid: &Grid<E>,
        region: Region,
        parent: Option<&CellCert>,
    ) -> Option<CellCert> {
        let count = region.pixels();
        if count == 0 {
            return None;
        }
        if count < MIN_CERT_PIXELS {
            self.defer(grid, region, parent);
            return None;
        }
        // The certified box spans the pixel *centres* of the region —
        // the only points the raster ever samples. (For 1-wide strips
        // this is a flat box; the certificate layer accepts it.)
        let lo = grid.center(region.c0, region.r0);
        let hi = grid.center(region.c1 - 1, region.r1 - 1);
        let Some(cert) = grid.engine.sinr_bounds_cell(lo, hi, parent) else {
            // Certificate-less backend: every pixel goes to the
            // boundary pass, dense-equivalent.
            self.defer(grid, region, None);
            return None;
        };
        self.stats.certificates += 1;
        let label = match cert.decision() {
            CellDecision::Reception(i) => PixelLabel::Heard(i),
            CellDecision::Silent => PixelLabel::Silent,
            CellDecision::Mixed => return Some(cert),
        };
        self.pieces
            .extend((region.r0..region.r1).map(|row| Piece::new(row, region.c0, region.c1, label)));
        self.stats.certified_pixels += count as u64;
        None
    }

    /// Resolves a sub-certificate-sized region per pixel against its
    /// containing cell's certificate (candidate-only certified
    /// decisions — every `Some` bit-identical to `locate_batch`),
    /// leaving whatever the margins cannot pin pending for the boundary
    /// pass. The per-pixel attempt matters: boundary pixels are
    /// spatially scattered, so the boundary pass's Morton tiles span
    /// wide boxes and prune poorly, while the certificate in hand
    /// already names the few competitive stations.
    fn defer<E: QueryEngine + ?Sized>(
        &mut self,
        grid: &Grid<E>,
        region: Region,
        parent: Option<&CellCert>,
    ) {
        let Region { c0, c1, r0, r1 } = region;
        if let Some(cert) = parent {
            if region.pixels() < MIN_CERT_PIXELS {
                let mut pts = [Point::ORIGIN; MIN_CERT_PIXELS - 1];
                let mut located = [None; MIN_CERT_PIXELS - 1];
                let mut k = 0usize;
                for row in r0..r1 {
                    for col in c0..c1 {
                        pts[k] = grid.center(col, row);
                        k += 1;
                    }
                }
                if grid
                    .engine
                    .locate_in_cell(cert, &pts[..k], &mut located[..k])
                {
                    let mut i = 0usize;
                    for row in r0..r1 {
                        for col in c0..c1 {
                            match located[i] {
                                Some(loc) => {
                                    self.stats.cells_evaluated += 1;
                                    self.stats.point_certified += 1;
                                    push_pixel(&mut self.pieces, col, row, label_of(loc));
                                }
                                None => push_pixel(&mut self.pending, col, row, PixelLabel::Silent),
                            }
                            i += 1;
                        }
                    }
                    return;
                }
            }
        }
        self.pending
            .extend((r0..r1).map(|row| Piece::new(row, c0, c1, PixelLabel::Silent)));
    }
}

/// The [`Located`]-to-[`PixelLabel`] projection of the dense path
/// (uncertain pixels label silent).
fn label_of(loc: Located) -> PixelLabel {
    match loc {
        Located::Reception(i) => PixelLabel::Heard(i),
        Located::Uncertain(_) | Located::Silent => PixelLabel::Silent,
    }
}

/// The boundary pass: locates every pending pixel through the backend's
/// own `locate_batch`, [`BOUNDARY_CHUNK`] pixels per call, and returns
/// the answers as pieces.
fn locate_pending<E: QueryEngine + ?Sized>(grid: &Grid<E>, pending: &[Vec<Piece>]) -> Vec<Piece> {
    let mut pixels = pending
        .iter()
        .flatten()
        .flat_map(|p| (p.c0..p.c1).map(move |col| (col as usize, p.row as usize)));
    // Each pending range yields at least one piece.
    let mut pieces = Vec::with_capacity(pending.iter().map(Vec::len).sum());
    let mut centers = Vec::new();
    let mut located = Vec::new();
    loop {
        centers.clear();
        centers.extend(
            pixels
                .clone()
                .take(BOUNDARY_CHUNK)
                .map(|(col, row)| grid.center(col, row)),
        );
        if centers.is_empty() {
            return pieces;
        }
        located.resize(centers.len(), Located::Silent);
        grid.engine.locate_batch(&centers, &mut located);
        for ((col, row), &loc) in pixels.by_ref().take(located.len()).zip(&located) {
            push_pixel(&mut pieces, col, row, label_of(loc));
        }
    }
}

/// Sorts `pieces` by row in place — a counting sort — and returns the
/// bucket bounds: row `r`'s pieces are `pieces[starts[r]..starts[r + 1]]`.
fn bucket_by_row(height: usize, pieces: &mut [Piece]) -> Vec<usize> {
    let mut starts = vec![0usize; height + 1];
    for p in pieces.iter() {
        starts[p.row as usize + 1] += 1;
    }
    for row in 0..height {
        starts[row + 1] += starts[row];
    }
    // `next[row]` is the first slot of row's bucket not yet known to
    // hold one of its pieces; every swap settles one piece in its
    // bucket, so the sort is linear.
    let mut next = starts[..height].to_vec();
    for row in 0..height {
        while next[row] < starts[row + 1] {
            let home = pieces[next[row]].row as usize;
            if home == row {
                next[row] += 1;
            } else {
                pieces.swap(next[row], next[home]);
                next[home] += 1;
            }
        }
    }
    starts
}

/// Merges lists of pieces that together tile a `height`-row raster into
/// maximal row-major runs: each list is bucketed by row in place, each
/// row's pieces are gathered from every list and ordered by column, and
/// equal neighbours merge, across row ends too. No list is copied
/// whole.
fn merge_pieces(height: usize, mut lists: Vec<Vec<Piece>>) -> Vec<(PixelLabel, u32)> {
    let starts: Vec<Vec<usize>> = lists
        .iter_mut()
        .map(|list| bucket_by_row(height, list))
        .collect();
    let mut row = Vec::new();
    let mut runs: Vec<(PixelLabel, u32)> = Vec::new();
    for r in 0..height {
        row.clear();
        for (list, starts) in lists.iter().zip(&starts) {
            row.extend_from_slice(&list[starts[r]..starts[r + 1]]);
        }
        row.sort_unstable_by_key(|p| p.c0);
        for p in &row {
            let label = unpack(p.label);
            let mut len = p.c1 - p.c0;
            if let Some((last, n)) = runs.last_mut() {
                if *last == label {
                    let more = len.min(u32::MAX - *n);
                    *n += more;
                    len -= more;
                }
            }
            if len > 0 {
                runs.push((label, len));
            }
        }
    }
    runs
}

/// Rasterises any [`QueryEngine`] backend over a window by quadtree
/// refinement into maximal row-major label runs — the engine-generic
/// worker behind [`ReceptionMap::compute_hierarchical`], with the same
/// [`Located`]-to-[`PixelLabel`] projection as
/// [`ReceptionMap::compute_with_engine`] (uncertain pixels label
/// silent).
///
/// [`ReceptionRuns::expand`] is bit-identical to the dense
/// [`ReceptionMap::compute_with_engine`] on the same backend, on any
/// number of cores; the returned [`HierarchicalStats`] reports how
/// little of it was paid for per-pixel.
///
/// # Panics
///
/// Panics if either dimension is zero or exceeds `u32::MAX`, or the
/// window is degenerate (zero width or height), like the dense path;
/// and if the engine answers a station index of `u32::MAX` or more.
pub fn hierarchical_map<E: QueryEngine + Sync + ?Sized>(
    engine: &E,
    window: BBox,
    width: usize,
    height: usize,
) -> (ReceptionRuns, HierarchicalStats) {
    assert!(
        width > 0 && height > 0,
        "raster dimensions must be positive"
    );
    assert!(
        u32::try_from(width.max(height)).is_ok(),
        "raster dimensions must fit u32"
    );
    assert_window(&window);
    let grid = Grid {
        engine,
        window,
        width,
        height,
    };
    let whole = Region {
        c0: 0,
        c1: width,
        r0: 0,
        r1: height,
    };
    let mut top = Refiner::default();
    let mut subtrees = Vec::new();
    top.split(&grid, whole, None, 0, &mut subtrees);
    let workers = steal_tiles::<Refiner, _>(subtrees.len(), |t, refiner| {
        let subtree = &subtrees[t];
        refiner.refine(&grid, subtree.region, Some(&subtree.parent));
    });
    let mut stats = top.stats;
    let mut lists = vec![top.pieces];
    let mut pending = vec![top.pending];
    for worker in workers {
        stats.absorb(&worker.stats);
        lists.push(worker.pieces);
        pending.push(worker.pending);
    }
    let pending_pixels: usize = pending
        .iter()
        .flatten()
        .map(|p| (p.c1 - p.c0) as usize)
        .sum();
    stats.pixels = (width * height) as u64;
    stats.cells_evaluated += pending_pixels as u64;
    lists.push(locate_pending(&grid, &pending));
    drop(pending);
    let runs = merge_pieces(height, lists);
    let map = ReceptionRuns {
        window,
        width,
        height,
        runs,
    };
    (map, stats)
}

impl ReceptionMap {
    /// Rasterises the SINR diagram by quadtree refinement: whole cells
    /// whose certified SINR interval lies strictly on one side of `β`
    /// are resolved from the certificate, and only boundary-straddling
    /// cells recurse down to pixel resolution — cost tracks zone
    /// *boundary length*, not window *area*, on megapixel grids.
    ///
    /// The pixels are bit-identical to [`ReceptionMap::compute`] on the
    /// same network; the stats report the evaluated fraction. This is
    /// [`hierarchical_map`] followed by [`ReceptionRuns::expand`].
    pub fn compute_hierarchical(
        net: &Network,
        window: BBox,
        width: usize,
        height: usize,
    ) -> (Self, HierarchicalStats) {
        ReceptionMap::compute_hierarchical_with_engine(&net.query_engine(), window, width, height)
    }

    /// [`ReceptionMap::compute_hierarchical`] through a caller-supplied
    /// backend — the hierarchical counterpart of
    /// [`ReceptionMap::compute_with_engine`].
    pub fn compute_hierarchical_with_engine<E: QueryEngine + Sync + ?Sized>(
        engine: &E,
        window: BBox,
        width: usize,
        height: usize,
    ) -> (Self, HierarchicalStats) {
        let (runs, stats) = hierarchical_map(engine, window, width, height);
        (runs.expand(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchical_matches_dense_and_prunes() {
        let net = sinr_core::gen::random_uniform_network(11, 160, 12.0, 0.01, 2.0).unwrap();
        let window = BBox::centered_square(12.0);
        let engine = net.query_engine();
        let dense = ReceptionMap::compute_with_engine(&engine, window, 128, 128);
        let (hier, stats) =
            ReceptionMap::compute_hierarchical_with_engine(&engine, window, 128, 128);
        assert_eq!(dense, hier);
        assert_eq!(stats.pixels, 128 * 128);
        assert_eq!(
            stats.cells_evaluated + stats.certified_pixels,
            stats.pixels,
            "every pixel is either certified or evaluated"
        );
        assert!(
            stats.fraction() < 0.5,
            "refinement should certify most pixels, evaluated fraction {}",
            stats.fraction()
        );
    }

    #[test]
    fn merge_sorts_pieces_and_splits_overlong_runs() {
        let heard = PixelLabel::Heard(StationId(3));
        // A 5×3 raster's pieces, scrambled across two lists: rows 0
        // and 2 are one silent run across the row end, row 1 is split
        // in two.
        let first = vec![
            Piece::new(2, 3, 5, PixelLabel::Silent),
            Piece::new(1, 2, 5, heard),
        ];
        let second = vec![
            Piece::new(0, 0, 5, PixelLabel::Silent),
            Piece::new(2, 0, 3, PixelLabel::Silent),
            Piece::new(1, 0, 2, PixelLabel::Silent),
        ];
        assert_eq!(
            merge_pieces(3, vec![first, second]),
            vec![(PixelLabel::Silent, 7), (heard, 3), (PixelLabel::Silent, 5)]
        );
        // A run longer than `u32::MAX` pixels splits; it does not wrap.
        let wide = u32::MAX as usize;
        let pieces = vec![Piece::new(1, 0, wide, heard), Piece::new(0, 0, wide, heard)];
        assert_eq!(merge_pieces(2, vec![pieces]), vec![(heard, u32::MAX); 2]);
    }

    #[test]
    fn tiny_rasters_match_dense() {
        let net =
            Network::uniform(vec![Point::new(-2.0, 0.0), Point::new(2.0, 0.0)], 0.05, 0.4).unwrap();
        let engine = net.query_engine();
        for (w, h) in [(1, 1), (1, 7), (3, 2), (5, 5)] {
            let window = BBox::centered_square(4.0);
            let dense = ReceptionMap::compute_with_engine(&engine, window, w, h);
            let (hier, stats) =
                ReceptionMap::compute_hierarchical_with_engine(&engine, window, w, h);
            assert_eq!(dense, hier, "{w}×{h}");
            assert_eq!(stats.pixels, (w * h) as u64);
        }
    }
}
