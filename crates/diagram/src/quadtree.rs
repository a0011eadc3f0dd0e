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
//! any cell whose certificate proves one uniform reception decision
//! ([`CellDecision::Reception`] or [`CellDecision::Silent`]) for all of
//! its points is resolved wholesale, and only cells the certificate
//! leaves [`CellDecision::Mixed`] are subdivided — down to pixel
//! resolution. A leaf tries its pixels *against the certificate in
//! hand* ([`QueryEngine::locate_in_cell`] — candidate-only certified
//! decisions, `O(candidates)` per pixel) and answers each pixel the
//! certificate cannot pin with the backend's own
//! [`QueryEngine::locate`], right there.
//!
//! ## Runs, not pixels
//!
//! The same fatness bounds the *output*: a raster's row-major label runs
//! grow with the zone perimeters, not with the pixel count. So the
//! product of [`hierarchical_map`] is a [`ReceptionRuns`] — maximal
//! row-major runs, bottom row first — and no dense label buffer is ever
//! allocated. Refinement records *pieces* `(row, c0, c1, label)`: a
//! certified cell is one piece per row, and a piece that continues its
//! row's latest piece with the same label extends it, so leaves answered
//! pixel by pixel add pieces per run, not per pixel. Each worker's
//! pieces are bucketed by row in place (a counting sort), each row
//! gathers its pieces from every worker and orders them by column, and
//! one merge of equal neighbours (across row ends too) turns them into
//! runs. [`ReceptionRuns::expand`] is the thin dense expansion for
//! callers who want a [`ReceptionMap`].
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
//! * every other pixel is answered by the backend itself: a `Some` of
//!   `locate_in_cell` is pinned bit-identical to its `locate`, and
//!   `locate` is what its `locate_batch` answers at every point;
//! * a backend without certificates (`sinr_bounds_cell` → `None`, e.g.
//!   the approximate Theorem-3 locator) splits every cell without one,
//!   so every pixel is a leaf pixel answered by `locate`: exactly the
//!   dense evaluation.
//!
//! ## Parallel refinement
//!
//! The first `SERIAL_LEVELS` (3) levels of the quadtree are refined
//! serially. Every cell that splits on the last of them hands its
//! children to `sinr-core`'s work-stealing scheduler ([`steal_tiles`])
//! as independent subtrees, at most 64, each with a shared (`Arc`) copy
//! of its parent certificate, if any. A worker refines each subtree it
//! claims to pixel resolution, collecting its pieces and counters in
//! per-worker scratch; workers share nothing writable. On one core the
//! scheduler runs the same subtrees inline.
//!
//! Scheduling cannot change a run: a cell's certificate depends only on
//! the cell and its parent certificate, so a subtree computes the same
//! certificates, fills and per-pixel answers whichever worker runs it
//! and when; the pieces are sorted before they are merged; and the
//! counters are sums.
//!
//! The payoff is reported, not assumed: [`HierarchicalStats`] carries
//! the evaluated-pixel fraction (the `cells_evaluated / pixels` metric
//! the perf harness trends).

use crate::raster::{assert_window, pixel_center, PixelLabel, Raster, ReceptionMap};
use sinr_core::engine::{Located, QueryEngine};
use sinr_core::tile::{steal_tiles, CellCert, CellDecision};
use sinr_core::{Network, StationId};
use sinr_geometry::{BBox, Point};
use std::sync::Arc;

/// Below this many pixels a region skips certification and is answered
/// pixel by pixel: a certificate costs at least a candidate re-envelope
/// pass, which cannot pay for itself on 1–3 pixels. Recursion therefore
/// bottoms out at 2×2 cells — small enough that the unresolved band
/// hugs the zone boundaries at pixel scale.
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
    /// Pixels answered one by one in a quadtree leaf
    /// (`locate_in_cell` against the enclosing certificate, else the
    /// backend's `locate`) because no cell-level certificate resolved
    /// them wholesale — the cost driver, and the numerator of
    /// [`HierarchicalStats::fraction`].
    pub cells_evaluated: u64,
    /// Interval certificates computed during refinement.
    pub certificates: u64,
    /// Of [`HierarchicalStats::cells_evaluated`], pixels answered by the
    /// per-point certified path ([`QueryEngine::locate_in_cell`] against
    /// the enclosing cell's certificate, `O(candidates)` each); the
    /// remainder paid the backend's full `locate`.
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

/// Columns `[c0, c1)` of one row, all labelled `label`. 16 bytes: the
/// label is packed ([`pack`]).
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
/// of the cell it came from (`None` for a backend without certificates).
struct Subtree {
    region: Region,
    parent: Option<Arc<CellCert>>,
}

/// What a region's own certificate settles.
enum Outcome {
    /// Every pixel of the region is answered.
    Filled,
    /// The region must be subdivided, under its own `Mixed` certificate
    /// or, for a backend without certificates, under none.
    Split(Option<CellCert>),
}

/// One worker's scratch: the pieces its regions resolved and its
/// counters. The serial levels use one too.
#[derive(Default)]
struct Refiner {
    pieces: Vec<Piece>,
    /// `tails[row]` indexes the row's latest piece (`usize::MAX` while
    /// it has none); sized to the raster's height on first use.
    tails: Vec<usize>,
    stats: HierarchicalStats,
}

impl Refiner {
    /// Appends `piece`, extending its row's latest piece instead when it
    /// continues that one with the same label: a region answered pixel
    /// by pixel adds pieces per label run, not per pixel.
    fn push(&mut self, height: usize, piece: Piece) {
        if self.tails.is_empty() {
            self.tails = vec![usize::MAX; height];
        }
        let tail = &mut self.tails[piece.row as usize];
        match self.pieces.get_mut(*tail) {
            Some(last) if last.c1 == piece.c0 && last.label == piece.label => last.c1 = piece.c1,
            _ => {
                *tail = self.pieces.len();
                self.pieces.push(piece);
            }
        }
    }

    /// Refines `region` under a (contained) parent certificate, down to
    /// pixel resolution.
    fn refine<E: QueryEngine + ?Sized>(
        &mut self,
        grid: &Grid<E>,
        region: Region,
        parent: Option<&CellCert>,
    ) {
        if let Outcome::Split(cert) = self.certify(grid, region, parent) {
            for child in region.children() {
                self.refine(grid, child, cert.as_ref());
            }
        }
    }

    /// The first [`SERIAL_LEVELS`] levels of [`Refiner::refine`]: the
    /// children of a split cell on the last of them are pushed onto
    /// `subtrees` instead of being refined.
    fn split<E: QueryEngine + ?Sized>(
        &mut self,
        grid: &Grid<E>,
        region: Region,
        parent: Option<&CellCert>,
        level: usize,
        subtrees: &mut Vec<Subtree>,
    ) {
        let Outcome::Split(cert) = self.certify(grid, region, parent) else {
            return;
        };
        if level + 1 >= SERIAL_LEVELS {
            let cert = cert.map(Arc::new);
            subtrees.extend(region.children().map(|region| Subtree {
                region,
                parent: cert.clone(),
            }));
        } else {
            for child in region.children() {
                self.split(grid, child, cert.as_ref(), level + 1, subtrees);
            }
        }
    }

    /// Resolves whatever `region`'s own certificate settles: a uniform
    /// decision fills the region, and a region too small to certify is
    /// answered per pixel. Otherwise the region splits; children
    /// re-envelope only the surviving candidates of its certificate.
    fn certify<E: QueryEngine + ?Sized>(
        &mut self,
        grid: &Grid<E>,
        region: Region,
        parent: Option<&CellCert>,
    ) -> Outcome {
        let count = region.pixels();
        if count < MIN_CERT_PIXELS {
            self.answer(grid, region, parent);
            return Outcome::Filled;
        }
        // The certified box spans the pixel *centres* of the region —
        // the only points the raster ever samples. (For 1-wide strips
        // this is a flat box; the certificate layer accepts it.)
        let lo = grid.center(region.c0, region.r0);
        let hi = grid.center(region.c1 - 1, region.r1 - 1);
        let Some(cert) = grid.engine.sinr_bounds_cell(lo, hi, parent) else {
            return Outcome::Split(None);
        };
        self.stats.certificates += 1;
        let label = match cert.decision() {
            CellDecision::Reception(i) => PixelLabel::Heard(i),
            CellDecision::Silent => PixelLabel::Silent,
            CellDecision::Mixed => return Outcome::Split(Some(cert)),
        };
        for row in region.r0..region.r1 {
            self.push(grid.height, Piece::new(row, region.c0, region.c1, label));
        }
        self.stats.certified_pixels += count as u64;
        Outcome::Filled
    }

    /// Answers a sub-certificate-sized region pixel by pixel: against
    /// the enclosing cell's certificate first (candidate-only certified
    /// decisions, `O(candidates)` each), and every pixel that the
    /// margins cannot pin, or that has no certificate, by the backend's
    /// own `locate`.
    fn answer<E: QueryEngine + ?Sized>(
        &mut self,
        grid: &Grid<E>,
        region: Region,
        parent: Option<&CellCert>,
    ) {
        let Region { c0, c1, r0, r1 } = region;
        let pixels = || (r0..r1).flat_map(move |row| (c0..c1).map(move |col| (col, row)));
        let mut pts = [Point::ORIGIN; MIN_CERT_PIXELS - 1];
        let mut located = [None; MIN_CERT_PIXELS - 1];
        let k = region.pixels();
        for (pt, (col, row)) in pts.iter_mut().zip(pixels()) {
            *pt = grid.center(col, row);
        }
        if let Some(cert) = parent {
            // A backend that declines the path leaves every slot `None`.
            grid.engine
                .locate_in_cell(cert, &pts[..k], &mut located[..k]);
        }
        for (((col, row), &p), certified) in pixels().zip(&pts).zip(located) {
            self.stats.cells_evaluated += 1;
            self.stats.point_certified += u64::from(certified.is_some());
            let loc = certified.unwrap_or_else(|| grid.engine.locate(p));
            self.push(grid.height, Piece::new(row, col, col + 1, label_of(loc)));
        }
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
        refiner.refine(&grid, subtree.region, subtree.parent.as_deref());
    });
    let mut stats = top.stats;
    stats.pixels = (width * height) as u64;
    let mut lists = vec![top.pieces];
    for worker in workers {
        stats.absorb(&worker.stats);
        lists.push(worker.pieces);
    }
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
    /// whose certificate proves a uniform decision (reception from one
    /// station, or silence) are resolved from it, and only
    /// boundary-straddling cells recurse down to pixel resolution —
    /// cost tracks zone
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
        // Leaves answer from the certificate where it pins the pixel and
        // fall back to `locate` where it does not: both paths ran.
        assert!(
            0 < stats.point_certified && stats.point_certified < stats.cells_evaluated,
            "{stats:?}"
        );
    }

    #[test]
    fn per_pixel_leaves_extend_row_pieces() {
        // The Theorem-3 locator has no certificates, so every pixel is
        // answered in a 2×2 leaf; over a window of one label each row
        // must still end as one piece, not one per leaf.
        let net =
            Network::uniform(vec![Point::new(-2.0, 0.0), Point::new(2.0, 0.0)], 0.05, 1.5).unwrap();
        let qds =
            sinr_pointloc::PointLocator::build(&net, &sinr_pointloc::QdsConfig::with_epsilon(0.25))
                .unwrap();
        let (width, height) = (64, 48);
        let grid = Grid {
            engine: &qds,
            window: BBox::new(Point::new(100.0, 100.0), Point::new(110.0, 110.0)),
            width,
            height,
        };
        let mut refiner = Refiner::default();
        refiner.refine(
            &grid,
            Region {
                c0: 0,
                c1: width,
                r0: 0,
                r1: height,
            },
            None,
        );
        assert_eq!(refiner.stats.cells_evaluated, (width * height) as u64);
        assert_eq!(refiner.stats.certificates, 0);
        assert_eq!(refiner.pieces.len(), height);
        assert!(refiner
            .pieces
            .iter()
            .all(|p| p.c1 - p.c0 == width as u32 && unpack(p.label) == PixelLabel::Silent));
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
