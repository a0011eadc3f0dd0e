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
//! resolves goes to ONE ordinary [`QueryEngine::locate_batch`] call.
//!
//! ## The equivalence contract
//!
//! The produced [`Raster`] is **bit-identical** to the dense path of the
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
//!   pixels changes nothing;
//! * a backend without certificates (`sinr_bounds_cell` → `None`, e.g.
//!   the approximate Theorem-3 locator) degrades to exactly the dense
//!   evaluation in one batch.
//!
//! ## Parallel refinement
//!
//! The first `SERIAL_LEVELS` (3) levels of the quadtree are certified
//! serially. Every `Mixed` cell on the last of them hands its children
//! to `sinr-core`'s work-stealing scheduler ([`steal_tiles`]) as
//! independent subtrees, at most 64, each with a shared (`Arc`) copy of
//! its parent certificate. A worker refines each subtree it claims to pixel
//! resolution, writing labels straight into that subtree's own
//! rectangle of the raster (subtrees are disjoint, so no two workers
//! touch a pixel) and collecting its unresolved pixels and counters in
//! per-worker scratch. On one core the scheduler runs the same subtrees
//! inline. The label buffer is initialised across the cores too
//! ([`filled_vec`]): first-touching a 2048² raster's 64 MiB is
//! otherwise the largest serial step of the whole map.
//!
//! Scheduling cannot change a pixel: a cell's certificate depends only
//! on the cell and its parent certificate, so a subtree computes the
//! same certificates, fills and per-pixel answers whichever worker runs
//! it and when; the unresolved pixels reach the final `locate_batch` in
//! a scheduling-dependent order, but its per-point answers are
//! order-independent; and the counters are sums.
//!
//! The payoff is reported, not assumed: [`HierarchicalStats`] carries
//! the evaluated-pixel fraction (the `cells_evaluated / pixels` metric
//! the perf harness trends).

use crate::raster::{assert_window, pixel_center, PixelLabel, Raster, ReceptionMap};
use sinr_core::engine::{filled_vec, Located, QueryEngine};
use sinr_core::tile::{steal_tiles, CellCert, CellDecision};
use sinr_core::Network;
use sinr_geometry::{BBox, Point};
use std::sync::{Arc, Mutex};

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
    /// final `locate_batch`) because no cell-level certificate resolved
    /// them wholesale — the cost driver, and the numerator of
    /// [`HierarchicalStats::fraction`].
    pub cells_evaluated: u64,
    /// Interval certificates computed during refinement.
    pub certificates: u64,
    /// Of [`HierarchicalStats::cells_evaluated`], pixels answered by the
    /// per-point certified path ([`QueryEngine::locate_in_cell`] against
    /// the enclosing cell's certificate, `O(candidates)` each); the
    /// remainder went through the final `locate_batch`.
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

/// A writable rectangle of the label buffer: one slice per row, with
/// `rows[0][0]` at pixel `(col0, row0)`. The serial levels write through
/// a block spanning the whole raster; each parallel subtree owns a block
/// spanning exactly its region, so workers write disjoint pixels.
struct Block<'a> {
    col0: usize,
    row0: usize,
    rows: Vec<&'a mut [PixelLabel]>,
}

impl Block<'_> {
    fn set(&mut self, col: usize, row: usize, label: PixelLabel) {
        self.rows[row - self.row0][col - self.col0] = label;
    }

    fn fill(&mut self, r: Region, label: PixelLabel) {
        for row in r.r0..r.r1 {
            self.rows[row - self.row0][r.c0 - self.col0..r.c1 - self.col0].fill(label);
        }
    }
}

/// A `Mixed` cell's child handed to the scheduler, with the certificate
/// of the cell it came from.
struct Subtree {
    region: Region,
    parent: Arc<CellCert>,
}

/// One worker's scratch: what its regions left unresolved, and its
/// counters. The serial levels use one too.
#[derive(Default)]
struct Refiner {
    /// Row-major indices of pixels no certificate resolved.
    unresolved: Vec<usize>,
    stats: HierarchicalStats,
}

impl Refiner {
    /// Refines `region` under a (contained) parent certificate, down to
    /// pixel resolution.
    fn refine<E: QueryEngine + ?Sized>(
        &mut self,
        grid: &Grid<E>,
        block: &mut Block,
        region: Region,
        parent: Option<&CellCert>,
    ) {
        if let Some(cert) = self.certify(grid, block, region, parent) {
            for child in region.children() {
                self.refine(grid, block, child, Some(&cert));
            }
        }
    }

    /// The first [`SERIAL_LEVELS`] levels of [`Refiner::refine`]: the
    /// children of a `Mixed` cell on the last of them are pushed onto
    /// `subtrees` instead of being refined.
    fn split<E: QueryEngine + ?Sized>(
        &mut self,
        grid: &Grid<E>,
        block: &mut Block,
        region: Region,
        parent: Option<&CellCert>,
        level: usize,
        subtrees: &mut Vec<Subtree>,
    ) {
        let Some(cert) = self.certify(grid, block, region, parent) else {
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
                self.split(grid, block, child, Some(&cert), level + 1, subtrees);
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
        block: &mut Block,
        region: Region,
        parent: Option<&CellCert>,
    ) -> Option<CellCert> {
        let count = region.pixels();
        if count == 0 {
            return None;
        }
        if count < MIN_CERT_PIXELS {
            self.defer(grid, block, region, parent);
            return None;
        }
        // The certified box spans the pixel *centres* of the region —
        // the only points the raster ever samples. (For 1-wide strips
        // this is a flat box; the certificate layer accepts it.)
        let lo = grid.center(region.c0, region.r0);
        let hi = grid.center(region.c1 - 1, region.r1 - 1);
        let Some(cert) = grid.engine.sinr_bounds_cell(lo, hi, parent) else {
            // Certificate-less backend: dense-equivalent in one batch.
            self.defer(grid, block, region, None);
            return None;
        };
        self.stats.certificates += 1;
        let label = match cert.decision() {
            CellDecision::Reception(i) => PixelLabel::Heard(i),
            CellDecision::Silent => PixelLabel::Silent,
            CellDecision::Mixed => return Some(cert),
        };
        block.fill(region, label);
        self.stats.certified_pixels += count as u64;
        None
    }

    /// Resolves a sub-certificate-sized region per pixel against its
    /// containing cell's certificate (candidate-only certified
    /// decisions — every `Some` bit-identical to `locate_batch`),
    /// queueing whatever the margins cannot pin for the final batch.
    /// The per-pixel attempt matters: boundary pixels are spatially
    /// scattered, so the final batch's Morton tiles span wide boxes and
    /// prune poorly, while the certificate in hand already names the
    /// few competitive stations.
    fn defer<E: QueryEngine + ?Sized>(
        &mut self,
        grid: &Grid<E>,
        block: &mut Block,
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
                                    block.set(col, row, label_of(loc));
                                }
                                None => self.unresolved.push(row * grid.width + col),
                            }
                            i += 1;
                        }
                    }
                    return;
                }
            }
        }
        for row in r0..r1 {
            for col in c0..c1 {
                self.unresolved.push(row * grid.width + col);
            }
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

/// Splits the label buffer into one [`Block`] per subtree. Subtrees are
/// distinct quadtree cells of one level, hence pairwise disjoint, so
/// every row splits into disjoint column segments in `c0` order.
fn subtree_blocks<'a>(
    cells: &'a mut [PixelLabel],
    width: usize,
    subtrees: &[Subtree],
) -> Vec<Mutex<Block<'a>>> {
    let mut blocks: Vec<Block> = subtrees
        .iter()
        .map(|s| Block {
            col0: s.region.c0,
            row0: s.region.r0,
            rows: Vec::with_capacity(s.region.r1 - s.region.r0),
        })
        .collect();
    let mut by_col: Vec<usize> = (0..subtrees.len()).collect();
    by_col.sort_by_key(|&t| subtrees[t].region.c0);
    for (row, mut rest) in cells.chunks_mut(width).enumerate() {
        let mut start = 0;
        for &t in &by_col {
            let r = subtrees[t].region;
            if (r.r0..r.r1).contains(&row) {
                let (_, tail) = std::mem::take(&mut rest).split_at_mut(r.c0 - start);
                let (segment, tail) = tail.split_at_mut(r.c1 - r.c0);
                blocks[t].rows.push(segment);
                rest = tail;
                start = r.c1;
            }
        }
    }
    blocks.into_iter().map(Mutex::new).collect()
}

/// Rasterises any [`QueryEngine`] backend over a window by quadtree
/// refinement — the engine-generic worker behind
/// [`ReceptionMap::compute_hierarchical`], with the same
/// [`Located`]-to-[`PixelLabel`] projection as
/// [`ReceptionMap::compute_with_engine`] (uncertain pixels label
/// silent).
///
/// The raster is bit-identical to the dense
/// [`ReceptionMap::compute_with_engine`] on the same backend, on any
/// number of cores; the returned [`HierarchicalStats`] reports how
/// little of it was paid for per-pixel.
///
/// # Panics
///
/// Panics if either dimension is zero or the window is degenerate (zero
/// width or height), exactly like the dense path.
pub fn hierarchical_map<E: QueryEngine + Sync + ?Sized>(
    engine: &E,
    window: BBox,
    width: usize,
    height: usize,
) -> (ReceptionMap, HierarchicalStats) {
    assert!(
        width > 0 && height > 0,
        "raster dimensions must be positive"
    );
    assert_window(&window);
    let grid = Grid {
        engine,
        window,
        width,
        height,
    };
    let mut cells = filled_vec(PixelLabel::Silent, width * height);
    let whole = Region {
        c0: 0,
        c1: width,
        r0: 0,
        r1: height,
    };
    let mut top = Refiner::default();
    let mut subtrees = Vec::new();
    let mut block = Block {
        col0: 0,
        row0: 0,
        rows: cells.chunks_mut(width).collect(),
    };
    top.split(&grid, &mut block, whole, None, 0, &mut subtrees);
    drop(block);
    let blocks = subtree_blocks(&mut cells, width, &subtrees);
    let workers = steal_tiles::<Refiner, _>(subtrees.len(), |t, refiner| {
        let mut block = blocks[t].lock().expect("a worker panicked mid-subtree");
        let subtree = &subtrees[t];
        refiner.refine(&grid, &mut block, subtree.region, Some(&subtree.parent));
    });
    drop(blocks);
    let mut stats = top.stats;
    let mut unresolved = top.unresolved;
    for worker in workers {
        stats.absorb(&worker.stats);
        unresolved.extend(worker.unresolved);
    }
    stats.pixels = (width * height) as u64;
    stats.cells_evaluated += unresolved.len() as u64;
    if !unresolved.is_empty() {
        let centers: Vec<Point> = unresolved
            .iter()
            .map(|&idx| grid.center(idx % width, idx / width))
            .collect();
        let mut located = vec![Located::Silent; centers.len()];
        engine.locate_batch(&centers, &mut located);
        for (&idx, &loc) in unresolved.iter().zip(located.iter()) {
            cells[idx] = label_of(loc);
        }
    }
    (Raster::from_cells(window, width, height, cells), stats)
}

impl ReceptionMap {
    /// Rasterises the SINR diagram by quadtree refinement: whole cells
    /// whose certified SINR interval lies strictly on one side of `β`
    /// are resolved from the certificate, and only boundary-straddling
    /// cells recurse down to pixel resolution — cost tracks zone
    /// *boundary length*, not window *area*, on megapixel grids.
    ///
    /// The pixels are bit-identical to [`ReceptionMap::compute`] on the
    /// same network; the stats report the evaluated fraction.
    pub fn compute_hierarchical(
        net: &Network,
        window: BBox,
        width: usize,
        height: usize,
    ) -> (Self, HierarchicalStats) {
        hierarchical_map(&net.query_engine(), window, width, height)
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
        hierarchical_map(engine, window, width, height)
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
