//! Reception-map rasterisation.
//!
//! The paper's figures are "numerically generated": a dense grid of
//! receiver points, each labelled by the station heard there (if any).
//! [`ReceptionMap::compute`] reproduces exactly that on top of the
//! batched query engine of `sinr_core`: all pixel centres are collected
//! once and answered through
//! [`QueryEngine::locate_batch`] —
//! work-stolen across cores, with the weighted kd-tree dispatch to the
//! strongest station (the nearest one under uniform power, Observation
//! 2.2). Any backend works; see
//! [`locate_raster`].

use sinr_core::engine::{Located, QueryEngine};
use sinr_core::{Network, StationId};
use sinr_geometry::{BBox, Point};
use sinr_graphs::ProtocolModel;

/// The label of one raster pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PixelLabel {
    /// No station is heard at the pixel (the `H_∅` zone).
    Silent,
    /// The given station is heard.
    Heard(StationId),
}

impl PixelLabel {
    /// The heard station, if any.
    pub fn station(&self) -> Option<StationId> {
        match self {
            PixelLabel::Silent => None,
            PixelLabel::Heard(i) => Some(*i),
        }
    }
}

/// A rectangular raster of values over a window.
#[derive(Debug, Clone, PartialEq)]
pub struct Raster<T> {
    window: BBox,
    width: usize,
    height: usize,
    cells: Vec<T>,
}

impl<T: Copy> Raster<T> {
    /// Creates a raster by evaluating `f` at every pixel centre.
    ///
    /// Pixels are laid out row-major, bottom row first (`y` grows with the
    /// row index, matching plot conventions).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the window is degenerate
    /// (zero width or height — every pixel centre would collapse onto one
    /// line, or go `NaN` under further arithmetic).
    pub fn compute_with(
        window: BBox,
        width: usize,
        height: usize,
        mut f: impl FnMut(Point) -> T,
    ) -> Self {
        assert!(
            width > 0 && height > 0,
            "raster dimensions must be positive"
        );
        assert_window(&window);
        let mut cells = Vec::with_capacity(width * height);
        for row in 0..height {
            for col in 0..width {
                cells.push(f(pixel_center(&window, width, height, col, row)));
            }
        }
        Raster {
            window,
            width,
            height,
            cells,
        }
    }

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

    /// The value at pixel `(col, row)` (row 0 = bottom).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn at(&self, col: usize, row: usize) -> T {
        assert!(col < self.width && row < self.height);
        self.cells[row * self.width + col]
    }

    /// The centre point of pixel `(col, row)`.
    pub fn pixel_center(&self, col: usize, row: usize) -> Point {
        pixel_center(&self.window, self.width, self.height, col, row)
    }

    /// The area represented by one pixel.
    pub fn pixel_area(&self) -> f64 {
        (self.window.width() / self.width as f64) * (self.window.height() / self.height as f64)
    }

    /// Iterates over `(col, row, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.height)
            .flat_map(move |row| (0..self.width).map(move |col| (col, row, self.at(col, row))))
    }
}

impl<T> Raster<T> {
    /// Wraps precomputed row-major cells (bottom row first) — the batched
    /// counterpart of [`Raster::compute_with`].
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, the window is degenerate
    /// (zero width or height), or `cells.len() != width * height`.
    pub fn from_cells(window: BBox, width: usize, height: usize, cells: Vec<T>) -> Self {
        assert!(
            width > 0 && height > 0,
            "raster dimensions must be positive"
        );
        assert_window(&window);
        assert_eq!(cells.len(), width * height, "cell count mismatch");
        Raster {
            window,
            width,
            height,
            cells,
        }
    }
}

/// Rejects sampling windows no pixel grid can span: a zero-width or
/// zero-height `BBox` (e.g. built via `BBox::from_points` over collinear
/// points) would collapse every pixel centre onto one line and poison
/// any later division by the pixel extent with `NaN`/`∞`. `BBox::new`
/// only forbids *inverted* corners, so the raster layer must check this.
pub(crate) fn assert_window(window: &BBox) {
    assert!(
        window.width() > 0.0 && window.height() > 0.0,
        "degenerate raster window {window}: width and height must both be positive"
    );
}

/// All pixel centres of a raster, row-major bottom-first — the batch the
/// query engine consumes.
///
/// # Panics
///
/// Panics if the window is degenerate (zero width or height).
pub fn pixel_centers(window: &BBox, width: usize, height: usize) -> Vec<Point> {
    assert_window(window);
    let mut centers = Vec::with_capacity(width * height);
    for row in 0..height {
        for col in 0..width {
            centers.push(pixel_center(window, width, height, col, row));
        }
    }
    centers
}

/// Rasterises any [`QueryEngine`] backend over a window with one
/// `locate_batch` call — exact backends yield reception maps, the
/// Theorem-3 locator yields `H⁺ / H? / H⁻` partitions.
///
/// # Panics
///
/// Panics if either dimension is zero or the window is degenerate (zero
/// width or height).
pub fn locate_raster<E: QueryEngine + ?Sized>(
    engine: &E,
    window: BBox,
    width: usize,
    height: usize,
) -> Raster<Located> {
    assert!(
        width > 0 && height > 0,
        "raster dimensions must be positive"
    );
    let centers = pixel_centers(&window, width, height);
    let mut located = vec![Located::Silent; centers.len()];
    engine.locate_batch(&centers, &mut located);
    Raster::from_cells(window, width, height, located)
}

pub(crate) fn pixel_center(
    window: &BBox,
    width: usize,
    height: usize,
    col: usize,
    row: usize,
) -> Point {
    Point::new(
        window.min.x + (col as f64 + 0.5) * window.width() / width as f64,
        window.min.y + (row as f64 + 0.5) * window.height() / height as f64,
    )
}

/// A rasterised SINR (or protocol-model) diagram.
pub type ReceptionMap = Raster<PixelLabel>;

impl ReceptionMap {
    /// Rasterises the SINR diagram of a network.
    ///
    /// All pixels are answered in one
    /// [`locate_batch`](QueryEngine::locate_batch) pass through the
    /// network's recommended engine — weighted kd-tree dispatch to the
    /// strongest station for every power assignment — work-stolen across
    /// cores.
    pub fn compute(net: &Network, window: BBox, width: usize, height: usize) -> Self {
        ReceptionMap::compute_with_engine(&net.query_engine(), window, width, height)
    }

    /// Rasterises the diagram through a caller-supplied exact backend.
    ///
    /// The backend must answer definitely ([`Located::Uncertain`] pixels
    /// are labelled silent — use [`locate_raster`] to rasterise an
    /// approximate backend's full partition instead).
    pub fn compute_with_engine<E: QueryEngine + ?Sized>(
        engine: &E,
        window: BBox,
        width: usize,
        height: usize,
    ) -> Self {
        let located = locate_raster(engine, window, width, height);
        let cells = located
            .cells
            .iter()
            .map(|l| match l {
                Located::Reception(i) => PixelLabel::Heard(*i),
                Located::Uncertain(_) | Located::Silent => PixelLabel::Silent,
            })
            .collect();
        Raster::from_cells(window, width, height, cells)
    }

    /// Rasterises the UDG / protocol-model diagram for a transmit mask.
    pub fn compute_protocol(
        model: &ProtocolModel,
        transmitting: &[bool],
        window: BBox,
        width: usize,
        height: usize,
    ) -> Self {
        Raster::compute_with(window, width, height, |p| {
            match model.heard_at(transmitting, p) {
                Some(i) => PixelLabel::Heard(StationId(i)),
                None => PixelLabel::Silent,
            }
        })
    }

    /// Number of pixels labelled with each station (index = station) plus
    /// the silent count, returned as `(per_station, silent)`.
    pub fn label_counts(&self, n_stations: usize) -> (Vec<usize>, usize) {
        let mut per = vec![0usize; n_stations];
        let mut silent = 0usize;
        for (_, _, label) in self.iter() {
            match label {
                PixelLabel::Silent => silent += 1,
                PixelLabel::Heard(i) => per[i.index()] += 1,
            }
        }
        (per, silent)
    }

    /// Estimated area of one station's reception zone (pixel count times
    /// pixel area).
    pub fn zone_area(&self, i: StationId) -> f64 {
        let count = self
            .iter()
            .filter(|(_, _, l)| l.station() == Some(i))
            .count();
        count as f64 * self.pixel_area()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net2() -> Network {
        Network::uniform(vec![Point::new(-2.0, 0.0), Point::new(2.0, 0.0)], 0.0, 2.0).unwrap()
    }

    #[test]
    fn raster_layout() {
        let window = BBox::centered_square(2.0);
        let r = Raster::compute_with(window, 4, 2, |p| p);
        assert_eq!(r.width(), 4);
        assert_eq!(r.height(), 2);
        // bottom-left pixel centre
        let p = r.at(0, 0);
        assert!((p.x - (-1.5)).abs() < 1e-12 && (p.y - (-1.0)).abs() < 1e-12);
        // top-right pixel centre
        let p = r.at(3, 1);
        assert!((p.x - 1.5).abs() < 1e-12 && (p.y - 1.0).abs() < 1e-12);
        assert!((r.pixel_area() - 2.0).abs() < 1e-12);
        assert_eq!(r.iter().count(), 8);
    }

    #[test]
    fn reception_map_labels_match_model() {
        let net = net2();
        let map = ReceptionMap::compute(&net, BBox::centered_square(5.0), 41, 41);
        for (col, row, label) in map.iter() {
            let p = map.pixel_center(col, row);
            assert_eq!(label.station(), net.heard_at(p), "at {p}");
        }
    }

    #[test]
    fn shortcut_agrees_with_full_scan_nonuniform_path() {
        // A β < 1 network takes the full-scan path; results still match
        // heard_at.
        let net =
            Network::uniform(vec![Point::new(-1.0, 0.0), Point::new(1.0, 0.0)], 0.05, 0.5).unwrap();
        let map = ReceptionMap::compute(&net, BBox::centered_square(3.0), 31, 31);
        for (col, row, label) in map.iter() {
            let p = map.pixel_center(col, row);
            assert_eq!(label.station(), net.heard_at(p));
        }
    }

    #[test]
    fn counts_and_areas() {
        let net = net2();
        // Each zone extends Δ = 4/(√2−1) ≈ 9.66 away from its station at
        // ±2, so a window of half-width 14 contains both zones fully.
        let map = ReceptionMap::compute(&net, BBox::centered_square(14.0), 141, 141);
        let (per, silent) = map.label_counts(2);
        assert_eq!(per.iter().sum::<usize>() + silent, 141 * 141);
        // Symmetric configuration ⇒ nearly equal zone pixel counts.
        let diff = (per[0] as i64 - per[1] as i64).abs();
        assert!(diff <= 282, "zones should be symmetric, diff {diff}");
        // Zone areas agree with the analytic estimate within raster error.
        let analytic = net.reception_zone(StationId(0)).area_estimate(512).unwrap();
        let raster = map.zone_area(StationId(0));
        assert!(
            (analytic - raster).abs() < 0.15 * analytic,
            "analytic {analytic} vs raster {raster}"
        );
    }

    #[test]
    fn protocol_map() {
        let model = ProtocolModel::new(vec![Point::new(-2.0, 0.0), Point::new(2.0, 0.0)], 1.0);
        let map = ReceptionMap::compute_protocol(
            &model,
            &[true, true],
            BBox::centered_square(4.0),
            81,
            81,
        );
        for (col, row, label) in map.iter() {
            let p = map.pixel_center(col, row);
            assert_eq!(
                label.station().map(|s| s.index()),
                model.heard_at(&[true, true], p)
            );
        }
        // Two disjoint unit disks: ≈ 2π/64 of the window is covered.
        let (per, _) = map.label_counts(2);
        let covered = (per[0] + per[1]) as f64 * map.pixel_area();
        assert!(
            (covered - 2.0 * std::f64::consts::PI).abs() < 0.3,
            "covered {covered}"
        );
    }

    #[test]
    #[should_panic]
    fn zero_dimensions_panic() {
        let _ = Raster::compute_with(BBox::centered_square(1.0), 0, 4, |_| 0u8);
    }

    #[test]
    #[should_panic(expected = "degenerate raster window")]
    fn zero_width_window_panics() {
        // BBox::new allows flat boxes (only inverted corners are
        // rejected) — e.g. BBox::from_points over collinear points.
        let flat = BBox::new(Point::new(1.0, -2.0), Point::new(1.0, 2.0));
        let _ = Raster::compute_with(flat, 8, 8, |_| 0u8);
    }

    #[test]
    #[should_panic(expected = "degenerate raster window")]
    fn zero_height_window_panics() {
        let flat = BBox::new(Point::new(-2.0, 1.0), Point::new(2.0, 1.0));
        let _ = pixel_centers(&flat, 8, 8);
    }

    #[test]
    #[should_panic(expected = "degenerate raster window")]
    fn locate_raster_rejects_degenerate_window() {
        let net = net2();
        let engine = net.query_engine();
        let flat = BBox::new(Point::ORIGIN, Point::new(0.0, 0.0));
        let _ = locate_raster(&engine, flat, 4, 4);
    }
}
