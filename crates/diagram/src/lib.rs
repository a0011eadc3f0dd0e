//! # sinr-diagram
//!
//! Rasterised SINR diagrams and the paper's numerically generated figures.
//!
//! An *SINR diagram* is the partition of the plane into the reception
//! zones `H₀ … H_{n−1}` and the silent remainder `H_∅` (paper, Section 1).
//! This crate renders that partition:
//!
//! * [`ReceptionMap`] — a pixel raster labelling each sample point with
//!   the station heard there (SINR or protocol model);
//! * [`quadtree`] — hierarchical rasterisation: interval-certified
//!   quadtree refinement that resolves whole cells away from the zone
//!   boundaries into row-major label runs ([`ReceptionRuns`]), whose
//!   expansion is bit-identical to the dense path;
//! * [`render`] — ASCII, PGM/PPM and CSV writers for reception maps;
//! * [`figures`] — the exact scenes of the paper's Figures 1–5 with
//!   their narrated reception outcomes, used by the reproduction harness;
//! * [`partition`] — the Theorem 3 partition `H⁺ / H? / H⁻` of Figure 6,
//!   rasterised from a built point locator;
//! * [`measure`] — raster-level measurements (zone areas, convexity
//!   defect against the pixel convex hull) used to cross-check the
//!   analytic machinery in `sinr-core`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod figures;
pub mod measure;
pub mod partition;
pub mod quadtree;
pub mod raster;
pub mod render;

pub use quadtree::{HierarchicalStats, ReceptionRuns};
pub use raster::{PixelLabel, Raster, ReceptionMap};
