//! Computational-geometry kernel for the PBSM spatial-join reproduction.
//!
//! This crate implements every geometric primitive and algorithm the paper
//! relies on:
//!
//! * [`Point`], [`Rect`] (minimum bounding rectangles), [`Segment`],
//!   [`Polyline`], and [`Polygon`] with holes (the paper's
//!   "swiss-cheese polygons").
//! * The **plane-sweep rectangle-intersection** algorithm of §3.1 — the
//!   "spatial equivalent of sort–merge" used to join partition pairs and,
//!   in \[BKS93\], to join the entries of two R\*-tree nodes
//!   ([`sweep::sweep_join`]), plus the footnote-1 variant that organizes the
//!   active set in an interval tree ([`sweep::sweep_join_interval`]).
//! * A dynamic [`interval_tree::IntervalTree`].
//! * Exact-geometry **refinement predicates**: polyline × polyline
//!   intersection both as a naive O(n·m) scan and as a plane sweep (the
//!   paper reports the sweep saves 62 % of refinement cost), and polygon
//!   containment honouring holes ([`predicates`]).
//! * The **Hilbert** space-filling curve used for spatial sorting during
//!   bulk loads ([`hilbert`]).
//! * The MBR/MER multi-step refinement filter of \[BKSS94\] ([`mer`]).
//!
//! The kernel is dependency-free and deterministic; all coordinates are
//! `f64`.

pub mod hilbert;
pub mod interval_tree;
pub mod lcg;
pub mod mer;
pub mod point;
pub mod polygon;
pub mod polyline;
pub mod predicates;
pub mod rect;
pub mod seg_sweep;
pub mod segment;
pub mod sweep;

mod geometry;

pub use geometry::Geometry;
pub use point::Point;
pub use polygon::Polygon;
pub use polyline::Polyline;
pub use rect::Rect;
pub use segment::Segment;
