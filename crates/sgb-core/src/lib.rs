#![warn(missing_docs)]

//! # Similarity Group-By operators for multi-dimensional data
//!
//! This crate implements the similarity-aware SQL group-by operator family
//! of *"Similarity Group-by Operators for Multi-dimensional Relational
//! Data"* (Tang et al.) and its companion on order-independent semantics.
//! All of them group tuples whose grouping attributes form points in a
//! low-dimensional metric space under an `L1` / `L2` / `L∞` distance δ.
//!
//! The family is queried through **one declarative surface**
//! ([`SgbQuery`]): one constructor per operator, the shared knobs declared
//! once, one unified [`Algorithm`] selector, and one [`Grouping`] result
//! that carries member lists, the eliminated set, the radius-bounded
//! outlier set, each SGB-Around group's center, and the resolved
//! execution path.
//!
//! * [`SgbQuery::all`] (*distance-to-all*) forms **maximal cliques**: every
//!   pair of points in a group is within ε. A point matching several groups
//!   is arbitrated by the [`OverlapAction`] (`JOIN-ANY`, `ELIMINATE`,
//!   `FORM-NEW-GROUP`).
//! * [`SgbQuery::any`] (*distance-to-any*) forms **connected components**:
//!   a point joins a group when it is within ε of at least one member;
//!   overlapping groups merge.
//! * [`SgbQuery::around`] (*nearest-center*) assigns every point to the
//!   nearest of a query-supplied set of **center points**, optionally
//!   bounded by a maximum radius with an explicit outlier set. Its
//!   grouping is trivially order-independent.
//!
//! ```
//! use sgb_core::SgbQuery;
//! use sgb_geom::Point;
//!
//! let points: Vec<Point<2>> = vec![
//!     Point::new([1.0, 1.0]),
//!     Point::new([2.0, 2.0]),
//!     Point::new([3.0, 3.0]),
//!     Point::new([9.0, 9.0]),
//! ];
//! // Cliques of pairwise-near points (ε = 1.5, L2 by default):
//! let all = SgbQuery::all(1.5).run(&points);
//! assert_eq!(all.sorted_sizes(), vec![2, 1, 1]);
//! // Chain-connected components:
//! let any = SgbQuery::any(1.5).run(&points);
//! assert_eq!(any.sorted_sizes(), vec![3, 1]);
//! ```
//!
//! Nearest-center grouping around query-supplied seeds:
//!
//! ```
//! use sgb_core::SgbQuery;
//! use sgb_geom::Point;
//!
//! let centers = vec![Point::new([1.0, 1.0]), Point::new([9.0, 9.0])];
//! let points: Vec<Point<2>> = vec![
//!     Point::new([1.5, 1.2]),
//!     Point::new([8.5, 9.0]),
//!     Point::new([2.0, 0.5]),
//! ];
//! let around = SgbQuery::around(centers).run(&points);
//! assert_eq!(around.groups(), &[vec![0, 2], vec![1]]);
//! ```
//!
//! Each run groups its whole input at once with filter-refine machinery
//! (ε-All bounding rectangles, R-trees, a uniform ε-grid, convex-hull
//! refinement for `L2`, Union-Find for merges), and several algorithm
//! variants reproduce the paper's baseline/optimised comparisons — all
//! selectable through the one [`Algorithm`] enum, with `Auto` resolved by
//! the cost model in [`cost`]. [`MaintainedGrouping`] keeps a query's
//! grouping current under point inserts and deletes.
//!
//! [`SgbQuery`] is the only way to run an operator: the per-operator
//! engines behind it are crate-private.

pub mod all;
pub mod any;
pub mod around;
pub mod cache;
pub mod config;
pub mod cost;
pub mod governor;
pub mod grouping;
pub mod incremental;
pub mod query;

pub use around::CenterId;
pub use cache::{CacheStats, SgbCache};
pub use config::{Algorithm, OverlapAction};
pub use governor::{CancelToken, QueryGovernor, SgbError};
pub use grouping::{Grouping, RecordId};
pub use incremental::{MaintainedGrouping, SlotId};
pub use query::SgbQuery;

// Re-export the geometry vocabulary so downstream users need one import.
pub use sgb_geom::{Metric, Point, Point2, Point3, Rect};

// Re-export the telemetry vocabulary: queries accept a `Telemetry` handle
// and groupings carry the resulting `QueryProfile`.
pub use sgb_telemetry::{Counter, Phase, QueryProfile, Telemetry};
