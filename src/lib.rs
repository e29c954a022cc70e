#![warn(missing_docs)]

//! # `sgb` — Similarity Group-By operators for multi-dimensional relational data
//!
//! Umbrella crate for the reproduction of *"Similarity Group-by Operators
//! for Multi-dimensional Relational Data"* (Tang et al.). It re-exports the
//! workspace crates:
//!
//! | crate | contents |
//! |---|---|
//! | [`sgb_core`] | the SGB-All / SGB-Any / SGB-Around operators behind the unified [`SgbQuery`] surface, plus the cost-based `Auto` algorithm selection (the paper lineage's contribution) |
//! | [`sgb_geom`] | points, rectangles, the `L1`/`L2`/`L∞` metrics, convex hulls |
//! | [`sgb_spatial`] | the on-the-fly R-tree (STR bulk loading) and the uniform ε-grid |
//! | [`sgb_dsu`] | Union-Find for group merging |
//! | [`sgb_cluster`] | K-means / DBSCAN / BIRCH baselines |
//! | [`sgb_relation`] | the mini SQL engine with the `DISTANCE-TO-ALL` / `DISTANCE-TO-ANY` / `AROUND` grammar and typed [`SessionOptions`] |
//! | [`sgb_datagen`] | TPC-H-like, check-in, and synthetic workload generators |
//!
//! The whole operator family is driven through **three unified types**:
//! one [`SgbQuery`] builder (`::all` / `::any` / `::around`), one
//! [`Algorithm`] selector, and one [`Grouping`] result.
//!
//! ## Quickstart
//!
//! ```
//! use sgb::{Point, SgbQuery};
//!
//! let pts: Vec<Point<2>> = vec![
//!     Point::new([1.0, 1.0]),
//!     Point::new([1.5, 1.2]),
//!     Point::new([5.0, 5.0]),
//! ];
//! // ε-cliques and connected components from the same builder:
//! assert_eq!(SgbQuery::all(1.0).run(&pts).num_groups(), 2);
//! assert_eq!(SgbQuery::any(1.0).run(&pts).num_groups(), 2);
//! ```
//!
//! Or grouped *around* query-supplied centers (SGB-Around, the
//! order-independent family member), with a radius bound that sends
//! far-away records to an explicit outlier set:
//!
//! ```
//! use sgb::{Point, SgbQuery};
//!
//! let pts: Vec<Point<2>> = vec![
//!     Point::new([1.0, 1.0]),
//!     Point::new([1.5, 1.2]),
//!     Point::new([5.0, 5.0]),
//! ];
//! let centers = vec![Point::new([1.0, 1.0]), Point::new([9.0, 9.0])];
//! let out = SgbQuery::around(centers).max_radius(2.0).run(&pts);
//! assert_eq!(out.groups(), &[vec![0, 1]]); // the far center stays empty
//! assert_eq!(out.outliers(), &[2]); // (5, 5) is > 2 from both centers
//! ```
//!
//! Every run reports which execution path the cost model picked and why —
//! the same story `EXPLAIN` tells at the SQL layer:
//!
//! ```
//! use sgb::{Algorithm, Point, SgbQuery};
//!
//! let pts = vec![Point::new([0.0, 0.0]), Point::new([1.0, 1.0])];
//! let out = SgbQuery::any(0.5).run(&pts);
//! assert_eq!(out.resolved_algorithm(), Algorithm::AllPairs); // tiny input
//! assert!(out.selection_reason().contains("n = 2"));
//! ```
//!
//! Or through SQL, with the session's engine options typed as
//! [`SessionOptions`]:
//!
//! ```
//! use sgb::{Algorithm, Database};
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE p (x DOUBLE, y DOUBLE)").unwrap();
//! db.execute("INSERT INTO p VALUES (1.0, 1.0), (1.5, 1.2), (5.0, 5.0)").unwrap();
//! let out = db
//!     .execute("SELECT count(*) FROM p GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1")
//!     .unwrap();
//! assert_eq!(out.len(), 2);
//! // The AROUND grammar runs through the same pipeline:
//! let around = db
//!     .execute("SELECT count(*) FROM p GROUP BY x, y AROUND ((1, 1), (5, 5)) WITHIN 2")
//!     .unwrap();
//! assert_eq!(around.len(), 2);
//! // One mutable surface for the engine options:
//! db.session_mut().any_algorithm = Algorithm::Grid;
//! let plan = db
//!     .explain("SELECT count(*) FROM p GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1")
//!     .unwrap();
//! assert!(plan.contains("path: Grid, threads: 1; pinned by session options"));
//! ```
//!
//! Each `Database` session keeps a **shared-work cache** across queries:
//! built indexes are reused (one ε-grid serves any larger-ε query), exact
//! repeats return straight from a result cache, and `EXPLAIN` reports
//! `index: cached (hit)` vs `built`:
//!
//! ```
//! use sgb::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE p (x DOUBLE, y DOUBLE)").unwrap();
//! db.execute("INSERT INTO p VALUES (1.0, 1.0), (1.5, 1.2), (5.0, 5.0)").unwrap();
//! let q = "SELECT count(*) FROM p GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1";
//! let first = db.execute(q).unwrap();
//! assert_eq!(db.execute(q).unwrap(), first); // served from the result cache
//! assert_eq!(db.cache_stats().result_hits, 1);
//! ```

/// Clustering baselines (K-means, DBSCAN, BIRCH).
pub use sgb_cluster as cluster;
/// The similarity group-by operators.
pub use sgb_core as core;
/// Workload generators.
pub use sgb_datagen as datagen;
/// Disjoint-set union.
pub use sgb_dsu as dsu;
/// Geometry primitives.
pub use sgb_geom as geom;
/// The mini relational engine.
pub use sgb_relation as relation;
/// The R-tree spatial index.
pub use sgb_spatial as spatial;
/// Query profiles, the metrics registry, and the slow-query log.
pub use sgb_telemetry as telemetry;

// The unified operator surface: one builder, one algorithm selector, one
// result type — the only way to run an operator and read its answer set.
pub use sgb_core::query::{Grouping, SgbQuery};
pub use sgb_core::{Algorithm, OverlapAction};
pub use sgb_geom::{Metric, Point, Point2, Point3, Rect};
pub use sgb_relation::{Database, SessionOptions};
