#![warn(missing_docs)]

//! An in-memory R-tree [Guttman 1984], the spatial access method behind the
//! paper's *on-the-fly Index* optimizations.
//!
//! SGB-All (Procedure 5) indexes the bounding rectangles of the groups
//! discovered so far (`Groups_IX`) and answers, for each incoming point, a
//! window query with the point's ε-rectangle. SGB-Any (Procedure 8) indexes
//! the previously processed *points* (`Points_IX`) the same way. Groups
//! mutate as points join/leave, so the index supports deletion and
//! re-insertion, not just insertion.
//!
//! The implementation is a classic dynamic R-tree with quadratic split and
//! the `CondenseTree` deletion algorithm, arena-allocated, const-generic
//! over the dimension and generic over the stored payload. Indexes built
//! from a complete point set are bulk-loaded with sort-tile-recursive
//! packing ([`RTree::from_points`]) instead of one-at-a-time inserts.
//!
//! Alongside the R-tree lives the [`Grid`] — a hashed uniform epsilon-grid
//! purpose-built for the ε-bounded probes at the heart of the similarity
//! operators (cell side = ε ⇒ a probe touches only a point's own cell and
//! its immediate neighbours, with no tree descent at all).

pub mod grid;
pub mod rtree;

pub use grid::{ConnectivityJoin, Grid, JoinPass, JoinTally};
pub use rtree::RTree;
