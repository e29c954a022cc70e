//! The session's shared-work caches: one [`sgb_core::SgbCache`] per
//! `(table, grouping coordinates, dimensionality)` slot, plus the
//! extracted-point cache that lets repeat queries skip the O(n·d)
//! row-to-point conversion (and its finiteness validation) entirely.
//!
//! The executor routes a similarity node through a slot whenever the node
//! scans a base table directly (only then does the catalog's table
//! version describe the operator's actual input); the planner *probes*
//! the same slots read-only to report `index: cached (hit)` vs `built`
//! in `EXPLAIN` and to let `Auto` account for a zero-build-cost index.
//!
//! Both mutexes are poison-tolerant, as the core cache's is: neither
//! critical section writes until its work has succeeded (a slot is
//! inserted whole, extracted points only once `build` returned them), so
//! a panic under a lock leaves no half-written state, and propagating the
//! poison would only turn one failed statement into a session whose
//! cache always panics.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable,
    clippy::panic
)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use sgb_core::{Algorithm, CacheStats, SgbCache};
use sgb_geom::Point;

use crate::error::Result;
use crate::expr::BoundExpr;

/// The cache key of a coordinate projection: the debug rendering of the
/// bound expressions. Bound expressions have no interior mutability, so
/// equal renderings mean the same projection of the same input layout.
pub(crate) fn slot_key(coords: &[BoundExpr]) -> String {
    format!("{coords:?}")
}

/// One slot: the core index/result cache plus the extracted grouping
/// points of the slot's table version.
#[derive(Debug, Default)]
pub(crate) struct Slot<const D: usize> {
    core: SgbCache<D>,
    points: Mutex<Option<(u64, Arc<Vec<Point<D>>>)>>,
}

impl<const D: usize> Slot<D> {
    /// The slot's core cache (indexes + whole results).
    pub(crate) fn core(&self) -> &SgbCache<D> {
        &self.core
    }

    /// The extracted points of table version `version`, converting (and
    /// validating) via `build` only when this version hasn't been
    /// extracted yet.
    pub(crate) fn points_for(
        &self,
        version: u64,
        build: impl FnOnce() -> Result<Vec<Point<D>>>,
    ) -> Result<Arc<Vec<Point<D>>>> {
        let mut guard = self.points.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((v, pts)) = guard.as_ref() {
            if *v == version {
                return Ok(Arc::clone(pts));
            }
        }
        let pts = Arc::new(build()?);
        *guard = Some((version, Arc::clone(&pts)));
        Ok(pts)
    }
}

/// A slot of either supported dimensionality. The SQL surface fixes the
/// dimensionality per query (2 or 3 grouping attributes), so the map
/// stores a tagged slot and callers pick their arm.
#[derive(Clone, Debug)]
pub(crate) enum DimSlot {
    /// Two grouping attributes.
    D2(Arc<Slot<2>>),
    /// Three grouping attributes.
    D3(Arc<Slot<3>>),
}

/// All shared-work caches of one database session, keyed by
/// `(lower-cased table name, coordinate key)`. Interior-mutable so the
/// read-only SQL entry points (`query`, `explain`) can use them.
#[derive(Debug, Default)]
pub(crate) struct SessionCaches {
    slots: Mutex<HashMap<(String, String), DimSlot>>,
}

impl SessionCaches {
    /// The 2-D slot for `(table, coords)`, created on first use.
    pub(crate) fn slot2(&self, table: &str, coords_key: &str) -> Arc<Slot<2>> {
        let mut slots = self.lock();
        let entry = slots
            .entry((table.to_owned(), coords_key.to_owned()))
            .or_insert_with(|| DimSlot::D2(Arc::new(Slot::default())));
        match entry {
            DimSlot::D2(s) => Arc::clone(s),
            // A slot key collision across dimensionalities is impossible
            // (the coordinate key encodes the expression count), but stay
            // total: replace rather than panic.
            DimSlot::D3(_) => {
                let fresh = Arc::new(Slot::default());
                *entry = DimSlot::D2(Arc::clone(&fresh));
                fresh
            }
        }
    }

    /// The 3-D slot for `(table, coords)`, created on first use.
    pub(crate) fn slot3(&self, table: &str, coords_key: &str) -> Arc<Slot<3>> {
        let mut slots = self.lock();
        let entry = slots
            .entry((table.to_owned(), coords_key.to_owned()))
            .or_insert_with(|| DimSlot::D3(Arc::new(Slot::default())));
        match entry {
            DimSlot::D3(s) => Arc::clone(s),
            DimSlot::D2(_) => {
                let fresh = Arc::new(Slot::default());
                *entry = DimSlot::D3(Arc::clone(&fresh));
                fresh
            }
        }
    }

    /// An existing slot, without creating one — the planner's probes must
    /// not populate the cache.
    fn peek(&self, table: &str, coords_key: &str) -> Option<DimSlot> {
        self.lock()
            .get(&(table.to_owned(), coords_key.to_owned()))
            .cloned()
    }

    /// Read-only: would an SGB-Any grid query over `(table, coords)` at
    /// `version` find a usable cached ε-grid?
    pub(crate) fn has_usable_grid(
        &self,
        table: &str,
        coords_key: &str,
        version: u64,
        eps: f64,
    ) -> bool {
        match self.peek(table, coords_key) {
            Some(DimSlot::D2(s)) => s.core().has_usable_grid(version, eps),
            Some(DimSlot::D3(s)) => s.core().has_usable_grid(version, eps),
            None => false,
        }
    }

    /// Read-only: is a point R-tree cached for `version`?
    pub(crate) fn has_tree(&self, table: &str, coords_key: &str, version: u64) -> bool {
        match self.peek(table, coords_key) {
            Some(DimSlot::D2(s)) => s.core().has_tree(version),
            Some(DimSlot::D3(s)) => s.core().has_tree(version),
            None => false,
        }
    }

    /// Read-only: is a center index for exactly this concrete algorithm
    /// and center list cached? (Center indexes are version-free, so no
    /// version parameter.)
    pub(crate) fn has_center_index(
        &self,
        table: &str,
        coords_key: &str,
        algorithm: Algorithm,
        centers: &[Vec<f64>],
    ) -> bool {
        match self.peek(table, coords_key) {
            Some(DimSlot::D2(s)) => center_points::<2>(centers)
                .is_some_and(|pts| s.core().has_center_index(algorithm, &pts)),
            Some(DimSlot::D3(s)) => center_points::<3>(centers)
                .is_some_and(|pts| s.core().has_center_index(algorithm, &pts)),
            None => false,
        }
    }

    /// Read-only: the concrete algorithm of a cached center index for
    /// exactly these centers, if one exists. Center indexes are
    /// version-free, so no version parameter.
    pub(crate) fn cached_center_algorithm(
        &self,
        table: &str,
        coords_key: &str,
        centers: &[Vec<f64>],
    ) -> Option<Algorithm> {
        match self.peek(table, coords_key)? {
            DimSlot::D2(s) => {
                let pts = center_points::<2>(centers)?;
                s.core().cached_center_algorithm(&pts)
            }
            DimSlot::D3(s) => {
                let pts = center_points::<3>(centers)?;
                s.core().cached_center_algorithm(&pts)
            }
        }
    }

    /// Drops every slot of `table` (already lower-cased) — used when the
    /// table is dropped or replaced wholesale.
    pub(crate) fn remove_table(&self, table: &str) {
        self.lock().retain(|(t, _), _| t != table);
    }

    /// The summed counters of every slot.
    pub(crate) fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for slot in self.lock().values() {
            match slot {
                DimSlot::D2(s) => total.accumulate(s.core().stats()),
                DimSlot::D3(s) => total.accumulate(s.core().stats()),
            }
        }
        total
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<(String, String), DimSlot>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Converts plan-level center rows to points, `None` on a length
/// mismatch (the probe then simply reports no cached index).
fn center_points<const D: usize>(centers: &[Vec<f64>]) -> Option<Vec<Point<D>>> {
    centers
        .iter()
        .map(|c| {
            let arr: [f64; D] = c.as_slice().try_into().ok()?;
            Some(Point::new(arr))
        })
        .collect()
}
