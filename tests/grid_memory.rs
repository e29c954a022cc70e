//! `cost::estimated_grid_bytes` decides whether the ε-grid fits a
//! `SET MEMORY_BUDGET`, so it must bound what building the grid really
//! allocates. A counting allocator measures the sorted layout's heap bytes,
//! at the peak of its build and once built, over check-in points at each ε
//! of the `checkin-any` benchmark workload, and over inputs where every
//! point sits in a cell of its own, the estimate's worst case.
//!
//! The allocator counts every thread of this test binary, so the binary
//! holds this one test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sgb::core::cost::estimated_grid_bytes;
use sgb::datagen::CheckinConfig;
use sgb::spatial::{Grid, SortedCells};
use sgb::Point;

/// Passes every call to the system allocator and keeps the live and peak
/// byte counts.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the byte counters are atomics
// and never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The heap bytes the layout over `points` at `eps` needs at the peak of
/// its build, and once built: both over what was live before the build.
fn measured<const D: usize>(eps: f64, points: &[Point<D>]) -> (usize, usize) {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let layout = SortedCells::from_points(Grid::<D, usize>::side_for_eps(eps), points);
    let resident = LIVE.load(Ordering::SeqCst).saturating_sub(before);
    let peak = PEAK.load(Ordering::SeqCst).saturating_sub(before);
    drop(layout);
    (peak, resident)
}

fn assert_bounded<const D: usize>(label: &str, eps: f64, points: &[Point<D>]) {
    let (peak, resident) = measured(eps, points);
    let estimate = estimated_grid_bytes(points.len(), D);
    eprintln!(
        "{label}: n = {}, eps = {eps}: peak {peak} B, resident {resident} B, estimate {estimate} B",
        points.len()
    );
    assert!(resident <= peak, "{label} at eps = {eps}");
    assert!(
        peak <= estimate,
        "{label} at eps = {eps}: the build peaked at {peak} B, over the {estimate} B estimate"
    );
}

/// A deterministic scatter in the unit cube (a 64-bit LCG).
fn scatter<const D: usize>(n: usize) -> Vec<Point<D>> {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| Point::new(std::array::from_fn(|_| next())))
        .collect()
}

#[test]
fn grid_estimate_bounds_the_sorted_layouts_build() {
    // `checkin-any`: 50k check-ins drawn from a Brightkite-like map of
    // four times as many, normalised to the unit square; here every
    // fourth point of that map.
    let map = CheckinConfig::brightkite_like(200_000)
        .seed(0xB816)
        .generate()
        .normalized_points();
    let checkins: Vec<Point<2>> = map.into_iter().step_by(4).collect();
    for eps in [0.001, 0.002, 0.003, 0.005] {
        assert_bounded("checkin-any", eps, &checkins);
    }
    // One cell per point: the bound's worst case.
    assert_bounded("distinct cells", 1e-9, &checkins);
    assert_bounded("distinct cells", 1e-9, &scatter::<3>(20_000));
    assert_bounded("empty", 0.001, &[] as &[Point<2>]);
}
