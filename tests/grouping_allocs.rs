//! A `Grouping` lays its answer groups out flat: every member in one
//! array, one end offset per group. Making one therefore takes a fixed
//! number of allocation calls, whatever the number of groups. A counting
//! allocator checks that for a one-shot SGB-Any run on one worker, for
//! the snapshot of a maintained SGB-Any and SGB-Around grouping, and for
//! `Grouping::clone` (the session result cache's copy), on two inputs
//! whose group counts differ by more than 10×.
//!
//! The allocator counts every thread of this test binary, so the binary
//! holds this one test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sgb::core::{MaintainedGrouping, SgbQuery};
use sgb::Point;

/// Passes every call to the system allocator and counts the calls that
/// hand out memory: `alloc`, `alloc_zeroed` and `realloc`.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the call counter is an
// atomic and never touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most allocation calls any of the measured operations may make.
const BOUND: usize = 48;

/// Points in the input.
const N: usize = 20_000;

/// Runs `f`, returning its result and the allocation calls it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = CALLS.load(Ordering::SeqCst);
    let out = f();
    (out, CALLS.load(Ordering::SeqCst) - before)
}

/// `n` points spread uniformly over `[0, 100)²` (a fixed LCG, no `rand`).
fn cloud(n: usize) -> Vec<Point<2>> {
    let mut state = 0x06A1_10C5_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0
    };
    (0..n).map(|_| Point::new([next(), next()])).collect()
}

#[test]
fn grouping_allocations_do_not_grow_with_the_group_count() {
    let points = cloud(N);
    // Few groups, then nearly one per point: SGB-Any at a wide and a
    // narrow ε, SGB-Around with 16 and with 4,096 centers.
    let inputs = [(1.0, 16), (0.01, 4_096)];
    let mut any_groups = Vec::new();
    let mut around_groups = Vec::new();
    for (eps, centers) in inputs {
        let any = SgbQuery::any(eps).threads(1);
        let around = SgbQuery::around(points[..centers].to_vec()).threads(1);
        let (run, run_calls) = counted(|| any.run(&points));
        let (copy, clone_calls) = counted(|| run.clone());
        assert_eq!(copy, run);
        let maintained = MaintainedGrouping::new(any.clone(), &points);
        let (snapshot, any_calls) = counted(|| maintained.snapshot());
        assert_eq!(snapshot, run);
        let maintained = MaintainedGrouping::new(around.clone(), &points);
        let (snapshot, around_calls) = counted(|| maintained.snapshot());
        assert_eq!(snapshot, around.run(&points));
        let groups = (run.num_groups(), snapshot.num_groups());
        for (what, calls) in [
            ("one-shot SGB-Any run", run_calls),
            ("Grouping::clone", clone_calls),
            ("SGB-Any snapshot", any_calls),
            ("SGB-Around snapshot", around_calls),
        ] {
            assert!(
                calls <= BOUND,
                "{what} made {calls} allocation calls, over the bound {BOUND} \
                 (SGB-Any / SGB-Around groups: {groups:?})"
            );
        }
        any_groups.push(run.num_groups());
        around_groups.push(snapshot.num_groups());
    }
    for groups in [any_groups, around_groups] {
        assert!(
            groups[1] >= 10 * groups[0],
            "the inputs' group counts differ by less than 10×: {groups:?}"
        );
    }
}
