//! Ablations of the design choices DESIGN.md calls out:
//!
//! * the convex-hull refinement threshold under `L2` (hull always /
//!   at 16 members / never — pure member scans);
//! * the R-tree fan-out of the on-the-fly group index.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sgb_bench::experiments::fig9_workload;
use sgb_core::{Algorithm, SgbQuery};
use sgb_geom::Metric;

fn bench(c: &mut Criterion) {
    let points = fig9_workload(4_000, 0xAB1A);
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));

    // Hull threshold ablation (L2, Bounds-Checking: every candidate hit
    // runs the refinement).
    for (label, threshold) in [("always", 1usize), ("at_16", 16), ("never", usize::MAX)] {
        let query = SgbQuery::all(0.5)
            .metric(Metric::L2)
            .algorithm(Algorithm::BoundsChecking)
            .hull_threshold(threshold);
        group.bench_with_input(
            BenchmarkId::new("hull_threshold", label),
            &query,
            |b, query| b.iter(|| query.run(&points)),
        );
    }

    // R-tree fan-out ablation (Indexed SGB-All and SGB-Any).
    for fanout in [4usize, 12, 32] {
        let query = SgbQuery::all(0.3)
            .metric(Metric::L2)
            .algorithm(Algorithm::Indexed)
            .rtree_fanout(fanout);
        group.bench_with_input(
            BenchmarkId::new("all_rtree_fanout", fanout),
            &query,
            |b, query| b.iter(|| query.run(&points)),
        );
        let query = SgbQuery::any(0.3).metric(Metric::L2).rtree_fanout(fanout);
        group.bench_with_input(
            BenchmarkId::new("any_rtree_fanout", fanout),
            &query,
            |b, query| b.iter(|| query.run(&points)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
