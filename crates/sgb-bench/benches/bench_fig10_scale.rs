//! Figure 10 (micro): SGB runtime as the TPC-H-derived input grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sgb_bench::experiments::fig10_points;
use sgb_core::{Algorithm, SgbQuery};
use sgb_geom::Metric;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_scale");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for sf in [1.0, 2.0, 4.0] {
        let points = fig10_points(sf, 0.2);
        group.throughput(Throughput::Elements(points.len() as u64));
        for (name, algo) in [
            ("bounds_checking", Algorithm::BoundsChecking),
            ("indexed", Algorithm::Indexed),
        ] {
            let query = SgbQuery::all(0.2).metric(Metric::L2).algorithm(algo);
            group.bench_with_input(
                BenchmarkId::new(format!("all/{name}"), sf),
                &query,
                |b, query| b.iter(|| query.run(&points)),
            );
        }
        let query = SgbQuery::any(0.2).metric(Metric::L2);
        group.bench_with_input(BenchmarkId::new("any/indexed", sf), &query, |b, query| {
            b.iter(|| query.run(&points))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
