//! Figure 11 (micro): SGB vs the clustering baselines on check-in data.

use criterion::{criterion_group, criterion_main, Criterion};
use sgb_cluster::{birch, dbscan, kmeans, BirchConfig, DbscanConfig, KMeansConfig};
use sgb_core::SgbQuery;
use sgb_datagen::CheckinConfig;
use sgb_geom::Metric;

fn bench(c: &mut Criterion) {
    let points = CheckinConfig::brightkite_like(3_000).generate().points();
    let eps = 0.2;
    let mut group = c.benchmark_group("fig11_clustering");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.bench_function("dbscan", |b| {
        b.iter(|| dbscan(&points, &DbscanConfig::new(eps).min_pts(4)))
    });
    group.bench_function("birch", |b| {
        b.iter(|| birch(&points, &BirchConfig::new(eps)))
    });
    group.bench_function("kmeans_20", |b| {
        b.iter(|| kmeans(&points, &KMeansConfig::new(20).max_iters(50)))
    });
    group.bench_function("kmeans_40", |b| {
        b.iter(|| kmeans(&points, &KMeansConfig::new(40).max_iters(50)))
    });
    group.bench_function("sgb_all_join_any", |b| {
        b.iter(|| SgbQuery::all(eps).metric(Metric::L2).run(&points))
    });
    group.bench_function("sgb_any", |b| {
        b.iter(|| SgbQuery::any(eps).metric(Metric::L2).run(&points))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
