//! Figure 9d (micro): SGB-Any runtime across algorithms and ε.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sgb_bench::experiments::fig9_workload;
use sgb_core::{Algorithm, SgbQuery};
use sgb_geom::Metric;

fn bench(c: &mut Criterion) {
    let points = fig9_workload(2_000, 0xBE9D);
    let mut group = c.benchmark_group("fig9_any");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for (aname, algo) in [
        ("all_pairs", Algorithm::AllPairs),
        ("indexed", Algorithm::Indexed),
    ] {
        for eps in [0.2, 0.8] {
            let query = SgbQuery::any(eps).metric(Metric::L2).algorithm(algo);
            group.bench_with_input(BenchmarkId::new(aname, eps), &query, |b, query| {
                b.iter(|| query.run(&points))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
