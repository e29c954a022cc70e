//! Table 1 (micro): runtime growth of the SGB-All variants with input
//! size, under L∞.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sgb_bench::experiments::fig9_workload;
use sgb_core::{Algorithm, OverlapAction, SgbQuery};
use sgb_geom::Metric;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_complexity");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for n in [500usize, 1_000, 2_000] {
        let points = fig9_workload(n, 0x7AB1);
        group.throughput(Throughput::Elements(n as u64));
        for (name, algo) in [
            ("all_pairs", Algorithm::AllPairs),
            ("bounds_checking", Algorithm::BoundsChecking),
            ("indexed", Algorithm::Indexed),
        ] {
            let query = SgbQuery::all(0.3)
                .metric(Metric::LInf)
                .overlap(OverlapAction::JoinAny)
                .algorithm(algo);
            group.bench_with_input(BenchmarkId::new(name, n), &query, |b, query| {
                b.iter(|| query.run(&points))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
