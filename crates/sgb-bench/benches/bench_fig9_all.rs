//! Figure 9a–9c (micro): SGB-All runtime across algorithms, overlap
//! semantics, and ε, at criterion scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sgb_bench::experiments::fig9_workload;
use sgb_core::{Algorithm, OverlapAction, SgbQuery};
use sgb_geom::Metric;

fn bench(c: &mut Criterion) {
    let points = fig9_workload(2_000, 0xBE9C);
    let mut group = c.benchmark_group("fig9_all");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for (aname, algo) in [
        ("all_pairs", Algorithm::AllPairs),
        ("bounds_checking", Algorithm::BoundsChecking),
        ("indexed", Algorithm::Indexed),
    ] {
        for (oname, overlap) in [
            ("join_any", OverlapAction::JoinAny),
            ("eliminate", OverlapAction::Eliminate),
            ("form_new", OverlapAction::FormNewGroup),
        ] {
            for eps in [0.2, 0.8] {
                let query = SgbQuery::all(eps)
                    .metric(Metric::L2)
                    .overlap(overlap)
                    .algorithm(algo);
                group.bench_with_input(
                    BenchmarkId::new(format!("{aname}/{oname}"), eps),
                    &query,
                    |b, query| b.iter(|| query.run(&points)),
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
