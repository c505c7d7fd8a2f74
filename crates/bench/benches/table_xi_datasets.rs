//! Table XI: average query processing time per dataset, all three methods.
//!
//! One representative (pattern, dG) cell per dataset (Table XI aggregates
//! the full grid; `paper-repro -- table11` regenerates the aggregate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpnm_bench::prepare_cell;
use gpnm_engine::Strategy;
use gpnm_workload::Dataset;

fn table_xi(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_xi_datasets");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    for dataset in Dataset::ALL {
        let scale_div = if dataset == Dataset::EmailEuCore {
            2
        } else {
            4
        };
        let cell = prepare_cell(dataset, scale_div, (8, 8), (8, 600), 20, 0x7AB1);
        for strategy in Strategy::PAPER {
            group.bench_with_input(
                BenchmarkId::new(strategy.name(), dataset.name()),
                &strategy,
                |b, &strategy| {
                    b.iter(|| {
                        let mut engine = cell.engine.clone();
                        engine
                            .subsequent_query(&cell.batch, strategy)
                            .expect("batch validated")
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, table_xi);
criterion_main!(benches);
