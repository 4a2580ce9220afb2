//! Criterion ablations of the §2.3 optimizations on a small fixed graph.
//! (Wall-clock sweeps at dataset scale live in `bin/ablation`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;
use vertexica::{run_program, VertexicaConfig};
use vertexica_algorithms::vc::PageRank;
use vertexica_bench::{
    figure2_dataset, fresh_session, input_assembly_session, input_assembly_sql,
    update_vs_replace_sql, value_table, HarnessConfig, UPDATE_PERCENTS,
};

fn micro_cfg() -> HarnessConfig {
    HarnessConfig {
        scale: 0.002,
        dnf_budget: Duration::from_secs(120),
        graphdb_commit_latency: Duration::ZERO,
        seed: 42,
    }
}

fn bench_input_assembly(c: &mut Criterion) {
    // The paper's union-vs-join contrast as its two SQL statements, over the
    // tables one PageRank superstep leaves behind.
    let session = input_assembly_session(&figure2_dataset("twitter", &micro_cfg()));
    let mut group = c.benchmark_group("ablation_input_assembly");
    group.sample_size(10);
    for (label, sql) in input_assembly_sql(&session) {
        group.bench_function(BenchmarkId::new("sql", label), |b| {
            b.iter(|| session.db().execute(&sql).unwrap().into_batches().unwrap())
        });
    }
    group.finish();
}

fn bench_batching(c: &mut Criterion) {
    let graph = figure2_dataset("twitter", &micro_cfg());
    let mut group = c.benchmark_group("ablation_batching");
    group.sample_size(10);
    for partitions in [1usize, 8, 64, 512] {
        group.bench_with_input(BenchmarkId::new("pagerank5", partitions), &partitions, |b, &p| {
            b.iter(|| {
                let session = fresh_session(&graph);
                let config = VertexicaConfig::default().with_partitions(p);
                run_program(&session, Arc::new(PageRank::new(5, 0.85)), &config).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_update_vs_replace(c: &mut Criterion) {
    // The paper's update-vs-replace contrast as its two SQL statements, on a
    // vertex-shaped table. Each replace sample also drops the table it wrote.
    const TABLE: &str = "vertex_value";
    let session = fresh_session(&figure2_dataset("twitter", &micro_cfg()));
    value_table(&session, TABLE);
    let mut group = c.benchmark_group("ablation_update_vs_replace");
    group.sample_size(10);
    for percent in UPDATE_PERCENTS {
        for (label, sql) in update_vs_replace_sql(TABLE, percent) {
            group.bench_function(BenchmarkId::new(label, format!("{percent}pct")), |b| {
                b.iter(|| {
                    let rows = session.db().execute(&sql).unwrap().affected();
                    session.db().execute(&format!("DROP TABLE IF EXISTS {TABLE}_new")).unwrap();
                    rows
                })
            });
        }
    }
    group.finish();
}

fn bench_combiner(c: &mut Criterion) {
    let graph = figure2_dataset("twitter", &micro_cfg());
    let mut group = c.benchmark_group("ablation_combiner");
    group.sample_size(10);
    for (label, on) in [("combiner_on", true), ("combiner_off", false)] {
        group.bench_function(BenchmarkId::new("pagerank5", label), |b| {
            b.iter(|| {
                let session = fresh_session(&graph);
                let config = VertexicaConfig::default().with_combiner(on);
                run_program(&session, Arc::new(PageRank::new(5, 0.85)), &config).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_pool_size(c: &mut Criterion) {
    // Pool-size ablation hook: one persistent session, the shared runtime
    // pool resized in place between measurements, so the sweep isolates the
    // runtime's scaling from graph-reload cost.
    let graph = figure2_dataset("twitter", &micro_cfg());
    let session = fresh_session(&graph);
    let mut group = c.benchmark_group("ablation_pool_size");
    group.sample_size(10);
    for pool_size in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("pagerank5", pool_size), &pool_size, |b, &n| {
            // run_program resizes the session's shared pool to num_workers.
            let config = VertexicaConfig::default().with_workers(n);
            b.iter(|| run_program(&session, Arc::new(PageRank::new(5, 0.85)), &config).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_input_assembly,
    bench_batching,
    bench_update_vs_replace,
    bench_combiner,
    bench_pool_size
);
criterion_main!(benches);
