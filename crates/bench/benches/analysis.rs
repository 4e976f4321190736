//! Microbenchmarks for the hot analysis scans, serial vs sharded.
//!
//! Each scan is measured at `threads = 1` (the fully serial code path) and
//! `threads = 2` (partial-aggregate-then-merge). On a single-core machine
//! the two-thread variant measures the sharding overhead rather than a
//! speedup; the pair is still useful for catching merge-cost regressions.

use criterion::{criterion_group, criterion_main, Criterion};
use model::Dataset;
use netprofiler::episodes::RateCdf;
use netprofiler::{blame, episodes, grid, summary, Analysis, AnalysisConfig};
use std::hint::black_box;
use std::sync::OnceLock;
use workload::{run_experiment, ExperimentConfig};

fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| {
        let mut cfg = ExperimentConfig::quick(31);
        cfg.hours = 48;
        cfg.wire_fidelity = false;
        run_experiment(&cfg).dataset
    })
}

fn bench_grid_build(c: &mut Criterion) {
    let ds = dataset();
    let a = Analysis::new(ds, AnalysisConfig::default().with_threads(1));
    let mut g = c.benchmark_group("grid_build");
    g.sample_size(20);
    for threads in [1usize, 2] {
        g.bench_function(format!("client_conn_t{threads}"), |b| {
            b.iter(|| black_box(grid::client_connection_grid(&a.cds, &a.permanent, threads)))
        });
    }
    g.finish();
}

fn bench_episode_classification(c: &mut Criterion) {
    let ds = dataset();
    let mut g = c.benchmark_group("episodes");
    g.sample_size(20);
    for threads in [1usize, 2] {
        let a = Analysis::new(ds, AnalysisConfig::default().with_threads(threads));
        g.bench_function(format!("figure4_t{threads}"), |b| {
            b.iter(|| black_box(episodes::figure4(&a)))
        });
    }
    let a = Analysis::new(ds, AnalysisConfig::default().with_threads(1));
    let rates = a.client_grid.all_rates(1);
    g.bench_function("rate_cdf", |b| {
        b.iter(|| black_box(RateCdf::from_rates(&rates)))
    });
    g.finish();
}

fn bench_blame_scan(c: &mut Criterion) {
    let ds = dataset();
    let mut g = c.benchmark_group("blame");
    g.sample_size(20);
    for threads in [1usize, 2] {
        let a = Analysis::new(ds, AnalysisConfig::default().with_threads(threads));
        g.bench_function(format!("table5_t{threads}"), |b| {
            b.iter(|| black_box(blame::table5(&a)))
        });
    }
    g.finish();
}

fn bench_summary_scan(c: &mut Criterion) {
    let ds = dataset();
    let cds = model::ColumnarDataset::from_dataset(ds);
    let mut g = c.benchmark_group("summary");
    g.sample_size(20);
    for threads in [1usize, 2] {
        g.bench_function(format!("table3_t{threads}"), |b| {
            b.iter(|| black_box(summary::table3_with_threads(&cds, threads)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_grid_build,
    bench_episode_classification,
    bench_blame_scan,
    bench_summary_scan
);
criterion_main!(benches);
