//! End-to-end pipeline benchmarks: one per table/figure of the paper, plus
//! the experiment runner itself.
//!
//! Each `analysis/*` bench measures regenerating one artifact from a cached
//! 48-hour dataset (the experiment is run once up front); `experiment/run`
//! measures producing the dataset.

use criterion::{criterion_group, criterion_main, Criterion};
use model::Dataset;
use netprofiler::{Analysis, AnalysisConfig};
use report::render;
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

fn bench_experiment(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiment");
    g.sample_size(10);
    g.bench_function("run_12h_fleet", |b| {
        b.iter(|| {
            let mut cfg = ExperimentConfig::quick(5);
            cfg.hours = 12;
            cfg.wire_fidelity = false;
            black_box(run_experiment(&cfg).dataset.records.len())
        })
    });
    g.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let ds = dataset();
    let mut g = c.benchmark_group("analysis");
    g.sample_size(20);
    g.bench_function("index", |b| {
        b.iter(|| black_box(Analysis::new(ds, AnalysisConfig::default())))
    });

    let a5 = Analysis::new(ds, AnalysisConfig::default());
    let a10 = a5.at(0.10);

    g.bench_function("table3_fig1", |b| {
        b.iter(|| {
            black_box(render::render_table3(&a5.cds));
            black_box(render::render_figure1(&a5.cds))
        })
    });
    g.bench_function("table4_fig2_dns", |b| {
        b.iter(|| {
            black_box(render::render_table4(ds));
            black_box(render::render_figure2(ds))
        })
    });
    g.bench_function("fig3_tcp", |b| b.iter(|| black_box(render::render_figure3(ds))));
    g.bench_function("fig4_knee", |b| b.iter(|| black_box(render::render_figure4(&a5))));
    g.bench_function("table5_blame", |b| {
        b.iter(|| black_box(render::render_table5(&a5, &a10)))
    });
    g.bench_function("table6_spread", |b| {
        b.iter(|| black_box(render::render_table6(&a5, 12)))
    });
    g.bench_function("table7_8_similarity", |b| {
        b.iter(|| {
            black_box(render::render_table7(&a5, 1));
            black_box(render::render_table8(&a5, 8))
        })
    });
    g.bench_function("replicas", |b| b.iter(|| black_box(render::render_replicas(&a5))));
    g.bench_function("bgp_fig6", |b| {
        b.iter(|| {
            black_box(render::render_bgp(&a5));
            black_box(render::render_figure6_csv(&a5))
        })
    });
    g.bench_function("fig5_timeseries", |b| {
        b.iter(|| black_box(render::render_client_timeseries_csv(ds, "howard")))
    });
    g.bench_function("table9_proxy", |b| {
        b.iter(|| black_box(render::render_table9(&a5, &["iitb", "royal"])))
    });
    g.bench_function("loss_corr", |b| b.iter(|| black_box(render::render_loss(ds))));
    g.bench_function("full_comparison_sheet", |b| {
        b.iter(|| black_box(render::comparisons(ds, &a5, &a10).len()))
    });
    g.finish();
}

criterion_group!(benches, bench_experiment, bench_analysis);
criterion_main!(benches);
