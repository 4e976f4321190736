//! Profiled run: the same simulated measurement month as `quickstart`, but
//! with the telemetry recorder on. Prints the stage summary and writes a
//! Chrome-trace-format file (open it in `about:tracing` or
//! <https://ui.perfetto.dev>) with spans from all three layers: the
//! simulator (`workload.*`), the protocol stack (`client.transaction`,
//! sampled 1-in-1024), and every analysis stage (`analysis.*`).
//!
//! ```text
//! cargo run --release --example profiled_run
//! ```

use netprofiler::{blame, summary, Analysis, AnalysisConfig};
use workload::{run_experiment, ExperimentConfig};

fn main() {
    telemetry::enable(true);
    telemetry::reset();

    let mut config = ExperimentConfig::quick(42);
    config.hours = 24;
    println!("simulating {} hours with telemetry on ...", config.hours);
    let out = run_experiment(&config);

    // Run a representative slice of the analysis pipeline so its stage
    // spans land in the trace too.
    let a = Analysis::new(&out.dataset, AnalysisConfig::default());
    let t3 = summary::table3(&model::ColumnarDataset::from_dataset(&out.dataset));
    let t5 = blame::table5(&a);
    println!(
        "{} transactions across {} categories; blame classified {} episode failures",
        out.dataset.records.len(),
        t3.len(),
        t5.total()
    );

    let snap = telemetry::snapshot();
    telemetry::enable(false);

    println!("\n{}", snap.render_summary());

    // Every layer must have produced spans, or the trace is not worth
    // looking at — fail loudly instead of writing an empty file.
    for (layer, name) in [
        ("simulator", "workload.client_month"),
        ("protocol", "client.transaction"),
        ("analysis", "analysis.index"),
    ] {
        assert!(
            snap.span_count(name) > 0,
            "no {layer} spans ({name}) in the trace"
        );
    }

    let path = std::path::Path::new("target/profiled_run.trace.json");
    std::fs::create_dir_all(path.parent().unwrap()).expect("create target/");
    std::fs::write(path, snap.to_chrome_trace()).expect("write trace");
    println!(
        "wrote {} ({} spans; {} dropped) — load it in about:tracing",
        path.display(),
        snap.spans.len(),
        snap.spans_dropped
    );
}
