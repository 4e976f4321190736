//! Blame attribution walkthrough: the paper's novel cross-client
//! correlation analysis, scored against the simulator's ground truth.
//!
//! This example runs a medium experiment, classifies every failure as
//! client-side / server-side / both / other, and then does what the paper
//! could not: audits the attribution against the flight recorder's stamps
//! of the faults that were really active at each transaction.
//!
//! ```text
//! cargo run --release --example blame_attribution
//! ```

use netprofiler::{audit::audit, Analysis, AnalysisConfig};
use report::{audit::render_audit, render};
use workload::{run_experiment, ExperimentConfig};

fn main() {
    let mut config = ExperimentConfig::quick(11);
    config.hours = 96;
    // The recorder only observes: the dataset is bit-identical with it off.
    config.record_provenance = true;
    println!("simulating {} hours ...", config.hours);
    let out = run_experiment(&config);

    let a5 = Analysis::new(&out.dataset, AnalysisConfig::default());
    let a10 = a5.at(0.10);
    println!("{}", render::render_table5(&a5, &a10));
    println!("{}", render::render_episode_stats(&a5));
    println!("{}", render::render_table6(&a5, 10));

    // --- Ground-truth audit ------------------------------------------------
    // The paper could only validate indirectly (Section 4.4.6). Here every
    // failure carries the set of faults that were active when it happened,
    // so the inferred class is scored against the true one: the same audit
    // `audit`, the HTML report and BENCH_audit.json print.
    let log = out
        .provenance
        .as_ref()
        .expect("record_provenance was set; the runner emits a sidecar");
    print!("{}", render_audit(&audit(&a5, log)));
    println!(
        "\n(the residue is the paper's caveat in Section 2.2: the categorization\n\
         is suggestive of location, not proof — e.g. transient noise that\n\
         happens to fall inside a flagged hour inherits its label)"
    );
}
