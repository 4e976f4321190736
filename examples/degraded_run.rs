//! Degraded run: the same measurement month as `quickstart`, but on flaky
//! apparatus — nodes die mid-month, ~1% of records are lost in collection,
//! and the BGP feed arrives corrupted and must be salvage-decoded. The run
//! completes anyway, its quarantine summary accounts for every loss, and
//! Table 3 still computes from what survived.
//!
//! ```text
//! cargo run --release --example degraded_run
//! ```

use model::ColumnarDataset;
use report::render;
use workload::{run_experiment, ApparatusFaults, ExperimentConfig};

fn main() {
    let mut config = ExperimentConfig::quick(7);
    config.hours = 48;
    config.apparatus = ApparatusFaults::stress();
    println!(
        "simulating {} hours on deliberately flaky apparatus (p_death={}, p_drop={}, corrupted BGP feed) ...\n",
        config.hours, config.apparatus.client_death_prob, config.apparatus.record_drop_prob
    );
    let out = run_experiment(&config);

    // What the apparatus lost, and what salvage saved.
    print!("{}", out.report.quarantine_summary().render());

    // The headline table still computes from what survived.
    let cds = ColumnarDataset::from_dataset(&out.dataset);
    println!("\n{}", render::render_table3(&cds));
}
