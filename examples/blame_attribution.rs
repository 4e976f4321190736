//! Blame attribution walkthrough: the paper's novel cross-client
//! correlation analysis, validated against the simulator's ground truth.
//!
//! This example runs a medium experiment, classifies every TCP connection
//! failure as client-side / server-side / both / other, and then does what
//! the paper could not: checks the attribution against the known fault
//! injections (was the server's fault group really active? was the client's
//! WAN really down?).
//!
//! ```text
//! cargo run --release --example blame_attribution
//! ```

use netprofiler::{Analysis, AnalysisConfig};
use report::render;
use workload::{run_experiment, score_attribution, ExperimentConfig};

fn main() {
    let mut config = ExperimentConfig::quick(11);
    config.hours = 96;
    println!("simulating {} hours ...", config.hours);
    let out = run_experiment(&config);

    let a5 = Analysis::new(&out.dataset, AnalysisConfig::default());
    let a10 = a5.at(0.10);
    println!("{}", render::render_table5(&a5, &a10));
    println!("{}", render::render_episode_stats(&a5));
    println!("{}", render::render_table6(&a5, 10));

    // --- Ground-truth validation -------------------------------------------
    // For each failure the framework called "server-side", check whether
    // the simulator really had a server-side fault active (degradation
    // episode, replica flap) — and, for "client-side", whether the client's
    // WAN was really down. The paper could only validate indirectly
    // (Section 4.4.6); a simulation can score the inference exactly.
    let score = score_attribution(&out, &a5);
    println!("ground-truth validation of the attribution:");
    println!(
        "  server-side calls: {}, with a real server fault active: {:.1}%",
        score.server_calls,
        score.server_precision() * 100.0
    );
    println!(
        "  client-side calls: {}, with the client's WAN really down: {:.1}%",
        score.client_calls,
        score.client_precision() * 100.0
    );
    println!(
        "\n(the residue is the paper's caveat in Section 2.2: the categorization\n\
         is suggestive of location, not proof — e.g. transient noise that\n\
         happens to fall inside a flagged hour inherits its label)"
    );
}
