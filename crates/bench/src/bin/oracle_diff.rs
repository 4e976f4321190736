//! Differential oracle gate: the optimized pipeline vs the naive reference.
//!
//! ```text
//! cargo run --release -p bench-suite --bin oracle_diff [--seed N]
//! ```
//!
//! Four dataset families, each checked at threads 1, 2, and 7:
//!
//! 1. **standard** — a healthy simulated reproduction window;
//! 2. **degraded** — the same window under the PR 1 apparatus fault model
//!    (node deaths, record loss, corrupted BGP feed);
//! 3. **adversarial** — the same window with every fault archetype enabled
//!    and the flight recorder on; besides the pipeline artifacts, the
//!    attribution audit (confusion matrix and per-archetype detection
//!    tallies) is diffed against the naive recount at every thread count;
//! 4. **property** — small generated datasets biased toward edge cases
//!    (empty hours, single-sample cells, all-failure entities, duplicate
//!    rates, month-boundary timestamps).
//!
//! Every headline artifact — Table 3, Figure 1, Figure 4 + knees, Table 5
//! (both thresholds), server episode statistics, severe BGP instability
//! (both rules), pair episodes, permanent pairs, Table 9, shared-proxy
//! sites — must match the oracle field-for-field, with `f64`s bit-equal.
//! Any divergence prints the rendered diff and exits non-zero. `ci.sh`
//! runs this right after `detcheck`: detcheck proves thread counts agree
//! with each other, this proves they agree with the paper's definitions.

use netprofiler::AnalysisConfig;
use workload::{run_experiment, AdversarialProfile, ApparatusFaults, ExperimentConfig};

const THREADS: [usize; 3] = [1, 2, 7];
const PROPERTY_DATASETS: u64 = 24;

fn main() {
    let mut seed = 20050101u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = bench_suite::numeric_flag(&arg, &mut args),
            "--help" | "-h" => {
                println!("oracle_diff [--seed N]");
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let mut failures = 0u32;
    let mut check = |name: &str, ds: &model::Dataset| {
        let oracle = oracle::analyze(ds, &AnalysisConfig::default());
        for threads in THREADS {
            let cfg = AnalysisConfig::default().with_threads(threads);
            let report = oracle::check_dataset_with_oracle(ds, cfg, &oracle);
            if report.is_clean() {
                eprintln!("  ok: {name} @ {threads} thread(s)");
            } else {
                eprintln!("  MISMATCH: {name} @ {threads} thread(s)");
                eprint!("{}", report.render());
                failures += 1;
            }
        }
    };

    eprintln!("oracle_diff: standard family (healthy 24 h window, seed {seed}) ...");
    let mut cfg = ExperimentConfig::quick(seed);
    cfg.hours = 24;
    cfg.wire_fidelity = false;
    let standard = run_experiment(&cfg).dataset;
    check("standard", &standard);

    eprintln!("oracle_diff: degraded family (apparatus faults, seed {seed}) ...");
    let mut cfg = ExperimentConfig::quick(seed);
    cfg.hours = 24;
    cfg.wire_fidelity = false;
    cfg.apparatus = ApparatusFaults::stress();
    let degraded = run_experiment(&cfg).dataset;
    check("degraded", &degraded);

    eprintln!("oracle_diff: adversarial family (archetype suite, seed {seed}) ...");
    let mut cfg = ExperimentConfig::quick(seed);
    cfg.hours = 24;
    cfg.wire_fidelity = false;
    cfg.record_provenance = true;
    cfg.adversarial = AdversarialProfile::adversarial_month();
    let adversarial = run_experiment(&cfg);
    check("adversarial", &adversarial.dataset);

    eprintln!("oracle_diff: property family ({PROPERTY_DATASETS} generated datasets) ...");
    for i in 0..PROPERTY_DATASETS {
        let ds = oracle::gen::property_dataset(seed.wrapping_add(i));
        check(&format!("property[{i}]"), &ds);
    }

    // The audit diff needs the provenance sidecar, which only the
    // adversarial family records: confusion matrix and archetype tallies
    // against the naive recount, at every thread count.
    let log = adversarial
        .provenance
        .expect("record_provenance was set; the runner must emit a sidecar");
    for threads in THREADS {
        let cfg = AnalysisConfig::default().with_threads(threads);
        let report = oracle::check_audit(&adversarial.dataset, cfg, &log);
        if report.is_clean() {
            eprintln!("  ok: adversarial audit @ {threads} thread(s)");
        } else {
            eprintln!("  MISMATCH: adversarial audit @ {threads} thread(s)");
            eprint!("{}", report.render());
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("oracle_diff FAILED: {failures} dataset/thread combination(s) diverge");
        std::process::exit(1);
    }
    eprintln!(
        "oracle_diff passed: {} dataset(s) × {:?} threads match the oracle field-for-field",
        3 + PROPERTY_DATASETS,
        THREADS
    );
}
