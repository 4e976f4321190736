//! Ground-truth attribution audit: score the inference pipeline against
//! the flight recorder and gate on the agreement floor.
//!
//! ```text
//! cargo run --release -p bench-suite --bin audit [--scale quick|repro|paper]
//!     [--seed N] [--threads N] [--out FILE] [--min-agreement F] [--csv FILE]
//! cargo run --release -p bench-suite --bin audit -- --scenario [--seed N] [--threads N] [--out FILE]
//! ```
//!
//! Default mode runs the experiment with provenance recording on, runs the
//! analysis, audits it against the recorded ground truth, prints the
//! rendered audit, and writes `BENCH_audit.json` (the committed copy at the
//! repo root is the regression reference). Exits non-zero if the Table 5
//! blame agreement falls below `--min-agreement` (default 0.5) or if any
//! injected blocked pair went undetected with precision below the same
//! floor.
//!
//! The scores mean something only if the flight recorder leaves the
//! world it observes untouched; `detcheck` holds that, with the recorder
//! on and off, at several thread counts, in both feature builds.
//!
//! `--scenario` runs the adversarial fault-archetype sweep: one world per
//! archetype preset plus the combined "adversarial month", each audited
//! against its own flight-recorder log. The per-archetype detection scores
//! are written to `BENCH_scenarios.json` (committed at the repo root) and
//! gated on per-archetype recall floors — the floors encode what the 2006
//! pipeline *can* detect, so a refactor that silently loses detection
//! power fails CI.

use bench_suite::Scale;
use netprofiler::{audit::audit, Analysis, AnalysisConfig};
use std::time::Instant;
use workload::{run_experiment, AdversarialProfile, ExperimentConfig};

fn main() {
    let mut scale = Scale::Quick;
    let mut seed = 20050101u64;
    let mut threads: Option<usize> = None;
    let mut out_path = std::path::PathBuf::from("BENCH_audit.json");
    let mut csv_path: Option<std::path::PathBuf> = None;
    let mut min_agreement = 0.5f64;
    let mut scenario = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => scenario = true,
            "--scale" => scale = bench_suite::scale_flag(&arg, &mut args),
            "--seed" => seed = bench_suite::numeric_flag(&arg, &mut args),
            "--threads" => threads = Some(bench_suite::numeric_flag(&arg, &mut args)),
            "--out" => out_path = bench_suite::path_flag(&arg, &mut args),
            "--csv" => csv_path = Some(bench_suite::path_flag(&arg, &mut args)),
            "--min-agreement" => {
                min_agreement = bench_suite::numeric_flag(&arg, &mut args);
                if !(0.0..=1.0).contains(&min_agreement) {
                    eprintln!("--min-agreement must lie in [0, 1]");
                    std::process::exit(2);
                }
            }
            "--help" | "-h" => {
                println!(
                    "audit [--scale {}] [--seed N] [--threads N] [--out FILE] \
                     [--csv FILE] [--min-agreement F] | audit --scenario [--seed N] [--threads N] \
                     [--out FILE]",
                    Scale::choices()
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    if scenario {
        let out = if out_path == std::path::Path::new("BENCH_audit.json") {
            std::path::PathBuf::from("BENCH_scenarios.json")
        } else {
            out_path
        };
        run_scenarios(seed, threads.unwrap_or(0), &out);
        return;
    }

    let scale_name = scale.name();
    let mut config = scale.config(seed);
    config.record_provenance = true;
    if let Some(t) = threads {
        config.threads = t;
    }
    eprintln!(
        "audit run: scale {scale_name}, {} hours x {} accesses/hour, seed {seed}, \
         flight recorder ON ...",
        config.hours, config.iterations_per_hour
    );
    let t0 = Instant::now();
    let out = run_experiment(&config);
    let wall = t0.elapsed().as_secs_f64();
    let log = out
        .provenance
        .expect("record_provenance was set; the runner must emit a sidecar");

    let acfg = AnalysisConfig::default().with_threads(config.threads);
    let analysis = Analysis::new(&out.dataset, acfg);
    let t1 = Instant::now();
    let audit_report = audit(&analysis, &log);
    let audit_wall = t1.elapsed().as_secs_f64();

    print!("{}", report::audit::render_audit(&audit_report));
    eprintln!(
        "audit: {} stamped records scored in {audit_wall:.2}s (simulation {wall:.2}s)",
        audit_report.stamped_records
    );

    // The configured value may be 0 ("auto"); the report records what
    // actually ran.
    let json =
        report::audit::audit_json(&audit_report, scale_name, seed, out.report.threads_effective);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {}: {e}", out_path.display());
        std::process::exit(1);
    }
    eprintln!("written to {}", out_path.display());
    if let Some(csv_path) = csv_path {
        if let Err(e) = std::fs::write(&csv_path, report::audit::audit_csv(&audit_report)) {
            eprintln!("cannot write {}: {e}", csv_path.display());
            std::process::exit(1);
        }
        eprintln!("written to {}", csv_path.display());
    }

    let agreement = audit_report.blame.agreement();
    let pair_precision = audit_report.pairs.overlap.precision();
    let pair_recall = audit_report.pairs.overlap.recall();
    let client_ep_precision = audit_report.client_episodes.precision();
    let mut failed = false;
    if agreement < min_agreement {
        eprintln!("AUDIT FAILED: blame agreement {agreement:.3} < floor {min_agreement}");
        failed = true;
    }
    if pair_precision < min_agreement || pair_recall < min_agreement {
        eprintln!(
            "AUDIT FAILED: permanent-pair precision {pair_precision:.3} / recall \
             {pair_recall:.3} below floor {min_agreement}"
        );
        failed = true;
    }
    // Client-episode detection runs on the transaction-outcome grid, which
    // sees the DNS-phase faults the connection grids miss; the floor keeps
    // the blind-spot fix from regressing (the conn-grid score at the same
    // seed was ≈0.01).
    if client_ep_precision < min_agreement {
        eprintln!(
            "AUDIT FAILED: client-episode precision {client_ep_precision:.3} < floor \
             {min_agreement} (outcome-grid detection regressed to the conn-grid blind spot)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!(
        "audit passed: agreement {agreement:.3}, pair precision {pair_precision:.3} / \
         recall {pair_recall:.3}, client-episode precision {client_ep_precision:.3} \
         (floor {min_agreement})"
    );
}

/// Per-archetype recall floors for the `--scenario` gate, each enforced on
/// the single-archetype world that injects only that fault. The floors
/// encode what the transaction-outcome-grid blame path actually sees at
/// the pinned seed (measured, then set with headroom below the observed
/// recall):
///
/// * BGP reconfiguration transients (measured ≈0.93): a route flap breaks
///   many concurrent fetches from the same client, so the client's hourly
///   failure rate spikes and the robust client test fires;
/// * censorship (measured 1.00) was a total blind spot on connection grids
///   (old floor 0.00): the injected resets now read as fast all-refused
///   connect phases (Section 4.4.2 access policy) and land in "other" —
///   the pair-scoped expected class — without either endpoint grid firing;
/// * CDN brownouts (measured ≈0.45, old floor 0.00) read as server faults
///   once the robust client test stops co-blaming the client for a
///   single-peer failure concentration; the remainder still splits into
///   "both" when the brownout overlaps endpoint noise, so the floor stays
///   below one half;
/// * colo blasts (measured ≈0.86, old floor 0.08) similarly stopped
///   reading as "both" — the blast inflates one client×site block, which
///   the peer-max subtraction discounts on the client axis;
/// * vantage splits and wrong-answer DNS (measured ≈0.96) read as server
///   faults; MTU blackholes (measured 1.00) are pair-scoped and land in
///   "other" now that the client grid no longer fires on them.
const SCENARIO_FLOORS: [(&str, f64); 7] = [
    ("bgp-transient", 0.75),
    ("censored", 0.80),
    ("colo-blast", 0.60),
    ("vantage-split", 0.75),
    ("cdn-brownout", 0.25),
    ("mtu-blackhole", 0.60),
    ("wrong-dns", 0.75),
];

/// The `--scenario` sweep: eight worlds, one audit each, one JSON out.
fn run_scenarios(seed: u64, threads: usize, out_path: &std::path::Path) {
    let mut names: Vec<&str> = model::ARCHETYPES.iter().map(|&(name, _)| name).collect();
    names.push("adversarial-month");
    let mut reports = Vec::new();
    let mut threads_effective = threads.max(1);
    for name in &names {
        let mut cfg = ExperimentConfig::quick(seed);
        cfg.hours = 48;
        cfg.wire_fidelity = false;
        cfg.threads = threads;
        cfg.record_provenance = true;
        cfg.adversarial = if *name == "adversarial-month" {
            AdversarialProfile::adversarial_month()
        } else {
            AdversarialProfile::only(name)
        };
        eprintln!("scenario {name}: 48 h window, seed {seed} ...");
        let t0 = Instant::now();
        let out = run_experiment(&cfg);
        threads_effective = out.report.threads_effective;
        let log = out
            .provenance
            .expect("record_provenance was set; the runner must emit a sidecar");
        let acfg = AnalysisConfig::default().with_threads(threads);
        let analysis = Analysis::new(&out.dataset, acfg);
        let audit_report = audit(&analysis, &log);
        eprintln!(
            "scenario {name}: {} scored failures in {:.1}s",
            audit_report.blame.total(),
            t0.elapsed().as_secs_f64()
        );
        reports.push((name.to_string(), audit_report));
    }

    let entries: Vec<(String, &netprofiler::audit::AuditReport)> =
        reports.iter().map(|(n, a)| (n.clone(), a)).collect();
    let json = report::audit::scenarios_json(&entries, seed, threads_effective);
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("cannot write {}: {e}", out_path.display());
        std::process::exit(1);
    }
    eprintln!("written to {}", out_path.display());

    // Gates. Each archetype's floor is checked on its own world; the
    // combined world must at least have fired every archetype.
    let mut failed = false;
    for (world, a) in &reports {
        if world == "adversarial-month" {
            for s in &a.archetypes {
                if s.truth == 0 {
                    eprintln!("SCENARIO FAILED: {} never fired in the adversarial month", s.name);
                    failed = true;
                }
            }
            continue;
        }
        let (_, floor) = SCENARIO_FLOORS
            .iter()
            .find(|(n, _)| n == world)
            .expect("every archetype world has a floor");
        let score = a
            .archetypes
            .iter()
            .find(|s| s.name == world)
            .expect("every archetype is scored");
        if score.truth == 0 {
            eprintln!("SCENARIO FAILED: {world} injected but never stamped a scored failure");
            failed = true;
        } else if score.recall() < *floor {
            eprintln!(
                "SCENARIO FAILED: {world} recall {:.3} < floor {floor} \
                 ({} of {} detected)",
                score.recall(),
                score.detected,
                score.truth
            );
            for s in &score.missed_samples {
                eprintln!("    missed: {s}");
            }
            failed = true;
        } else {
            eprintln!(
                "  ok: {world} recall {:.3} (floor {floor}), precision {:.3}",
                score.recall(),
                score.precision()
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("scenario sweep passed: {} worlds audited", reports.len());
}
