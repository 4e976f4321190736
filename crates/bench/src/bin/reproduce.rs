//! Regenerate every table and figure of the paper.
//!
//! ```text
//! reproduce [--scale quick|stress|repro|paper] [--seed N] [--only ID[,ID...]]
//!           [--export DIR] [--profile [DIR]] [--html FILE [--bench-dir DIR]]
//! ```
//!
//! `--profile` switches the telemetry recorder on for the whole run and
//! writes `telemetry.jsonl` + `trace.json` (Chrome trace format) to DIR
//! (default `profile/`), with the stage summary on stderr.
//!
//! `--html FILE` writes the whole run as one self-contained HTML page
//! (inline CSS/JS, zero external requests): run manifest, every paper
//! table/figure, paper-vs-measured comparison, the ground-truth attribution
//! audit, quarantine summary, telemetry stage profile, and the
//! bench-trajectory panel over the committed `BENCH_*.json` artifacts
//! (`--bench-dir` points at them; default `.`). A machine-readable
//! `manifest.json` is written beside the page. The flag turns on
//! provenance recording and telemetry — both proven zero-perturbation, so
//! the text output on stdout stays byte-identical.
//!
//! Block ids (positional, or comma-separated after `--only`) are those of
//! `report::render::PAPER_BLOCK_IDS` plus `compare`; `all`, the default,
//! selects every block. An unknown id exits 2 before the simulation runs.

use bench_suite::Scale;
use netprofiler::{Analysis, AnalysisConfig};
use report::render;
use std::time::Instant;
use workload::run_experiment;

fn main() {
    let mut scale = Scale::Quick;
    let mut seed = 20050101u64;
    let mut only: Option<Vec<String>> = None;
    let mut export_dir: Option<std::path::PathBuf> = None;
    let mut profile_dir: Option<std::path::PathBuf> = None;
    let mut html_path: Option<std::path::PathBuf> = None;
    let mut bench_dir = std::path::PathBuf::from(".");

    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--html" => {
                html_path = args.next().map(std::path::PathBuf::from);
                if html_path.is_none() {
                    eprintln!("--html needs a file path");
                    std::process::exit(2);
                }
            }
            "--bench-dir" => {
                let Some(dir) = args.next() else {
                    eprintln!("--bench-dir needs a directory");
                    std::process::exit(2);
                };
                bench_dir = std::path::PathBuf::from(dir);
            }
            "--profile" => {
                // Optional DIR operand: consume the next arg unless it is a flag.
                let dir = match args.peek() {
                    Some(v) if !v.starts_with("--") => args.next().unwrap(),
                    _ => "profile".to_string(),
                };
                profile_dir = Some(std::path::PathBuf::from(dir));
            }
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale {v:?} (quick|stress|repro|paper)");
                    std::process::exit(2);
                });
            }
            "--seed" => seed = bench_suite::numeric_flag(&arg, &mut args),
            "--export" => {
                export_dir = args.next().map(std::path::PathBuf::from);
                if export_dir.is_none() {
                    eprintln!("--export needs a directory");
                    std::process::exit(2);
                }
            }
            "--only" => {
                only = Some(
                    args.next()
                        .unwrap_or_default()
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .collect(),
                );
            }
            "--help" | "-h" => {
                println!(
                    "reproduce [--scale quick|stress|repro|paper] [--seed N] [--only IDs] [--export DIR] \
                     [--profile [DIR]] [--html FILE [--bench-dir DIR]]\n\
                     regenerates the tables/figures of 'A Study of End-to-End Web \
                     Access Failures' (CoNEXT 2006) from a simulated experiment"
                );
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
            other => {
                only = Some(vec![other.to_string()]);
            }
        }
    }

    if let Some(bad) = only.iter().flatten().find(|id| {
        !render::PAPER_BLOCK_IDS.contains(&id.as_str()) && *id != "compare" && *id != "all"
    }) {
        eprintln!(
            "unknown block id {bad:?} (ids: {} compare all)",
            render::PAPER_BLOCK_IDS.join(" ")
        );
        std::process::exit(2);
    }

    if profile_dir.is_some() || html_path.is_some() {
        telemetry::enable(true);
    }

    let mut config = scale.config(seed);
    if html_path.is_some() {
        // The flight recorder and the forensic tracer are both proven
        // zero-perturbation (detcheck), so the page's audit section and
        // trace waterfalls ride along without changing the dataset or the
        // text output.
        config.record_provenance = true;
        config.forensics = Some(workload::ForensicsConfig::default());
    }
    eprintln!(
        "running experiment: {} hours x {} accesses/hour x 80 sites x 134 clients (~{} transactions), seed {seed}",
        config.hours,
        config.iterations_per_hour,
        config.expected_transactions()
    );
    let t0 = Instant::now();
    let out = run_experiment(&config);
    let ds = &out.dataset;
    eprintln!(
        "experiment done in {:.1}s: {} transactions, {} connections",
        t0.elapsed().as_secs_f64(),
        ds.records.len(),
        ds.connections.len()
    );

    let t1 = Instant::now();
    let a5 = Analysis::new(ds, AnalysisConfig::default());
    let a10 = a5.at(0.10);
    eprintln!("analysis indexed in {:.1}s", t1.elapsed().as_secs_f64());

    let wanted = |id: &str| only.as_ref().is_none_or(|ids| ids.iter().any(|x| x == id || x == "all"));
    for (id, body) in render::paper_blocks(ds, &a5, &a10, seed) {
        if !wanted(id) {
            continue;
        }
        match id {
            "fig5" => {
                println!("==== fig5 (nodea.howard.edu-like client; CSV) ====");
                print_truncated(&body, 30);
            }
            "fig7" => {
                println!("==== fig7 (kscy-like client; CSV) ====");
                print_truncated(&body, 30);
            }
            "fig6" => {
                println!("==== fig6 ====");
                println!("(CSV: TCP failure rate during severe instability)\n{body}");
            }
            _ => {
                println!("==== {id} ====");
                println!("{body}");
            }
        }
    }

    if let Some(dir) = export_dir {
        match report::export::export_dataset(ds, &dir)
            .and_then(|n| Ok(n + report::export::export_figures(&a5, &dir)?))
        {
            Ok(n) => eprintln!("exported {n} CSV files to {}", dir.display()),
            Err(e) => eprintln!("export failed: {e}"),
        }
    }

    if wanted("compare") {
        println!("==== compare (paper vs measured) ====");
        let comps = render::comparisons(ds, &a5, &a10);
        let ok = comps.iter().filter(|c| c.ok).count();
        for c in &comps {
            println!("{}", c.line());
        }
        println!("\n{ok}/{} comparisons within the paper's shape", comps.len());
    }

    if let Some(path) = html_path {
        match write_html_report(&path, &bench_dir, &out, &a5, &a10, &config, scale, seed) {
            Ok(()) => eprintln!(
                "HTML report written: {} (+ manifest.json beside it)",
                path.display()
            ),
            Err(e) => {
                eprintln!("HTML report failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(dir) = profile_dir {
        if let Err(e) = bench_suite::write_profile(&dir) {
            eprintln!("profile write failed: {e}");
        }
    }
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Quick => "quick",
        Scale::Stress => "stress",
        Scale::Reproduction => "repro",
        Scale::Paper => "paper",
    }
}

/// Assemble and write the self-contained HTML page plus `manifest.json`.
#[allow(clippy::too_many_arguments)]
fn write_html_report(
    path: &std::path::Path,
    bench_dir: &std::path::Path,
    out: &workload::ExperimentOutput,
    a5: &Analysis<'_>,
    a10: &Analysis<'_>,
    config: &workload::ExperimentConfig,
    scale: Scale,
    seed: u64,
) -> std::io::Result<()> {
    let manifest = bench_suite::manifest_for(out, config, scale_name(scale), seed);
    let snapshot = telemetry::snapshot();
    let stage_profile = snapshot.stage_profile();

    // Bench-trajectory sources: the committed regression artifacts.
    let mut sources = Vec::new();
    let mut missing = Vec::new();
    for name in bench_suite::BENCH_ARTIFACTS {
        match std::fs::read_to_string(bench_dir.join(name)) {
            Ok(text) => sources.push((name.to_string(), text)),
            Err(_) => missing.push(name.to_string()),
        }
    }

    let page = bench_suite::html_page(
        out,
        a5,
        a10,
        seed,
        &manifest,
        &sources,
        missing,
        &stage_profile,
    );

    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, page)?;
    let manifest_path = path
        .parent()
        .unwrap_or_else(|| std::path::Path::new("."))
        .join("manifest.json");
    std::fs::write(manifest_path, manifest.to_json())?;
    Ok(())
}

fn print_truncated(csv: &str, max_lines: usize) {
    for (i, line) in csv.lines().enumerate() {
        if i >= max_lines {
            println!("... ({} more lines)", csv.lines().count() - max_lines);
            break;
        }
        println!("{line}");
    }
    println!();
}
