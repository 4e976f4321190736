//! Machine-readable performance baseline for the standard run.
//!
//! ```text
//! cargo run --release -p bench-suite --bin baseline [--scale quick|stress|repro|paper]
//!                                                   [--seed N] [--out FILE]
//!                                                   [--sweep [--threads 1,2,4]]
//! ```
//!
//! Default mode runs the experiment once with telemetry on and writes a
//! small JSON document (default `BENCH_baseline.json`) capturing wall time
//! and the telemetry layer's engine counters — most importantly the peak
//! event-queue depth. The committed copy at the repo root is the reference
//! point for spotting wall-time or queue-growth regressions; regenerate it
//! on the same class of machine before comparing.
//!
//! `--sweep` instead runs the simulation *and* the full analysis pipeline
//! at each thread count (default `1,2,<cores>`), writing per-count wall
//! times, speedups, and parallel efficiency (default `BENCH_parallel.json`).
//! Every run's rendered report is fingerprinted; `tables_identical` in the
//! output confirms the bit-identical-at-any-thread-count guarantee. The
//! `cores` field records how much hardware parallelism the machine actually
//! had — speedups are only meaningful when `cores` covers the thread count.

use bench_suite::{text_fingerprint, Scale};
use netprofiler::AnalysisConfig;
use std::time::Instant;
use workload::run_experiment;

fn parse_thread_list(s: &str) -> Option<Vec<usize>> {
    let mut list = Vec::new();
    for part in s.split(',') {
        let n: usize = part.trim().parse().ok()?;
        if n == 0 {
            return None;
        }
        list.push(n);
    }
    list.sort_unstable();
    list.dedup();
    (!list.is_empty()).then_some(list)
}

fn main() {
    let mut scale = Scale::Reproduction;
    let mut seed = 20050101u64;
    let mut out_path: Option<std::path::PathBuf> = None;
    let mut sweep = false;
    let mut thread_list: Option<Vec<usize>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale {v:?} (quick|stress|repro|paper)");
                    std::process::exit(2);
                });
            }
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--out" => {
                out_path = args.next().map(std::path::PathBuf::from).or(out_path);
            }
            "--sweep" => sweep = true,
            "--threads" => {
                let v = args.next().unwrap_or_default();
                thread_list = Some(parse_thread_list(&v).unwrap_or_else(|| {
                    eprintln!("bad thread list {v:?} (want e.g. 1,2,4; counts > 0)");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                println!(
                    "baseline [--scale quick|stress|repro|paper] [--seed N] [--out FILE] \
                     [--sweep [--threads 1,2,4]]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let scale_name = match scale {
        Scale::Quick => "quick",
        Scale::Stress => "stress",
        Scale::Reproduction => "repro",
        Scale::Paper => "paper",
    };

    if sweep {
        run_sweep(
            scale,
            scale_name,
            seed,
            thread_list,
            out_path.unwrap_or_else(|| std::path::PathBuf::from("BENCH_parallel.json")),
        );
        return;
    }
    let out_path = out_path.unwrap_or_else(|| std::path::PathBuf::from("BENCH_baseline.json"));

    telemetry::enable(true);
    telemetry::reset();
    let config = scale.config(seed);
    eprintln!(
        "baseline run: scale {scale_name}, {} hours x {} accesses/hour, seed {seed} ...",
        config.hours, config.iterations_per_hour
    );
    let t0 = Instant::now();
    let out = run_experiment(&config);
    let wall = t0.elapsed().as_secs_f64();
    let snap = telemetry::snapshot();
    telemetry::enable(false);

    let json = format!(
        "{{\n  \"scale\": \"{scale_name}\",\n  \"seed\": {seed},\n  \"hours\": {},\n  \
         \"threads\": {},\n  \"transactions\": {},\n  \"connections\": {},\n  \
         \"wall_seconds\": {wall:.2},\n  \"events_dispatched\": {},\n  \
         \"peak_event_queue_depth\": {}\n}}\n",
        config.hours,
        config.threads,
        out.dataset.records.len(),
        out.dataset.connections.len(),
        snap.counter("engine.events_dispatched"),
        snap.gauge("engine.queue_depth_peak").unwrap_or(0),
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {}: {e}", out_path.display());
        std::process::exit(1);
    }
    eprint!("{json}");
    eprintln!("written to {}", out_path.display());
}

fn run_sweep(
    scale: Scale,
    scale_name: &str,
    seed: u64,
    thread_list: Option<Vec<usize>>,
    out_path: std::path::PathBuf,
) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let list = thread_list.unwrap_or_else(|| {
        let mut v = vec![1, 2, cores];
        v.sort_unstable();
        v.dedup();
        v
    });

    struct Row {
        threads: usize,
        sim: f64,
        analysis: f64,
        transactions: usize,
        connections: usize,
        fingerprint: u64,
    }
    let mut rows: Vec<Row> = Vec::new();
    // The dataset is bit-identical at every thread count, so one columnar
    // footprint (taken from the first run) describes the whole sweep.
    let mut memory: Option<model::MemoryFootprint> = None;

    for &t in &list {
        telemetry::enable(true);
        telemetry::reset();
        let mut config = scale.config(seed);
        config.threads = t;
        eprintln!(
            "sweep: scale {scale_name}, {} hours, seed {seed}, threads {t} ...",
            config.hours
        );
        let t0 = Instant::now();
        let out = run_experiment(&config);
        let sim = t0.elapsed().as_secs_f64();

        let acfg = AnalysisConfig::default().with_threads(t);
        let t1 = Instant::now();
        let full = netprofiler::pipeline::run(&out.dataset, acfg);
        let analysis = t1.elapsed().as_secs_f64();
        telemetry::enable(false);

        if memory.is_none() {
            memory = Some(full.memory);
        }

        // Render every table/figure and fingerprint the whole report: the
        // determinism guarantee is that this hash matches at every count.
        let rendered = report::render_all(&out.dataset, acfg, seed);
        let fingerprint = text_fingerprint(&rendered);
        eprintln!(
            "  threads {t}: sim {sim:.2}s, analysis {analysis:.2}s \
             ({} txns, {} blame-attributed conn-hours, report hash {fingerprint:016x})",
            out.dataset.records.len(),
            full.table5.total(),
        );
        rows.push(Row {
            threads: t,
            sim,
            analysis,
            transactions: out.dataset.records.len(),
            connections: out.dataset.connections.len(),
            fingerprint,
        });
    }

    let identical = rows.iter().all(|r| {
        r.fingerprint == rows[0].fingerprint
            && r.transactions == rows[0].transactions
            && r.connections == rows[0].connections
    });
    let base_wall = rows[0].sim + rows[0].analysis;
    let mut sweep_json = String::new();
    for (i, r) in rows.iter().enumerate() {
        let wall = r.sim + r.analysis;
        let speedup = base_wall / wall;
        let efficiency = speedup / (r.threads as f64 / rows[0].threads as f64);
        sweep_json.push_str(&format!(
            "    {{\"threads\": {}, \"sim_seconds\": {:.2}, \"analysis_seconds\": {:.2}, \
             \"wall_seconds\": {:.2}, \"speedup\": {:.2}, \"efficiency\": {:.2}}}{}\n",
            r.threads,
            r.sim,
            r.analysis,
            wall,
            speedup,
            efficiency,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    let mem = memory.expect("sweep ran at least once");
    let json = format!(
        "{{\n  \"scale\": \"{scale_name}\",\n  \"seed\": {seed},\n  \"cores\": {cores},\n  \
         \"transactions\": {},\n  \"connections\": {},\n  \
         \"dataset_bytes\": {},\n  \"row_dataset_bytes\": {},\n  \
         \"bytes_per_transaction\": {:.1},\n  \"row_bytes_per_transaction\": {:.1},\n  \
         \"memory_reduction\": {:.2},\n  \"sweep\": [\n{sweep_json}  ],\n  \
         \"tables_identical\": {identical}\n}}\n",
        rows[0].transactions,
        rows[0].connections,
        mem.columnar_bytes,
        mem.row_bytes,
        mem.bytes_per_transaction(),
        mem.row_bytes_per_transaction(),
        mem.reduction(),
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {}: {e}", out_path.display());
        std::process::exit(1);
    }
    eprint!("{json}");
    eprintln!("written to {}", out_path.display());
    if !identical {
        eprintln!("ERROR: outputs differ across thread counts");
        std::process::exit(1);
    }
}
