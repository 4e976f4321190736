//! perfbench — the reproduction's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload quick-wire|adversarial-html [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs the workload's job (simulate → analyse → render) back to back until
//! `--seconds` seconds have passed, with tracing off, checks the
//! outputs, and prints every end-to-end metric. With `--trace 1` it then
//! runs one traced job plus the config-switch reruns and prints the
//! per-layer metrics instead. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. An operation is one
//! client-month; it fails when its worker is lost, and every operation of
//! the run fails when an output check does.

mod alloc;
mod job;
mod layers;
mod metrics;
mod rss;
mod spans;
mod stats;

use job::{run_job, Workload};
use metrics::{Metrics, END_TO_END};
use spans::Tracer;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: perfbench --workload quick-wire|adversarial-html [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 20050101,
        seconds: 20.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Analyses a run holds when one analysis costs under a fifth of a job.
const MIN_ANALYSES: usize = 5;

/// What the untraced jobs of one run measured.
#[derive(Default)]
pub struct Window {
    pub times: Vec<job::JobTimes>,
    /// Every analysis of the run: one per job, then the re-analyses.
    pub analyses: Vec<f64>,
    pub txns: Vec<u64>,
    /// `VmHWM` after the first job, the only job of the process with a
    /// peak of its own.
    pub peak_mb: Option<f64>,
    pub fingerprints: Vec<u64>,
    /// Client-months attempted and lost, over the run's jobs.
    pub clients: u64,
    pub lost: u64,
    /// The last job, kept for the output check.
    pub last: Option<job::Job>,
}

impl Window {
    pub fn median(&self, f: impl Fn(&job::JobTimes) -> f64) -> f64 {
        let xs: Vec<f64> = self.times.iter().map(f).collect();
        stats::median(&xs).expect("a window holds at least one job")
    }
}

/// Run untraced jobs back to back until `seconds` have passed. Where an
/// analysis is much cheaper than its job, the last dataset is then
/// re-analysed until the run holds [`MIN_ANALYSES`], so that the noisier,
/// shorter timing gets more samples for little time.
fn measure(w: &Workload, seconds: f64) -> Window {
    let started = Instant::now();
    let mut win = Window::default();
    loop {
        // Free the previous job's output before the next one is measured.
        win.last = None;
        let job = run_job(w, &mut Tracer::new(false));
        if win.times.is_empty() {
            win.peak_mb = rss::peak_mb();
        }
        let t = job.times;
        let report = &job.out.report;
        eprintln!(
            "job {}: sim {:.3} s (setup {:.4} s), analysis {:.3} s, {} transactions, fingerprint {:016x}",
            win.times.len() + 1,
            t.sim,
            t.setup,
            t.analysis,
            job.out.dataset.records.len(),
            job.fingerprint
        );
        win.times.push(t);
        win.analyses.push(t.analysis);
        win.txns.push(job.out.dataset.records.len() as u64);
        win.fingerprints.push(job.fingerprint);
        win.clients += report.clients.len() as u64;
        win.lost += report.lost_clients().len() as u64;
        win.last = Some(job);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    if win.median(|t| t.analysis) < win.median(|t| t.wall) / 5.0 {
        let last = win.last.as_ref().expect("at least one job ran");
        while win.analyses.len() < MIN_ANALYSES {
            let (secs, fp, _) = job::analyse(w, &last.out, &mut Tracer::new(false));
            eprintln!("re-analysis: {secs:.3} s, fingerprint {fp:016x}");
            win.analyses.push(secs);
            win.fingerprints.push(fp);
        }
    }
    win
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(w) = Workload::new(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    eprintln!(
        "perfbench: {} seed {} ({} h x {}/h, ~{} transactions, {} threads), up to {} s",
        w.name,
        w.seed,
        w.config.hours,
        w.config.iterations_per_hour,
        w.config.expected_transactions(),
        job::THREADS,
        args.seconds
    );

    let win = measure(&w, args.seconds);

    // Output checks, outside every timed region.
    let first_fp = win.fingerprints[0];
    let fp_same = win.fingerprints.iter().all(|&f| f == first_fp);
    let last = win.last.as_ref().expect("at least one job ran");
    let oracle = job::oracle_check(&w, &last.out.dataset);
    if let Err(diff) = &oracle {
        eprintln!("{diff}");
    }
    println!(
        "workload {} seed {}: {} untraced jobs, {} analyses, fingerprint {first_fp:016x} ({}), oracle check {}",
        w.name,
        w.seed,
        win.times.len(),
        win.analyses.len(),
        if fp_same { "identical across analyses" } else { "DIFFERS between analyses" },
        if oracle.is_ok() { "clean" } else { "FAILED" },
    );
    let mut correct = fp_same && oracle.is_ok();
    let mut attempted = win.clients;
    let mut lost = win.lost;

    let mut metrics = if args.trace {
        let traced = layers::traced_pass(&w, win);
        attempted += traced.clients;
        lost += traced.lost;
        if traced.fingerprint != first_fp {
            eprintln!(
                "traced job fingerprint {:016x} differs from the untraced {first_fp:016x}",
                traced.fingerprint
            );
            correct = false;
        }
        correct &= traced.reruns_agree;
        traced.metrics
    } else {
        end_to_end(&win)
    };
    // A failed check fails every operation of the run.
    let failed = if correct { lost } else { attempted };
    if !args.trace {
        metrics.set("ok_share", (attempted - failed) as f64 / attempted as f64);
    }
    let missing = metrics.missing();
    if !missing.is_empty() {
        eprintln!("perfbench: metrics not measured: {missing:?}");
        std::process::exit(1);
    }
    for (d, v) in metrics.iter() {
        println!(
            "{:<34} {v:>16.6} {:<6} {} is better; {}",
            d.name, d.unit, d.better, d.about
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
}

/// The end-to-end metrics except `ok_share`, which needs the checks.
fn end_to_end(win: &Window) -> Metrics {
    let mut m = Metrics::new(END_TO_END);
    let rates: Vec<f64> = win
        .times
        .iter()
        .zip(&win.txns)
        .map(|(t, &n)| n as f64 / t.wall)
        .collect();
    m.set("txn_per_s", stats::median(&rates).expect("one job"));
    m.set("sim_s", win.median(|t| t.sim));
    m.set("setup_s", win.median(|t| t.setup));
    m.set("analysis_s", stats::median(&win.analyses).expect("one job"));
    if let Some(p) = win.peak_mb {
        m.set("peak_rss_mb", p);
    }
    m
}
