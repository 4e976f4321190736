//! The determinism, codec- and observer-purity gate: one matrix, one
//! verdict.
//!
//! ```text
//! cargo run --release -p bench-suite --bin detcheck [--seed N]
//! ```
//!
//! Runs a small simulated window (12 hours) of two worlds — the standard
//! one and the adversarial month with every fault archetype on — with the
//! DNS codecs off and on, the observers off and on (on =
//! telemetry, the provenance sidecar and forensic traces together), each
//! at 1, 2 and 7 threads: 12 cells per world, 10–13 s in all on a 2-vCPU
//! VM, 6–8 s more than the codecs-off cells alone. Every cell's
//! full dataset hash and rendered-report hash must equal the codecs-off,
//! observers-off single-thread cell's, and the observers-on cells must
//! record the same sidecar and the same exemplar keys as the codecs-off
//! single-thread one. Any mismatch exits non-zero.
//!
//! Each world prints one line on stdout carrying its hashes. They must not
//! depend on the build either: `ci.sh` runs the gate in the default build
//! and with `--no-default-features` (telemetry compiled out) and requires
//! the two outputs to be identical.

use model::fingerprint;
use netprofiler::AnalysisConfig;
use workload::{run_experiment, AdversarialProfile, ExperimentConfig, ForensicsConfig};

const THREADS: [usize; 3] = [1, 2, 7];

fn main() {
    let mut seed = 20050101u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = bench_suite::numeric_flag(&arg, &mut args),
            "--help" | "-h" => {
                println!("detcheck [--seed N]");
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let mut failures = 0u32;
    failures += check_world("standard", seed, AdversarialProfile::none());
    failures += check_world("adversarial", seed, AdversarialProfile::adversarial_month());
    if failures > 0 {
        eprintln!(
            "detcheck FAILED: {failures} mismatch(es) — thread count, the codecs or an observer changed the run"
        );
        std::process::exit(1);
    }
}

/// What one cell of the matrix produced.
struct Cell {
    transactions: usize,
    dataset: u64,
    report: u64,
    /// Sidecar hash, and exemplar count with the hash of their
    /// `(key, record index)` list; each `Some` only when its observer ran.
    sidecar: Option<u64>,
    exemplars: Option<(usize, u64)>,
}

fn run_cell(
    seed: u64,
    adversarial: AdversarialProfile,
    codecs: bool,
    observers: bool,
    threads: usize,
) -> Cell {
    let mut cfg = ExperimentConfig::quick(seed);
    cfg.hours = 12;
    cfg.wire_fidelity = codecs;
    cfg.threads = threads;
    cfg.adversarial = adversarial;
    cfg.record_provenance = observers;
    cfg.forensics = observers.then(ForensicsConfig::default);
    telemetry::enable(observers);
    let out = run_experiment(&cfg);
    let rendered = report::render_all(
        &out.dataset,
        AnalysisConfig::default().with_threads(threads),
        seed,
    );
    telemetry::enable(false);
    telemetry::reset();
    Cell {
        transactions: out.dataset.records.len(),
        dataset: fingerprint(&out.dataset),
        report: fingerprint(&rendered),
        sidecar: out.provenance.as_ref().map(fingerprint),
        exemplars: out.forensics.map(|store| {
            let keys: Vec<_> = store.iter().map(|x| (x.key(), x.record_index)).collect();
            (keys.len(), fingerprint(&keys))
        }),
    }
}

/// Run one world's codecs × observers × threads matrix, print its hash
/// line, and return the mismatch count.
fn check_world(world: &str, seed: u64, adversarial: AdversarialProfile) -> u32 {
    eprintln!(
        "detcheck: {world} 12 h window, seed {seed}, codecs off/on x observers off/on x threads {THREADS:?} ..."
    );
    let cells: Vec<(bool, bool, usize, Cell)> = [false, true]
        .into_iter()
        .flat_map(|codecs| [(codecs, false), (codecs, true)])
        .flat_map(|(codecs, observers)| THREADS.map(|threads| (codecs, observers, threads)))
        .map(|(codecs, observers, threads)| {
            let cell = run_cell(seed, adversarial, codecs, observers, threads);
            (codecs, observers, threads, cell)
        })
        .collect();
    // The codecs-off single-thread cells, observers off and on.
    let base = &cells[0].3;
    let observed = &cells[THREADS.len()].3;

    let mut failures = 0u32;
    for (codecs, observers, threads, cell) in &cells {
        let on_off = |on: bool| if on { "on" } else { "off" };
        let at = format!(
            "codecs {}, observers {}, {threads} thread(s)",
            on_off(*codecs),
            on_off(*observers)
        );
        let mut check = |what: &str, ok: bool| {
            if ok {
                eprintln!("  ok: {at}: {what}");
            } else {
                eprintln!("  MISMATCH: {at}: {what}");
                failures += 1;
            }
        };
        check(
            "dataset and report hashes",
            (cell.dataset, cell.report) == (base.dataset, base.report),
        );
        check(
            "sidecar and exemplars exactly when observed",
            cell.sidecar.is_some() == *observers && cell.exemplars.is_some() == *observers,
        );
        check(
            "sidecar and exemplar keys as at codecs off, 1 thread",
            !observers || (cell.sidecar, cell.exemplars) == (observed.sidecar, observed.exemplars),
        );
    }
    let (exemplars, keys) = observed.exemplars.unwrap_or_default();
    println!(
        "{world}: {} transactions, dataset hash {:016x}, report hash {:016x}, sidecar hash {:016x}, \
         {exemplars} exemplars (keys hash {keys:016x})",
        base.transactions,
        base.dataset,
        base.report,
        observed.sidecar.unwrap_or_default(),
    );
    failures
}
