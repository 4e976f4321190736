//! Forensic `explain` query engine: why did one transaction fail?
//!
//! ```text
//! explain --client C --site S --hour H [--scale quick|repro|paper]
//!         [--seed N] [--threads N]
//! explain --audit-misses [--seed N] [--threads N]
//! ```
//!
//! Query mode reruns the experiment with the forensic tracer pinned to the
//! `(client, site, hour)` key, then prints the transaction's causal
//! timeline (every DNS attempt, TCP connect, and HTTP exchange, each
//! stamped with the ground-truth faults active at that step) next to the
//! verdict the audit's Table 5 inference scored for that record and the
//! recorded truth — the "why" side-by-side with the "what we concluded".
//! The verdict is the audit's own `score_record`, so a record the matrix
//! skips (proxied, or on a near-permanent pair) prints as not scored.
//!
//! `--audit-misses` is the audit's post-mortem loupe: run the combined
//! adversarial-month world, collect the `(client, site, hour)` keys of the
//! missed failures of every archetype below 1.0 recall, rerun the
//! bit-identical world with those keys pinned, and dump one causal
//! timeline per miss bucket. Exits non-zero if any below-recall archetype
//! yields no exemplar.
//!
//! Both modes rely on the tracer leaving the world untouched, so that a
//! rerun with traces on explains the very records the analysis scored;
//! `detcheck` holds that, with every observer on and off, at several
//! thread counts, in both feature builds.

use bench_suite::Scale;
use model::fingerprint;
use netprofiler::audit::{audit, inferred_index, score_record, true_index, CLASS_LABELS};
use netprofiler::blame::{self, Unscored};
use netprofiler::{Analysis, AnalysisConfig};
use workload::{
    run_experiment, AdversarialProfile, ExperimentConfig, ExperimentOutput, ForensicsConfig,
};

fn main() {
    let mut scale = Scale::Quick;
    let mut seed = 20050101u64;
    let mut threads: Option<usize> = None;
    let mut client: Option<u16> = None;
    let mut site: Option<u16> = None;
    let mut hour: Option<u32> = None;
    let mut audit_misses = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--client" => client = Some(bench_suite::numeric_flag(&arg, &mut args)),
            "--site" => site = Some(bench_suite::numeric_flag(&arg, &mut args)),
            "--hour" => hour = Some(bench_suite::numeric_flag(&arg, &mut args)),
            "--scale" => scale = bench_suite::scale_flag(&arg, &mut args),
            "--seed" => seed = bench_suite::numeric_flag(&arg, &mut args),
            "--threads" => threads = Some(bench_suite::numeric_flag(&arg, &mut args)),
            "--audit-misses" => audit_misses = true,
            "--help" | "-h" => {
                println!(
                    "explain --client C --site S --hour H [--scale {}] \
                     [--seed N] [--threads N] | explain --audit-misses [--seed N] [--threads N]",
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

    if audit_misses {
        run_audit_misses(seed, threads.unwrap_or(0));
        return;
    }

    let (Some(client), Some(site), Some(hour)) = (client, site, hour) else {
        eprintln!("explain needs --client C --site S --hour H (or --audit-misses)");
        std::process::exit(2);
    };
    run_query(scale, seed, threads.unwrap_or(0), (client, site, hour));
}

/// Print one exemplar's causal timeline plus the truth-vs-inference diff.
fn explain_exemplar(
    x: &model::TraceExemplar,
    out: &ExperimentOutput,
    analysis: &Analysis<'_>,
) {
    print!("{}", report::waterfall::render_timeline(x));
    let log = out
        .provenance
        .as_ref()
        .expect("explain runs always record provenance");
    let stamp = log.records[x.record_index].all();
    let truth = stamp.true_blame();
    let row = CLASS_LABELS[true_index(truth)];
    println!(
        "  recorded truth:   {row}{} [{}]",
        if row == truth.label() {
            String::new()
        } else {
            format!(" ({})", truth.label())
        },
        if stamp.is_empty() {
            "-".to_string()
        } else {
            stamp.names().join(",")
        },
    );
    let inferred = CLASS_LABELS[inferred_index(blame::txn_class(analysis, x.record_index))];
    let verdict = match score_record(analysis, log, x.record_index) {
        // The audit's Table 5 matrix scores failures only; for a success
        // the hour-level inference is context, not a verdict.
        Err(Unscored::Success) => {
            println!(
                "  audit inference:  {inferred} (hour-level context; successes are not scored)"
            );
            return;
        }
        Err(skip) => format!("not scored ({})", skip.label()),
        Ok((row, column)) if row == column => "agreement".to_string(),
        Ok(_) => "MISATTRIBUTED".to_string(),
    };
    println!("  audit inference:  {inferred}");
    println!("  verdict:          {verdict}");
}

/// Query mode: pin the key, rerun, print timeline + verdict.
fn run_query(scale: Scale, seed: u64, threads: usize, key: (u16, u16, u32)) {
    let mut cfg = scale.config(seed);
    cfg.threads = threads;
    cfg.record_provenance = true;
    cfg.forensics = Some(ForensicsConfig {
        pin: vec![key],
    });
    if key.2 >= cfg.hours {
        eprintln!(
            "hour {} is outside the run ({} hours at this scale)",
            key.2, cfg.hours
        );
        std::process::exit(2);
    }
    eprintln!(
        "explain: rerunning {} hours, seed {seed}, tracer pinned to c{}-s{}-h{} ...",
        cfg.hours, key.0, key.1, key.2
    );
    let out = run_experiment(&cfg);
    let store = out.forensics.as_ref().expect("forensics was configured");
    let Some(x) = store.find(key) else {
        eprintln!(
            "no trace captured for c{}-s{}-h{}: the client never reached that site in that \
             hour (or the transaction fell outside every sampling bucket)",
            key.0, key.1, key.2
        );
        std::process::exit(1);
    };
    let analysis = Analysis::new(&out.dataset, AnalysisConfig::default().with_threads(threads));
    explain_exemplar(x, &out, &analysis);
}

/// `--audit-misses`: adversarial-month audit, then a pinned rerun that
/// captures one causal timeline per archetype-miss bucket.
fn run_audit_misses(seed: u64, threads: usize) {
    let cfg = |forensics: Option<ForensicsConfig>| {
        let mut c = ExperimentConfig::quick(seed);
        c.hours = 48;
        c.wire_fidelity = false;
        c.threads = threads;
        c.record_provenance = true;
        c.adversarial = AdversarialProfile::adversarial_month();
        c.forensics = forensics;
        c
    };

    eprintln!("explain --audit-misses pass 1: adversarial month, 48 h, seed {seed} ...");
    let first = run_experiment(&cfg(None));
    let log = first.provenance.as_ref().expect("provenance was configured");
    let analysis = Analysis::new(&first.dataset, AnalysisConfig::default().with_threads(threads));
    let audit_report = audit(&analysis, log);

    let below: Vec<&netprofiler::audit::ArchetypeScore> = audit_report
        .archetypes
        .iter()
        .filter(|s| s.truth > 0 && s.recall() < 1.0)
        .collect();
    if below.is_empty() {
        println!("audit-misses: every fired archetype at 1.0 recall — nothing to explain");
        return;
    }
    let mut pin: Vec<(u16, u16, u32)> = below.iter().flat_map(|s| s.missed_keys.clone()).collect();
    pin.sort_unstable();
    pin.dedup();
    eprintln!(
        "pass 1: {} archetypes below 1.0 recall, {} missed keys to pin; pass 2 (bit-identical \
         world, tracer pinned) ...",
        below.len(),
        pin.len()
    );
    let second = run_experiment(&cfg(Some(ForensicsConfig { pin })));
    let store = second.forensics.as_ref().expect("forensics was configured");

    // The tracer is zero-perturbation, so pass 2's dataset is pass 1's —
    // trust but verify before reusing pass 1's analysis indices.
    assert_eq!(
        fingerprint(&first.dataset),
        fingerprint(&second.dataset),
        "pinned rerun diverged from the audit run — tracer perturbation bug"
    );

    let mut missing = 0u32;
    for s in &below {
        println!(
            "== {} (recall {:.3}: {} of {} detected, expected class {}) ==",
            s.name,
            s.recall(),
            s.detected,
            s.truth,
            CLASS_LABELS[s.expected]
        );
        let Some(x) = s.missed_keys.iter().find_map(|&k| store.find(k)) else {
            println!("  exemplar: none captured for any missed key");
            missing += 1;
            continue;
        };
        println!("exemplar ({}):", s.name);
        explain_exemplar(x, &second, &analysis);
    }
    if missing > 0 {
        eprintln!("explain --audit-misses FAILED: {missing} below-recall archetype(s) without an exemplar");
        std::process::exit(1);
    }
    eprintln!(
        "explain --audit-misses: one causal timeline per miss bucket ({} archetypes)",
        below.len()
    );
}
