//! HTML report determinism and self-containment.
//!
//! The page is a pure function of its inputs: with the nondeterministic
//! blocks (stage walls, telemetry span aggregates) pinned, the same seed
//! must yield byte-identical pages at any thread count — and generating
//! the page must never perturb the text fingerprint surface
//! (`render_all`).

use netprofiler::{Analysis, AnalysisConfig};
use workload::{run_experiment, ExperimentConfig, ExperimentOutput};

fn run(seed: u64, threads: usize, provenance: bool) -> (ExperimentOutput, ExperimentConfig) {
    let mut cfg = ExperimentConfig::quick(seed);
    cfg.hours = 8;
    cfg.threads = threads;
    cfg.record_provenance = provenance;
    (run_experiment(&cfg), cfg)
}

/// Build the page exactly as `reproduce --html` does, with the
/// nondeterministic manifest walls zeroed and a fixed stage profile, so
/// byte comparison across runs is meaningful.
fn page_for(out: &ExperimentOutput, cfg: &ExperimentConfig, seed: u64) -> String {
    let a5 = Analysis::new(&out.dataset, AnalysisConfig::default());
    let a10 = a5.at(0.10);
    let mut manifest = bench_suite::manifest_for(out, cfg, "quick", seed);
    for w in &mut manifest.stage_walls {
        w.seconds = 0.0;
    }
    let sources = vec![(
        "BENCH_audit.json".to_string(),
        "{\"scale\": \"quick\", \"seed\": 1, \"agreement\": 0.95, \
         \"class_labels\": [\"client\", \"server\"], \"confusion_matrix\": [[8, 2], [1, 9]], \
         \"permanent_pairs\": {\"precision\": 1.0, \"recall\": 0.9}}"
            .to_string(),
    )];
    let missing = vec!["BENCH_scenarios.json".to_string()];
    bench_suite::html_page(out, &a5, &a10, seed, &manifest, &sources, missing, &[])
}

#[test]
fn page_is_byte_identical_across_generations_and_thread_counts() {
    let (out1, cfg1) = run(2006, 1, true);
    let first = page_for(&out1, &cfg1, 2006);
    let again = page_for(&out1, &cfg1, 2006);
    assert_eq!(first, again, "same inputs must give the same bytes");

    let (out2, cfg2) = run(2006, 2, true);
    let (out7, cfg7) = run(2006, 7, true);
    // Thread count changes threads_configured/threads_effective in the
    // manifest (it is honest about the run), so pin those too before
    // comparing the rest of the page.
    let strip = |page: &str| -> String {
        page.lines()
            .filter(|l| !l.contains("threads"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let p2 = page_for(&out2, &cfg2, 2006);
    let p7 = page_for(&out7, &cfg7, 2006);
    assert_eq!(strip(&p2), strip(&p7), "thread count leaked into the page");
    assert_eq!(strip(&first), strip(&p2));
}

#[test]
fn page_is_self_contained_and_has_every_section() {
    let (out, cfg) = run(2006, 0, true);
    let page = page_for(&out, &cfg, 2006);
    for anchor in [
        "id=\"manifest\"",
        "id=\"paper\"",
        "id=\"compare\"",
        "id=\"audit\"",
        "id=\"quarantine\"",
        "id=\"telemetry\"",
        "id=\"trajectory\"",
    ] {
        assert!(page.contains(anchor), "missing section {anchor}");
    }
    // Zero external requests: no URLs, no CSS imports, no url() fetches.
    assert!(!page.contains("http://"));
    assert!(!page.contains("https://"));
    assert!(!page.contains("url("));
    assert!(!page.contains("@import"));
    // The paper blocks are all present as escaped <pre> text.
    assert!(page.contains("id=\"paper-table1\""));
    assert!(page.contains("id=\"paper-compare\"") || page.contains("id=\"compare\""));
    // Missing bench artifacts degrade to a note, not an error.
    assert!(page.contains("BENCH_scenarios.json: not found"));
}

#[test]
fn html_generation_leaves_the_text_fingerprint_unchanged() {
    // `reproduce --html` flips record_provenance on; the text surface must
    // not notice. (Zero-perturbation of provenance is already held by
    // `detcheck`; this pins the report path end to end.)
    let (plain, _) = run(424242, 0, false);
    let (with_html, cfg) = run(424242, 0, true);
    let text_plain = report::render_all(&plain.dataset, AnalysisConfig::default(), 424242);
    let text_html = report::render_all(&with_html.dataset, AnalysisConfig::default(), 424242);
    assert_eq!(text_plain, text_html);

    // Generating the page does not mutate anything the text render reads.
    let _page = page_for(&with_html, &cfg, 424242);
    let text_after = report::render_all(&with_html.dataset, AnalysisConfig::default(), 424242);
    assert_eq!(text_plain, text_after);
}

#[test]
fn manifest_json_matches_page_fingerprint() {
    let (out, cfg) = run(99, 0, true);
    let manifest = bench_suite::manifest_for(&out, &cfg, "quick", 99);
    let json = manifest.to_json();
    let hex = format!("{:016x}", manifest.dataset_fingerprint);
    assert!(json.contains(&hex), "manifest.json must carry the fingerprint");
    let page = page_for(&out, &cfg, 99);
    assert!(page.contains(&hex), "page must carry the same fingerprint");
    assert_eq!(
        manifest.dataset_fingerprint,
        model::fingerprint(&out.dataset),
        "fingerprint is a pure function of the dataset"
    );
}
