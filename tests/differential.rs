//! Differential oracle tests: the optimized pipeline must match the naive
//! reference implementations field-for-field (f64s bit-equal) on three
//! dataset families — a healthy simulated window, an apparatus-degraded
//! window, and property-generated edge-case datasets — at every thread
//! count. Runs identically with `--no-default-features` (telemetry stub).

use netprofiler::synthetic::SynthWorld;
use netprofiler::AnalysisConfig;
use oracle::gen::property_dataset;
use proptest::prelude::*;
use workload::{run_experiment, ApparatusFaults, ExperimentConfig};

const THREADS: [usize; 3] = [1, 2, 7];

fn assert_clean(name: &str, ds: &model::Dataset) {
    let oracle = oracle::analyze(ds, &AnalysisConfig::default());
    for threads in THREADS {
        let cfg = AnalysisConfig::default().with_threads(threads);
        let report = oracle::check_dataset_with_oracle(ds, cfg, &oracle);
        assert!(
            report.is_clean(),
            "{name} @ {threads} thread(s):\n{}",
            report.render()
        );
    }
}

#[test]
fn standard_family_matches_oracle() {
    let mut cfg = ExperimentConfig::quick(20050101);
    cfg.hours = 8;
    cfg.wire_fidelity = false;
    let ds = run_experiment(&cfg).dataset;
    assert!(!ds.records.is_empty());
    assert_clean("standard", &ds);
}

#[test]
fn degraded_family_matches_oracle() {
    let mut cfg = ExperimentConfig::quick(20050101);
    cfg.hours = 8;
    cfg.wire_fidelity = false;
    cfg.apparatus = ApparatusFaults::stress();
    let ds = run_experiment(&cfg).dataset;
    assert!(!ds.records.is_empty());
    assert_clean("degraded", &ds);
}

#[test]
fn property_family_matches_oracle() {
    for seed in 0..16u64 {
        let ds = property_dataset(seed);
        assert_clean(&format!("property[{seed}]"), &ds);
    }
}

#[test]
fn empty_world_matches_oracle() {
    // No traffic at all: every artifact degenerates, and both sides must
    // degenerate the same way.
    let ds = SynthWorld::new(3, 2, 5).finish();
    assert_clean("empty", &ds);
}

#[test]
fn month_boundary_world_matches_oracle() {
    // Records stamped exactly at hour == ds.hours (the builder permits
    // them) must be dropped by both sides, never aliased into another
    // entity's early hours.
    let mut w = SynthWorld::new(2, 2, 3);
    w.add_conn_batch(model::ClientId(1), model::SiteId(1), 0, 20, 20);
    w.add_failed_conn(model::ClientId(0), model::SiteId(0), 3);
    w.add_txn(model::ClientId(0), model::SiteId(0), 3, false);
    assert_clean("month-boundary", &w.finish());
}

#[test]
fn all_failure_world_matches_oracle() {
    // Every attempt fails: rate exactly 1.0 everywhere, permanent-pair
    // detection and the CDF dedup path both fire.
    let mut w = SynthWorld::new(2, 2, 4);
    for h in 0..4u32 {
        for c in 0..2u16 {
            for s in 0..2u16 {
                w.add_conn_batch(model::ClientId(c), model::SiteId(s), h, 15, 15);
                w.add_txn_batch(model::ClientId(c), model::SiteId(s), h, 15, 15);
            }
        }
    }
    assert_clean("all-failure", &w.finish());
}

#[test]
fn audit_confusion_matches_oracle() {
    // The optimized (sharded) audit confusion matrix must match the naive
    // one-pass recount at every thread count.
    let mut cfg = ExperimentConfig::quick(20050101);
    cfg.hours = 8;
    cfg.wire_fidelity = false;
    cfg.record_provenance = true;
    let out = run_experiment(&cfg);
    let log = out.provenance.expect("provenance requested");
    assert!(!out.dataset.records.is_empty());
    for threads in THREADS {
        let acfg = AnalysisConfig::default().with_threads(threads);
        let report = oracle::check_audit(&out.dataset, acfg, &log);
        assert!(
            report.is_clean(),
            "audit @ {threads} thread(s):\n{}",
            report.render()
        );
    }
}

#[test]
fn differ_detects_divergence() {
    // The harness itself must be falsifiable: against a corrupted oracle
    // the checker has to report, not rubber-stamp.
    let ds = property_dataset(1);
    let cfg = AnalysisConfig::default();
    let mut oracle = oracle::analyze(&ds, &cfg);
    oracle.overall.dns += 1;
    oracle.figure4.client_knee = Some(0.123_456);
    let report = oracle::check_dataset_with_oracle(&ds, cfg, &oracle);
    assert!(!report.is_clean());
    let rendered = report.render();
    assert!(rendered.contains("overall.dns"), "{rendered}");
    assert!(rendered.contains("figure4.client_knee"), "{rendered}");
    assert!(rendered.contains("FAILED"), "{rendered}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cdf_at_and_knee_agree_with_recount(
        rates in proptest::collection::vec(0.0f64..=1.0, 0..40),
        probe in 0.0f64..=1.0,
    ) {
        let cdf = netprofiler::episodes::RateCdf::from_rates(&rates);
        // at(r) must equal the direct recount of samples ≤ r.
        let expected = if rates.is_empty() {
            0.0
        } else {
            rates.iter().filter(|x| **x <= probe).count() as f64 / rates.len() as f64
        };
        prop_assert!((cdf.at(probe) - expected).abs() < 1e-12);
        // The knee, when defined, is one of the observed rates.
        if let Some(k) = cdf.knee() {
            prop_assert!(rates.contains(&k));
        }
    }

    #[test]
    fn quantile_stays_within_sample_bounds(
        samples in proptest::collection::vec(-1.0e6f64..=1.0e6, 1..50),
        q in 0.0f64..=1.0,
    ) {
        let v = netprofiler::summary::quantile(&samples, q).expect("non-empty");
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min && v <= max);
        let lo = netprofiler::summary::quantile(&samples, 0.0).expect("non-empty");
        let hi = netprofiler::summary::quantile(&samples, 1.0).expect("non-empty");
        prop_assert!(lo == min, "q=0 must be the minimum");
        prop_assert!(hi == max, "q=1 must be the maximum");
    }
}
