//! Degraded-run acceptance: the full pipeline survives apparatus damage.
//!
//! One experiment is run under [`ApparatusFaults::stress`] — client nodes
//! die mid-month, ~1% of records are lost in collection, and the BGP feed
//! is bit-flipped and truncated before salvage-decoding. The run must
//! complete without aborting, account for every loss in its [`RunReport`],
//! and still reproduce the healthy run's Table 3 shapes within tolerance.

use netprofiler::{blame, summary, Analysis};
use workload::{run_experiment, ApparatusFaults, ExperimentConfig};

fn config(apparatus: ApparatusFaults) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(2006);
    cfg.hours = 24;
    cfg.wire_fidelity = false;
    cfg.apparatus = apparatus;
    cfg
}

#[test]
fn degraded_run_completes_and_reproduces_table3() {
    let out = run_experiment(&config(ApparatusFaults::stress()));
    let healthy = run_experiment(&config(ApparatusFaults::none()));
    assert!(healthy.report.is_clean());

    // The three injected fault kinds all left a mark: dead nodes...
    let lost = out.report.lost_clients();
    assert!(!lost.is_empty(), "stress run must lose at least one client");
    assert!(lost.len() < 20, "but only a handful of the 134");
    // ...collection loss around the configured 1%...
    let emitted = out.report.records_kept() + out.report.records_dropped;
    let drop_rate = out.report.records_dropped as f64 / emitted as f64;
    assert!((0.005..0.02).contains(&drop_rate), "drop rate {drop_rate}");
    // ...and a corrupted feed that salvage partially recovered.
    assert!(out.report.mrt_issues >= 1, "feed corruption must quarantine records");
    assert!(out.report.mrt_records_kept > 0, "salvage must recover records");
    assert!(!out.report.is_clean());

    // Every loss is named in the rendered quarantine summary.
    let q = out.report.quarantine_summary();
    assert!(!q.is_clean());
    let text = q.render();
    for name in out.report.lost_names() {
        assert!(text.contains(name), "lost client {name} unnamed in:\n{text}");
    }
    assert!(text.contains("bgp-mrt quarantined"), "{text}");
    assert!(text.contains("records dropped"), "{text}");

    // The dataset agrees with the runner's accounting: exactly the lost
    // clients have no records (record drops at 1% never blank a whole
    // client, so every survivor still reports).
    let mut reported = vec![false; out.dataset.clients.len()];
    for r in &out.dataset.records {
        reported[r.client.0 as usize] = true;
    }
    let silent: Vec<_> = out
        .dataset
        .clients
        .iter()
        .map(|c| c.id)
        .filter(|id| !reported[id.0 as usize])
        .collect();
    assert_eq!(silent, lost);

    // Table 3 still has the paper's shape: every category's transaction
    // failure rate tracks the healthy run.
    let degraded_t3 = summary::table3(&model::ColumnarDataset::from_dataset(&out.dataset));
    let healthy_t3 = summary::table3(&model::ColumnarDataset::from_dataset(&healthy.dataset));
    assert_eq!(degraded_t3.len(), healthy_t3.len());
    for (d, h) in degraded_t3.iter().zip(&healthy_t3) {
        assert_eq!(d.category, h.category);
        let (rd, rh) = (d.transaction_failure_rate(), h.transaction_failure_rate());
        let tol = (0.5 * rh).max(0.01);
        assert!(
            (rd - rh).abs() <= tol,
            "{:?}: degraded rate {rd} vs healthy {rh}",
            d.category
        );
    }

    // The analysis indexes what survived, and Table 5 still attributes
    // its failures.
    let a = Analysis::with_defaults(&out.dataset);
    assert!(blame::table5(&a).total() > 0);
}
