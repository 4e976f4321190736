//! Cross-check: the telemetry layer and the analysis pipeline must tell the
//! same story. The per-category transaction/connection counters that
//! `workload::run_experiment` records are compared *exactly* against the
//! Table 3 aggregates `netprofiler::summary::table3` computes from the same
//! dataset — a disagreement would mean the observability layer is lying
//! about the run it observed.
//!
//! This test lives in its own binary because telemetry metrics are
//! process-global: enabling/resetting the recorder here must not race other
//! integration tests.

#![cfg(feature = "profiling")]

use model::ClientCategory;
use workload::{run_experiment, ExperimentConfig};

#[test]
fn per_class_failure_counters_match_table3_aggregates() {
    telemetry::enable(true);
    telemetry::reset();
    let mut cfg = ExperimentConfig::quick(991);
    cfg.hours = 8;
    let out = run_experiment(&cfg);
    let snap = telemetry::snapshot();
    telemetry::enable(false);

    assert!(snap.render_summary().contains("workload.transactions"));

    let rows = netprofiler::summary::table3(&model::ColumnarDataset::from_dataset(&out.dataset));
    assert_eq!(rows.len(), ClientCategory::ALL.len());
    for row in &rows {
        let label = row.category.abbrev();
        assert_eq!(
            snap.counter(&format!("workload.transactions{{{label}}}")),
            row.transactions,
            "{label} transactions"
        );
        assert_eq!(
            snap.counter(&format!("workload.failed_transactions{{{label}}}")),
            row.failed_transactions,
            "{label} failed transactions"
        );
        // Table 3 masks CN connections (proxied); the counters still hold
        // the raw counts, so compare against the dataset directly.
        let raw_conns = out
            .dataset
            .connections
            .iter()
            .filter(|c| out.dataset.client(c.client).category == row.category)
            .count() as u64;
        let raw_failed = out
            .dataset
            .connections
            .iter()
            .filter(|c| out.dataset.client(c.client).category == row.category && c.failed())
            .count() as u64;
        assert_eq!(
            snap.counter(&format!("workload.connections{{{label}}}")),
            raw_conns,
            "{label} connections"
        );
        assert_eq!(
            snap.counter(&format!("workload.failed_connections{{{label}}}")),
            raw_failed,
            "{label} failed connections"
        );
        if let (Some(conns), Some(failed)) = (row.connections, row.failed_connections) {
            assert_eq!(conns, raw_conns, "{label} table3 connections unmasked");
            assert_eq!(failed, raw_failed, "{label} table3 failed connections unmasked");
        } else {
            assert_eq!(row.category, ClientCategory::CorpNet, "only CN is masked");
        }
    }

    // The grand totals agree with the dataset too.
    let total_txns: u64 = rows.iter().map(|r| r.transactions).sum();
    assert_eq!(total_txns, out.dataset.records.len() as u64);
    // And the runner actually attempted the accesses that produced them.
    assert!(snap.counter("workload.accesses_attempted") >= total_txns);
}
