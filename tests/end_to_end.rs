//! End-to-end pipeline invariants: experiment → dataset → analysis.

use model::{ClientCategory, Dataset, FailureClass, TransactionOutcome};
use netprofiler::{blame, summary, Analysis, AnalysisConfig};
use std::sync::OnceLock;
use workload::{run_experiment, ExperimentConfig};

fn shared() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| {
        let mut cfg = ExperimentConfig::quick(97);
        cfg.hours = 24;
        run_experiment(&cfg).dataset
    })
}

#[test]
fn fleet_and_sites_are_paper_shaped() {
    let ds = shared();
    assert_eq!(ds.clients.len(), 134);
    assert_eq!(ds.sites.len(), 80);
    assert_eq!(ds.colocated_pairs().len(), 35);
    assert_eq!(ds.hours, 24);
}

#[test]
fn every_record_is_internally_consistent() {
    let ds = shared();
    for r in &ds.records {
        assert!(r.hour() < ds.hours, "record outside horizon");
        assert!((r.client.0 as usize) < ds.clients.len());
        assert!((r.site.0 as usize) < ds.sites.len());
        match r.outcome {
            TransactionOutcome::Success => {
                assert!(r.dns.is_ok(), "successful transaction with failed DNS");
                assert!(r.bytes_received > 0, "success delivered no bytes");
            }
            TransactionOutcome::Failure(FailureClass::Dns(kind)) => {
                // DNS failures carry the kind in the dns field too, unless
                // the failure hit a redirect hop after a successful initial
                // lookup.
                if let Err(k) = r.dns {
                    assert_eq!(k, kind);
                }
                assert_eq!(r.bytes_received, 0);
            }
            TransactionOutcome::Failure(FailureClass::Tcp(_)) => {
                if r.proxy.is_none() {
                    assert!(
                        r.connections_attempted > 0,
                        "direct TCP failure without connection attempts"
                    );
                }
            }
            TransactionOutcome::Failure(FailureClass::Http(status)) => {
                assert!((300..=599).contains(&status), "odd HTTP status {status}");
            }
        }
    }
}

#[test]
fn connection_records_belong_to_direct_clients_only() {
    let ds = shared();
    for c in &ds.connections {
        // A transaction that starts just before the horizon may spill its
        // later connections past it (the analysis grids drop those).
        assert!(c.hour() <= ds.hours, "connection far past horizon");
        let meta = ds.client(c.client);
        assert!(meta.proxy.is_none(), "proxied client has connection records");
        // Every connection's replica is one of the site's known addresses.
        let site = ds.site(c.site);
        assert!(
            site.addrs.contains(&c.replica),
            "connection to unknown replica {} of {}",
            c.replica,
            site.hostname
        );
    }
}

#[test]
fn transaction_and_connection_counts_relate() {
    let ds = shared();
    let direct: Vec<_> = ds.records.iter().filter(|r| r.proxy.is_none()).collect();
    let sum_attempts: u64 = direct.iter().map(|r| u64::from(r.connections_attempted)).sum();
    assert_eq!(
        sum_attempts,
        ds.connections.len() as u64,
        "per-record connection counts must sum to the connection table"
    );
    let ratio = ds.connections.len() as f64 / direct.len() as f64;
    assert!((1.05..1.6).contains(&ratio), "conn/txn ratio {ratio}");
}

#[test]
fn table3_is_consistent_with_raw_counts() {
    let ds = shared();
    let t3 = summary::table3(&model::ColumnarDataset::from_dataset(ds));
    let total: u64 = t3.iter().map(|r| r.transactions).sum();
    assert_eq!(total, ds.records.len() as u64);
    let cn = t3
        .iter()
        .find(|r| r.category == ClientCategory::CorpNet)
        .unwrap();
    assert!(cn.connections.is_none(), "CN connections masked");
    for row in &t3 {
        assert!(row.failed_transactions <= row.transactions);
        let rate = row.transaction_failure_rate();
        assert!((0.0..0.2).contains(&rate), "{:?} rate {rate}", row.category);
    }
}

#[test]
fn blame_classification_covers_all_failures() {
    let ds = shared();
    let a = Analysis::new(ds, AnalysisConfig::default());
    let b = blame::table5(&a);
    let failed_excl_perm = ds
        .connections
        .iter()
        .filter(|c| c.failed() && !a.permanent.contains(c.client, c.site))
        .count() as u64;
    assert_eq!(b.total(), failed_excl_perm);
    let share_sum = b.share(blame::BlameClass::ServerSide)
        + b.share(blame::BlameClass::ClientSide)
        + b.share(blame::BlameClass::Both)
        + b.share(blame::BlameClass::Other);
    assert!((share_sum - 1.0).abs() < 1e-9);
}

#[test]
fn episode_grids_match_record_totals() {
    let ds = shared();
    let a = Analysis::new(ds, AnalysisConfig::default());
    let mut grid_attempts = 0u64;
    for row in 0..a.client_grid.rows() {
        grid_attempts += a.client_grid.row_totals(row).0;
    }
    let non_perm = ds
        .connections
        .iter()
        .filter(|c| !a.permanent.contains(c.client, c.site) && c.hour() < ds.hours)
        .count() as u64;
    assert_eq!(grid_attempts, non_perm);
}

#[test]
fn dataset_prefixes_cover_all_entities() {
    let ds = shared();
    for c in &ds.clients {
        assert!(!c.prefixes.is_empty());
        assert!(ds
            .prefixes_covering(c.addr)
            .iter()
            .any(|p| c.prefixes.contains(p)));
    }
    for s in &ds.sites {
        for (addr, pfx) in &s.replica_prefixes {
            for p in pfx {
                assert!(ds.prefix(*p).contains(*addr));
            }
        }
    }
}

#[test]
fn bgp_series_spans_horizon() {
    let ds = shared();
    assert_eq!(ds.bgp.hours(), ds.hours);
    assert_eq!(ds.bgp.prefix_count(), ds.prefixes.len());
    // Background churn exists somewhere.
    assert!(ds.bgp.active_cells().count() > 0);
}

#[test]
fn columnar_layout_at_least_halves_row_memory() {
    // The row/columnar ratio does not depend on scale (2.06 on a day, a
    // week and a month alike), so one simulated day holds the full bar.
    let mem = model::ColumnarDataset::from_dataset(shared()).memory();
    assert!(
        mem.reduction() >= 2.0,
        "columnar {} B vs row {} B: only {:.3}x",
        mem.columnar_bytes,
        mem.row_bytes,
        mem.reduction()
    );
}
