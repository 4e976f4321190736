//! `netprofiler` — the paper's failure-classification framework.
//!
//! Implements every analysis of *A Study of End-to-End Web Access Failures*
//! (CoNEXT 2006) over a [`model::Dataset`], using only what a real
//! measurement would have: the performance/connection records and the
//! cleaned BGP series — never the simulator's ground truth.
//!
//! | Module | Paper section | Artifacts |
//! |---|---|---|
//! | [`summary`] | §4.1 | Table 3, Figure 1, per-entity medians |
//! | [`dns_analysis`] | §4.2 | Table 4, Figure 2, dig agreement |
//! | [`tcp_analysis`] | §4.3 | Figure 3 |
//! | [`permanent`] | §4.4.2 | the 38 near-permanent pairs |
//! | [`episodes`] | §4.4.3 | Figure 4, knee detection |
//! | [`blame`] | §4.4.4–5 | Table 5, episode coalescing |
//! | [`spread`] | §4.4.6 | Table 6 |
//! | [`similarity`] | §4.4.6 | Tables 7 & 8 |
//! | [`replicas`] | §4.5 | total vs partial replica failures |
//! | [`bgp_corr`] | §4.6 | Figures 5–7, severe-instability stats |
//! | [`proxy_analysis`] | §4.7 | Table 9 |
//! | [`loss_corr`] | §4.1.3 | loss/failure correlation |
//! | [`pair_episodes`] | §2.2 cat. 3 | client-server-specific episodes (the paper defines but defers this) |
//! | [`timing`] | §3.5 | lookup/download time quantiles per category |
//!
//! The entry point is [`Analysis::new`], which indexes the dataset once
//! (columns, permanent-pair detection, hourly per-entity and per-prefix
//! grids) and hands out the individual analyses. [`Analysis::at`] views the
//! same index at another episode threshold, as Table 5's f = 10 % row needs.

pub mod audit;
pub mod bgp_corr;
pub mod blame;
pub mod caps;
pub mod config;
pub mod dns_analysis;
pub mod episodes;
pub mod grid;
pub mod loss_corr;
pub mod pair_episodes;
pub mod par;
pub mod permanent;
pub mod proxy_analysis;
pub mod replicas;
pub mod similarity;
pub mod spread;
pub mod summary;
pub mod synthetic;
pub mod tcp_analysis;
pub mod timing;

pub use blame::{BlameBreakdown, BlameClass};
pub use config::AnalysisConfig;
pub use grid::{HourlyGrid, OutcomeGrid};
pub use permanent::PermanentPairs;

use model::{ColumnarDataset, Dataset};
use std::sync::Arc;

/// The indexed analysis over one dataset.
///
/// The index (columns, permanent pairs, the six grids) does not depend on
/// `config.episode_threshold`, so it sits behind `Arc`s that every
/// [`Analysis::at`] view shares.
#[derive(Clone)]
pub struct Analysis<'d> {
    pub ds: &'d Dataset,
    /// Structure-of-arrays view of the same records; every headline scan
    /// (grids, permanent pairs, Table 5, episodes, BGP grid, summaries)
    /// reads these columns instead of the row structs. They are hundreds
    /// of MB at reproduction scale.
    pub cds: Arc<ColumnarDataset>,
    pub config: AnalysisConfig,
    /// Near-permanent (client, site) pairs, detected from the data and
    /// excluded from the correlation analyses (Section 4.4.2).
    pub permanent: Arc<PermanentPairs>,
    /// Hourly TCP-connection grid per client (permanent pairs excluded).
    pub client_grid: Arc<HourlyGrid>,
    /// Hourly TCP-connection grid per server (permanent pairs excluded).
    pub server_grid: Arc<HourlyGrid>,
    /// Hourly *transaction-outcome* grid per client: counts every
    /// transaction, DNS failures included, with Section 4.2 blame folded in
    /// — this is what sees client-side faults that kill DNS before any TCP
    /// connection exists.
    pub client_outcome: Arc<OutcomeGrid>,
    /// Hourly transaction-outcome grid per server.
    pub server_outcome: Arc<OutcomeGrid>,
    /// Hourly TCP-connection grid per announced prefix (§4.6; permanent
    /// pairs excluded).
    pub prefix_grid: Arc<HourlyGrid>,
    /// Hourly transaction grid per client (permanent pairs excluded): what
    /// shows a proxied client's own bad hours, which it has no connection
    /// records for (Table 9).
    pub client_txn_grid: Arc<HourlyGrid>,
}

impl<'d> Analysis<'d> {
    /// Index `ds` under `config`.
    pub fn new(ds: &'d Dataset, config: AnalysisConfig) -> Analysis<'d> {
        let _span = telemetry::span!("analysis.index");
        let cds = ColumnarDataset::from_dataset(ds);
        let permanent = permanent::detect(&cds, &config);
        let ((client_grid, server_grid), (client_outcome, server_outcome)) = par::join2(
            config.threads,
            || {
                par::join2(
                    config.threads,
                    || grid::client_connection_grid(&cds, &permanent, config.threads),
                    || grid::server_connection_grid(&cds, &permanent, config.threads),
                )
            },
            || grid::transaction_outcome_grids(&cds, &permanent, config.threads),
        );
        let (prefix_grid, client_txn_grid) = par::join2(
            config.threads,
            || bgp_corr::prefix_grid(&cds, &permanent, config.threads),
            || grid::client_transaction_grid(&cds, &permanent, config.threads),
        );
        Analysis {
            ds,
            cds: Arc::new(cds),
            config,
            permanent: Arc::new(permanent),
            client_grid: Arc::new(client_grid),
            server_grid: Arc::new(server_grid),
            client_outcome: Arc::new(client_outcome),
            server_outcome: Arc::new(server_outcome),
            prefix_grid: Arc::new(prefix_grid),
            client_txn_grid: Arc::new(client_txn_grid),
        }
    }

    /// Index with the default configuration.
    pub fn with_defaults(ds: &'d Dataset) -> Analysis<'d> {
        Analysis::new(ds, AnalysisConfig::default())
    }

    /// The same index at episode threshold `f`, equal to
    /// `Analysis::new(ds, config.with_threshold(f))` without rebuilding it.
    pub fn at(&self, f: f64) -> Analysis<'d> {
        Analysis {
            config: self.config.with_threshold(f),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SynthWorld;
    use model::{ClientId, DnsErrorCode, DnsFailureKind, FailureClass, SiteId};

    fn assert_same_cells(name: &str, a: &HourlyGrid, b: &HourlyGrid) {
        assert_eq!((a.rows(), a.hours()), (b.rows(), b.hours()), "{name} shape");
        for row in 0..a.rows() {
            for hour in 0..a.hours() {
                assert_eq!(
                    a.cell(row, hour),
                    b.cell(row, hour),
                    "{name}[{row}][{hour}]"
                );
            }
        }
    }

    #[test]
    fn at_views_the_index_new_builds_at_that_threshold() {
        let mut w = SynthWorld::new(4, 3, 6);
        for h in 0..6u32 {
            for c in 0..4u16 {
                for s in 0..3u16 {
                    // Client 0 never reaches site 0: a near-permanent pair.
                    let fail = if (c, s) == (0, 0) {
                        8
                    } else {
                        2 * u32::from(h == u32::from(c))
                    };
                    w.add_txn_batch(ClientId(c), SiteId(s), h, 8, fail);
                    w.add_conn_batch(ClientId(c), SiteId(s), h, 8, fail);
                }
            }
            let ldns = FailureClass::Dns(DnsFailureKind::LdnsTimeout);
            let auth = FailureClass::Dns(DnsFailureKind::ErrorResponse(DnsErrorCode::ServFail));
            w.add_txn_failure(ClientId(1), SiteId(2), h, ldns);
            w.add_txn_failure(ClientId(2), SiteId(1), h, auth);
        }
        let ds = w.finish();
        let cfg = AnalysisConfig::default().with_threads(2);
        let built = Analysis::new(&ds, cfg.with_threshold(0.10));
        let a5 = Analysis::new(&ds, cfg);
        let viewed = a5.at(0.10);
        assert!(Arc::ptr_eq(&viewed.client_outcome, &a5.client_outcome));
        assert_eq!(viewed.config.episode_threshold, 0.10);
        assert!(viewed.permanent.contains(ClientId(0), SiteId(0)));
        let detail = |a: &Analysis<'_>| {
            a.permanent
                .detail
                .iter()
                .map(|p| (p.client, p.site, p.transactions, p.failed))
                .collect::<Vec<_>>()
        };
        assert_eq!(detail(&viewed), detail(&built));
        assert_same_cells("client_grid", &viewed.client_grid, &built.client_grid);
        assert_same_cells("server_grid", &viewed.server_grid, &built.server_grid);
        assert_same_cells("prefix_grid", &viewed.prefix_grid, &built.prefix_grid);
        assert_same_cells(
            "client_txn_grid",
            &viewed.client_txn_grid,
            &built.client_txn_grid,
        );
        for (name, v, b) in [
            (
                "client_outcome",
                &viewed.client_outcome,
                &built.client_outcome,
            ),
            (
                "server_outcome",
                &viewed.server_outcome,
                &built.server_outcome,
            ),
        ] {
            assert_same_cells(name, &v.grid, &b.grid);
            for row in 0..v.grid.rows() {
                for hour in 0..v.grid.hours() {
                    assert_eq!(v.peer_max(row, hour), b.peer_max(row, hour), "{name}");
                }
            }
        }
        // Hour 5 has no TCP failures, so these are the DNS failures: they
        // reach the outcome grids, and the check is not vacuous.
        assert_eq!(built.client_outcome.grid.cell(1, 5).1, 1);
        assert_eq!(built.server_outcome.grid.cell(1, 5).1, 1);
        // Client 0 in hour 0: two sites' 16 accesses, 4 failed; the
        // near-permanent pair's 8 failures stay out of both grids.
        assert_eq!(built.client_txn_grid.cell(0, 0), (16, 4));
        assert_eq!(built.prefix_grid.cell(0, 0), (16, 4));
    }
}
