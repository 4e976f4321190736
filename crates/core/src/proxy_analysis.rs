//! Proxy-related failures (Section 4.7, Table 9).
//!
//! After removing failures attributable to server-side episodes of the
//! target site and to each client's own client-side episodes, a *residual*
//! failure rate remains. The paper finds this residual is dramatically
//! higher for the five proxied corporate clients than for everyone else on
//! two multi-replica sites — the shared-proxy no-fail-over defect.

use crate::grid::client_transaction_grid;
use crate::Analysis;
use model::{ClientCategory, ClientId, SiteId};

/// The `(min_rate, dominance)` of the shared-proxy scan Table 9 prints;
/// see [`shared_proxy_sites`].
pub const SHARED_PROXY_PARAMS: (f64, f64) = (0.003, 5.0);

/// Residual failure rate for one client (or client group) on one site.
#[derive(Clone, Debug, Default)]
pub struct ResidualRate {
    pub transactions: u64,
    pub residual_failures: u64,
}

impl ResidualRate {
    pub fn rate(&self) -> f64 {
        if self.transactions == 0 {
            0.0
        } else {
            self.residual_failures as f64 / self.transactions as f64
        }
    }
}

/// One Table 9 row: per proxied CN client, the unproxied CN client
/// (SEAEXT), and the non-CN aggregate, for one site.
#[derive(Clone, Debug)]
pub struct Table9Row {
    pub site: SiteId,
    /// `(client, residual)` for the proxied CN clients.
    pub proxied: Vec<(ClientId, ResidualRate)>,
    /// The external (unproxied) CN client, if present.
    pub external: Option<(ClientId, ResidualRate)>,
    /// All non-CN clients combined.
    pub non_cn: ResidualRate,
}

/// Residual rates of every site, one row per site in site order, from one
/// pass over the transactions.
///
/// A failure is residual unless its hour is a server-side episode of its
/// site or a client-side episode of its client. Client-side episodes are
/// taken from both the connection grid and a transaction grid — proxied
/// clients have no connection records, so their own bad hours must be
/// visible through transactions.
pub fn residual_table(analysis: &Analysis<'_>) -> Vec<Table9Row> {
    let _span = telemetry::span!("analysis.proxy.table9");
    let cds = &analysis.cds;
    let txn = &cds.txn;
    let threads = analysis.config.threads;
    let f = analysis.config.episode_threshold;
    let min = analysis.config.min_hour_samples;
    let txn_grid = client_transaction_grid(cds, &analysis.permanent, threads);
    let (clients, sites) = (cds.client_count(), cds.site_count());

    // `counts[site][client]`, summed over shards in shard order.
    let partials = crate::par::map_shards(threads, cds.txn_len(), |range| {
        let mut counts = vec![vec![ResidualRate::default(); clients]; sites];
        for i in range {
            let (client, site) = (txn.client[i], txn.site[i]);
            if analysis.permanent.contains(ClientId(client), SiteId(site)) {
                continue;
            }
            let (c, s, hour) = (client as usize, site as usize, cds.txn_hour(i));
            let e = &mut counts[s][c];
            e.transactions += 1;
            if cds.txn_failed(i)
                && !analysis.server_grid.is_episode(s, hour, f, min)
                && !analysis.client_grid.is_episode(c, hour, f, min)
                && !txn_grid.is_episode(c, hour, f, min)
            {
                e.residual_failures += 1;
            }
        }
        counts
    });
    let mut counts = vec![vec![ResidualRate::default(); clients]; sites];
    for partial in partials {
        for (row, part) in counts.iter_mut().zip(partial) {
            for (e, p) in row.iter_mut().zip(part) {
                e.transactions += p.transactions;
                e.residual_failures += p.residual_failures;
            }
        }
    }

    counts
        .into_iter()
        .enumerate()
        .map(|(s, per_client)| {
            let mut proxied = Vec::new();
            let mut external = None;
            let mut non_cn = ResidualRate::default();
            for (i, rr) in per_client.into_iter().enumerate() {
                let id = ClientId(i as u16);
                if cds.clients.category[i] == ClientCategory::CorpNet {
                    if cds.clients.proxy[i] != model::columnar::NONE_U16 {
                        proxied.push((id, rr));
                    } else {
                        external = Some((id, rr));
                    }
                } else {
                    non_cn.transactions += rr.transactions;
                    non_cn.residual_failures += rr.residual_failures;
                }
            }
            Table9Row {
                site: SiteId(s as u16),
                proxied,
                external,
                non_cn,
            }
        })
        .collect()
}

/// A site whose residual failures are *shared across all proxies* —
/// Section 4.7's signature of a common proxy defect (the paper found
/// exactly two such sites, iitb and royal, despite the five proxies being
/// in different locations with different WAN connectivity).
#[derive(Clone, Debug)]
pub struct SharedProxySite {
    pub site: SiteId,
    /// Residual rate of the *least affected* proxied client (all proxies
    /// are at least this bad).
    pub min_proxied_rate: f64,
    /// Residual rate of the non-CN population.
    pub non_cn_rate: f64,
    /// Residual rate of the external (unproxied) CN client, if any.
    pub external_rate: Option<f64>,
}

/// Scan the [`residual_table`] rows for shared proxy-related failures:
/// flag sites where the *minimum* proxied residual exceeds `min_rate` and
/// is at least `dominance`× the non-CN residual (and the external CN
/// client, when present, looks like the non-CN population, ruling out a
/// shared-WAN explanation).
pub fn shared_proxy_sites(
    rows: &[Table9Row],
    min_rate: f64,
    dominance: f64,
) -> Vec<SharedProxySite> {
    let mut out = Vec::new();
    for row in rows {
        if row.proxied.is_empty() {
            continue;
        }
        // Require every proxy to have enough traffic to judge.
        if row.proxied.iter().any(|(_, rr)| rr.transactions < 50) {
            continue;
        }
        let min_proxied_rate = row
            .proxied
            .iter()
            .map(|(_, rr)| rr.rate())
            .fold(f64::INFINITY, f64::min);
        let non_cn_rate = row.non_cn.rate();
        let external_rate = row.external.as_ref().map(|(_, rr)| rr.rate());
        let external_ok = external_rate.is_none_or(|e| e < min_proxied_rate * 0.5);
        if min_proxied_rate >= min_rate
            && min_proxied_rate >= dominance * non_cn_rate.max(1e-6)
            && external_ok
        {
            out.push(SharedProxySite {
                site: row.site,
                min_proxied_rate,
                non_cn_rate,
                external_rate,
            });
        }
    }
    out.sort_by(|a, b| b.min_proxied_rate.total_cmp(&a.min_proxied_rate));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SynthWorld;
    use crate::{Analysis, AnalysisConfig};
    use model::ProxyId;

    /// 6 direct clients + 2 CN (one proxied, one external). The proxied CN
    /// client fails 6% of accesses to site 0 persistently (no episode is
    /// ever flagged: the failures are spread thin); everyone else is clean.
    fn world() -> model::Dataset {
        let mut w = SynthWorld::new(8, 2, 10);
        w.set_category(ClientId(6), ClientCategory::CorpNet);
        w.set_proxy(ClientId(6), ProxyId(0));
        w.set_category(ClientId(7), ClientCategory::CorpNet);
        for h in 0..10u32 {
            for c in 0..6u16 {
                w.add_txn_batch(ClientId(c), SiteId(0), h, 50, 0);
                w.add_conn_batch(ClientId(c), SiteId(0), h, 50, 0);
                w.add_txn_batch(ClientId(c), SiteId(1), h, 50, 1);
                w.add_conn_batch(ClientId(c), SiteId(1), h, 50, 1);
            }
            // Proxied CN: 3/75 = 4% fail to site 0 — persistent but below
            // the 5% episode threshold, plus clean traffic to site 1 so the
            // client's hourly aggregate stays low.
            w.add_txn_batch(ClientId(6), SiteId(0), h, 75, 3);
            w.add_txn_batch(ClientId(6), SiteId(1), h, 75, 0);
            // External CN: clean.
            w.add_txn_batch(ClientId(7), SiteId(0), h, 75, 0);
            w.add_txn_batch(ClientId(7), SiteId(1), h, 75, 0);
        }
        w.finish()
    }

    #[test]
    fn residuals_expose_proxied_client() {
        let ds = world();
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let row = &residual_table(&a)[0];
        assert_eq!(row.proxied.len(), 1);
        let (cid, rr) = &row.proxied[0];
        assert_eq!(*cid, ClientId(6));
        assert!((rr.rate() - 0.04).abs() < 1e-9, "rate {}", rr.rate());
        let (_, ext) = row.external.as_ref().unwrap();
        assert_eq!(ext.rate(), 0.0);
        assert_eq!(row.non_cn.rate(), 0.0);
        assert!(rr.rate() > 10.0 * row.non_cn.rate().max(0.001));
    }

    #[test]
    fn shared_proxy_detection_finds_the_planted_site() {
        // 5 proxied CN clients all fail ~4% on site 0 (below the episode
        // threshold); an external CN client and 6 direct clients are clean.
        let mut w = SynthWorld::new(12, 3, 10);
        for c in 6..11u16 {
            w.set_category(ClientId(c), ClientCategory::CorpNet);
            w.set_proxy(ClientId(c), ProxyId(c - 6));
        }
        w.set_category(ClientId(11), ClientCategory::CorpNet); // external
        for h in 0..10u32 {
            for c in 0..6u16 {
                for s in 0..3u16 {
                    w.add_txn_batch(ClientId(c), SiteId(s), h, 25, 0);
                    w.add_conn_batch(ClientId(c), SiteId(s), h, 25, 0);
                }
            }
            for c in 6..11u16 {
                w.add_txn_batch(ClientId(c), SiteId(0), h, 25, 1);
                w.add_txn_batch(ClientId(c), SiteId(1), h, 25, 0);
                w.add_txn_batch(ClientId(c), SiteId(2), h, 25, 0);
            }
            for s in 0..3u16 {
                w.add_txn_batch(ClientId(11), SiteId(s), h, 25, 0);
            }
        }
        let ds = w.finish();
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let shared = shared_proxy_sites(&residual_table(&a), 0.02, 5.0);
        assert_eq!(shared.len(), 1);
        assert_eq!(shared[0].site, SiteId(0));
        assert!((shared[0].min_proxied_rate - 0.04).abs() < 1e-9);
        assert_eq!(shared[0].non_cn_rate, 0.0);
        assert_eq!(shared[0].external_rate, Some(0.0));
    }

    #[test]
    fn one_healthy_proxy_defeats_shared_detection() {
        // 4 of 5 proxies fail on site 0; the 5th is clean → not *shared*.
        let mut w = SynthWorld::new(8, 2, 10);
        for c in 2..7u16 {
            w.set_category(ClientId(c), ClientCategory::CorpNet);
            w.set_proxy(ClientId(c), ProxyId(c - 2));
        }
        for h in 0..10u32 {
            for c in 0..2u16 {
                w.add_txn_batch(ClientId(c), SiteId(0), h, 25, 0);
                w.add_conn_batch(ClientId(c), SiteId(0), h, 25, 0);
            }
            for c in 2..7u16 {
                let fails = u32::from(c != 6);
                w.add_txn_batch(ClientId(c), SiteId(0), h, 25, fails);
            }
        }
        let ds = w.finish();
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let shared = shared_proxy_sites(&residual_table(&a), 0.02, 5.0);
        assert!(shared.is_empty(), "min proxied rate is ~0");
    }

    #[test]
    fn residual_excludes_episode_hours() {
        // A server-side episode on site 0 in hour 0: those failures must
        // not count as residual.
        let mut w = SynthWorld::new(10, 1, 4);
        for h in 0..4u32 {
            for c in 0..10u16 {
                let fails = if h == 0 { 10 } else { 0 };
                w.add_txn_batch(ClientId(c), SiteId(0), h, 50, fails);
                w.add_conn_batch(ClientId(c), SiteId(0), h, 50, fails);
            }
        }
        let ds = w.finish();
        let a = Analysis::new(&ds, AnalysisConfig::default());
        assert!(a.server_grid.is_episode(0, 0, 0.05, 12));
        let row = &residual_table(&a)[0];
        assert_eq!(row.non_cn.residual_failures, 0);
        assert_eq!(row.non_cn.transactions, 2000);
    }

    #[test]
    fn residual_excludes_client_episode_hours() {
        // Client 0 has a client-side (transaction) episode in hour 1 that
        // also hits site 0; those failures are filtered.
        let mut w = SynthWorld::new(10, 5, 4);
        for h in 0..4u32 {
            for c in 0..10u16 {
                for s in 0..5u16 {
                    let fails = if c == 0 && h == 1 { 10 } else { 0 };
                    w.add_txn_batch(ClientId(c), SiteId(s), h, 20, fails);
                    w.add_conn_batch(ClientId(c), SiteId(s), h, 20, fails);
                }
            }
        }
        let ds = w.finish();
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let row = &residual_table(&a)[0];
        assert_eq!(row.non_cn.residual_failures, 0);
    }
}
