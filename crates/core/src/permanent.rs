//! Near-permanent client–server failures (Section 4.4.2).
//!
//! About 0.4% of the paper's client-site pairs could (almost) never
//! communicate over the whole month. They are detected from monthly
//! transaction failure rates and excluded from the correlation analyses so
//! a handful of pathological pairs does not masquerade as client- or
//! server-side episodes.

use crate::config::AnalysisConfig;
use model::{ClientId, ColumnarDataset, SiteId};
use std::collections::{HashMap, HashSet};

/// Minimum monthly transactions for permanent-pair detection.
pub const MIN_PAIR_TRANSACTIONS: u32 = 24;

/// Detected near-permanent pairs with their impact statistics.
#[derive(Clone, Debug, Default)]
pub struct PermanentPairs {
    pairs: HashSet<(u16, u16)>,
    /// Per detected pair: (transactions, failed transactions).
    pub detail: Vec<PermanentPair>,
    /// Fraction of *all* transaction failures these pairs account for
    /// (paper: 13%).
    pub share_of_transaction_failures: f64,
    /// Fraction of all TCP connection failures they account for (paper:
    /// 50.7% — higher because of wget retries).
    pub share_of_connection_failures: f64,
}

/// One detected pair.
#[derive(Clone, Debug)]
pub struct PermanentPair {
    pub client: ClientId,
    pub site: SiteId,
    pub transactions: u32,
    pub failed: u32,
}

impl PermanentPair {
    pub fn failure_rate(&self) -> f64 {
        f64::from(self.failed) / f64::from(self.transactions.max(1))
    }
}

impl PermanentPairs {
    /// Is the pair excluded?
    pub fn contains(&self, client: ClientId, site: SiteId) -> bool {
        self.pairs.contains(&(client.0, site.0))
    }

    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Detect near-permanent pairs in `cds`.
pub fn detect(cds: &ColumnarDataset, config: &AnalysisConfig) -> PermanentPairs {
    let _span = telemetry::span!("analysis.permanent_pairs");
    let txn = &cds.txn;
    let conn = &cds.conn;
    // Per-shard pair counters merged by addition; the detection filter and
    // the sorted detail list below make the output order-independent.
    let partials = crate::par::map_shards(config.threads, cds.txn_len(), |range| {
        let mut per_pair: HashMap<(u16, u16), (u32, u32)> = HashMap::new();
        for i in range {
            let e = per_pair.entry((txn.client[i], txn.site[i])).or_insert((0, 0));
            e.0 += 1;
            e.1 += u32::from(cds.txn_failed(i));
        }
        per_pair
    });
    let mut partials = partials.into_iter();
    let mut per_pair = partials.next().unwrap_or_default();
    for shard in partials {
        for (pair, (txns, failed)) in shard {
            let e = per_pair.entry(pair).or_insert((0, 0));
            e.0 += txns;
            e.1 += failed;
        }
    }
    let mut pairs = HashSet::new();
    let mut detail = Vec::new();
    for (&(c, s), &(txns, failed)) in &per_pair {
        if txns >= MIN_PAIR_TRANSACTIONS
            && f64::from(failed) / f64::from(txns) > config.permanent_threshold
        {
            pairs.insert((c, s));
            detail.push(PermanentPair {
                client: ClientId(c),
                site: SiteId(s),
                transactions: txns,
                failed,
            });
        }
    }
    detail.sort_by_key(|a| (a.client.0, a.site.0));

    // Impact shares: one sharded pass per record family.
    let (total_txn_failures, perm_txn_failures) =
        crate::par::map_shards(config.threads, cds.txn_len(), |range| {
            let mut total = 0usize;
            let mut perm = 0usize;
            for i in range {
                if cds.txn_failed(i) {
                    total += 1;
                    perm += usize::from(pairs.contains(&(txn.client[i], txn.site[i])));
                }
            }
            (total, perm)
        })
        .into_iter()
        .fold((0, 0), |(t, p), (st, sp)| (t + st, p + sp));
    let (total_conn_failures, perm_conn_failures) =
        crate::par::map_shards(config.threads, cds.conn_len(), |range| {
            let mut total = 0usize;
            let mut perm = 0usize;
            for i in range {
                if cds.conn_failed(i) {
                    total += 1;
                    perm += usize::from(pairs.contains(&(conn.client[i], conn.site[i])));
                }
            }
            (total, perm)
        })
        .into_iter()
        .fold((0, 0), |(t, p), (st, sp)| (t + st, p + sp));

    PermanentPairs {
        pairs,
        detail,
        share_of_transaction_failures: ratio(perm_txn_failures, total_txn_failures),
        share_of_connection_failures: ratio(perm_conn_failures, total_conn_failures),
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SynthWorld;

    fn cds(ds: &model::Dataset) -> ColumnarDataset {
        ColumnarDataset::from_dataset(ds)
    }

    #[test]
    fn detects_only_high_rate_pairs() {
        let mut w = SynthWorld::new(2, 2, 4);
        // Pair (0,0): 100% failure over 40 txns → permanent.
        // Pair (0,1): 50% failure → not permanent.
        // Pair (1,0): healthy.
        for h in 0..4 {
            w.add_txn_batch(ClientId(0), SiteId(0), h, 10, 10);
            w.add_txn_batch(ClientId(0), SiteId(1), h, 10, 5);
            w.add_txn_batch(ClientId(1), SiteId(0), h, 10, 0);
        }
        let ds = w.finish();
        let p = detect(&cds(&ds), &AnalysisConfig::default());
        assert_eq!(p.len(), 1);
        assert!(p.contains(ClientId(0), SiteId(0)));
        assert!(!p.contains(ClientId(0), SiteId(1)));
        assert_eq!(p.detail.len(), 1);
        assert!((p.detail[0].failure_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn thin_pairs_never_flag() {
        let mut w = SynthWorld::new(1, 1, 1);
        // 10 transactions, all failed — but below MIN_PAIR_TRANSACTIONS.
        w.add_txn_batch(ClientId(0), SiteId(0), 0, 10, 10);
        let ds = w.finish();
        let p = detect(&cds(&ds), &AnalysisConfig::default());
        assert!(p.is_empty());
    }

    #[test]
    fn shares_are_computed() {
        let mut w = SynthWorld::new(2, 1, 4);
        for h in 0..4 {
            // Permanent pair: 10 failed txns + 30 failed conns (retries).
            w.add_txn_batch(ClientId(0), SiteId(0), h, 10, 10);
            for _ in 0..30 {
                w.add_failed_conn(ClientId(0), SiteId(0), h);
            }
            // Healthy client with a few scattered failures.
            w.add_txn_batch(ClientId(1), SiteId(0), h, 10, 1);
            w.add_conn_batch(ClientId(1), SiteId(0), h, 10, 1);
        }
        let ds = w.finish();
        let p = detect(&cds(&ds), &AnalysisConfig::default());
        assert_eq!(p.len(), 1);
        // 40 of 44 txn failures; 120 of 124 conn failures.
        assert!((p.share_of_transaction_failures - 40.0 / 44.0).abs() < 1e-9);
        assert!((p.share_of_connection_failures - 120.0 / 124.0).abs() < 1e-9);
        assert!(
            p.share_of_connection_failures > p.share_of_transaction_failures,
            "retries inflate the connection share (the paper's 50.7% vs 13%)"
        );
    }

    #[test]
    fn sharded_detection_matches_serial() {
        let mut w = SynthWorld::new(4, 3, 6);
        for h in 0..6 {
            w.add_txn_batch(ClientId(0), SiteId(0), h, 10, 10);
            for _ in 0..20 {
                w.add_failed_conn(ClientId(0), SiteId(0), h);
            }
            w.add_txn_batch(ClientId(1), SiteId(1), h, 10, 2);
            w.add_conn_batch(ClientId(2), SiteId(2), h, 10, 1);
            w.add_txn_batch(ClientId(3), SiteId(0), h, 10, 0);
        }
        let ds = w.finish();
        let serial = detect(&cds(&ds), &AnalysisConfig::default().with_threads(1));
        for threads in [2usize, 3, 7] {
            let par = detect(&cds(&ds), &AnalysisConfig::default().with_threads(threads));
            assert_eq!(par.len(), serial.len());
            assert_eq!(par.detail.len(), serial.detail.len());
            for (a, b) in par.detail.iter().zip(&serial.detail) {
                assert_eq!((a.client, a.site, a.transactions, a.failed),
                           (b.client, b.site, b.transactions, b.failed));
            }
            assert_eq!(
                par.share_of_transaction_failures.to_bits(),
                serial.share_of_transaction_failures.to_bits()
            );
            assert_eq!(
                par.share_of_connection_failures.to_bits(),
                serial.share_of_connection_failures.to_bits()
            );
        }
    }

    #[test]
    fn empty_dataset() {
        let ds = SynthWorld::new(1, 1, 1).finish();
        let p = detect(&cds(&ds), &AnalysisConfig::default());
        assert!(p.is_empty());
        assert_eq!(p.share_of_connection_failures, 0.0);
    }
}
