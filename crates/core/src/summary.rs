//! Overall failure statistics (Section 4.1, Table 3, Figure 1).

use model::{ClientCategory, ColumnarDataset, FailureClass};

/// One Table 3 row.
#[derive(Clone, Debug)]
pub struct CategorySummary {
    pub category: ClientCategory,
    pub transactions: u64,
    pub failed_transactions: u64,
    /// `None` for proxied categories whose connections are masked (CN).
    pub connections: Option<u64>,
    pub failed_connections: Option<u64>,
}

impl CategorySummary {
    pub fn transaction_failure_rate(&self) -> f64 {
        rate(self.failed_transactions, self.transactions)
    }

    pub fn connection_failure_rate(&self) -> Option<f64> {
        Some(rate(self.failed_connections?, self.connections?))
    }
}

/// Figure 1: failure breakdown by top-level class for one category.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FailureBreakdown {
    pub dns: u64,
    pub tcp: u64,
    pub http: u64,
}

impl FailureBreakdown {
    pub fn total(&self) -> u64 {
        self.dns + self.tcp + self.http
    }

    pub fn dns_share(&self) -> f64 {
        rate(self.dns, self.total())
    }

    pub fn tcp_share(&self) -> f64 {
        rate(self.tcp, self.total())
    }

    pub fn http_share(&self) -> f64 {
        rate(self.http, self.total())
    }
}

fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-category counters gathered in one sharded pass over each record
/// family (instead of the former `categories × records` rescans).
#[derive(Clone, Debug, Default)]
struct CategoryCounts {
    transactions: u64,
    failed_transactions: u64,
    connections: u64,
    failed_connections: u64,
    breakdown: FailureBreakdown,
}

fn category_index(cds: &ColumnarDataset) -> Vec<usize> {
    cds.clients
        .iter()
        .map(|client| {
            ClientCategory::ALL
                .iter()
                .position(|&cat| cat == client.category)
                .expect("client category listed in ClientCategory::ALL")
        })
        .collect()
}

fn merge_counts(mut acc: Vec<CategoryCounts>, shard: Vec<CategoryCounts>) -> Vec<CategoryCounts> {
    for (a, s) in acc.iter_mut().zip(shard) {
        a.transactions += s.transactions;
        a.failed_transactions += s.failed_transactions;
        a.connections += s.connections;
        a.failed_connections += s.failed_connections;
        a.breakdown.dns += s.breakdown.dns;
        a.breakdown.tcp += s.breakdown.tcp;
        a.breakdown.http += s.breakdown.http;
    }
    acc
}

fn category_counts(cds: &ColumnarDataset, threads: usize) -> Vec<CategoryCounts> {
    let cat = category_index(cds);
    let n = ClientCategory::ALL.len();
    let empty = || vec![CategoryCounts::default(); n];
    let txn = &cds.txn;
    let conn = &cds.conn;
    let from_records = crate::par::map_shards(threads, cds.txn_len(), |range| {
        let mut counts = empty();
        for i in range {
            let e = &mut counts[cat[txn.client[i] as usize]];
            e.transactions += 1;
            e.failed_transactions += u64::from(cds.txn_failed(i));
            match cds.txn_failure(i) {
                Some(FailureClass::Dns(_)) => e.breakdown.dns += 1,
                Some(FailureClass::Tcp(_)) => e.breakdown.tcp += 1,
                Some(FailureClass::Http(_)) => e.breakdown.http += 1,
                None => {}
            }
        }
        counts
    })
    .into_iter()
    .fold(empty(), merge_counts);
    crate::par::map_shards(threads, cds.conn_len(), |range| {
        let mut counts = empty();
        for i in range {
            let e = &mut counts[cat[conn.client[i] as usize]];
            e.connections += 1;
            e.failed_connections += u64::from(cds.conn_failed(i));
        }
        counts
    })
    .into_iter()
    .fold(from_records, merge_counts)
}

/// Compute Table 3: per-category transaction and connection counts.
pub fn table3(cds: &ColumnarDataset) -> Vec<CategorySummary> {
    table3_with_threads(cds, 0)
}

/// [`table3`] with an explicit scan thread count (0 = all cores).
pub fn table3_with_threads(cds: &ColumnarDataset, threads: usize) -> Vec<CategorySummary> {
    let _span = telemetry::span!("analysis.summary.table3");
    ClientCategory::ALL
        .iter()
        .zip(category_counts(cds, threads))
        .map(|(&category, counts)| {
            // CN connections are masked by the proxies (Table 3: N/A). We
            // detect that structurally: a category whose transactions exist
            // but whose connection records are absent for proxied clients.
            let masked = category == ClientCategory::CorpNet;
            CategorySummary {
                category,
                transactions: counts.transactions,
                failed_transactions: counts.failed_transactions,
                connections: (!masked).then_some(counts.connections),
                failed_connections: (!masked).then_some(counts.failed_connections),
            }
        })
        .collect()
}

/// Compute Figure 1's per-category failure breakdown. Proxied (CN) clients
/// are excluded from the breakdown, as in the paper — their failure classes
/// are distorted by the proxy's masking.
pub fn figure1(cds: &ColumnarDataset) -> Vec<(ClientCategory, f64, Option<FailureBreakdown>)> {
    figure1_with_threads(cds, 0)
}

/// [`figure1`] with an explicit scan thread count (0 = all cores).
pub fn figure1_with_threads(
    cds: &ColumnarDataset,
    threads: usize,
) -> Vec<(ClientCategory, f64, Option<FailureBreakdown>)> {
    let _span = telemetry::span!("analysis.summary.figure1");
    ClientCategory::ALL
        .iter()
        .zip(category_counts(cds, threads))
        .map(|(&category, counts)| {
            let rate = rate(counts.failed_transactions, counts.transactions);
            let breakdown = (category != ClientCategory::CorpNet).then_some(counts.breakdown);
            (category, rate, breakdown)
        })
        .collect()
}

/// Whole-dataset failure breakdown over the non-proxied categories.
pub fn overall_breakdown(cds: &ColumnarDataset) -> FailureBreakdown {
    overall_breakdown_with_threads(cds, 0)
}

/// [`overall_breakdown`] with an explicit scan thread count (0 = all cores).
pub fn overall_breakdown_with_threads(cds: &ColumnarDataset, threads: usize) -> FailureBreakdown {
    let mut b = FailureBreakdown::default();
    for (&category, counts) in ClientCategory::ALL.iter().zip(category_counts(cds, threads)) {
        if category == ClientCategory::CorpNet {
            continue;
        }
        b.dns += counts.breakdown.dns;
        b.tcp += counts.breakdown.tcp;
        b.http += counts.breakdown.http;
    }
    b
}

/// Monthly per-client transaction failure rates.
pub fn client_failure_rates(cds: &ColumnarDataset) -> Vec<f64> {
    let mut totals = vec![(0u64, 0u64); cds.client_count()];
    for i in 0..cds.txn_len() {
        let e = &mut totals[cds.txn.client[i] as usize];
        e.0 += 1;
        e.1 += u64::from(cds.txn_failed(i));
    }
    totals
        .into_iter()
        .filter(|(a, _)| *a > 0)
        .map(|(a, f)| f as f64 / a as f64)
        .collect()
}

/// Monthly per-server transaction failure rates.
pub fn server_failure_rates(cds: &ColumnarDataset) -> Vec<f64> {
    let mut totals = vec![(0u64, 0u64); cds.site_count()];
    for i in 0..cds.txn_len() {
        let e = &mut totals[cds.txn.site[i] as usize];
        e.0 += 1;
        e.1 += u64::from(cds.txn_failed(i));
    }
    totals
        .into_iter()
        .filter(|(a, _)| *a > 0)
        .map(|(a, f)| f as f64 / a as f64)
        .collect()
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a sample, by linear rank (the paper
/// reports medians and a 95th percentile). Returns `None` for an empty
/// sample or a NaN `q`.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || q.is_nan() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_sorted(&sorted, q))
}

/// [`quantile`] over an already-sorted (by [`f64::total_cmp`]) non-empty
/// sample; `q` is clamped to `[0, 1]` and must not be NaN.
///
/// Exact rank hits return the sample itself: the two-sided interpolation
/// `lo*(1-frac) + hi*frac` is not an identity at `frac == 0` when a sample
/// is ±inf (`inf * 0.0` is NaN), so `q = 1.0` must short-circuit to the max.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (pos.ceil() as usize).min(sorted.len() - 1);
    let frac = pos - lo as f64;
    if lo == hi || frac == 0.0 {
        return sorted[lo];
    }
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SynthWorld;
    use model::{ClientId, DnsFailureKind, SiteId};

    fn world() -> ColumnarDataset {
        let mut w = SynthWorld::new(3, 2, 2);
        w.set_category(ClientId(1), ClientCategory::Dialup);
        w.set_category(ClientId(2), ClientCategory::CorpNet);
        w.set_proxy(ClientId(2), model::ProxyId(0));
        // PL client: 10 txns, 2 failures (1 DNS + 1 TCP); 12 conns, 1 fail.
        w.add_txn_batch(ClientId(0), SiteId(0), 0, 8, 0);
        w.add_txn_failure(
            ClientId(0),
            SiteId(0),
            0,
            FailureClass::Dns(DnsFailureKind::LdnsTimeout),
        );
        w.add_txn(ClientId(0), SiteId(0), 0, false);
        w.add_conn_batch(ClientId(0), SiteId(0), 0, 12, 1);
        // DU client: all healthy.
        w.add_txn_batch(ClientId(1), SiteId(1), 0, 10, 0);
        w.add_conn_batch(ClientId(1), SiteId(1), 0, 10, 0);
        // CN client: 5 txns, 1 HTTP failure, no conn records.
        w.add_txn_batch(ClientId(2), SiteId(0), 0, 4, 0);
        w.add_txn_failure(ClientId(2), SiteId(0), 0, FailureClass::Http(504));
        ColumnarDataset::from_dataset(&w.finish())
    }

    #[test]
    fn table3_counts() {
        let ds = world();
        let t = table3(&ds);
        let pl = t
            .iter()
            .find(|r| r.category == ClientCategory::PlanetLab)
            .unwrap();
        assert_eq!(pl.transactions, 10);
        assert_eq!(pl.failed_transactions, 2);
        assert_eq!(pl.connections, Some(12));
        assert_eq!(pl.failed_connections, Some(1));
        assert!((pl.transaction_failure_rate() - 0.2).abs() < 1e-12);

        let cn = t
            .iter()
            .find(|r| r.category == ClientCategory::CorpNet)
            .unwrap();
        assert_eq!(cn.transactions, 5);
        assert_eq!(cn.connections, None, "CN connections masked");
        assert_eq!(cn.connection_failure_rate(), None);

        let bb = t
            .iter()
            .find(|r| r.category == ClientCategory::Broadband)
            .unwrap();
        assert_eq!(bb.transactions, 0);
        assert_eq!(bb.transaction_failure_rate(), 0.0);
    }

    #[test]
    fn figure1_breakdown() {
        let ds = world();
        let f1 = figure1(&ds);
        let (_, rate, pl_b) = f1
            .iter()
            .find(|(c, _, _)| *c == ClientCategory::PlanetLab)
            .unwrap();
        let b = pl_b.as_ref().unwrap();
        assert_eq!(b.dns, 1);
        assert_eq!(b.tcp, 1);
        assert_eq!(b.http, 0);
        assert!((b.dns_share() - 0.5).abs() < 1e-12);
        assert!((rate - 0.2).abs() < 1e-12);
        let (_, _, cn_b) = f1
            .iter()
            .find(|(c, _, _)| *c == ClientCategory::CorpNet)
            .unwrap();
        assert!(cn_b.is_none(), "CN breakdown suppressed");
    }

    #[test]
    fn overall_breakdown_excludes_cn() {
        let ds = world();
        let b = overall_breakdown(&ds);
        assert_eq!(b.total(), 2, "CN's HTTP failure not counted");
        assert_eq!(b.http, 0);
    }

    #[test]
    fn rates_and_quantiles() {
        let ds = world();
        let rates = client_failure_rates(&ds);
        assert_eq!(rates.len(), 3);
        let med = quantile(&rates, 0.5).unwrap();
        assert!(med > 0.0 && med < 0.21);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[0.4], 0.95), Some(0.4));
        let s = server_failure_rates(&ds);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn sharded_summary_matches_serial() {
        let ds = world();
        let serial = table3_with_threads(&ds, 1);
        for threads in [2usize, 5] {
            let par = table3_with_threads(&ds, threads);
            for (a, b) in par.iter().zip(&serial) {
                assert_eq!(a.transactions, b.transactions);
                assert_eq!(a.failed_transactions, b.failed_transactions);
                assert_eq!(a.connections, b.connections);
                assert_eq!(a.failed_connections, b.failed_connections);
            }
            assert_eq!(
                overall_breakdown_with_threads(&ds, threads),
                overall_breakdown_with_threads(&ds, 1)
            );
            let f_par = figure1_with_threads(&ds, threads);
            let f_ser = figure1_with_threads(&ds, 1);
            for ((c1, r1, b1), (c2, r2, b2)) in f_par.iter().zip(&f_ser) {
                assert_eq!(c1, c2);
                assert_eq!(r1.to_bits(), r2.to_bits());
                assert_eq!(b1, b2);
            }
        }
    }

    #[test]
    fn quantile_interpolates() {
        let v = [0.0, 1.0];
        assert_eq!(quantile(&v, 0.5), Some(0.5));
        assert_eq!(quantile(&v, 0.0), Some(0.0));
        assert_eq!(quantile(&v, 1.0), Some(1.0));
    }

    #[test]
    fn quantile_boundaries() {
        // q = 1.0 must return the max sample even when it is +inf; the
        // two-sided interpolation evaluated inf * 0.0 = NaN there.
        let v = [1.0, f64::INFINITY];
        assert_eq!(quantile(&v, 1.0), Some(f64::INFINITY));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        // A NaN q must not silently clamp to sample 0.
        assert_eq!(quantile(&[1.0, 2.0], f64::NAN), None);
        // Exact rank hits return the sample itself, bit for bit.
        let v = [-0.0, 1.0, 2.0];
        assert_eq!(quantile(&v, 0.5), Some(1.0));
        assert_eq!(quantile(&v, 0.0).unwrap().to_bits(), (-0.0f64).to_bits());
        // q just below a rank step stays in bounds on a large sample.
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        let just_below_max = quantile(&big, 1.0 - f64::EPSILON).unwrap();
        assert!(just_below_max <= 999.0 && just_below_max > 998.0);
        // Out-of-range q clamps.
        assert_eq!(quantile(&big, 2.0), Some(999.0));
        assert_eq!(quantile(&big, -1.0), Some(0.0));
    }

    #[test]
    fn quantile_call_site_inputs_are_nan_free() {
        // The report's five quantile call sites feed client/server monthly
        // failure rates: f/a with a > 0, so never NaN. Hold that invariant
        // here so a future rate source can't silently push NaN through the
        // total_cmp sort (NaN sorts last and would poison the top
        // quantiles).
        let ds = world();
        for rates in [client_failure_rates(&ds), server_failure_rates(&ds)] {
            assert!(rates.iter().all(|r| r.is_finite()), "rates are finite");
            assert!(rates.iter().all(|r| (0.0..=1.0).contains(r)));
        }
    }
}
