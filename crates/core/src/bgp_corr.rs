//! BGP instability vs end-to-end failures (Section 4.6, Figures 5–7).
//!
//! Per announced prefix and hour, the cleaned BGP series gives withdrawal
//! volume and participating-neighbor counts; the connection records give
//! the TCP failure rate of the entities (clients, replicas) the prefix
//! covers. Severe instability is flagged by the paper's two rules and
//! correlated with those failure rates.

use crate::grid::HourlyGrid;
use crate::permanent::PermanentPairs;
use crate::Analysis;
use model::{BgpHourly, ClientId, ColumnarDataset, Dataset, PrefixId};
use std::collections::HashMap;

/// Severe BGP instability: at least this many of the 73 neighbors withdrew
/// the prefix in the hour.
pub const SEVERE_NEIGHBORS: u16 = 70;
/// Alternative severity rule (Figure 6): at least `ALT_WITHDRAWALS`
/// withdrawals involving at least `ALT_NEIGHBORS` neighbors.
pub const ALT_WITHDRAWALS: u32 = 75;
pub const ALT_NEIGHBORS: u16 = 50;

/// Which severity rule to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeverityRule {
    /// At least this many of the 73 neighbors withdrew (paper: 70 → 111
    /// instances).
    Neighbors(u16),
    /// At least `withdrawals` withdrawals involving at least `neighbors`
    /// neighbors (paper: 75 & 50 → 32 instances, stronger correlation).
    WithdrawalsAndNeighbors(u32, u16),
}

impl SeverityRule {
    pub fn matches(&self, cell: &BgpHourly) -> bool {
        match *self {
            SeverityRule::Neighbors(n) => cell.neighbors_withdrawing >= n,
            SeverityRule::WithdrawalsAndNeighbors(w, n) => {
                cell.withdrawals >= w && cell.neighbors_withdrawing >= n
            }
        }
    }
}

/// One severe-instability instance and the coincident TCP failure rate.
#[derive(Clone, Debug)]
pub struct SevereInstance {
    pub prefix: PrefixId,
    pub hour: u32,
    pub bgp: BgpHourly,
    /// TCP failure rate of the prefix's entities that hour (`None` when too
    /// few connections to judge).
    pub tcp_failure_rate: Option<f64>,
    pub attempts: u32,
}

/// Aggregate over all instances of one rule.
#[derive(Clone, Debug)]
pub struct SevereInstabilityReport {
    pub rule: SeverityRule,
    pub instances: Vec<SevereInstance>,
    /// Of the instances with measurable traffic, the fraction whose TCP
    /// failure rate exceeded 5% (paper: >80% for the 70-neighbor rule).
    pub fraction_above_5pct: f64,
    /// ... and above 10% / 20% (Figure 6's reading for the alt rule).
    pub fraction_above_10pct: f64,
    pub fraction_above_20pct: f64,
}

/// Hourly TCP grid per *prefix* (row = PrefixId index), permanent pairs
/// excluded: a connection counts toward its client's prefixes and its
/// replica's prefixes. [`Analysis::new`] builds it once, as
/// [`Analysis::prefix_grid`].
pub fn prefix_grid(
    cds: &ColumnarDataset,
    permanent: &PermanentPairs,
    threads: usize,
) -> HourlyGrid {
    let _span = telemetry::span!("analysis.bgp.prefix_grid");
    let conn = &cds.conn;
    // The connection replica column stores interned addresses, so the
    // replica coverings are keyed by (site, interned index) — integer keys
    // in the hot loop instead of hashing an Ipv4Addr per connection.
    let addr_index: HashMap<std::net::Ipv4Addr, u32> = cds
        .replica_addrs
        .iter()
        .enumerate()
        .map(|(i, a)| (*a, i as u32))
        .collect();
    let mut replica_prefixes: HashMap<(u16, u32), &[PrefixId]> = HashMap::new();
    for (s, site) in cds.sites.iter().enumerate() {
        for (addr, pfx) in &site.replica_prefixes {
            // Addresses no connection ever reached have no interned index
            // and can never be looked up below.
            if let Some(&idx) = addr_index.get(addr) {
                replica_prefixes.insert((s as u16, idx), pfx.as_slice());
            }
        }
    }
    // Shard by connection range; the prefix lookup tables built above are
    // shared read-only, and the partial grids merge by addition.
    let mut partials = crate::par::map_shards(threads, cds.conn_len(), |range| {
        let mut grid = HourlyGrid::new(cds.prefixes.len(), cds.hours);
        for i in range {
            let (client, site) = (conn.client[i], conn.site[i]);
            if permanent.contains(ClientId(client), model::SiteId(site)) {
                continue;
            }
            let hour = cds.conn_hour(i);
            let failed = cds.conn_failed(i);
            for p in &cds.clients[client as usize].prefixes {
                grid.add(p.0 as usize, hour, failed);
            }
            if let Some(pfx) = replica_prefixes.get(&(site, cds.conn_replica_index(i))) {
                for p in *pfx {
                    grid.add(p.0 as usize, hour, failed);
                }
            }
        }
        grid
    });
    let mut grid = partials
        .pop()
        .unwrap_or_else(|| HourlyGrid::new(cds.prefixes.len(), cds.hours));
    for p in &partials {
        grid.merge(p);
    }
    grid
}

/// Find severe instability instances under `rule` and correlate with the
/// prefix TCP failure rates.
pub fn severe_instability(analysis: &Analysis<'_>, rule: SeverityRule) -> SevereInstabilityReport {
    let _span = telemetry::span!("analysis.bgp.severe_instability");
    let ds = analysis.ds;
    let grid = &analysis.prefix_grid;
    let min = analysis.config.min_hour_samples;
    let mut instances = Vec::new();
    for (prefix, hour, cell) in ds.bgp.active_cells() {
        if !rule.matches(&cell) {
            continue;
        }
        let (attempts, _) = grid.cell(prefix.0 as usize, hour);
        instances.push(SevereInstance {
            prefix,
            hour,
            bgp: cell,
            tcp_failure_rate: grid.rate(prefix.0 as usize, hour, min),
            attempts,
        });
    }
    let measurable: Vec<f64> = instances
        .iter()
        .filter_map(|i| i.tcp_failure_rate)
        .collect();
    let frac_above = |x: f64| {
        if measurable.is_empty() {
            0.0
        } else {
            measurable.iter().filter(|r| **r > x).count() as f64 / measurable.len() as f64
        }
    };
    SevereInstabilityReport {
        rule,
        fraction_above_5pct: frac_above(0.05),
        fraction_above_10pct: frac_above(0.10),
        fraction_above_20pct: frac_above(0.20),
        instances,
    }
}

/// Figure 6's raw series: TCP failure rates during the alt-rule instances.
pub fn figure6_rates(analysis: &Analysis<'_>) -> Vec<f64> {
    let _span = telemetry::span!("analysis.bgp.figure6");
    let rule = SeverityRule::WithdrawalsAndNeighbors(ALT_WITHDRAWALS, ALT_NEIGHBORS);
    let mut rates: Vec<f64> = severe_instability(analysis, rule)
        .instances
        .into_iter()
        .filter_map(|i| i.tcp_failure_rate)
        .collect();
    rates.sort_by(f64::total_cmp);
    rates
}

/// Figure 5/7: per-hour time series for one client — connection attempts,
/// no-connection failures, the longest consecutive failure streak, and the
/// BGP withdrawal activity of the client's (first) prefix.
#[derive(Clone, Debug)]
pub struct ClientTimeseries {
    pub client: ClientId,
    pub attempts: Vec<u32>,
    pub failures: Vec<u32>,
    pub longest_streak: Vec<u32>,
    pub withdrawals: Vec<u32>,
    pub neighbors_withdrawing: Vec<u16>,
}

/// Build the Figure 5/7 series for `client`.
pub fn client_timeseries(ds: &Dataset, client: ClientId) -> ClientTimeseries {
    let hours = ds.hours as usize;
    let mut attempts = vec![0u32; hours];
    let mut failures = vec![0u32; hours];
    let mut longest = vec![0u32; hours];
    let mut current_streak = vec![0u32; hours];

    // Connections for this client in time order.
    let mut conns: Vec<_> = ds
        .connections
        .iter()
        .filter(|c| c.client == client)
        .collect();
    conns.sort_by_key(|c| c.start);
    for c in conns {
        let h = c.hour() as usize;
        if h >= hours {
            continue;
        }
        attempts[h] += 1;
        if c.failed() {
            failures[h] += 1;
            current_streak[h] += 1;
            longest[h] = longest[h].max(current_streak[h]);
        } else {
            current_streak[h] = 0;
        }
    }

    let meta = ds.client(client);
    let prefix = meta.prefixes.first().copied();
    let mut withdrawals = vec![0u32; hours];
    let mut neighbors = vec![0u16; hours];
    if let Some(p) = prefix {
        for (h, (w, n)) in withdrawals.iter_mut().zip(neighbors.iter_mut()).enumerate() {
            let cell = ds.bgp.get(p, h as u32);
            *w = cell.withdrawals;
            *n = cell.neighbors_withdrawing;
        }
    }
    ClientTimeseries {
        client,
        attempts,
        failures,
        longest_streak: longest,
        withdrawals,
        neighbors_withdrawing: neighbors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SynthWorld;
    use crate::{Analysis, AnalysisConfig};
    use model::SiteId;

    #[test]
    fn severity_rules() {
        let storm = BgpHourly {
            announcements: 150,
            withdrawals: 200,
            neighbors_announcing: 71,
            neighbors_withdrawing: 71,
        };
        let local = BgpHourly {
            withdrawals: 90,
            neighbors_withdrawing: 2,
            ..BgpHourly::default()
        };
        assert!(SeverityRule::Neighbors(70).matches(&storm));
        assert!(!SeverityRule::Neighbors(70).matches(&local));
        assert!(SeverityRule::WithdrawalsAndNeighbors(75, 50).matches(&storm));
        assert!(!SeverityRule::WithdrawalsAndNeighbors(75, 50).matches(&local));
    }

    /// Client 0's prefix has a severe withdrawal storm in hour 1, during
    /// which its connections fail heavily; hour 3 has a storm on an idle
    /// prefix (no measurable traffic).
    fn world() -> model::Dataset {
        let mut w = SynthWorld::new(3, 2, 5);
        for h in 0..5u32 {
            for c in 0..3u16 {
                let fail = if c == 0 && h == 1 { 12 } else { 0 };
                w.add_conn_batch(ClientId(c), SiteId(0), h, 20, fail);
            }
        }
        let p0 = w.client_prefix(0);
        w.set_bgp(
            p0,
            1,
            BgpHourly {
                announcements: 100,
                withdrawals: 160,
                neighbors_announcing: 60,
                neighbors_withdrawing: 71,
            },
        );
        let idle = w.site_prefix(1); // site 1 is never accessed
        w.set_bgp(
            idle,
            3,
            BgpHourly {
                announcements: 10,
                withdrawals: 80,
                neighbors_announcing: 5,
                neighbors_withdrawing: 72,
            },
        );
        w.finish()
    }

    #[test]
    fn prefix_grid_attributes_connections() {
        let ds = world();
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let g = &a.prefix_grid;
        // Client 0's prefix: 20 conns in hour 1, 12 failed.
        let (att, fail) = g.cell(0, 1);
        assert_eq!(att, 20);
        assert_eq!(fail, 12);
        // Site 0's prefix row aggregates all 3 clients.
        let site0_prefix = 3usize; // 3 clients then site prefixes
        let (att, fail) = g.cell(site0_prefix, 1);
        assert_eq!(att, 60);
        assert_eq!(fail, 12);
    }

    #[test]
    fn sharded_prefix_grid_matches_serial() {
        let ds = world();
        let serial = Analysis::new(&ds, AnalysisConfig::default().with_threads(1)).prefix_grid;
        for threads in [2usize, 3, 7] {
            let par =
                Analysis::new(&ds, AnalysisConfig::default().with_threads(threads)).prefix_grid;
            for row in 0..serial.rows() {
                for hour in 0..serial.hours() {
                    assert_eq!(serial.cell(row, hour), par.cell(row, hour));
                }
            }
        }
    }

    #[test]
    fn severe_instances_and_correlation() {
        let ds = world();
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let report = severe_instability(&a, SeverityRule::Neighbors(70));
        assert_eq!(report.instances.len(), 2);
        let with_traffic: Vec<_> = report
            .instances
            .iter()
            .filter(|i| i.tcp_failure_rate.is_some())
            .collect();
        assert_eq!(with_traffic.len(), 1, "idle prefix unmeasurable");
        assert!((with_traffic[0].tcp_failure_rate.unwrap() - 0.6).abs() < 1e-12);
        assert!((report.fraction_above_5pct - 1.0).abs() < 1e-12);
        assert!((report.fraction_above_20pct - 1.0).abs() < 1e-12);
    }

    #[test]
    fn figure6_rates_sorted() {
        let ds = world();
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let rates = figure6_rates(&a);
        assert_eq!(rates.len(), 1);
        assert!(rates.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn timeseries_streaks() {
        let mut w = SynthWorld::new(1, 1, 2);
        // Hour 0: F F S F → longest streak 2; hour 1: F F F → 3 (streak
        // resets across hours via the per-hour counter starting fresh).
        for outcome in [false, false, true, false] {
            w.add_conn(
                ClientId(0),
                SiteId(0),
                0,
                if outcome {
                    Ok(())
                } else {
                    Err(model::TcpFailureKind::NoConnection)
                },
            );
        }
        for _ in 0..3 {
            w.add_failed_conn(ClientId(0), SiteId(0), 1);
        }
        let ds = w.finish();
        let ts = client_timeseries(&ds, ClientId(0));
        assert_eq!(ts.attempts, vec![4, 3]);
        assert_eq!(ts.failures, vec![3, 3]);
        assert_eq!(ts.longest_streak, vec![2, 3]);
        assert_eq!(ts.withdrawals, vec![0, 0]);
    }

    #[test]
    fn timeseries_includes_bgp_activity() {
        let ds = world();
        let ts = client_timeseries(&ds, ClientId(0));
        assert_eq!(ts.withdrawals[1], 160);
        assert_eq!(ts.neighbors_withdrawing[1], 71);
        assert_eq!(ts.withdrawals[0], 0);
    }
}
