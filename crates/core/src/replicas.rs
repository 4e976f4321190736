//! Replicated-website analysis (Section 4.5).
//!
//! Replicas are re-derived from the measurements: an address qualifies as a
//! replica of a site if it carries at least 10% of the site's connections
//! (CDN-served sites thus have *zero* qualifying replicas). Server-side
//! failure episodes of multi-replica sites are then sub-classified as
//! **total** (every replica above the failure threshold that hour) or
//! **partial**, and total failures are checked for the same-/24 correlation
//! the paper reports.

use crate::grid::HourlyGrid;
use crate::Analysis;
use model::{Ipv4Prefix, SiteId};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Fraction of a site's connections an address must carry to qualify as a
/// replica (Section 4.5 uses 10%).
pub const REPLICA_QUALIFY_FRACTION: f64 = 0.10;

/// Qualified replicas of one site.
#[derive(Clone, Debug)]
pub struct SiteReplicas {
    pub site: SiteId,
    pub qualified: Vec<Ipv4Addr>,
    /// Total connections observed to the site.
    pub connections: u64,
}

impl SiteReplicas {
    /// Do all qualified replicas share one /24 (the correlated-failure
    /// configuration)?
    pub fn same_subnet(&self) -> bool {
        let mut nets = self.qualified.iter().map(|a| Ipv4Prefix::slash24_of(*a));
        match nets.next() {
            None => false,
            Some(first) => nets.all(|n| n == first),
        }
    }
}

/// The full Section 4.5 result.
#[derive(Clone, Debug, Default)]
pub struct ReplicaAnalysis {
    pub per_site: Vec<SiteReplicas>,
    /// Sites with zero qualifying replicas (CDN-served; paper: 6).
    pub zero_replica_sites: usize,
    /// Sites with exactly one replica (paper: 42).
    pub single_replica_sites: usize,
    /// Sites with multiple replicas (paper: 32).
    pub multi_replica_sites: usize,
    /// Server-side episode hours across all sites.
    pub episode_hours_total: u64,
    /// Of those, on multi-replica sites (paper: 62%).
    pub episode_hours_multi: u64,
    /// Multi-replica episode hours where *all* replicas exceeded the
    /// threshold (paper: 85% of multi-replica episodes).
    pub total_replica_hours: u64,
    /// ... and where only a subset did.
    pub partial_replica_hours: u64,
    /// Total-replica hours on sites whose replicas share a /24.
    pub total_on_same_subnet: u64,
}

impl ReplicaAnalysis {
    /// Share of server-side episodes on multi-replica sites.
    pub fn multi_share(&self) -> f64 {
        ratio(self.episode_hours_multi, self.episode_hours_total)
    }

    /// Share of multi-replica episodes that are total-replica failures.
    pub fn total_share(&self) -> f64 {
        ratio(self.total_replica_hours, self.episode_hours_multi)
    }

    /// Share of total-replica failures explained by same-subnet layouts.
    pub fn same_subnet_share(&self) -> f64 {
        ratio(self.total_on_same_subnet, self.total_replica_hours)
    }
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Derive qualified replicas for every site from the connection records.
pub fn qualify_replicas(analysis: &Analysis<'_>) -> Vec<SiteReplicas> {
    let n_sites = analysis.ds.sites.len();
    let mut per_site_counts: Vec<HashMap<Ipv4Addr, u64>> = vec![HashMap::new(); n_sites];
    let mut totals = vec![0u64; n_sites];
    for c in &analysis.ds.connections {
        if analysis.permanent.contains(c.client, c.site) {
            continue;
        }
        *per_site_counts[c.site.0 as usize]
            .entry(c.replica)
            .or_insert(0) += 1;
        totals[c.site.0 as usize] += 1;
    }
    (0..n_sites)
        .map(|s| {
            let total = totals[s];
            let threshold = (total as f64 * REPLICA_QUALIFY_FRACTION).ceil() as u64;
            let mut qualified: Vec<Ipv4Addr> = per_site_counts[s]
                .iter()
                .filter(|(_, &count)| total > 0 && count >= threshold.max(1))
                .map(|(a, _)| *a)
                .collect();
            qualified.sort();
            SiteReplicas {
                site: SiteId(s as u16),
                qualified,
                connections: total,
            }
        })
        .collect()
}

/// Run the full replica analysis.
pub fn analyze(analysis: &Analysis<'_>) -> ReplicaAnalysis {
    let _span = telemetry::span!("analysis.replicas");
    let f = analysis.config.episode_threshold;
    let min = analysis.config.min_hour_samples;
    let per_site = qualify_replicas(analysis);

    // Per-replica hourly grid (rows = qualified replicas only).
    let mut replica_row: HashMap<(u16, Ipv4Addr), usize> = HashMap::new();
    for sr in &per_site {
        for a in &sr.qualified {
            let row = replica_row.len();
            replica_row.insert((sr.site.0, *a), row);
        }
    }
    let mut grid = HourlyGrid::new(replica_row.len(), analysis.ds.hours);
    for c in &analysis.ds.connections {
        if analysis.permanent.contains(c.client, c.site) {
            continue;
        }
        if let Some(&row) = replica_row.get(&(c.site.0, c.replica)) {
            grid.add(row, c.hour(), c.failed());
        }
    }

    let mut out = ReplicaAnalysis::default();
    // Per-replica hours can be thin (a site's samples split across its
    // replicas), so replica-level episode checks use a reduced floor.
    let replica_min = (min / 2).max(3);
    for sr in &per_site {
        match sr.qualified.len() {
            0 => out.zero_replica_sites += 1,
            1 => out.single_replica_sites += 1,
            _ => out.multi_replica_sites += 1,
        }
        let episode_hours =
            analysis
                .server_grid
                .episode_hours(sr.site.0 as usize, f, min);
        out.episode_hours_total += episode_hours.len() as u64;
        if sr.qualified.len() < 2 {
            continue;
        }
        out.episode_hours_multi += episode_hours.len() as u64;
        for h in episode_hours {
            let all_degraded = sr.qualified.iter().all(|a| {
                let row = replica_row[&(sr.site.0, *a)];
                grid.is_episode(row, h, f, replica_min)
            });
            if all_degraded {
                out.total_replica_hours += 1;
                if sr.same_subnet() {
                    out.total_on_same_subnet += 1;
                }
            } else {
                out.partial_replica_hours += 1;
            }
        }
    }
    out.per_site = per_site;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SynthWorld;
    use crate::{Analysis, AnalysisConfig};
    use model::{ClientId, PrefixId, TcpFailureKind};

    /// Site 0: two replicas on one /24; site 1: two replicas on distinct
    /// /24s; site 2: single replica; site 3: "CDN" (connections spread over
    /// 20 addresses).
    fn world(total_fail_site0: bool, partial_fail_site1: bool) -> model::Dataset {
        let mut w = SynthWorld::new(8, 4, 6);
        let s0_a = w.replica(0);
        let s0_b = Ipv4Addr::new(203, 0, 0, 81);
        w.add_replica(SiteId(0), s0_b, PrefixId(8));
        let s1_a = w.replica(1);
        let s1_b = Ipv4Addr::new(203, 9, 1, 80);
        w.add_replica(SiteId(1), s1_b, PrefixId(9));
        for h in 0..6u32 {
            for c in 0..8u16 {
                for (addr, fail) in [
                    (s0_a, total_fail_site0 && h == 0),
                    (s0_b, total_fail_site0 && h == 0),
                    (s1_a, partial_fail_site1 && h == 1),
                    (s1_b, false),
                ] {
                    let site = if addr == s0_a || addr == s0_b { 0 } else { 1 };
                    for i in 0..5u32 {
                        let outcome = if fail && i < 3 {
                            Err(TcpFailureKind::NoConnection)
                        } else {
                            Ok(())
                        };
                        w.add_conn_to(ClientId(c), SiteId(site), addr, h, outcome);
                    }
                }
                // Single-replica site 2.
                w.add_conn_batch(ClientId(c), SiteId(2), h, 5, 0);
                // CDN site 3: one connection to each of 20 addresses per
                // client-hour (no address reaches 10%).
                for k in 0..20u8 {
                    w.add_conn_to(
                        ClientId(c),
                        SiteId(3),
                        Ipv4Addr::new(151, 0, 0, k + 1),
                        h,
                        Ok(()),
                    );
                }
            }
        }
        w.finish()
    }

    #[test]
    fn replica_qualification() {
        let ds = world(false, false);
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let r = analyze(&a);
        assert_eq!(r.zero_replica_sites, 1, "CDN site has no replicas");
        assert_eq!(r.single_replica_sites, 1);
        assert_eq!(r.multi_replica_sites, 2);
        let site0 = &r.per_site[0];
        assert_eq!(site0.qualified.len(), 2);
        assert!(site0.same_subnet());
        let site1 = &r.per_site[1];
        assert_eq!(site1.qualified.len(), 2);
        assert!(!site1.same_subnet());
    }

    #[test]
    fn total_vs_partial_classification() {
        let ds = world(true, true);
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let r = analyze(&a);
        // Site 0 hour 0: both replicas fail 60% → total, same /24.
        // Site 1 hour 1: only replica A fails → partial.
        assert_eq!(r.total_replica_hours, 1);
        assert_eq!(r.partial_replica_hours, 1);
        assert_eq!(r.total_on_same_subnet, 1);
        assert!((r.same_subnet_share() - 1.0).abs() < 1e-12);
        assert_eq!(r.episode_hours_multi, 2);
        assert!((r.total_share() - 0.5).abs() < 1e-12);
        assert!((r.multi_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quiet_world_has_no_episodes() {
        let ds = world(false, false);
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let r = analyze(&a);
        assert_eq!(r.episode_hours_total, 0);
        assert_eq!(r.total_share(), 0.0);
    }
}
