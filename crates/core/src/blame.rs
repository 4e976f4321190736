//! Blame attribution (Sections 4.4.1 & 4.4.4–4.4.5, Table 5).
//!
//! Every failed TCP connection (outside the excluded permanent pairs) is
//! checked against the hourly failure episodes of its two endpoint
//! entities: a failure during a client episode only is *client-side*,
//! during a server episode only *server-side*, during both *both*, during
//! neither *other* (intermittent / pair-specific).

use crate::grid::{HourlyGrid, OutcomeGrid};
use crate::Analysis;
use model::TxnBlameHint;

/// Classification of one failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlameClass {
    ServerSide,
    ClientSide,
    Both,
    Other,
}

/// Table 5: the aggregate classification.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlameBreakdown {
    pub server_side: u64,
    pub client_side: u64,
    pub both: u64,
    pub other: u64,
}

impl BlameBreakdown {
    pub fn total(&self) -> u64 {
        self.server_side + self.client_side + self.both + self.other
    }

    pub fn share(&self, class: BlameClass) -> f64 {
        let n = match class {
            BlameClass::ServerSide => self.server_side,
            BlameClass::ClientSide => self.client_side,
            BlameClass::Both => self.both,
            BlameClass::Other => self.other,
        };
        if self.total() == 0 {
            0.0
        } else {
            n as f64 / self.total() as f64
        }
    }

    /// Fraction of failures that got a client/server attribution at all.
    pub fn classified_share(&self) -> f64 {
        1.0 - self.share(BlameClass::Other)
    }

    /// Count one failure in its class.
    pub(crate) fn add(&mut self, class: BlameClass) {
        match class {
            BlameClass::ServerSide => self.server_side += 1,
            BlameClass::ClientSide => self.client_side += 1,
            BlameClass::Both => self.both += 1,
            BlameClass::Other => self.other += 1,
        }
    }

    /// Add another breakdown's counts to this one.
    pub(crate) fn merge(&mut self, other: &BlameBreakdown) {
        self.server_side += other.server_side;
        self.client_side += other.client_side;
        self.both += other.both;
        self.other += other.other;
    }
}

/// Why the per-transaction Table 5 leaves a transaction out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Unscored {
    /// The transaction succeeded.
    Success,
    /// The access went through a proxy, which masks the client's vantage.
    Proxied,
    /// The pair is near-permanently failing (Section 4.4.1), excluded from
    /// Table 5 and scored as a pair instead.
    NearPermanent,
}

impl Unscored {
    /// Lowercase label for operator output.
    pub fn label(self) -> &'static str {
        match self {
            Unscored::Success => "success",
            Unscored::Proxied => "proxied",
            Unscored::NearPermanent => "near-permanent pair",
        }
    }
}

/// Classify one (client, server, hour) failure against the episode grids.
pub fn classify_hour(
    client_grid: &HourlyGrid,
    server_grid: &HourlyGrid,
    client: usize,
    server: usize,
    hour: u32,
    f: f64,
    min_samples: u32,
) -> BlameClass {
    let c = client_grid.is_episode(client, hour, f, min_samples);
    let s = server_grid.is_episode(server, hour, f, min_samples);
    match (c, s) {
        (true, true) => BlameClass::Both,
        (true, false) => BlameClass::ClientSide,
        (false, true) => BlameClass::ServerSide,
        (false, false) => BlameClass::Other,
    }
}

/// Classify one (client, server, hour) failure against the
/// transaction-outcome grids.
///
/// The client side uses the *robust* broad-episode test — failures beyond
/// any single peer's contribution must clear `f`, so one misbehaving site
/// cannot flag a client that spreads its hourly traffic over dozens of
/// sites. The server side uses the plain episode test, matching the
/// connection-grid behavior that is already accurate there.
pub fn classify_hour_outcome(
    client_outcome: &OutcomeGrid,
    server_outcome: &OutcomeGrid,
    client: usize,
    server: usize,
    hour: u32,
    f: f64,
    min_samples: u32,
) -> BlameClass {
    let c = client_outcome.is_broad_episode(client, hour, f, min_samples);
    let s = server_outcome.grid.is_episode(server, hour, f, min_samples);
    match (c, s) {
        (true, true) => BlameClass::Both,
        (true, false) => BlameClass::ClientSide,
        (false, true) => BlameClass::ServerSide,
        (false, false) => BlameClass::Other,
    }
}

/// Whether the per-transaction Table 5 counts transaction `i`: it must
/// have failed, gone direct, and not be on a near-permanent pair.
pub(crate) fn txn_scope(analysis: &Analysis<'_>, i: usize) -> Result<(), Unscored> {
    let cds = &analysis.cds;
    if !cds.txn_failed(i) {
        Err(Unscored::Success)
    } else if cds.txn_proxied(i) {
        Err(Unscored::Proxied)
    } else if analysis.permanent.contains(
        model::ClientId(cds.txn.client[i]),
        model::SiteId(cds.txn.site[i]),
    ) {
        Err(Unscored::NearPermanent)
    } else {
        Ok(())
    }
}

/// Table 5's blame rule for transaction `i`, over the transaction-outcome
/// grids.
///
/// The per-transaction [`TxnBlameHint`] settles the cases the paper settles
/// without grids — an LDNS timeout is the client's own infrastructure, an
/// authoritative DNS error the server side, a fast all-refused connect
/// phase an access policy ("other", Section 4.4.2) — and everything
/// ambiguous (TCP/HTTP failures, non-LDNS DNS timeouts) goes to
/// [`classify_hour_outcome`] for the record's client, site and hour.
pub fn txn_class(analysis: &Analysis<'_>, i: usize) -> BlameClass {
    let cds = &analysis.cds;
    match cds.txn_blame_hint(i) {
        TxnBlameHint::ClientDns => BlameClass::ClientSide,
        TxnBlameHint::AuthDns => BlameClass::ServerSide,
        TxnBlameHint::PolicyReset => BlameClass::Other,
        TxnBlameHint::Success | TxnBlameHint::Ambiguous => classify_hour_outcome(
            &analysis.client_outcome,
            &analysis.server_outcome,
            cds.txn.client[i] as usize,
            cds.txn.site[i] as usize,
            cds.txn_hour(i),
            analysis.config.episode_threshold,
            analysis.config.min_hour_samples,
        ),
    }
}

/// Tally `class_of` over the indices `0..len`, sharded; each shard folds a
/// private breakdown and the shards merge by addition.
fn tally(
    threads: usize,
    len: usize,
    class_of: impl Fn(usize) -> Option<BlameClass> + Sync,
) -> BlameBreakdown {
    let partials = crate::par::map_shards(threads, len, |range| {
        let mut out = BlameBreakdown::default();
        for class in range.filter_map(&class_of) {
            out.add(class);
        }
        out
    });
    let mut total = BlameBreakdown::default();
    for p in &partials {
        total.merge(p);
    }
    total
}

/// Table 5 blame over every failed *transaction* (DNS failures included),
/// against the transaction-outcome grids: [`txn_class`] over every failed,
/// direct transaction outside the near-permanent pairs. Proxied
/// transactions are skipped like the paper's Table 5 skips vantage-masked
/// records.
pub fn table5_outcome(analysis: &Analysis<'_>) -> BlameBreakdown {
    let _span = telemetry::span!("analysis.blame.table5_outcome");
    tally(analysis.config.threads, analysis.cds.txn_len(), |i| {
        txn_scope(analysis, i)
            .is_ok()
            .then(|| txn_class(analysis, i))
    })
}

/// Run blame attribution over every failed connection at the analysis's
/// threshold `f` (Table 5 rows are this at f = 5% and f = 10%).
pub fn table5(analysis: &Analysis<'_>) -> BlameBreakdown {
    let _span = telemetry::span!("analysis.blame.table5");
    let cds = &analysis.cds;
    let conn = &cds.conn;
    tally(analysis.config.threads, cds.conn_len(), |i| {
        let (client, site) = (conn.client[i], conn.site[i]);
        let excluded = !cds.conn_failed(i)
            || analysis
                .permanent
                .contains(model::ClientId(client), model::SiteId(site));
        (!excluded).then(|| {
            classify_hour(
                &analysis.client_grid,
                &analysis.server_grid,
                client as usize,
                site as usize,
                cds.conn_hour(i),
                analysis.config.episode_threshold,
                analysis.config.min_hour_samples,
            )
        })
    })
}

/// Coalesce consecutive episode hours into runs (Section 4.4.5).
pub fn coalesce(hours: &[u32]) -> Vec<(u32, u32)> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for &h in hours {
        match runs.last_mut() {
            Some((start, len)) if *start + *len == h => *len += 1,
            _ => runs.push((h, 1)),
        }
    }
    runs
}

/// Distribution statistics for the server-side failure episodes.
#[derive(Clone, Debug, Default)]
pub struct ServerEpisodeStats {
    /// Total 1-hour server-side failure episodes (paper: 2732).
    pub total_hours: u64,
    /// Coalesced runs (paper: 473).
    pub coalesced: u64,
    /// Mean run length in hours (paper: 5.78).
    pub mean_run_hours: f64,
    /// Median run length (paper: 1 hour).
    pub median_run_hours: u32,
    /// Longest run (paper: 448 hours, www.sina.com.cn).
    pub max_run_hours: u32,
    /// Servers with at least one episode (paper: 56 of 80).
    pub servers_affected: usize,
    /// Servers with more than one coalesced run (paper: 39).
    pub servers_multiple: usize,
    /// Per-server 1-hour episode counts, index = site id.
    pub per_server_hours: Vec<u32>,
}

/// Compute the Section 4.4.5 statistics from the server grid.
pub fn server_episode_stats(analysis: &Analysis<'_>) -> ServerEpisodeStats {
    let _span = telemetry::span!("analysis.blame.server_episodes");
    let f = analysis.config.episode_threshold;
    let min = analysis.config.min_hour_samples;
    let mut stats = ServerEpisodeStats {
        per_server_hours: vec![0; analysis.cds.site_count()],
        ..Default::default()
    };
    let mut run_lengths: Vec<u32> = Vec::new();
    for s in 0..analysis.cds.site_count() {
        let hours = analysis.server_grid.episode_hours(s, f, min);
        stats.per_server_hours[s] = hours.len() as u32;
        stats.total_hours += hours.len() as u64;
        let runs = coalesce(&hours);
        if !hours.is_empty() {
            stats.servers_affected += 1;
        }
        if runs.len() > 1 {
            stats.servers_multiple += 1;
        }
        stats.coalesced += runs.len() as u64;
        run_lengths.extend(runs.iter().map(|(_, len)| *len));
    }
    if !run_lengths.is_empty() {
        stats.mean_run_hours =
            run_lengths.iter().map(|&l| u64::from(l)).sum::<u64>() as f64 / run_lengths.len() as f64;
        run_lengths.sort_unstable();
        stats.median_run_hours = run_lengths[run_lengths.len() / 2];
        stats.max_run_hours = *run_lengths.last().expect("non-empty");
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SynthWorld;
    use crate::{Analysis, AnalysisConfig};
    use model::{ClientId, SiteId};

    /// World with enough entities that one endpoint's episode does not
    /// leak over the threshold on the other side (as in the real fleet):
    /// 12 clients × 12 servers × 20 connections per pair-hour.
    ///
    /// * hours 0–1: server 0 episode — every client fails 6/20 to it;
    /// * hour 2: client 0 episode — it fails 6/20 to every server;
    /// * hour 3: both at once — server 0 fails for everyone *and* client 0
    ///   fails everywhere, so the (0,0) failures fall under both episodes;
    /// * hour 5: one scattered failure (the "other" category).
    fn world() -> model::Dataset {
        let mut w = SynthWorld::new(12, 12, 6);
        for h in 0..6u32 {
            for c in 0..12u16 {
                for s in 0..12u16 {
                    let server_ep = s == 0 && (h < 2 || h == 3);
                    let client_ep = c == 0 && (h == 2 || h == 3);
                    let fail = if server_ep || client_ep {
                        6 // 30% of 20
                    } else if h == 5 && c == 1 && s == 1 {
                        1
                    } else {
                        0
                    };
                    w.add_conn_batch(ClientId(c), SiteId(s), h, 20, fail);
                }
            }
        }
        w.finish()
    }

    #[test]
    fn classifies_each_regime() {
        let ds = world();
        let a = Analysis::new(&ds, AnalysisConfig::default());
        // Sanity: grids flag exactly the intended episodes. A server
        // episode contributes only 6/240 = 2.5% to each client's hourly
        // aggregate — below f, as in the paper's 80-server fleet.
        assert!(a.server_grid.is_episode(0, 0, 0.05, 12));
        assert!(a.server_grid.is_episode(0, 1, 0.05, 12));
        assert!(!a.server_grid.is_episode(1, 0, 0.05, 12));
        assert!(!a.client_grid.is_episode(0, 0, 0.05, 12));
        assert!(a.client_grid.is_episode(0, 2, 0.05, 12));
        assert!(!a.server_grid.is_episode(1, 2, 0.05, 12));

        let b = table5(&a);
        // Hours 0–1: 12 clients × 6 × 2 = 144 server-side.
        // Hour 3 adds 11 clients × 6 = 66 more (client 0's go to Both).
        assert_eq!(b.server_side, 144 + 66);
        // Hour 2: 12 servers × 6 = 72 client-side; hour 3 adds 66.
        assert_eq!(b.client_side, 72 + 66);
        // Hour 3's (0,0) failures fall under both episodes.
        assert_eq!(b.both, 6);
        assert_eq!(b.other, 1, "the scattered failure is Other");
        assert_eq!(b.total(), 210 + 138 + 6 + 1);
        assert!(b.share(BlameClass::ServerSide) > b.share(BlameClass::ClientSide));
    }

    #[test]
    fn higher_threshold_moves_failures_to_other() {
        let ds = world();
        let low = table5(&Analysis::new(&ds, AnalysisConfig::default()));
        let high = table5(&Analysis::new(
            &ds,
            AnalysisConfig::default().with_threshold(0.5),
        ));
        assert!(high.other > low.other);
        assert_eq!(high.total(), low.total());
        assert!(high.classified_share() < low.classified_share());
    }

    #[test]
    fn sharded_table5_matches_serial() {
        let ds = world();
        let serial = table5(&Analysis::new(&ds, AnalysisConfig::default().with_threads(1)));
        for threads in [2usize, 3, 7] {
            let par = table5(&Analysis::new(
                &ds,
                AnalysisConfig::default().with_threads(threads),
            ));
            assert_eq!(par, serial);
        }
    }

    #[test]
    fn month_boundary_failures_never_alias_other_entities() {
        // A connection stamped at hour == ds.hours (the instant the
        // measurement window closes) has no grid cell. With an unchecked
        // row-major read, client 0's hour-3 lookup in a 3-hour grid aliases
        // client 1's hour 0 — here a genuine episode — and the failure is
        // misattributed instead of falling into Other.
        let mut w = SynthWorld::new(2, 2, 3);
        w.add_conn_batch(ClientId(1), SiteId(1), 0, 20, 20);
        w.add_failed_conn(ClientId(0), SiteId(0), 3);
        let ds = w.finish();
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let b = table5(&a);
        assert_eq!(b.both, 20, "client 1's episode coincides with site 1's");
        assert_eq!(b.other, 1, "the month-boundary failure is unclassifiable");
        assert_eq!(b.client_side, 0);
        assert_eq!(b.server_side, 0);
    }

    /// Client 0 loses DNS entirely in hour 1 (no connection record ever
    /// exists); client 1 is censored to site 0 (fast resets). The
    /// connection-based Table 5 cannot even see these failures; the outcome
    /// path classifies both correctly.
    fn outcome_world() -> model::Dataset {
        use model::{DnsFailureKind, FailureClass};
        let mut w = SynthWorld::new(3, 4, 3);
        for h in 0..3u32 {
            for s in 0..4u16 {
                for c in 0..3u16 {
                    for _ in 0..5 {
                        if c == 0 && h == 1 {
                            w.add_txn_failure(
                                ClientId(0),
                                SiteId(s),
                                h,
                                FailureClass::Dns(DnsFailureKind::LdnsTimeout),
                            );
                        } else if c == 1 && s == 0 {
                            w.add_reset_txn(ClientId(1), SiteId(0), h);
                        } else {
                            w.add_txn(ClientId(c), SiteId(s), h, true);
                        }
                    }
                }
            }
        }
        w.finish()
    }

    #[test]
    fn outcome_table5_sees_dns_faults_and_policy_resets() {
        let ds = outcome_world();
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let b = table5_outcome(&a);
        assert_eq!(b.client_side, 20, "client 0's DNS-outage hour: 4 sites × 5");
        assert_eq!(b.other, 15, "censored pair's fast resets are access policy");
        assert_eq!(b.server_side, 0);
        assert_eq!(b.both, 0);
        // The connection path never saw any of these failures.
        assert_eq!(table5(&a).total(), 0);
    }

    #[test]
    fn sharded_table5_outcome_matches_serial() {
        let ds = outcome_world();
        let serial = table5_outcome(&Analysis::new(&ds, AnalysisConfig::default().with_threads(1)));
        for threads in [2usize, 7] {
            let par = table5_outcome(&Analysis::new(
                &ds,
                AnalysisConfig::default().with_threads(threads),
            ));
            assert_eq!(par, serial);
        }
    }

    #[test]
    fn coalescing_runs() {
        assert_eq!(coalesce(&[]), vec![]);
        assert_eq!(coalesce(&[3]), vec![(3, 1)]);
        assert_eq!(coalesce(&[1, 2, 3, 7, 8, 10]), vec![(1, 3), (7, 2), (10, 1)]);
    }

    #[test]
    fn server_episode_statistics() {
        let ds = world();
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let stats = server_episode_stats(&a);
        // Server 0: episode hours {0, 1, 3} → runs (0,2) and (3,1).
        assert_eq!(stats.per_server_hours[0], 3);
        assert_eq!(stats.total_hours, 3);
        assert_eq!(stats.coalesced, 2);
        assert_eq!(stats.max_run_hours, 2);
        assert_eq!(stats.median_run_hours, 2);
        assert_eq!(stats.servers_affected, 1);
        assert_eq!(stats.servers_multiple, 1);
        assert!((stats.mean_run_hours - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_shares() {
        let b = BlameBreakdown::default();
        assert_eq!(b.total(), 0);
        assert_eq!(b.share(BlameClass::ServerSide), 0.0);
        assert_eq!(b.classified_share(), 1.0);
    }
}
