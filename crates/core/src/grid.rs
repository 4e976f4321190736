//! Hourly per-entity sample grids.
//!
//! The paper aggregates everything over 1-hour episodes (Section 4.4.3);
//! [`HourlyGrid`] is the dense `(entity × hour) → (attempts, failures)`
//! structure every correlation analysis reads.

use crate::permanent::PermanentPairs;
use model::{ClientId, ColumnarDataset, SiteId, TxnBlameHint};
use std::collections::HashMap;

/// Failure rate at which a transaction-outcome grid cell counts as an
/// *outage* rather than merely an episode: the majority of the entity's
/// transactions in the hour failed. The episode threshold `f` (5%) is a
/// single misbehaving peer away from firing on a client that spreads its
/// hourly traffic over dozens of sites; a genuine client-side fault (access
/// link, LDNS, last-mile) takes out most of the hour.
pub const OUTAGE_THRESHOLD: f64 = 0.5;

/// Dense hourly counters for a family of entities.
#[derive(Clone, Debug)]
pub struct HourlyGrid {
    rows: usize,
    hours: u32,
    attempts: Vec<u32>,
    failures: Vec<u32>,
}

impl HourlyGrid {
    pub fn new(rows: usize, hours: u32) -> HourlyGrid {
        HourlyGrid {
            rows,
            hours,
            attempts: vec![0; rows * hours as usize],
            failures: vec![0; rows * hours as usize],
        }
    }

    #[inline]
    fn idx(&self, row: usize, hour: u32) -> usize {
        row * self.hours as usize + hour as usize
    }

    /// Record one sample. Out-of-range coordinates are not silently lost:
    /// they count in the `analysis.grid.dropped_samples` telemetry counter,
    /// so a mis-sized grid cannot quietly truncate its inputs.
    pub fn add(&mut self, row: usize, hour: u32, failed: bool) {
        if row >= self.rows || hour >= self.hours {
            telemetry::counter!("analysis.grid.dropped_samples", 1);
            return;
        }
        let i = self.idx(row, hour);
        self.attempts[i] += 1;
        self.failures[i] += u32::from(failed);
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn hours(&self) -> u32 {
        self.hours
    }

    /// Raw counters for one cell. Out-of-range coordinates — e.g. the hour
    /// of a record stamped at the instant the measurement window closes —
    /// hold no data and read as `(0, 0)`; an unchecked row-major index
    /// would alias the next row's early hours instead.
    pub fn cell(&self, row: usize, hour: u32) -> (u32, u32) {
        if row >= self.rows || hour >= self.hours {
            return (0, 0);
        }
        let i = self.idx(row, hour);
        (self.attempts[i], self.failures[i])
    }

    /// Failure rate of a cell, `None` when below `min_samples`.
    pub fn rate(&self, row: usize, hour: u32, min_samples: u32) -> Option<f64> {
        let (a, f) = self.cell(row, hour);
        (a >= min_samples.max(1)).then(|| f64::from(f) / f64::from(a))
    }

    /// Is `(row, hour)` a failure episode at threshold `f`?
    pub fn is_episode(&self, row: usize, hour: u32, f: f64, min_samples: u32) -> bool {
        self.rate(row, hour, min_samples)
            .is_some_and(|r| r >= f)
    }

    /// All episode hours for `row`, ascending.
    pub fn episode_hours(&self, row: usize, f: f64, min_samples: u32) -> Vec<u32> {
        (0..self.hours)
            .filter(|&h| self.is_episode(row, h, f, min_samples))
            .collect()
    }

    /// Every defined hourly rate in the grid (for the Figure 4 CDFs).
    pub fn all_rates(&self, min_samples: u32) -> Vec<f64> {
        let mut out = Vec::new();
        for row in 0..self.rows {
            for hour in 0..self.hours {
                if let Some(r) = self.rate(row, hour, min_samples) {
                    out.push(r);
                }
            }
        }
        out
    }

    /// Element-wise add another grid of identical shape into this one.
    ///
    /// The merge step of the sharded builders: each shard folds its record
    /// range into a private partial grid, then partials merge in shard
    /// order. Addition is commutative, so the sum is identical to a serial
    /// single-grid build.
    pub fn merge(&mut self, other: &HourlyGrid) {
        assert_eq!(self.rows, other.rows, "grid merge shape mismatch");
        assert_eq!(self.hours, other.hours, "grid merge shape mismatch");
        for (a, b) in self.attempts.iter_mut().zip(&other.attempts) {
            *a += b;
        }
        for (a, b) in self.failures.iter_mut().zip(&other.failures) {
            *a += b;
        }
    }

    /// Monthly totals for one row.
    pub fn row_totals(&self, row: usize) -> (u64, u64) {
        let mut a = 0u64;
        let mut f = 0u64;
        for hour in 0..self.hours {
            let (ca, cf) = self.cell(row, hour);
            a += u64::from(ca);
            f += u64::from(cf);
        }
        (a, f)
    }
}

/// Build a grid by sharding record indices across `threads` workers,
/// folding each shard into a partial grid, and merging the partials in
/// shard order.
fn sharded_grid(
    threads: usize,
    rows: usize,
    hours: u32,
    len: usize,
    add: impl Fn(&mut HourlyGrid, usize) + Sync,
) -> HourlyGrid {
    let mut partials = crate::par::map_shards(threads, len, |range| {
        let mut g = HourlyGrid::new(rows, hours);
        for i in range {
            add(&mut g, i);
        }
        g
    });
    let mut grid = partials
        .pop()
        .unwrap_or_else(|| HourlyGrid::new(rows, hours));
    for p in &partials {
        grid.merge(p);
    }
    grid
}

/// Per-client hourly TCP-connection grid, excluding permanent pairs.
///
/// Scans the connection columns: 9 bytes per record (client, site, hour,
/// outcome tag) instead of a 32-byte row.
pub fn client_connection_grid(
    cds: &ColumnarDataset,
    permanent: &PermanentPairs,
    threads: usize,
) -> HourlyGrid {
    let _span = telemetry::span!("analysis.grid.client_conn");
    let conn = &cds.conn;
    sharded_grid(threads, cds.client_count(), cds.hours, cds.conn_len(), |g, i| {
        let (client, site) = (conn.client[i], conn.site[i]);
        if !permanent.contains(ClientId(client), SiteId(site)) {
            g.add(client as usize, cds.conn_hour(i), cds.conn_failed(i));
        }
    })
}

/// Per-server hourly TCP-connection grid, excluding permanent pairs.
pub fn server_connection_grid(
    cds: &ColumnarDataset,
    permanent: &PermanentPairs,
    threads: usize,
) -> HourlyGrid {
    let _span = telemetry::span!("analysis.grid.server_conn");
    let conn = &cds.conn;
    sharded_grid(threads, cds.site_count(), cds.hours, cds.conn_len(), |g, i| {
        let (client, site) = (conn.client[i], conn.site[i]);
        if !permanent.contains(ClientId(client), SiteId(site)) {
            g.add(site as usize, cds.conn_hour(i), cds.conn_failed(i));
        }
    })
}

/// Per-client hourly *transaction* grid (used where connections are masked,
/// e.g. proxied clients).
pub fn client_transaction_grid(
    cds: &ColumnarDataset,
    permanent: &PermanentPairs,
    threads: usize,
) -> HourlyGrid {
    let _span = telemetry::span!("analysis.grid.client_txn");
    let txn = &cds.txn;
    sharded_grid(threads, cds.client_count(), cds.hours, cds.txn_len(), |g, i| {
        let (client, site) = (txn.client[i], txn.site[i]);
        if !permanent.contains(ClientId(client), SiteId(site)) {
            g.add(client as usize, cds.txn_hour(i), cds.txn_failed(i));
        }
    })
}

/// An [`HourlyGrid`] over *transaction outcomes* plus, per cell, the largest
/// share of that cell's failures attributable to a single peer entity.
///
/// Connection grids cannot see client-side faults: a dead access link or
/// LDNS kills the DNS phase before any TCP connection exists, so the
/// connection record stream goes silent instead of failing. The outcome
/// grid counts every transaction, failed DNS included, with the Section 4.2
/// blame reading folded in per axis (an LDNS timeout is a failure on the
/// client's grid but not the site's; an authoritative DNS error the
/// reverse; access-policy resets on neither).
///
/// `peer_max` makes episode detection robust against a single misbehaving
/// peer: a client visiting ~80 sites an hour crosses a 5% failure bar as
/// soon as four sites misbehave, which says nothing about the *client*.
/// [`OutcomeGrid::robust_rate`] subtracts the largest single-peer failure
/// contribution first, so only failures spread across several peers count
/// toward a broad episode.
#[derive(Clone, Debug)]
pub struct OutcomeGrid {
    pub grid: HourlyGrid,
    /// Per cell (same row-major layout as the grid), the max failures any
    /// single peer entity contributed.
    peer_max: Vec<u32>,
}

impl OutcomeGrid {
    /// Failure rate with the single largest peer's failures removed,
    /// `None` below `min_samples`.
    pub fn robust_rate(&self, row: usize, hour: u32, min_samples: u32) -> Option<f64> {
        let (a, f) = self.grid.cell(row, hour);
        if a < min_samples.max(1) {
            return None;
        }
        let i = row * self.grid.hours() as usize + hour as usize;
        let spread = f.saturating_sub(self.peer_max[i]);
        Some(f64::from(spread) / f64::from(a))
    }

    /// Is `(row, hour)` a *broad* episode — failures beyond any single
    /// peer's contribution still clear threshold `f`?
    pub fn is_broad_episode(&self, row: usize, hour: u32, f: f64, min_samples: u32) -> bool {
        self.robust_rate(row, hour, min_samples).is_some_and(|r| r >= f)
    }

    /// Largest single-peer failure count of a cell (0 out of range).
    pub fn peer_max(&self, row: usize, hour: u32) -> u32 {
        if row >= self.grid.rows() || hour >= self.grid.hours() {
            return 0;
        }
        self.peer_max[row * self.grid.hours() as usize + hour as usize]
    }
}

/// One shard's partial aggregate of the outcome-grid build.
struct OutcomeShard {
    client: HourlyGrid,
    server: HourlyGrid,
    /// (client cell index, site) → failures the site contributed there.
    client_peer: HashMap<(usize, u16), u32>,
    /// (site cell index, client) → failures the client contributed there.
    server_peer: HashMap<(usize, u16), u32>,
}

/// Build the client- and site-axis transaction-outcome grids in one sharded
/// scan over the transaction columns.
///
/// Proxied transactions and near-permanent pairs are excluded, like the
/// connection grids. Blame folds in per [`TxnBlameHint`]:
///
/// * every counted transaction is an attempt on *both* grids;
/// * `ClientDns` fails only the client's cell, `AuthDns` only the site's;
/// * `Ambiguous` fails both (the episode comparison disambiguates);
/// * `PolicyReset` fails neither — access policy is not an outage
///   (Section 4.4.2).
///
/// Determinism: shard partial grids merge by addition and the sparse
/// per-peer failure maps merge by addition before folding to a per-cell
/// max, so every reduction is order-independent and the result is
/// bit-identical at any thread count.
pub fn transaction_outcome_grids(
    cds: &ColumnarDataset,
    permanent: &PermanentPairs,
    threads: usize,
) -> (OutcomeGrid, OutcomeGrid) {
    let _span = telemetry::span!("analysis.grid.outcome");
    let txn = &cds.txn;
    let hours = cds.hours;
    let (c_rows, s_rows) = (cds.client_count(), cds.site_count());
    let shards = crate::par::map_shards(threads, cds.txn_len(), |range| {
        let mut sh = OutcomeShard {
            client: HourlyGrid::new(c_rows, hours),
            server: HourlyGrid::new(s_rows, hours),
            client_peer: HashMap::new(),
            server_peer: HashMap::new(),
        };
        for i in range {
            let (client, site) = (txn.client[i], txn.site[i]);
            if cds.txn_proxied(i) || permanent.contains(ClientId(client), SiteId(site)) {
                continue;
            }
            let hint = cds.txn_blame_hint(i);
            let hour = cds.txn_hour(i);
            let client_failed = matches!(hint, TxnBlameHint::ClientDns | TxnBlameHint::Ambiguous);
            let server_failed = matches!(hint, TxnBlameHint::AuthDns | TxnBlameHint::Ambiguous);
            sh.client.add(client as usize, hour, client_failed);
            sh.server.add(site as usize, hour, server_failed);
            if hour < hours {
                if client_failed && (client as usize) < c_rows {
                    let cell = client as usize * hours as usize + hour as usize;
                    *sh.client_peer.entry((cell, site)).or_insert(0) += 1;
                }
                if server_failed && (site as usize) < s_rows {
                    let cell = site as usize * hours as usize + hour as usize;
                    *sh.server_peer.entry((cell, client)).or_insert(0) += 1;
                }
            }
        }
        sh
    });

    let mut client = HourlyGrid::new(c_rows, hours);
    let mut server = HourlyGrid::new(s_rows, hours);
    let mut client_peer: HashMap<(usize, u16), u32> = HashMap::new();
    let mut server_peer: HashMap<(usize, u16), u32> = HashMap::new();
    for sh in &shards {
        client.merge(&sh.client);
        server.merge(&sh.server);
        for (&k, &v) in &sh.client_peer {
            *client_peer.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &sh.server_peer {
            *server_peer.entry(k).or_insert(0) += v;
        }
    }
    let fold_max = |peer: &HashMap<(usize, u16), u32>, cells: usize| {
        let mut max = vec![0u32; cells];
        for (&(cell, _), &count) in peer {
            if count > max[cell] {
                max[cell] = count;
            }
        }
        max
    };
    let client_max = fold_max(&client_peer, c_rows * hours as usize);
    let server_max = fold_max(&server_peer, s_rows * hours as usize);
    (
        OutcomeGrid { grid: client, peer_max: client_max },
        OutcomeGrid { grid: server, peer_max: server_max },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SynthWorld;
    use model::{ClientId, SiteId};

    #[test]
    fn cell_counting_and_rates() {
        let mut g = HourlyGrid::new(2, 3);
        for _ in 0..10 {
            g.add(0, 1, false);
        }
        for _ in 0..5 {
            g.add(0, 1, true);
        }
        assert_eq!(g.cell(0, 1), (15, 5));
        assert!((g.rate(0, 1, 1).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(g.rate(0, 0, 1), None, "no samples");
        assert_eq!(g.rate(0, 1, 20), None, "below min samples");
        assert_eq!(g.cell(1, 2), (0, 0));
    }

    /// Every cell of `g`, then every row's totals, to compare whole grids.
    fn contents(g: &HourlyGrid) -> Vec<(u64, u64)> {
        let cells = (0..g.rows()).flat_map(|row| {
            (0..g.hours()).map(move |hour| {
                let (a, f) = g.cell(row, hour);
                (u64::from(a), u64::from(f))
            })
        });
        cells
            .chain((0..g.rows()).map(|row| g.row_totals(row)))
            .collect()
    }

    /// Samples `add` has rejected so far, process-wide. The counter keeps
    /// them only in a build with the telemetry recorder compiled in.
    fn dropped_samples() -> u64 {
        telemetry::enable(true);
        telemetry::snapshot().counter("analysis.grid.dropped_samples")
    }

    #[test]
    fn out_of_range_adds_are_counted_not_silent() {
        let before = dropped_samples();
        let mut g = HourlyGrid::new(2, 2);
        g.add(0, 1, true);
        g.add(1, 0, false);
        let kept = contents(&g);
        g.add(5, 0, true);
        g.add(0, 9, true);
        g.add(2, 2, false);
        // A shard's rejected sample stays out of the merged grid too.
        let mut other = HourlyGrid::new(2, 2);
        other.add(3, 3, false);
        g.merge(&other);
        assert_eq!(
            contents(&g),
            kept,
            "rejected samples leave every cell alone"
        );
        if telemetry::enabled() {
            // Other tests may drop samples at the same time: at least ours.
            assert!(
                dropped_samples() - before >= 4,
                "rejected samples must be visible"
            );
        }
    }

    #[test]
    fn out_of_range_cell_reads_are_empty() {
        let mut g = HourlyGrid::new(2, 3);
        g.add(1, 0, true);
        // Row-major layout: an unchecked cell(0, 3) lands on index 3 —
        // row 1's hour 0 — silently returning another entity's data.
        assert_eq!(g.cell(0, 3), (0, 0));
        assert_eq!(g.cell(1, 3), (0, 0));
        assert_eq!(g.cell(2, 0), (0, 0));
        assert_eq!(g.rate(0, 3, 1), None);
        assert!(!g.is_episode(0, 3, 0.05, 1));
    }

    #[test]
    fn index_grids_count_samples_past_the_window() {
        // A record stamped at hour == ds.hours (the instant the window
        // closes) has no grid cell; each grid the index builds from it
        // rejects the sample and counts the drop.
        // Every cell and row total of each grid the index builds.
        let grids = |past_the_window: bool| {
            let mut w = SynthWorld::new(2, 2, 2);
            for h in 0..2u32 {
                for c in 0..2u16 {
                    for s in 0..2u16 {
                        w.add_conn_batch(ClientId(c), SiteId(s), h, 20, 0);
                        w.add_txn_batch(ClientId(c), SiteId(s), h, 20, 0);
                    }
                }
            }
            if past_the_window {
                w.add_failed_conn(ClientId(0), SiteId(0), 2);
                w.add_txn(ClientId(0), SiteId(0), 2, false);
            }
            let ds = w.finish();
            let a = crate::Analysis::new(&ds, crate::AnalysisConfig::default());
            [
                contents(&a.client_grid),
                contents(&a.server_grid),
                contents(&a.client_outcome.grid),
                contents(&a.server_outcome.grid),
            ]
        };
        let before = dropped_samples();
        let late = grids(true);
        if telemetry::enabled() {
            assert!(dropped_samples() - before >= 4, "one drop per grid");
        }
        assert_eq!(
            late,
            grids(false),
            "the late samples leave every cell alone"
        );
    }

    #[test]
    fn episode_detection() {
        let mut g = HourlyGrid::new(1, 4);
        // hour 0: 20% failure; hour 1: 2%; hour 2: thin data.
        for i in 0..50 {
            g.add(0, 0, i < 10);
        }
        for i in 0..50 {
            g.add(0, 1, i < 1);
        }
        for i in 0..3 {
            g.add(0, 2, i == 0);
        }
        assert!(g.is_episode(0, 0, 0.05, 12));
        assert!(!g.is_episode(0, 1, 0.05, 12));
        assert!(!g.is_episode(0, 2, 0.05, 12), "thin hours never flag");
        assert_eq!(g.episode_hours(0, 0.05, 12), vec![0]);
    }

    #[test]
    fn row_totals_sum_hours() {
        let mut g = HourlyGrid::new(1, 3);
        g.add(0, 0, true);
        g.add(0, 1, false);
        g.add(0, 2, true);
        assert_eq!(g.row_totals(0), (3, 2));
    }

    #[test]
    fn grids_respect_permanent_exclusion() {
        let mut w = SynthWorld::new(2, 2, 4);
        // Pair (0,0) fails always; pair (1,1) healthy.
        for h in 0..4 {
            for _ in 0..30 {
                w.add_failed_conn(ClientId(0), SiteId(0), h);
                w.add_ok_conn(ClientId(1), SiteId(1), h);
            }
            for _ in 0..30 {
                w.add_txn(ClientId(0), SiteId(0), h, false);
                w.add_txn(ClientId(1), SiteId(1), h, true);
            }
        }
        let cds = ColumnarDataset::from_dataset(&w.finish());
        let cfg = crate::AnalysisConfig::default();
        let perm = crate::permanent::detect(&cds, &cfg);
        assert!(perm.contains(ClientId(0), SiteId(0)));
        let g = client_connection_grid(&cds, &perm, 1);
        assert_eq!(g.cell(0, 0), (0, 0), "permanent pair excluded");
        assert_eq!(g.cell(1, 0), (30, 0));
    }

    #[test]
    fn sharded_build_matches_serial() {
        let mut w = SynthWorld::new(3, 2, 6);
        for h in 0..6 {
            for i in 0..40 {
                w.add_txn(ClientId(i % 3), SiteId(0), h, i % 7 != 0);
                if i % 2 == 0 {
                    w.add_ok_conn(ClientId(i % 3), SiteId(1), h);
                } else {
                    w.add_failed_conn(ClientId((i + 1) % 3), SiteId(0), h);
                }
            }
        }
        let cds = ColumnarDataset::from_dataset(&w.finish());
        let perm = crate::permanent::detect(&cds, &crate::AnalysisConfig::default());
        let serial = client_connection_grid(&cds, &perm, 1);
        for threads in [2usize, 3, 7] {
            let par = client_connection_grid(&cds, &perm, threads);
            for row in 0..serial.rows() {
                for hour in 0..serial.hours() {
                    assert_eq!(serial.cell(row, hour), par.cell(row, hour));
                }
            }
        }
        let serial_t = client_transaction_grid(&cds, &perm, 1);
        let par_t = client_transaction_grid(&cds, &perm, 5);
        for row in 0..serial_t.rows() {
            for hour in 0..serial_t.hours() {
                assert_eq!(serial_t.cell(row, hour), par_t.cell(row, hour));
            }
        }
    }

    #[test]
    fn merge_adds_elementwise() {
        let mut a = HourlyGrid::new(1, 2);
        a.add(0, 0, true);
        let mut b = HourlyGrid::new(1, 2);
        b.add(0, 0, false);
        b.add(0, 1, true);
        a.merge(&b);
        assert_eq!(a.cell(0, 0), (2, 1));
        assert_eq!(a.cell(0, 1), (1, 1));
    }

    #[test]
    fn merge_is_associative_and_identity_preserving() {
        // The sharded builders rely on merge being a commutative monoid
        // over grids: any shard split (including empty shards from a
        // degraded run) must fold to the same totals.
        let mk = |samples: &[(usize, u32, bool)]| {
            let mut g = HourlyGrid::new(2, 3);
            for &(row, hour, failed) in samples {
                g.add(row, hour, failed);
            }
            g
        };
        let a = mk(&[(0, 0, true), (1, 2, false)]);
        let b = mk(&[(0, 0, false), (0, 1, true)]);
        let c = mk(&[(1, 2, true), (1, 2, true)]);

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        for row in 0..2 {
            for hour in 0..3 {
                assert_eq!(ab_c.cell(row, hour), a_bc.cell(row, hour));
            }
        }

        // Merging an empty grid (an empty shard's partial) changes nothing.
        let mut with_empty = a.clone();
        with_empty.merge(&HourlyGrid::new(2, 3));
        for row in 0..2 {
            for hour in 0..3 {
                assert_eq!(with_empty.cell(row, hour), a.cell(row, hour));
            }
        }
    }

    fn outcome_grids(w: SynthWorld, threads: usize) -> (OutcomeGrid, OutcomeGrid) {
        let cds = ColumnarDataset::from_dataset(&w.finish());
        let cfg = crate::AnalysisConfig::default().with_threads(threads);
        let perm = crate::permanent::detect(&cds, &cfg);
        transaction_outcome_grids(&cds, &perm, threads)
    }

    /// The blind spot itself: a client whose faults are all DNS-level
    /// produces *no* connection records during the outage, so connection
    /// grids see nothing — while the transaction-outcome grid recovers the
    /// exact fault hours.
    #[test]
    fn dns_only_client_fault_invisible_to_conn_grids_visible_to_outcome_grids() {
        use model::DnsFailureKind;
        let mut w = SynthWorld::new(2, 4, 8);
        for h in 0..8u32 {
            for s in 0..4u16 {
                for _ in 0..5 {
                    if h == 2 || h == 3 {
                        // Client 0's access link / LDNS is down: DNS dies
                        // first, no TCP connection ever exists.
                        w.add_txn_failure(
                            ClientId(0),
                            SiteId(s),
                            h,
                            model::FailureClass::Dns(DnsFailureKind::LdnsTimeout),
                        );
                    } else {
                        w.add_txn(ClientId(0), SiteId(s), h, true);
                        w.add_ok_conn(ClientId(0), SiteId(s), h);
                    }
                    w.add_txn(ClientId(1), SiteId(s), h, true);
                    w.add_ok_conn(ClientId(1), SiteId(s), h);
                }
            }
        }
        let cds = ColumnarDataset::from_dataset(&w.finish());
        let cfg = crate::AnalysisConfig::default();
        let perm = crate::permanent::detect(&cds, &cfg);
        let conn = client_connection_grid(&cds, &perm, 1);
        assert_eq!(
            conn.episode_hours(0, cfg.episode_threshold, cfg.min_hour_samples),
            Vec::<u32>::new(),
            "connection grids cannot see DNS-phase faults"
        );
        let (client, server) = transaction_outcome_grids(&cds, &perm, cfg.threads);
        // The audit's outage reading of the client grid.
        let outages = |row| {
            client
                .grid
                .episode_hours(row, OUTAGE_THRESHOLD, cfg.min_hour_samples)
        };
        assert_eq!(
            outages(0),
            vec![2, 3],
            "outcome grid recovers the exact fault hours"
        );
        assert_eq!(outages(1), Vec::<u32>::new());
        // An LDNS timeout is the client's fault, not the sites'.
        for s in 0..4 {
            assert_eq!(server.grid.cell(s, 2).1, 0, "site {s} blamed for client DNS fault");
        }
    }

    #[test]
    fn outcome_grid_robust_rate_discounts_single_peer() {
        // Client 0 visits 20 sites per hour; site 0 fails every time in
        // hour 1 (a *site* problem), while in hour 2 failures spread over
        // five sites (a genuinely broad client problem).
        let mut w = SynthWorld::new(1, 20, 4);
        for h in 0..4u32 {
            for s in 0..20u16 {
                let fail = (h == 1 && s == 0) || (h == 2 && s < 5);
                w.add_txn(ClientId(0), SiteId(s), h, !fail);
            }
        }
        let (client, _) = outcome_grids(w, 1);
        assert_eq!(client.grid.cell(0, 1), (20, 1));
        assert_eq!(client.peer_max(0, 1), 1);
        assert!(
            !client.is_broad_episode(0, 1, 0.05, 12),
            "one bad peer must not flag a client episode"
        );
        assert_eq!(client.peer_max(0, 2), 1);
        assert!(
            client.is_broad_episode(0, 2, 0.05, 12),
            "failures across five peers are a broad episode"
        );
        assert!((client.robust_rate(0, 2, 12).unwrap() - 4.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn outcome_grid_excludes_policy_resets_and_proxied() {
        let mut w = SynthWorld::new(2, 2, 2);
        w.set_proxy(ClientId(1), model::ProxyId(0));
        for _ in 0..15 {
            // Client 0 ↔ site 0: every transaction refused fast (access
            // policy). Neither side's grid should read these as failures.
            w.add_reset_txn(ClientId(0), SiteId(0), 0);
            w.add_txn(ClientId(0), SiteId(1), 0, true);
            // Proxied client contributes nothing.
            w.add_txn(ClientId(1), SiteId(0), 0, false);
        }
        let (client, server) = outcome_grids(w, 1);
        assert_eq!(client.grid.cell(0, 0), (30, 0), "resets count as attempts, not failures");
        assert_eq!(server.grid.cell(0, 0), (15, 0));
        assert_eq!(client.grid.cell(1, 0), (0, 0), "proxied client excluded");
        assert_eq!(
            client.grid.episode_hours(0, OUTAGE_THRESHOLD, 12),
            Vec::<u32>::new()
        );
        assert!(!server.grid.is_episode(0, 0, 0.05, 12));
    }

    #[test]
    fn sharded_outcome_build_matches_serial() {
        use model::DnsFailureKind;
        let mut w = SynthWorld::new(5, 6, 12);
        for h in 0..12u32 {
            for c in 0..5u16 {
                for s in 0..6u16 {
                    for i in 0..4u32 {
                        match (u32::from(c) + u32::from(s) + h + i) % 7 {
                            0 => {
                                w.add_txn(ClientId(c), SiteId(s), h, false);
                            }
                            1 => {
                                w.add_txn_failure(
                                    ClientId(c),
                                    SiteId(s),
                                    h,
                                    model::FailureClass::Dns(DnsFailureKind::LdnsTimeout),
                                );
                            }
                            2 => {
                                w.add_reset_txn(ClientId(c), SiteId(s), h);
                            }
                            3 => {
                                w.add_txn_failure(
                                    ClientId(c),
                                    SiteId(s),
                                    h,
                                    model::FailureClass::Http(503),
                                );
                            }
                            _ => {
                                w.add_txn(ClientId(c), SiteId(s), h, true);
                            }
                        }
                    }
                }
            }
        }
        let cds = ColumnarDataset::from_dataset(&w.finish());
        let cfg = crate::AnalysisConfig::default();
        let perm = crate::permanent::detect(&cds, &cfg);
        let (sc, ss) = transaction_outcome_grids(&cds, &perm, 1);
        for threads in [2usize, 3, 7] {
            let (pc, ps) = transaction_outcome_grids(&cds, &perm, threads);
            for (serial, par) in [(&sc, &pc), (&ss, &ps)] {
                for row in 0..serial.grid.rows() {
                    for hour in 0..serial.grid.hours() {
                        assert_eq!(serial.grid.cell(row, hour), par.grid.cell(row, hour));
                        assert_eq!(serial.peer_max(row, hour), par.peer_max(row, hour));
                    }
                }
            }
        }
    }

    #[test]
    fn all_rates_counts_defined_cells() {
        let mut g = HourlyGrid::new(2, 2);
        for _ in 0..20 {
            g.add(0, 0, false);
            g.add(1, 1, true);
        }
        let rates = g.all_rates(12);
        assert_eq!(rates.len(), 2);
        assert!(rates.contains(&0.0) && rates.contains(&1.0));
    }
}
