//! The reference implementations.
//!
//! Every function here is a direct transcription of the paper's definition:
//! one pass, one loop, sparse `BTreeMap` counters. Nothing is shared with
//! the optimized scans except the passive artifact structs and the
//! [`AnalysisConfig`] thresholds.

use model::{
    BgpHourly, ClientCategory, Dataset, DnsFailureKind, FailureClass, TcpFailureKind, TxnBlameHint,
};
use netprofiler::bgp_corr::{SevereInstabilityReport, SevereInstance, SeverityRule};
use netprofiler::blame::{BlameBreakdown, ServerEpisodeStats};
use netprofiler::episodes::{Figure4, RateCdf};
use netprofiler::pair_episodes::{PairEpisode, PairEpisodeConfig, PairEpisodeReport};
use netprofiler::permanent::PermanentPair;
use netprofiler::proxy_analysis::{ResidualRate, SharedProxySite, Table9Row, SHARED_PROXY_PARAMS};
use netprofiler::summary::{CategorySummary, FailureBreakdown};
use netprofiler::AnalysisConfig;
use std::collections::{BTreeMap, BTreeSet};

/// A sparse hourly grid: `(row, hour) → (attempts, failures)`.
///
/// Samples outside the `rows × hours` domain (e.g. a record stamped at the
/// instant the measurement window closes) belong to no cell, matching the
/// domain rule of the dense optimized grid.
#[derive(Clone, Debug, Default)]
pub struct NaiveGrid {
    rows: usize,
    hours: u32,
    cells: BTreeMap<(usize, u32), (u32, u32)>,
}

impl NaiveGrid {
    /// An empty grid over `rows × hours`.
    pub fn new(rows: usize, hours: u32) -> NaiveGrid {
        NaiveGrid {
            rows,
            hours,
            cells: BTreeMap::new(),
        }
    }

    /// Record one sample; out-of-domain coordinates are ignored.
    pub fn add(&mut self, row: usize, hour: u32, failed: bool) {
        if row >= self.rows || hour >= self.hours {
            return;
        }
        let e = self.cells.entry((row, hour)).or_insert((0, 0));
        e.0 += 1;
        e.1 += u32::from(failed);
    }

    /// Raw counters for one cell; `(0, 0)` when absent or out of domain.
    pub fn cell(&self, row: usize, hour: u32) -> (u32, u32) {
        self.cells.get(&(row, hour)).copied().unwrap_or((0, 0))
    }

    /// Number of rows in the grid's domain.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of hours in the grid's domain.
    pub fn hours(&self) -> u32 {
        self.hours
    }

    /// Failure rate of a cell, `None` below `min_samples`.
    pub fn rate(&self, row: usize, hour: u32, min_samples: u32) -> Option<f64> {
        let (a, f) = self.cell(row, hour);
        (a >= min_samples.max(1)).then(|| f64::from(f) / f64::from(a))
    }

    /// Is `(row, hour)` a failure episode at threshold `f`?
    pub fn is_episode(&self, row: usize, hour: u32, f: f64, min_samples: u32) -> bool {
        self.rate(row, hour, min_samples).is_some_and(|r| r >= f)
    }

    /// All episode hours of `row`, ascending.
    pub fn episode_hours(&self, row: usize, f: f64, min_samples: u32) -> Vec<u32> {
        (0..self.hours)
            .filter(|&h| self.is_episode(row, h, f, min_samples))
            .collect()
    }

    /// Every defined hourly rate, in row-major `(row, hour)` order.
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
}

/// The Section 4.2 / 4.4.2 blame hint of one row record, recomputed from
/// the record's own fields — deliberately independent of the columnar
/// encoding the optimized [`model::ColumnarDataset::txn_blame_hint`] reads.
pub fn txn_blame_hint(r: &model::PerformanceRecord, reset_fast_micros: u64) -> TxnBlameHint {
    match r.dns {
        Ok(_) => {}
        Err(DnsFailureKind::LdnsTimeout) => return TxnBlameHint::ClientDns,
        Err(DnsFailureKind::NonLdnsTimeout) => return TxnBlameHint::Ambiguous,
        Err(_) => return TxnBlameHint::AuthDns,
    }
    if !r.failed() {
        return TxnBlameHint::Success;
    }
    if r.failure() == Some(FailureClass::Tcp(TcpFailureKind::NoConnection))
        && r
            .download_time
            .is_some_and(|d| d.as_micros() < reset_fast_micros)
    {
        return TxnBlameHint::PolicyReset;
    }
    TxnBlameHint::Ambiguous
}

/// A sparse transaction-outcome grid plus, per cell, the largest failure
/// count any single peer entity contributed — the reference twin of
/// [`netprofiler::grid::OutcomeGrid`].
#[derive(Clone, Debug, Default)]
pub struct NaiveOutcomeGrid {
    /// The plain attempts/failures grid over transaction outcomes.
    pub grid: NaiveGrid,
    peer_max: BTreeMap<(usize, u32), u32>,
}

impl NaiveOutcomeGrid {
    /// Failure rate with the single largest peer's failures removed,
    /// `None` below `min_samples`.
    pub fn robust_rate(&self, row: usize, hour: u32, min_samples: u32) -> Option<f64> {
        let (a, f) = self.grid.cell(row, hour);
        if a < min_samples.max(1) {
            return None;
        }
        let spread = f.saturating_sub(self.peer_max(row, hour));
        Some(f64::from(spread) / f64::from(a))
    }

    /// Is `(row, hour)` a broad episode — failures beyond any single peer's
    /// contribution still clear threshold `f`?
    pub fn is_broad_episode(&self, row: usize, hour: u32, f: f64, min_samples: u32) -> bool {
        self.robust_rate(row, hour, min_samples).is_some_and(|r| r >= f)
    }

    /// Is `(row, hour)` an outage — the plain failure rate clears the
    /// (majority) `outage_threshold`?
    pub fn is_outage(&self, row: usize, hour: u32, outage_threshold: f64, min_samples: u32) -> bool {
        self.grid.is_episode(row, hour, outage_threshold, min_samples)
    }

    /// Largest single-peer failure count of a cell (0 when absent).
    pub fn peer_max(&self, row: usize, hour: u32) -> u32 {
        self.peer_max.get(&(row, hour)).copied().unwrap_or(0)
    }
}

/// Build the client- and site-axis transaction-outcome grids from the row
/// records: one sequential pass, sparse peer counters, the same per-hint
/// folding as the optimized scan (every counted transaction is an attempt
/// on both grids; `ClientDns` fails only the client cell, `AuthDns` only
/// the site cell, `Ambiguous` both, `PolicyReset` neither; proxied
/// transactions and near-permanent pairs are excluded).
pub fn transaction_outcome_grids(
    ds: &Dataset,
    permanent: &NaivePermanent,
    cfg: &AnalysisConfig,
) -> (NaiveOutcomeGrid, NaiveOutcomeGrid) {
    let mut client = NaiveOutcomeGrid {
        grid: NaiveGrid::new(ds.clients.len(), ds.hours),
        peer_max: BTreeMap::new(),
    };
    let mut server = NaiveOutcomeGrid {
        grid: NaiveGrid::new(ds.sites.len(), ds.hours),
        peer_max: BTreeMap::new(),
    };
    let mut client_peer: BTreeMap<(usize, u32, u16), u32> = BTreeMap::new();
    let mut server_peer: BTreeMap<(usize, u32, u16), u32> = BTreeMap::new();
    for r in &ds.records {
        if r.proxy.is_some() || permanent.contains(r.client, r.site) {
            continue;
        }
        let hint = txn_blame_hint(r, cfg.reset_fast_micros);
        let hour = r.hour();
        let client_failed = matches!(hint, TxnBlameHint::ClientDns | TxnBlameHint::Ambiguous);
        let server_failed = matches!(hint, TxnBlameHint::AuthDns | TxnBlameHint::Ambiguous);
        let (c_row, s_row) = (r.client.0 as usize, r.site.0 as usize);
        client.grid.add(c_row, hour, client_failed);
        server.grid.add(s_row, hour, server_failed);
        if hour < ds.hours {
            if client_failed && c_row < ds.clients.len() {
                *client_peer.entry((c_row, hour, r.site.0)).or_insert(0) += 1;
            }
            if server_failed && s_row < ds.sites.len() {
                *server_peer.entry((s_row, hour, r.client.0)).or_insert(0) += 1;
            }
        }
    }
    for (&(row, hour, _), &count) in &client_peer {
        let m = client.peer_max.entry((row, hour)).or_insert(0);
        *m = (*m).max(count);
    }
    for (&(row, hour, _), &count) in &server_peer {
        let m = server.peer_max.entry((row, hour)).or_insert(0);
        *m = (*m).max(count);
    }
    (client, server)
}

/// Near-permanent pairs, reference detection (Section 4.4.2).
#[derive(Clone, Debug, Default)]
pub struct NaivePermanent {
    /// The excluded `(client, site)` id pairs.
    pub pairs: BTreeSet<(u16, u16)>,
    /// Per detected pair, sorted by `(client, site)`.
    pub detail: Vec<PermanentPair>,
    /// Fraction of all transaction failures on excluded pairs.
    pub share_of_transaction_failures: f64,
    /// Fraction of all TCP connection failures on excluded pairs.
    pub share_of_connection_failures: f64,
}

impl NaivePermanent {
    /// Is the pair excluded?
    pub fn contains(&self, client: model::ClientId, site: model::SiteId) -> bool {
        self.pairs.contains(&(client.0, site.0))
    }
}

/// Detect near-permanent pairs: monthly per-pair transaction counts, then
/// the `> permanent_threshold` filter over pairs with enough traffic.
pub fn permanent_pairs(ds: &Dataset, cfg: &AnalysisConfig) -> NaivePermanent {
    let mut per_pair: BTreeMap<(u16, u16), (u32, u32)> = BTreeMap::new();
    for r in &ds.records {
        let e = per_pair.entry((r.client.0, r.site.0)).or_insert((0, 0));
        e.0 += 1;
        e.1 += u32::from(r.failed());
    }
    let mut out = NaivePermanent::default();
    for (&(c, s), &(txns, failed)) in &per_pair {
        if txns >= cfg.min_pair_transactions
            && f64::from(failed) / f64::from(txns) > cfg.permanent_threshold
        {
            out.pairs.insert((c, s));
            out.detail.push(PermanentPair {
                client: model::ClientId(c),
                site: model::SiteId(s),
                transactions: txns,
                failed,
            });
        }
    }
    let mut txn_failures = (0usize, 0usize);
    for r in &ds.records {
        if r.failed() {
            txn_failures.0 += 1;
            txn_failures.1 += usize::from(out.pairs.contains(&(r.client.0, r.site.0)));
        }
    }
    let mut conn_failures = (0usize, 0usize);
    for c in &ds.connections {
        if c.failed() {
            conn_failures.0 += 1;
            conn_failures.1 += usize::from(out.pairs.contains(&(c.client.0, c.site.0)));
        }
    }
    out.share_of_transaction_failures = share(txn_failures.1, txn_failures.0);
    out.share_of_connection_failures = share(conn_failures.1, conn_failures.0);
    out
}

fn share(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn rate_u64(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Table 3 by per-category rescans of both record families.
pub fn table3(ds: &Dataset) -> Vec<CategorySummary> {
    ClientCategory::ALL
        .iter()
        .map(|&category| {
            let mut transactions = 0u64;
            let mut failed_transactions = 0u64;
            for r in &ds.records {
                if ds.clients[r.client.0 as usize].category == category {
                    transactions += 1;
                    failed_transactions += u64::from(r.failed());
                }
            }
            let mut connections = 0u64;
            let mut failed_connections = 0u64;
            for c in &ds.connections {
                if ds.clients[c.client.0 as usize].category == category {
                    connections += 1;
                    failed_connections += u64::from(c.failed());
                }
            }
            // CN connections are masked by the proxies (Table 3: N/A).
            let masked = category == ClientCategory::CorpNet;
            CategorySummary {
                category,
                transactions,
                failed_transactions,
                connections: (!masked).then_some(connections),
                failed_connections: (!masked).then_some(failed_connections),
            }
        })
        .collect()
}

/// Figure 1's whole-dataset breakdown over the non-proxied categories.
pub fn overall_breakdown(ds: &Dataset) -> FailureBreakdown {
    let mut b = FailureBreakdown::default();
    for r in &ds.records {
        if ds.clients[r.client.0 as usize].category == ClientCategory::CorpNet {
            continue;
        }
        match r.failure() {
            Some(FailureClass::Dns(_)) => b.dns += 1,
            Some(FailureClass::Tcp(_)) => b.tcp += 1,
            Some(FailureClass::Http(_)) => b.http += 1,
            None => {}
        }
    }
    b
}

/// Empirical CDF over rates: sort, then cumulative fractions, merging only
/// exactly-equal rates into one point.
pub fn rate_cdf(rates: &[f64]) -> RateCdf {
    let mut sorted = rates.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mut points: Vec<(f64, f64)> = Vec::new();
    for (i, r) in sorted.iter().enumerate() {
        let cum = (i + 1) as f64 / n as f64;
        match points.last_mut() {
            Some(last) if last.0 == *r => last.1 = cum,
            _ => points.push((*r, cum)),
        }
    }
    RateCdf { points, samples: n }
}

/// The Figure 4 knee: maximum vertical distance between the CDF and the
/// chord from the curve's start `(x0, 0)` to its last point, `None` for
/// degenerate curves (fewer than 3 distinct rates, or zero x-span).
pub fn knee(cdf: &RateCdf) -> Option<f64> {
    if cdf.points.len() < 3 {
        return None;
    }
    let (x0, _) = cdf.points[0];
    let (x1, y1) = *cdf.points.last().expect("non-empty");
    if (x1 - x0).abs() < 1e-12 {
        return None;
    }
    let slope = y1 / (x1 - x0);
    let mut best = (0.0f64, x0);
    for &(x, y) in &cdf.points {
        let d = y - slope * (x - x0);
        if d > best.0 {
            best = (d, x);
        }
    }
    (best.0 > 0.0).then_some(best.1)
}

/// Table 5 blame attribution of every failed connection against the hourly
/// episode grids, at threshold `f`.
pub fn table5(
    ds: &Dataset,
    permanent: &NaivePermanent,
    client_grid: &NaiveGrid,
    server_grid: &NaiveGrid,
    f: f64,
    min_samples: u32,
) -> BlameBreakdown {
    let mut out = BlameBreakdown::default();
    for conn in &ds.connections {
        if !conn.failed() || permanent.contains(conn.client, conn.site) {
            continue;
        }
        let c = client_grid.is_episode(conn.client.0 as usize, conn.hour(), f, min_samples);
        let s = server_grid.is_episode(conn.site.0 as usize, conn.hour(), f, min_samples);
        match (c, s) {
            (true, true) => out.both += 1,
            (true, false) => out.client_side += 1,
            (false, true) => out.server_side += 1,
            (false, false) => out.other += 1,
        }
    }
    out
}

/// The audit's inferred-class reading of one failed record, as a matrix
/// index: the per-record blame hint settles what needs no grid (Section
/// 4.2 DNS reading, Section 4.4.2 access-policy resets), and everything
/// ambiguous classifies against the sparse transaction-outcome grids —
/// robust broad-episode test on the client axis, plain episode test on the
/// server axis, mirroring the optimized audit.
fn inferred_class(
    r: &model::PerformanceRecord,
    client_outcome: &NaiveOutcomeGrid,
    server_outcome: &NaiveOutcomeGrid,
    cfg: &AnalysisConfig,
) -> usize {
    match txn_blame_hint(r, cfg.reset_fast_micros) {
        TxnBlameHint::ClientDns => 0,
        TxnBlameHint::AuthDns => 1,
        TxnBlameHint::PolicyReset => 3,
        TxnBlameHint::Success | TxnBlameHint::Ambiguous => {
            let (f, min) = (cfg.episode_threshold, cfg.min_hour_samples);
            let c = client_outcome.is_broad_episode(r.client.0 as usize, r.hour(), f, min);
            let s = server_outcome
                .grid
                .is_episode(r.site.0 as usize, r.hour(), f, min);
            match (c, s) {
                (true, false) => 0,
                (false, true) => 1,
                (true, true) => 2,
                (false, false) => 3,
            }
        }
    }
}

/// Table 5 blame over every failed transaction against the outcome grids,
/// reference computation: one sequential pass with the same skips and
/// hint-then-grid reading as the optimized
/// [`netprofiler::blame::table5_outcome`].
pub fn table5_outcome(
    ds: &Dataset,
    permanent: &NaivePermanent,
    client_outcome: &NaiveOutcomeGrid,
    server_outcome: &NaiveOutcomeGrid,
    cfg: &AnalysisConfig,
) -> BlameBreakdown {
    let mut out = BlameBreakdown::default();
    for r in &ds.records {
        if !r.failed() || r.proxy.is_some() || permanent.contains(r.client, r.site) {
            continue;
        }
        match inferred_class(r, client_outcome, server_outcome, cfg) {
            0 => out.client_side += 1,
            1 => out.server_side += 1,
            2 => out.both += 1,
            _ => out.other += 1,
        }
    }
    out
}

/// Per-archetype `(name, truth, detected)` detection tallies, reference
/// computation: one sequential pass with the same skips and inference
/// reading as [`blame_confusion`], one counter bump per archetype bit in
/// the stamp.
pub fn archetype_tallies(
    ds: &Dataset,
    log: &model::ProvenanceLog,
    permanent: &NaivePermanent,
    client_outcome: &NaiveOutcomeGrid,
    server_outcome: &NaiveOutcomeGrid,
    cfg: &AnalysisConfig,
) -> Vec<(&'static str, u64, u64)> {
    use netprofiler::audit::ARCHETYPES;
    let mut out: Vec<(&'static str, u64, u64)> =
        ARCHETYPES.iter().map(|&(n, _, _)| (n, 0, 0)).collect();
    for (r, stamp) in ds.records.iter().zip(&log.records) {
        if !r.failed() || r.proxy.is_some() || permanent.contains(r.client, r.site) {
            continue;
        }
        let inferred = inferred_class(r, client_outcome, server_outcome, cfg);
        for (k, &(_, bit, expected)) in ARCHETYPES.iter().enumerate() {
            if stamp.all().contains(bit) {
                out[k].1 += 1;
                out[k].2 += u64::from(inferred == expected);
            }
        }
    }
    out
}

/// The attribution-audit confusion matrix, reference computation: one pass
/// over the records, sparse outcome-grid lookups, the same hint-then-grid
/// reading the optimized audit uses (LDNS timeout → the client's own
/// infrastructure, authoritative DNS errors → the server side, fast
/// all-refused connect phases → access policy).
pub fn blame_confusion(
    ds: &Dataset,
    log: &model::ProvenanceLog,
    permanent: &NaivePermanent,
    client_outcome: &NaiveOutcomeGrid,
    server_outcome: &NaiveOutcomeGrid,
    cfg: &AnalysisConfig,
) -> netprofiler::audit::BlameConfusion {
    use model::TrueBlame;
    let mut out = netprofiler::audit::BlameConfusion::default();
    for (r, stamp) in ds.records.iter().zip(&log.records) {
        if !r.failed() {
            continue;
        }
        if r.proxy.is_some() {
            out.skipped_proxied += 1;
            continue;
        }
        if permanent.contains(r.client, r.site) {
            out.skipped_permanent += 1;
            continue;
        }
        let inferred = inferred_class(r, client_outcome, server_outcome, cfg);
        let truth = match stamp.all().true_blame() {
            TrueBlame::ClientSide => 0,
            TrueBlame::ServerSide => 1,
            TrueBlame::Both => 2,
            TrueBlame::PairSpecific | TrueBlame::Noise => 3,
        };
        out.matrix[truth][inferred] += 1;
    }
    out
}

/// Section 4.4.5 server-side episode statistics.
pub fn server_episode_stats(
    ds: &Dataset,
    server_grid: &NaiveGrid,
    f: f64,
    min_samples: u32,
) -> ServerEpisodeStats {
    let mut stats = ServerEpisodeStats {
        per_server_hours: vec![0; ds.sites.len()],
        ..Default::default()
    };
    let mut run_lengths: Vec<u32> = Vec::new();
    for s in 0..ds.sites.len() {
        let hours = server_grid.episode_hours(s, f, min_samples);
        stats.per_server_hours[s] = hours.len() as u32;
        stats.total_hours += hours.len() as u64;
        // Coalesce consecutive hours into runs.
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for &h in &hours {
            match runs.last_mut() {
                Some((start, len)) if *start + *len == h => *len += 1,
                _ => runs.push((h, 1)),
            }
        }
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
        stats.mean_run_hours = run_lengths.iter().map(|&l| u64::from(l)).sum::<u64>() as f64
            / run_lengths.len() as f64;
        run_lengths.sort_unstable();
        stats.median_run_hours = run_lengths[run_lengths.len() / 2];
        stats.max_run_hours = *run_lengths.last().expect("non-empty");
    }
    stats
}

/// Hourly TCP grid per prefix: each non-permanent connection counts toward
/// its client's prefixes and its replica's prefixes (when the replica
/// address is listed for the site; a duplicate address listing resolves to
/// its last entry, the lookup-table rule).
pub fn prefix_grid(ds: &Dataset, permanent: &NaivePermanent) -> NaiveGrid {
    let mut grid = NaiveGrid::new(ds.prefixes.len(), ds.hours);
    for conn in &ds.connections {
        if permanent.contains(conn.client, conn.site) {
            continue;
        }
        let hour = conn.hour();
        let failed = conn.failed();
        for p in &ds.clients[conn.client.0 as usize].prefixes {
            grid.add(p.0 as usize, hour, failed);
        }
        let replicas = &ds.sites[conn.site.0 as usize].replica_prefixes;
        if let Some((_, pfxs)) = replicas.iter().rev().find(|(addr, _)| *addr == conn.replica) {
            for p in pfxs {
                grid.add(p.0 as usize, hour, failed);
            }
        }
    }
    grid
}

/// Severe BGP instability under `rule`, correlated with the prefix grid.
pub fn severe_instability(
    ds: &Dataset,
    grid: &NaiveGrid,
    rule: SeverityRule,
    min_samples: u32,
) -> SevereInstabilityReport {
    let matches = |cell: &BgpHourly| match rule {
        SeverityRule::Neighbors(n) => cell.neighbors_withdrawing >= n,
        SeverityRule::WithdrawalsAndNeighbors(w, n) => {
            cell.withdrawals >= w && cell.neighbors_withdrawing >= n
        }
    };
    let mut instances = Vec::new();
    for (prefix, hour, cell) in ds.bgp.active_cells() {
        if !matches(&cell) {
            continue;
        }
        let (attempts, _) = grid.cell(prefix.0 as usize, hour);
        instances.push(SevereInstance {
            prefix,
            hour,
            bgp: cell,
            tcp_failure_rate: grid.rate(prefix.0 as usize, hour, min_samples),
            attempts,
        });
    }
    let measurable: Vec<f64> = instances.iter().filter_map(|i| i.tcp_failure_rate).collect();
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

/// Client-server-specific episodes over `window_hours`-hour bins, with
/// endpoint-episode shadowing (Section 2.2 category 3). An endpoint
/// episode on *either* the connection grid or the transaction-outcome grid
/// shadows the pair (robust broad-episode test on the client axis, plain
/// episode test on the server axis), mirroring the optimized detector.
#[allow(clippy::too_many_arguments)]
pub fn pair_episodes(
    ds: &Dataset,
    permanent: &NaivePermanent,
    client_grid: &NaiveGrid,
    server_grid: &NaiveGrid,
    client_outcome: &NaiveOutcomeGrid,
    server_outcome: &NaiveOutcomeGrid,
    f: f64,
    min_samples: u32,
    cfg: PairEpisodeConfig,
) -> PairEpisodeReport {
    let windows = ds.hours.div_ceil(cfg.window_hours.max(1));
    let mut bins: BTreeMap<(u16, u16, u32), (u32, u32, bool)> = BTreeMap::new();
    for conn in &ds.connections {
        if permanent.contains(conn.client, conn.site) {
            continue;
        }
        let hour = conn.hour();
        if hour >= ds.hours {
            continue;
        }
        let window = hour / cfg.window_hours.max(1);
        let entry = bins
            .entry((conn.client.0, conn.site.0, window))
            .or_insert((0, 0, false));
        entry.0 += 1;
        entry.1 += u32::from(conn.failed());
        if conn.failed() {
            let c_row = conn.client.0 as usize;
            let s_row = conn.site.0 as usize;
            let c_ep = client_grid.is_episode(c_row, hour, f, min_samples)
                || client_outcome.is_broad_episode(c_row, hour, f, min_samples);
            let s_ep = server_grid.is_episode(s_row, hour, f, min_samples)
                || server_outcome.grid.is_episode(s_row, hour, f, min_samples);
            entry.2 |= c_ep || s_ep;
        }
    }
    let mut report = PairEpisodeReport::default();
    let mut pairs_seen: BTreeSet<(u16, u16)> = BTreeSet::new();
    for (&(c, s, w), &(attempts, failures, shadowed)) in &bins {
        if attempts < cfg.min_samples || w >= windows {
            continue;
        }
        let rate = f64::from(failures) / f64::from(attempts);
        if rate < cfg.threshold {
            continue;
        }
        if shadowed {
            report.shadowed_by_endpoint += 1;
            continue;
        }
        pairs_seen.insert((c, s));
        report.episodes.push(PairEpisode {
            client: model::ClientId(c),
            site: model::SiteId(s),
            window: w,
            attempts,
            failures,
        });
    }
    report.distinct_pairs = pairs_seen.len();
    report
}

/// Table 9 residual rates for one site: failures left after removing the
/// site's server-side episode hours and each client's own episode hours
/// (connection- or transaction-visible).
#[allow(clippy::too_many_arguments)]
pub fn table9_row(
    ds: &Dataset,
    permanent: &NaivePermanent,
    client_grid: &NaiveGrid,
    txn_grid: &NaiveGrid,
    server_grid: &NaiveGrid,
    site: model::SiteId,
    f: f64,
    min_samples: u32,
) -> Table9Row {
    let server_episodes: BTreeSet<u32> = server_grid
        .episode_hours(site.0 as usize, f, min_samples)
        .into_iter()
        .collect();
    let mut per_client: Vec<ResidualRate> = (0..ds.clients.len())
        .map(|_| ResidualRate {
            transactions: 0,
            residual_failures: 0,
        })
        .collect();
    for r in &ds.records {
        if r.site != site || permanent.contains(r.client, r.site) {
            continue;
        }
        let e = &mut per_client[r.client.0 as usize];
        e.transactions += 1;
        let row = r.client.0 as usize;
        let client_in_episode = client_grid.is_episode(row, r.hour(), f, min_samples)
            || txn_grid.is_episode(row, r.hour(), f, min_samples);
        if r.failed() && !server_episodes.contains(&r.hour()) && !client_in_episode {
            e.residual_failures += 1;
        }
    }
    let mut proxied = Vec::new();
    let mut external = None;
    let mut non_cn = ResidualRate {
        transactions: 0,
        residual_failures: 0,
    };
    for (i, meta) in ds.clients.iter().enumerate() {
        let rr = per_client[i].clone();
        if meta.category == ClientCategory::CorpNet {
            if meta.proxy.is_some() {
                proxied.push((meta.id, rr));
            } else {
                external = Some((meta.id, rr));
            }
        } else {
            non_cn.transactions += rr.transactions;
            non_cn.residual_failures += rr.residual_failures;
        }
    }
    Table9Row {
        site,
        proxied,
        external,
        non_cn,
    }
}

/// Sites whose residual failures are shared across every proxy.
pub fn shared_proxy_sites(
    ds: &Dataset,
    rows: &[Table9Row],
    min_rate: f64,
    dominance: f64,
) -> Vec<SharedProxySite> {
    let mut out = Vec::new();
    for (site, row) in ds.sites.iter().zip(rows) {
        debug_assert_eq!(site.id, row.site);
        if row.proxied.is_empty() {
            continue;
        }
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
                site: site.id,
                min_proxied_rate,
                non_cn_rate,
                external_rate,
            });
        }
    }
    out.sort_by(|a, b| b.min_proxied_rate.total_cmp(&a.min_proxied_rate));
    out
}

/// Every artifact the differential checker compares.
#[derive(Clone, Debug)]
pub struct OracleArtifacts {
    /// Table 3 (per-category transaction/connection counts).
    pub table3: Vec<CategorySummary>,
    /// Overall failure breakdown over the non-proxied categories.
    pub overall: FailureBreakdown,
    /// Figure 4 CDFs and knees.
    pub figure4: Figure4,
    /// Table 5 at the configured threshold.
    pub table5: BlameBreakdown,
    /// Table 5 at the conservative threshold (f = 10%).
    pub table5_conservative: BlameBreakdown,
    /// Table 5 over failed transactions against the outcome grids (DNS
    /// failures included, access-policy resets in "other").
    pub table5_outcome: BlameBreakdown,
    /// Client-axis transaction-outcome grid.
    pub client_outcome: NaiveOutcomeGrid,
    /// Site-axis transaction-outcome grid.
    pub server_outcome: NaiveOutcomeGrid,
    /// Section 4.4.5 server-side episode statistics.
    pub server_episodes: ServerEpisodeStats,
    /// Severe BGP instability, neighbor rule.
    pub severe_neighbors: SevereInstabilityReport,
    /// Severe BGP instability, withdrawals-and-neighbors rule.
    pub severe_alt: SevereInstabilityReport,
    /// Client-server-specific episodes.
    pub pair_episodes: PairEpisodeReport,
    /// Near-permanent pair detection with impact shares.
    pub permanent: NaivePermanent,
    /// Table 9 residual rates, one row per site in site order.
    pub table9: Vec<Table9Row>,
    /// Shared-proxy defect sites at [`SHARED_PROXY_PARAMS`].
    pub shared_proxy: Vec<SharedProxySite>,
}

/// Run every reference analysis over `ds` under `cfg`'s thresholds.
///
/// `cfg.threads` is deliberately ignored — the whole point is a serial
/// scan. The conservative Table 5 row reuses the same grids at f = 10%,
/// as the report's `Analysis::at(0.10)` view does.
pub fn analyze(ds: &Dataset, cfg: &AnalysisConfig) -> OracleArtifacts {
    let f = cfg.episode_threshold;
    let min = cfg.min_hour_samples;
    let permanent = permanent_pairs(ds, cfg);

    let mut client_grid = NaiveGrid::new(ds.clients.len(), ds.hours);
    let mut server_grid = NaiveGrid::new(ds.sites.len(), ds.hours);
    for c in &ds.connections {
        if permanent.contains(c.client, c.site) {
            continue;
        }
        client_grid.add(c.client.0 as usize, c.hour(), c.failed());
        server_grid.add(c.site.0 as usize, c.hour(), c.failed());
    }
    let mut txn_grid = NaiveGrid::new(ds.clients.len(), ds.hours);
    for r in &ds.records {
        if permanent.contains(r.client, r.site) {
            continue;
        }
        txn_grid.add(r.client.0 as usize, r.hour(), r.failed());
    }
    let (client_outcome, server_outcome) = transaction_outcome_grids(ds, &permanent, cfg);

    let clients_cdf = rate_cdf(&client_grid.all_rates(min));
    let servers_cdf = rate_cdf(&server_grid.all_rates(min));
    let figure4 = Figure4 {
        client_knee: knee(&clients_cdf),
        server_knee: knee(&servers_cdf),
        clients: clients_cdf,
        servers: servers_cdf,
    };

    let pgrid = prefix_grid(ds, &permanent);
    let neighbors_rule = SeverityRule::Neighbors(cfg.severe_neighbors);
    let alt_rule = SeverityRule::WithdrawalsAndNeighbors(cfg.alt_withdrawals, cfg.alt_neighbors);

    let table9: Vec<Table9Row> = ds
        .sites
        .iter()
        .map(|s| {
            table9_row(
                ds,
                &permanent,
                &client_grid,
                &txn_grid,
                &server_grid,
                s.id,
                f,
                min,
            )
        })
        .collect();
    let (min_rate, dominance) = SHARED_PROXY_PARAMS;
    let shared_proxy = shared_proxy_sites(ds, &table9, min_rate, dominance);

    OracleArtifacts {
        table3: table3(ds),
        overall: overall_breakdown(ds),
        figure4,
        table5: table5(ds, &permanent, &client_grid, &server_grid, f, min),
        table5_conservative: table5(ds, &permanent, &client_grid, &server_grid, 0.10, min),
        table5_outcome: table5_outcome(ds, &permanent, &client_outcome, &server_outcome, cfg),
        server_episodes: server_episode_stats(ds, &server_grid, f, min),
        severe_neighbors: severe_instability(ds, &pgrid, neighbors_rule, min),
        severe_alt: severe_instability(ds, &pgrid, alt_rule, min),
        pair_episodes: pair_episodes(
            ds,
            &permanent,
            &client_grid,
            &server_grid,
            &client_outcome,
            &server_outcome,
            f,
            min,
            PairEpisodeConfig::default(),
        ),
        client_outcome,
        server_outcome,
        permanent,
        table9,
        shared_proxy,
    }
}

/// A helper mirroring [`CategorySummary::transaction_failure_rate`] for
/// sanity checks in tests.
pub fn transaction_failure_rate(row: &CategorySummary) -> f64 {
    rate_u64(row.failed_transactions, row.transactions)
}
