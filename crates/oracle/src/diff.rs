//! The differential checker: optimized analyses vs naive oracle.
//!
//! [`check_dataset`] runs both sides over one dataset and compares every
//! artifact **field by field**. Integer counters must be equal; `f64`
//! values must be bit-identical (compared through [`f64::to_bits`], so
//! `NaN != NaN` noise cannot mask a real divergence and `-0.0` vs `0.0`
//! is flagged). Both sides compute each rate as a single division of
//! identical integer operands, so bitwise equality is the honest contract
//! — any mismatch is a semantic divergence, never float noise.

use crate::naive::{self, OracleArtifacts};
use model::Dataset;
use netprofiler::bgp_corr::{self, SeverityRule};
use netprofiler::pair_episodes::{self, PairEpisodeConfig};
use netprofiler::proxy_analysis::{
    residual_table, shared_proxy_sites, SharedProxySite, Table9Row, SHARED_PROXY_PARAMS,
};
use netprofiler::{blame, episodes, summary, Analysis, AnalysisConfig};
use std::fmt::Debug;

/// Accumulated field-level mismatches from one differential run.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    mismatches: Vec<String>,
}

impl DiffReport {
    /// Did every field match?
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Every mismatch, as `path: optimized=… oracle=…` lines.
    pub fn mismatches(&self) -> &[String] {
        &self.mismatches
    }

    /// A readable multi-line rendering, capped at 50 mismatch lines.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return "differential check clean: every field matches the oracle".to_string();
        }
        let mut out = format!(
            "differential check FAILED: {} field(s) diverge from the oracle\n",
            self.mismatches.len()
        );
        for line in self.mismatches.iter().take(50) {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        if self.mismatches.len() > 50 {
            out.push_str(&format!("  … and {} more\n", self.mismatches.len() - 50));
        }
        out
    }

    fn eq<T: PartialEq + Debug>(&mut self, path: &str, optimized: T, oracle: T) {
        if optimized != oracle {
            self.mismatches
                .push(format!("{path}: optimized={optimized:?} oracle={oracle:?}"));
        }
    }

    /// Bitwise f64 equality: `to_bits` catches NaN-vs-NaN and -0.0-vs-0.0.
    fn f64(&mut self, path: &str, optimized: f64, oracle: f64) {
        if optimized.to_bits() != oracle.to_bits() {
            self.mismatches
                .push(format!("{path}: optimized={optimized:?} oracle={oracle:?}"));
        }
    }

    fn opt_f64(&mut self, path: &str, optimized: Option<f64>, oracle: Option<f64>) {
        if optimized.map(f64::to_bits) != oracle.map(f64::to_bits) {
            self.mismatches
                .push(format!("{path}: optimized={optimized:?} oracle={oracle:?}"));
        }
    }

    fn points(&mut self, path: &str, optimized: &[(f64, f64)], oracle: &[(f64, f64)]) {
        self.eq(&format!("{path}.len"), optimized.len(), oracle.len());
        for (i, (o, n)) in optimized.iter().zip(oracle).enumerate() {
            self.f64(&format!("{path}[{i}].rate"), o.0, n.0);
            self.f64(&format!("{path}[{i}].cum"), o.1, n.1);
        }
    }
}

/// Run the optimized analyses over `ds` and diff them against a freshly
/// computed oracle. `cfg.threads` drives only the optimized side.
pub fn check_dataset(ds: &Dataset, cfg: AnalysisConfig) -> DiffReport {
    let oracle = naive::analyze(ds, &cfg);
    check_dataset_with_oracle(ds, cfg, &oracle)
}

/// Like [`check_dataset`], but reuse an already-computed oracle — the
/// oracle is thread-independent, so one computation serves every thread
/// count the optimized side is exercised at.
///
/// The optimized side indexes `ds` once, as the report does, and computes
/// each artifact with the call the report's renderers make: on that index
/// at `cfg`'s threshold, and on its f = 10% view for Table 5's second row.
pub fn check_dataset_with_oracle(
    ds: &Dataset,
    cfg: AnalysisConfig,
    oracle: &OracleArtifacts,
) -> DiffReport {
    let a5 = Analysis::new(ds, cfg);
    let table9 = residual_table(&a5);
    let (min_rate, dominance) = SHARED_PROXY_PARAMS;
    let shared = shared_proxy_sites(&table9, min_rate, dominance);

    let mut d = DiffReport::default();
    diff_headline(&mut d, &a5, &a5.at(0.10), oracle);
    diff_permanent(&mut d, &a5, oracle);
    diff_outcome_grids(&mut d, &a5, oracle);
    d.eq(
        "table5_outcome",
        blame::table5_outcome(&a5),
        oracle.table5_outcome.clone(),
    );
    diff_table9(&mut d, &table9, oracle);
    diff_shared_proxy(&mut d, &shared, oracle);
    d
}

/// Diff every cell and per-cell peer-max of both transaction-outcome grids
/// against the sparse naive twins. The dense optimized grid and the sparse
/// oracle agree exactly when every `(attempts, failures, peer_max)` triple
/// matches over the full `rows × hours` domain.
fn diff_outcome_grids(d: &mut DiffReport, analysis: &Analysis<'_>, oracle: &OracleArtifacts) {
    for (name, opt, nai) in [
        ("client_outcome", &analysis.client_outcome, &oracle.client_outcome),
        ("server_outcome", &analysis.server_outcome, &oracle.server_outcome),
    ] {
        d.eq(
            &format!("{name}.rows"),
            opt.grid.rows(),
            nai.grid.rows(),
        );
        let rows = opt.grid.rows().min(nai.grid.rows());
        for row in 0..rows {
            for hour in 0..opt.grid.hours() {
                let o = opt.grid.cell(row, hour);
                let n = nai.grid.cell(row, hour);
                if o != n {
                    d.eq(&format!("{name}.cell[{row}][{hour}]"), o, n);
                }
                let (om, nm) = (opt.peer_max(row, hour), nai.peer_max(row, hour));
                if om != nm {
                    d.eq(&format!("{name}.peer_max[{row}][{hour}]"), om, nm);
                }
            }
        }
    }
}

/// Diff the optimized attribution audit's confusion matrix and archetype
/// detection tallies against a fresh naive recount over the same
/// provenance log. The overlap metrics are exempt — set algebra over
/// already-diffed artifacts (episode hours, permanent pairs, severe
/// instances) — as are the weighted agreement and each archetype's
/// `inferred_class_total` and samples, which are arithmetic over the
/// diffed matrix cells and tallies.
pub fn check_audit(
    ds: &Dataset,
    cfg: AnalysisConfig,
    log: &model::ProvenanceLog,
) -> DiffReport {
    let analysis = Analysis::new(ds, cfg);
    let optimized = netprofiler::audit::audit(&analysis, log);

    let permanent = naive::permanent_pairs(ds, &cfg);
    let (client_outcome, server_outcome) = naive::transaction_outcome_grids(ds, &permanent, &cfg);
    let oracle = naive::blame_confusion(
        ds,
        log,
        &permanent,
        &client_outcome,
        &server_outcome,
        &cfg,
    );

    let mut d = DiffReport::default();
    for i in 0..netprofiler::audit::CLASSES {
        for j in 0..netprofiler::audit::CLASSES {
            d.eq(
                &format!(
                    "audit.confusion[{}][{}]",
                    netprofiler::audit::CLASS_LABELS[i],
                    netprofiler::audit::CLASS_LABELS[j]
                ),
                optimized.blame.matrix[i][j],
                oracle.matrix[i][j],
            );
        }
    }
    d.eq(
        "audit.skipped_proxied",
        optimized.blame.skipped_proxied,
        oracle.skipped_proxied,
    );
    d.eq(
        "audit.skipped_permanent",
        optimized.blame.skipped_permanent,
        oracle.skipped_permanent,
    );
    let arch_oracle = naive::archetype_tallies(
        ds,
        log,
        &permanent,
        &client_outcome,
        &server_outcome,
        &cfg,
    );
    d.eq(
        "audit.archetypes.len",
        optimized.archetypes.len(),
        arch_oracle.len(),
    );
    for (score, (name, truth, detected)) in optimized.archetypes.iter().zip(arch_oracle) {
        d.eq(&format!("audit.archetype[{name}].name"), score.name, name);
        d.eq(&format!("audit.archetype[{name}].truth"), score.truth, truth);
        d.eq(
            &format!("audit.archetype[{name}].detected"),
            score.detected,
            detected,
        );
    }
    d
}

/// Diff the headline artifacts of the report against the oracle. Table 3
/// and the Figure 1 breakdown run at `a5`'s thread count, so the sharded
/// scans behind the renderers' all-cores calls are checked at every
/// thread count the caller sweeps.
fn diff_headline(
    d: &mut DiffReport,
    a5: &Analysis<'_>,
    a10: &Analysis<'_>,
    oracle: &OracleArtifacts,
) {
    let threads = a5.config.threads;

    // Table 3.
    let table3 = summary::table3_with_threads(&a5.cds, threads);
    d.eq("table3.len", table3.len(), oracle.table3.len());
    for (o, n) in table3.iter().zip(&oracle.table3) {
        let p = format!("table3[{:?}]", n.category);
        d.eq(&format!("{p}.category"), o.category, n.category);
        d.eq(&format!("{p}.transactions"), o.transactions, n.transactions);
        d.eq(
            &format!("{p}.failed_transactions"),
            o.failed_transactions,
            n.failed_transactions,
        );
        d.eq(&format!("{p}.connections"), o.connections, n.connections);
        d.eq(
            &format!("{p}.failed_connections"),
            o.failed_connections,
            n.failed_connections,
        );
    }

    // Figure 1 breakdown.
    let overall = summary::overall_breakdown_with_threads(&a5.cds, threads);
    d.eq("overall.dns", overall.dns, oracle.overall.dns);
    d.eq("overall.tcp", overall.tcp, oracle.overall.tcp);
    d.eq("overall.http", overall.http, oracle.overall.http);

    // Figure 4.
    let figure4 = episodes::figure4(a5);
    d.eq(
        "figure4.clients.samples",
        figure4.clients.samples,
        oracle.figure4.clients.samples,
    );
    d.eq(
        "figure4.servers.samples",
        figure4.servers.samples,
        oracle.figure4.servers.samples,
    );
    d.points(
        "figure4.clients.points",
        &figure4.clients.points,
        &oracle.figure4.clients.points,
    );
    d.points(
        "figure4.servers.points",
        &figure4.servers.points,
        &oracle.figure4.servers.points,
    );
    d.opt_f64(
        "figure4.client_knee",
        figure4.client_knee,
        oracle.figure4.client_knee,
    );
    d.opt_f64(
        "figure4.server_knee",
        figure4.server_knee,
        oracle.figure4.server_knee,
    );

    // Table 5, both thresholds.
    for (name, o, n) in [
        ("table5", blame::table5(a5), &oracle.table5),
        (
            "table5_conservative",
            blame::table5(a10),
            &oracle.table5_conservative,
        ),
    ] {
        d.eq(&format!("{name}.server_side"), o.server_side, n.server_side);
        d.eq(&format!("{name}.client_side"), o.client_side, n.client_side);
        d.eq(&format!("{name}.both"), o.both, n.both);
        d.eq(&format!("{name}.other"), o.other, n.other);
    }

    // Server episode statistics.
    let (o, n) = (&blame::server_episode_stats(a5), &oracle.server_episodes);
    d.eq("server_episodes.total_hours", o.total_hours, n.total_hours);
    d.eq("server_episodes.coalesced", o.coalesced, n.coalesced);
    d.f64(
        "server_episodes.mean_run_hours",
        o.mean_run_hours,
        n.mean_run_hours,
    );
    d.eq(
        "server_episodes.median_run_hours",
        o.median_run_hours,
        n.median_run_hours,
    );
    d.eq(
        "server_episodes.max_run_hours",
        o.max_run_hours,
        n.max_run_hours,
    );
    d.eq(
        "server_episodes.servers_affected",
        o.servers_affected,
        n.servers_affected,
    );
    d.eq(
        "server_episodes.servers_multiple",
        o.servers_multiple,
        n.servers_multiple,
    );
    d.eq(
        "server_episodes.per_server_hours",
        &o.per_server_hours,
        &n.per_server_hours,
    );

    // Severe BGP instability, both rules.
    let cfg = &a5.config;
    let grid = bgp_corr::prefix_grid(a5);
    let severe = |rule| bgp_corr::severe_instability_with_grid(a5, rule, &grid);
    for (name, o, n) in [
        (
            "severe_neighbors",
            severe(SeverityRule::Neighbors(cfg.severe_neighbors)),
            &oracle.severe_neighbors,
        ),
        (
            "severe_alt",
            severe(SeverityRule::WithdrawalsAndNeighbors(
                cfg.alt_withdrawals,
                cfg.alt_neighbors,
            )),
            &oracle.severe_alt,
        ),
    ] {
        d.f64(
            &format!("{name}.fraction_above_5pct"),
            o.fraction_above_5pct,
            n.fraction_above_5pct,
        );
        d.f64(
            &format!("{name}.fraction_above_10pct"),
            o.fraction_above_10pct,
            n.fraction_above_10pct,
        );
        d.f64(
            &format!("{name}.fraction_above_20pct"),
            o.fraction_above_20pct,
            n.fraction_above_20pct,
        );
        d.eq(
            &format!("{name}.instances.len"),
            o.instances.len(),
            n.instances.len(),
        );
        for (i, (oi, ni)) in o.instances.iter().zip(&n.instances).enumerate() {
            let p = format!("{name}.instances[{i}]");
            d.eq(&format!("{p}.prefix"), oi.prefix, ni.prefix);
            d.eq(&format!("{p}.hour"), oi.hour, ni.hour);
            d.eq(&format!("{p}.bgp"), oi.bgp, ni.bgp);
            d.eq(&format!("{p}.attempts"), oi.attempts, ni.attempts);
            d.opt_f64(
                &format!("{p}.tcp_failure_rate"),
                oi.tcp_failure_rate,
                ni.tcp_failure_rate,
            );
        }
    }

    // Pair episodes.
    let (o, n) = (
        &pair_episodes::detect(a5, PairEpisodeConfig::default()),
        &oracle.pair_episodes,
    );
    d.eq(
        "pair_episodes.shadowed_by_endpoint",
        o.shadowed_by_endpoint,
        n.shadowed_by_endpoint,
    );
    d.eq(
        "pair_episodes.distinct_pairs",
        o.distinct_pairs,
        n.distinct_pairs,
    );
    d.eq(
        "pair_episodes.episodes.len",
        o.episodes.len(),
        n.episodes.len(),
    );
    for (i, (oe, ne)) in o.episodes.iter().zip(&n.episodes).enumerate() {
        let p = format!("pair_episodes.episodes[{i}]");
        d.eq(&format!("{p}.client"), oe.client, ne.client);
        d.eq(&format!("{p}.site"), oe.site, ne.site);
        d.eq(&format!("{p}.window"), oe.window, ne.window);
        d.eq(&format!("{p}.attempts"), oe.attempts, ne.attempts);
        d.eq(&format!("{p}.failures"), oe.failures, ne.failures);
    }

    d.eq(
        "permanent_pairs",
        a5.permanent.len(),
        oracle.permanent.pairs.len(),
    );
}

fn diff_permanent(d: &mut DiffReport, analysis: &Analysis<'_>, oracle: &OracleArtifacts) {
    let (o, n) = (&analysis.permanent, &oracle.permanent);
    d.eq("permanent.detail.len", o.detail.len(), n.detail.len());
    for (i, (op, np)) in o.detail.iter().zip(&n.detail).enumerate() {
        let p = format!("permanent.detail[{i}]");
        d.eq(&format!("{p}.client"), op.client, np.client);
        d.eq(&format!("{p}.site"), op.site, np.site);
        d.eq(&format!("{p}.transactions"), op.transactions, np.transactions);
        d.eq(&format!("{p}.failed"), op.failed, np.failed);
    }
    d.f64(
        "permanent.share_of_transaction_failures",
        o.share_of_transaction_failures,
        n.share_of_transaction_failures,
    );
    d.f64(
        "permanent.share_of_connection_failures",
        o.share_of_connection_failures,
        n.share_of_connection_failures,
    );
}

fn diff_table9(d: &mut DiffReport, optimized: &[Table9Row], oracle: &OracleArtifacts) {
    d.eq("table9.len", optimized.len(), oracle.table9.len());
    for (o, n) in optimized.iter().zip(&oracle.table9) {
        let p = format!("table9[site {}]", n.site.0);
        d.eq(&format!("{p}.site"), o.site, n.site);
        d.eq(&format!("{p}.proxied.len"), o.proxied.len(), n.proxied.len());
        for (i, ((oc, orr), (nc, nrr))) in o.proxied.iter().zip(&n.proxied).enumerate() {
            d.eq(&format!("{p}.proxied[{i}].client"), oc, nc);
            d.eq(
                &format!("{p}.proxied[{i}].transactions"),
                orr.transactions,
                nrr.transactions,
            );
            d.eq(
                &format!("{p}.proxied[{i}].residual_failures"),
                orr.residual_failures,
                nrr.residual_failures,
            );
        }
        match (&o.external, &n.external) {
            (Some((oc, orr)), Some((nc, nrr))) => {
                d.eq(&format!("{p}.external.client"), oc, nc);
                d.eq(
                    &format!("{p}.external.transactions"),
                    orr.transactions,
                    nrr.transactions,
                );
                d.eq(
                    &format!("{p}.external.residual_failures"),
                    orr.residual_failures,
                    nrr.residual_failures,
                );
            }
            (None, None) => {}
            (o_ext, n_ext) => d.eq(
                &format!("{p}.external.is_some"),
                o_ext.is_some(),
                n_ext.is_some(),
            ),
        }
        d.eq(
            &format!("{p}.non_cn.transactions"),
            o.non_cn.transactions,
            n.non_cn.transactions,
        );
        d.eq(
            &format!("{p}.non_cn.residual_failures"),
            o.non_cn.residual_failures,
            n.non_cn.residual_failures,
        );
    }
}

fn diff_shared_proxy(d: &mut DiffReport, optimized: &[SharedProxySite], oracle: &OracleArtifacts) {
    d.eq(
        "shared_proxy.len",
        optimized.len(),
        oracle.shared_proxy.len(),
    );
    for (i, (o, n)) in optimized.iter().zip(&oracle.shared_proxy).enumerate() {
        let p = format!("shared_proxy[{i}]");
        d.eq(&format!("{p}.site"), o.site, n.site);
        d.f64(
            &format!("{p}.min_proxied_rate"),
            o.min_proxied_rate,
            n.min_proxied_rate,
        );
        d.f64(&format!("{p}.non_cn_rate"), o.non_cn_rate, n.non_cn_rate);
        d.opt_f64(
            &format!("{p}.external_rate"),
            o.external_rate,
            n.external_rate,
        );
    }
}
