//! One renderer per table/figure of the paper.

use crate::csv::Csv;
use crate::paper::{Comparison, PaperTargets};
use crate::table::{count, pct, pct2, TextTable};
use model::{ClientCategory, ColumnarDataset, Dataset, DnsFailureKind, SiteId};
use netprofiler::bgp_corr::{self, SeverityRule};
use netprofiler::episodes::figure4;
use netprofiler::{
    blame, dns_analysis, loss_corr, proxy_analysis, replicas, similarity, spread, summary,
    tcp_analysis, Analysis, AnalysisConfig,
};

/// Render every table and figure into one string, in the `reproduce` binary's
/// emission order, with `==== id ====` section headers.
///
/// This is the bit-for-bit comparison surface for the determinism checks:
/// two runs (any thread counts, profiling on or off) must produce identical
/// output here. The dataset is indexed once under `config`; the
/// conservative (f = 10%) analysis is a view of that index.
pub fn render_all(ds: &Dataset, config: AnalysisConfig, seed: u64) -> String {
    let _span = telemetry::span!("report.render_all");
    let a5 = Analysis::new(ds, config);
    let a10 = a5.at(0.10);
    let mut out = String::new();
    let mut emit = |id: &str, body: &str| {
        out.push_str("==== ");
        out.push_str(id);
        out.push_str(" ====\n");
        out.push_str(body);
        out.push('\n');
    };
    for (id, body) in paper_blocks(ds, &a5, &a10, seed) {
        emit(id, &body);
    }
    let comps = comparisons(ds, &a5, &a10);
    emit(
        "compare",
        &comps.iter().map(|c| c.line() + "\n").collect::<String>(),
    );
    out
}

/// The id of every block [`paper_blocks`] emits, in emission order.
/// `fig5` and `fig7` are left out when the dataset has no such client.
pub const PAPER_BLOCK_IDS: [&str; 25] = [
    "table1",
    "table2",
    "table3",
    "fig1",
    "table4",
    "fig2",
    "fig3",
    "permanent",
    "fig4",
    "table5",
    "episodes",
    "table6",
    "table7",
    "table8",
    "replicas",
    "bgp",
    "fig5",
    "fig6",
    "fig7",
    "table9",
    "pairs",
    "medians",
    "timing",
    "loss",
    "digcheck",
];

/// Every paper table/figure as `(id, text block)`, in the `reproduce`
/// emission order — the single source both [`render_all`] (the text
/// fingerprint surface) and the HTML [`PaperSection`] draw from, so the
/// two can never drift. Excludes the `compare` block, which
/// [`comparisons`] provides in structured form.
pub fn paper_blocks(
    ds: &Dataset,
    a5: &Analysis<'_>,
    a10: &Analysis<'_>,
    seed: u64,
) -> Vec<(&'static str, String)> {
    let mut blocks: Vec<(&'static str, String)> = vec![
        ("table1", render_table1(ds)),
        ("table2", render_table2(ds)),
        ("table3", render_table3(&a5.cds)),
        ("fig1", render_figure1(&a5.cds)),
        ("table4", render_table4(ds)),
        ("fig2", render_figure2(ds)),
        ("fig3", render_figure3(ds)),
        ("permanent", render_permanent(a5)),
        ("fig4", render_figure4(a5)),
        ("table5", render_table5(a5, a10)),
        ("episodes", render_episode_stats(a5)),
        ("table6", render_table6(a5, 12)),
        ("table7", render_table7(a5, seed)),
        ("table8", render_table8(a5, 8)),
        ("replicas", render_replicas(a5)),
        ("bgp", render_bgp(a5)),
    ];
    if let Some(csv) = render_client_timeseries_csv(ds, "howard") {
        blocks.push(("fig5", csv));
    }
    blocks.push(("fig6", render_figure6_csv(a5)));
    if let Some(csv) = render_client_timeseries_csv(ds, "kscy") {
        blocks.push(("fig7", csv));
    }
    blocks.push(("table9", render_table9(a5, &["iitb", "royal"])));
    blocks.push(("pairs", render_pair_episodes(a5)));
    blocks.push(("medians", render_medians(&a5.cds)));
    blocks.push(("timing", render_timing(ds)));
    blocks.push(("loss", render_loss(ds)));
    blocks.push(("digcheck", render_digcheck(ds)));
    blocks
}

/// The paper's tables and figures as an HTML report section: each text
/// block verbatim in a `<pre>` (escaped), under its `==== id ====` anchor.
/// The blocks are the same strings `render_all` emits, so the page shows
/// exactly what the fingerprint surface contains.
pub struct PaperSection {
    pub blocks: Vec<(&'static str, String)>,
}

impl crate::html::Section for PaperSection {
    fn id(&self) -> &'static str {
        "paper"
    }

    fn title(&self) -> String {
        "Paper tables and figures".to_string()
    }

    fn build(&self, out: &mut crate::html::SectionBuilder) {
        for (id, body) in &self.blocks {
            out.subheading(&format!("paper-{id}"), id);
            out.preformatted(body.trim_end());
        }
    }
}

/// Table 1: the client fleet.
pub fn render_table1(ds: &Dataset) -> String {
    let mut t = TextTable::new(["category", "clients", "co-located pairs", "proxied"])
        .with_title("Table 1: clients")
        .right_align(&[1, 2, 3]);
    for cat in ClientCategory::ALL {
        let members: Vec<_> = ds.clients_in(cat).collect();
        let pairs = ds
            .colocated_pairs()
            .iter()
            .filter(|(a, _)| ds.client(*a).category == cat)
            .count();
        let proxied = members.iter().filter(|c| c.proxy.is_some()).count();
        t.row([
            cat.abbrev().to_string(),
            members.len().to_string(),
            pairs.to_string(),
            proxied.to_string(),
        ]);
    }
    t.row([
        "total".to_string(),
        ds.clients.len().to_string(),
        ds.colocated_pairs().len().to_string(),
        ds.clients.iter().filter(|c| c.proxy.is_some()).count().to_string(),
    ]);
    t.render()
}

/// Table 2: the websites by category.
pub fn render_table2(ds: &Dataset) -> String {
    let mut t = TextTable::new(["category", "sites", "example hosts"])
        .with_title("Table 2: websites")
        .right_align(&[1]);
    for cat in model::SiteCategory::ALL {
        let members: Vec<_> = ds.sites.iter().filter(|s| s.category == cat).collect();
        let examples: Vec<&str> = members
            .iter()
            .take(3)
            .map(|s| s.hostname.as_str())
            .collect();
        t.row([
            cat.label().to_string(),
            members.len().to_string(),
            examples.join(", "),
        ]);
    }
    t.render()
}

/// Table 3: transaction/connection counts and failure rates per category.
pub fn render_table3(cds: &ColumnarDataset) -> String {
    let mut t = TextTable::new([
        "category",
        "trans.",
        "failed trans.",
        "conn.",
        "failed conn.",
    ])
    .with_title("Table 3: overall transaction and connection counts")
    .right_align(&[1, 2, 3, 4]);
    for row in summary::table3(cds) {
        t.row([
            row.category.abbrev().to_string(),
            count(row.transactions),
            format!(
                "{} ({})",
                count(row.failed_transactions),
                pct(row.transaction_failure_rate())
            ),
            row.connections.map_or("N/A".into(), count),
            match (row.failed_connections, row.connection_failure_rate()) {
                (Some(f), Some(r)) => format!("{} ({})", count(f), pct(r)),
                _ => "N/A".into(),
            },
        ]);
    }
    t.render()
}

/// Figure 1: failure rate and breakdown per category.
pub fn render_figure1(cds: &ColumnarDataset) -> String {
    let mut t = TextTable::new(["category", "failure rate", "DNS", "TCP", "HTTP"])
        .with_title("Figure 1: transaction failure rate and breakdown by type")
        .right_align(&[1, 2, 3, 4]);
    for (cat, rate, breakdown) in summary::figure1(cds) {
        match breakdown {
            Some(b) => t.row([
                cat.abbrev().to_string(),
                pct2(rate),
                pct(b.dns_share()),
                pct(b.tcp_share()),
                pct(b.http_share()),
            ]),
            None => t.row([
                cat.abbrev().to_string(),
                pct2(rate),
                "(masked)".into(),
                "(masked)".into(),
                "(masked)".into(),
            ]),
        };
    }
    t.render()
}

/// Table 4: DNS failure breakdown per category.
pub fn render_table4(ds: &Dataset) -> String {
    let mut t = TextTable::new([
        "category",
        "failures",
        "LDNS timeout",
        "non-LDNS timeout",
        "error",
    ])
    .with_title("Table 4: breakdown of DNS failures")
    .right_align(&[1, 2, 3, 4]);
    for cat in [
        ClientCategory::PlanetLab,
        ClientCategory::Broadband,
        ClientCategory::Dialup,
    ] {
        let b = dns_analysis::dns_breakdown(ds, cat);
        t.row([
            cat.abbrev().to_string(),
            count(b.total),
            pct(b.ldns_share()),
            pct(b.non_ldns_share()),
            pct(b.error_share()),
        ]);
    }
    t.render()
}

/// Figure 2: domain concentration of DNS failure categories.
pub fn render_figure2(ds: &Dataset) -> String {
    let all = dns_analysis::domain_concentration(ds, |_| true);
    let ldns = dns_analysis::domain_concentration(ds, |k| k == DnsFailureKind::LdnsTimeout);
    let errors =
        dns_analysis::domain_concentration(ds, |k| matches!(k, DnsFailureKind::ErrorResponse(_)));
    let non_ldns = dns_analysis::domain_concentration(ds, |k| k == DnsFailureKind::NonLdnsTimeout);

    let mut t = TextTable::new([
        "DNS failure class",
        "domains hit",
        "top-domain share",
        "domains for 50%",
        "skew",
    ])
    .with_title("Figure 2: contribution of website domains to DNS failures")
    .right_align(&[1, 2, 3, 4]);
    for (name, c) in [
        ("all DNS failures", &all),
        ("LDNS timeouts", &ldns),
        ("non-LDNS timeouts", &non_ldns),
        ("error responses", &errors),
    ] {
        t.row([
            name.to_string(),
            c.per_site.len().to_string(),
            pct(c.top_share()),
            c.sites_to_cover(0.5).to_string(),
            format!("{:.2}", c.skew()),
        ]);
    }
    let mut out = t.render();
    if let Some((site, n)) = errors.per_site.first() {
        out.push_str(&format!(
            "top error-response domain: {} ({} failures, {})\n",
            ds.site(SiteId(*site)).hostname,
            n,
            pct(errors.top_share())
        ));
    }
    out
}

/// Figure 3: TCP connection-failure breakdown.
pub fn render_figure3(ds: &Dataset) -> String {
    let mut t = TextTable::new([
        "category",
        "failed conn.",
        "no connection",
        "no response",
        "partial response",
        "no/partial (untraced)",
    ])
    .with_title("Figure 3: breakdown of TCP connection failures")
    .right_align(&[1, 2, 3, 4, 5]);
    for (cat, b) in tcp_analysis::figure3(ds) {
        if cat == ClientCategory::CorpNet {
            continue; // masked by the proxies, as in the paper
        }
        t.row([
            cat.abbrev().to_string(),
            count(b.total),
            pct(b.no_connection_share()),
            pct(b.no_response_share()),
            pct(b.partial_response_share()),
            pct(b.no_or_partial_share()),
        ]);
    }
    let mut out = t.render();
    let h = tcp_analysis::syn_retx_histogram(ds);
    out.push_str(&format!(
        "SYN retransmissions: {} of successful connections needed any; {} of failed
         connections exhausted the schedule (the Section 5 burst-loss signature)
",
        pct(h.ok_retx_share()),
        pct(h.failed_exhausted_share()),
    ));
    out
}

/// §4.4.2: near-permanent pairs.
pub fn render_permanent(analysis: &Analysis<'_>) -> String {
    let p = &analysis.permanent;
    let mut out = format!(
        "Near-permanent pairs: {} (of {} client-site pairs)\n\
         share of connection failures: {}\n\
         share of transaction failures: {}\n",
        p.len(),
        analysis.ds.clients.len() * analysis.ds.sites.len(),
        pct(p.share_of_connection_failures),
        pct(p.share_of_transaction_failures),
    );
    let mut t = TextTable::new(["client", "site", "transactions", "failure rate"])
        .right_align(&[2, 3]);
    for pair in p.detail.iter().take(12) {
        t.row([
            analysis.ds.client(pair.client).name.clone(),
            analysis.ds.site(pair.site).hostname.clone(),
            pair.transactions.to_string(),
            pct(pair.failure_rate()),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Figure 4: the episode-rate CDFs and knees.
pub fn render_figure4(analysis: &Analysis<'_>) -> String {
    let f4 = figure4(analysis);
    let mut t = TextTable::new(["quantile", "client rate", "server rate"])
        .with_title("Figure 4: CDF of hourly failure rates (clients & servers)")
        .right_align(&[1, 2]);
    let client_rates: Vec<f64> = f4.clients.points.iter().map(|(r, _)| *r).collect();
    let _ = client_rates;
    for q in [0.5, 0.75, 0.9, 0.95, 0.99] {
        let cq = invert_cdf(&f4.clients, q);
        let sq = invert_cdf(&f4.servers, q);
        t.row([format!("p{:.0}", q * 100.0), pct2(cq), pct2(sq)]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "knee (clients): {}   knee (servers): {}   [thresholds f=5%/10% per the paper]\n",
        f4.client_knee.map_or("n/a".into(), pct2),
        f4.server_knee.map_or("n/a".into(), pct2),
    ));
    out
}

fn invert_cdf(cdf: &netprofiler::episodes::RateCdf, q: f64) -> f64 {
    cdf.points
        .iter()
        .find(|(_, c)| *c >= q)
        .map(|(r, _)| *r)
        .unwrap_or_else(|| cdf.points.last().map(|(r, _)| *r).unwrap_or(0.0))
}

/// Table 5: blame classification at two thresholds.
pub fn render_table5(a5: &Analysis<'_>, a10: &Analysis<'_>) -> String {
    let mut t = TextTable::new(["classification", "server-side", "client-side", "both", "other"])
        .with_title("Table 5: classification of TCP connection failures")
        .right_align(&[1, 2, 3, 4]);
    for (label, a) in [("f=5%", a5), ("f=10%", a10)] {
        let b = blame::table5(a);
        t.row([
            label.to_string(),
            pct(b.share(blame::BlameClass::ServerSide)),
            pct(b.share(blame::BlameClass::ClientSide)),
            pct(b.share(blame::BlameClass::Both)),
            pct(b.share(blame::BlameClass::Other)),
        ]);
    }
    t.render()
}

/// §4.4.5: server-side episode statistics.
pub fn render_episode_stats(analysis: &Analysis<'_>) -> String {
    let s = blame::server_episode_stats(analysis);
    format!(
        "Server-side failure episodes (f={}):\n\
         total 1-hour episodes: {}\n\
         coalesced runs: {} (mean {:.2} h, median {} h, max {} h)\n\
         servers with ≥1 episode: {} / {}\n\
         servers with multiple runs: {}\n",
        pct(analysis.config.episode_threshold),
        s.total_hours,
        s.coalesced,
        s.mean_run_hours,
        s.median_run_hours,
        s.max_run_hours,
        s.servers_affected,
        analysis.ds.sites.len(),
        s.servers_multiple,
    )
}

/// Table 6: the most failure-prone servers and their spread.
pub fn render_table6(analysis: &Analysis<'_>, top: usize) -> String {
    let rows = spread::table6(analysis);
    let mut t = TextTable::new(["server", "episodes (h)", "ascribed failures", "spread"])
        .with_title("Table 6: most failure-prone servers and spread")
        .right_align(&[1, 2, 3]);
    for r in rows.iter().take(top) {
        t.row([
            analysis.ds.site(r.site).hostname.clone(),
            r.episode_hours.to_string(),
            count(r.ascribed_failures),
            pct(r.spread()),
        ]);
    }
    t.render()
}

/// Table 7: similarity histogram, co-located vs random pairs.
pub fn render_table7(analysis: &Analysis<'_>, seed: u64) -> String {
    let coloc = similarity::colocated_similarities(analysis);
    let random = similarity::random_pair_similarities(analysis, coloc.len(), seed);
    let hc = similarity::SimilarityHistogram::from_pairs(&coloc);
    let hr = similarity::SimilarityHistogram::from_pairs(&random);
    let mut t = TextTable::new(["similarity", "co-located pairs", "random pairs"])
        .with_title("Table 7: client-side episode similarity")
        .right_align(&[1, 2]);
    t.row(["# pairs".to_string(), hc.pairs.to_string(), hr.pairs.to_string()]);
    t.row([">75%".to_string(), hc.above_75.to_string(), hr.above_75.to_string()]);
    t.row(["50–75%".to_string(), hc.from_50_to_75.to_string(), hr.from_50_to_75.to_string()]);
    t.row(["25–50%".to_string(), hc.from_25_to_50.to_string(), hr.from_25_to_50.to_string()]);
    t.row([
        "<25% & >0".to_string(),
        hc.below_25_nonzero.to_string(),
        hr.below_25_nonzero.to_string(),
    ]);
    t.row(["= 0%".to_string(), hc.zero.to_string(), hr.zero.to_string()]);
    t.render()
}

/// Table 8: example co-located pairs.
pub fn render_table8(analysis: &Analysis<'_>, top: usize) -> String {
    let rows = similarity::table8(analysis);
    let mut t = TextTable::new(["client pair", "episodes in union", "similarity"])
        .with_title("Table 8: example co-located pairs")
        .right_align(&[1, 2]);
    for r in rows.iter().take(top) {
        t.row([
            format!(
                "{} / {}",
                analysis.ds.client(r.a).name,
                analysis.ds.client(r.b).name
            ),
            r.union.to_string(),
            pct(r.similarity()),
        ]);
    }
    t.render()
}

/// §4.5: replica analysis.
pub fn render_replicas(analysis: &Analysis<'_>) -> String {
    let r = replicas::analyze(analysis);
    format!(
        "Replica analysis (qualification: ≥{} of a site's connections):\n\
         zero-replica (CDN) sites: {}\n\
         single-replica sites: {}\n\
         multi-replica sites: {}\n\
         server-side episodes on multi-replica sites: {} of {} ({})\n\
         total-replica failures: {} of {} multi episodes ({})\n\
         total-replica failures on same-/24 layouts: {}\n",
        pct(replicas::REPLICA_QUALIFY_FRACTION),
        r.zero_replica_sites,
        r.single_replica_sites,
        r.multi_replica_sites,
        r.episode_hours_multi,
        r.episode_hours_total,
        pct(r.multi_share()),
        r.total_replica_hours,
        r.episode_hours_multi,
        pct(r.total_share()),
        pct(r.same_subnet_share()),
    )
}

/// §4.6: severe instability under both rules.
pub fn render_bgp(analysis: &Analysis<'_>) -> String {
    let main = bgp_corr::severe_instability(
        analysis,
        SeverityRule::Neighbors(bgp_corr::SEVERE_NEIGHBORS),
    );
    let alt = bgp_corr::severe_instability(
        analysis,
        SeverityRule::WithdrawalsAndNeighbors(bgp_corr::ALT_WITHDRAWALS, bgp_corr::ALT_NEIGHBORS),
    );
    let mut out = format!(
        "Severe BGP instability vs TCP failures:\n\
         rule ≥{} neighbors withdrawing: {} instances; failure rate >5% in {} of measurable\n\
         rule ≥{} withdrawals & ≥{} neighbors: {} instances; >10% in {}, >20% in {}\n",
        bgp_corr::SEVERE_NEIGHBORS,
        main.instances.len(),
        pct(main.fraction_above_5pct),
        bgp_corr::ALT_WITHDRAWALS,
        bgp_corr::ALT_NEIGHBORS,
        alt.instances.len(),
        pct(alt.fraction_above_10pct),
        pct(alt.fraction_above_20pct),
    );
    let mut t = TextTable::new(["prefix", "hour", "withdrawals", "neighbors", "attempts", "tcp failure rate"])
        .right_align(&[1, 2, 3, 4, 5]);
    for i in main.instances.iter().take(24) {
        t.row([
            analysis.ds.prefix(i.prefix).to_string(),
            i.hour.to_string(),
            i.bgp.withdrawals.to_string(),
            i.bgp.neighbors_withdrawing.to_string(),
            i.attempts.to_string(),
            i.tcp_failure_rate.map_or("n/a".into(), pct),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Figure 5/7: one client's hourly series as CSV (active hours only).
pub fn render_client_timeseries_csv(ds: &Dataset, client_name: &str) -> Option<String> {
    let client = ds.clients.iter().find(|c| c.name.contains(client_name))?;
    let ts = bgp_corr::client_timeseries(ds, client.id);
    let mut csv = Csv::new([
        "hour",
        "attempts",
        "failures",
        "longest_streak",
        "withdrawals",
        "neighbors_withdrawing",
    ]);
    for h in 0..ts.attempts.len() {
        if ts.attempts[h] == 0 && ts.withdrawals[h] == 0 {
            continue;
        }
        csv.row([
            h.to_string(),
            ts.attempts[h].to_string(),
            ts.failures[h].to_string(),
            ts.longest_streak[h].to_string(),
            ts.withdrawals[h].to_string(),
            ts.neighbors_withdrawing[h].to_string(),
        ]);
    }
    Some(csv.finish())
}

/// Figure 6: the CDF of failure rates during alt-rule instability, as CSV.
pub fn render_figure6_csv(analysis: &Analysis<'_>) -> String {
    let rates = bgp_corr::figure6_rates(analysis);
    let mut csv = Csv::new(["tcp_failure_rate", "cdf"]);
    let n = rates.len().max(1);
    for (i, r) in rates.iter().enumerate() {
        csv.row_f64(&[*r, (i + 1) as f64 / n as f64], 4);
    }
    csv.finish()
}

/// Table 9: proxy residual failures on the named sites.
pub fn render_table9(analysis: &Analysis<'_>, hostnames: &[&str]) -> String {
    let ds = analysis.ds;
    let rows = proxy_analysis::residual_table(analysis);
    let mut t = TextTable::new(["site", "client", "residual failure rate"])
        .with_title("Table 9: residual failure rates after excluding client/server episodes")
        .right_align(&[2]);
    for host in hostnames {
        let Some(site) = ds.sites.iter().find(|s| s.hostname.contains(host)) else {
            continue;
        };
        let row = &rows[site.id.0 as usize];
        for (cid, rr) in &row.proxied {
            t.row([
                site.hostname.clone(),
                ds.client(*cid).name.clone(),
                pct2(rr.rate()),
            ]);
        }
        if let Some((cid, rr)) = &row.external {
            t.row([
                site.hostname.clone(),
                format!("{} (ext)", ds.client(*cid).name),
                pct2(rr.rate()),
            ]);
        }
        t.row([
            site.hostname.clone(),
            "non-CN".to_string(),
            pct2(row.non_cn.rate()),
        ]);
    }
    let mut out = t.render();
    let (min_rate, dominance) = proxy_analysis::SHARED_PROXY_PARAMS;
    let shared = proxy_analysis::shared_proxy_sites(&rows, min_rate, dominance);
    out.push_str("shared-proxy scan (all proxies elevated, external/non-CN clean): ");
    if shared.is_empty() {
        out.push_str("none\n");
    } else {
        let names: Vec<String> = shared
            .iter()
            .map(|s| {
                format!(
                    "{} (min proxied {}, non-CN {})",
                    ds.site(s.site).hostname,
                    pct2(s.min_proxied_rate),
                    pct2(s.non_cn_rate)
                )
            })
            .collect();
        out.push_str(&names.join("; "));
        out.push('\n');
    }
    out
}

/// Section 2.2 category 3 (deferred by the paper): client-server-specific
/// episodes over wider windows.
pub fn render_pair_episodes(analysis: &Analysis<'_>) -> String {
    use netprofiler::pair_episodes::{detect, PairEpisodeConfig};
    let cfg = PairEpisodeConfig::default();
    let report = detect(analysis, cfg);
    let mut out = format!(
        "Client-server-specific episodes ({}h windows, ≥{} rate, ≥{} samples):
         episodes: {} across {} distinct pairs; {} pair-windows shadowed by endpoint episodes
",
        cfg.window_hours,
        pct(cfg.threshold),
        cfg.min_samples,
        report.episodes.len(),
        report.distinct_pairs,
        report.shadowed_by_endpoint,
    );
    let mut t = TextTable::new(["client", "site", "window", "rate"]).right_align(&[2, 3]);
    for ep in report.episodes.iter().take(10) {
        t.row([
            analysis.ds.client(ep.client).name.clone(),
            analysis.ds.site(ep.site).hostname.clone(),
            ep.window.to_string(),
            pct(ep.rate()),
        ]);
    }
    if !report.episodes.is_empty() {
        out.push_str(&t.render());
    }
    out
}

/// §4.1.1 medians and §4.1.3 / §4.2 statistics.
/// Timing quantiles per category (Section 3.5's recorded times).
pub fn render_timing(ds: &Dataset) -> String {
    let mut t = TextTable::new([
        "category",
        "dns p50 (ms)",
        "dns p90",
        "download p50 (ms)",
        "download p90",
        "download p99",
    ])
    .with_title("Lookup/download times of successful transactions")
    .right_align(&[1, 2, 3, 4, 5]);
    for (cat, s) in netprofiler::timing::timing_by_category(ds) {
        if s.download.samples == 0 {
            continue;
        }
        t.row([
            cat.abbrev().to_string(),
            format!("{:.1}", s.dns.p50),
            format!("{:.1}", s.dns.p90),
            format!("{:.0}", s.download.p50),
            format!("{:.0}", s.download.p90),
            format!("{:.0}", s.download.p99),
        ]);
    }
    t.render()
}

pub fn render_medians(cds: &ColumnarDataset) -> String {
    let clients = summary::client_failure_rates(cds);
    let servers = summary::server_failure_rates(cds);
    format!(
        "median client failure rate: {}\n\
         median server failure rate: {}\n\
         95th percentile client failure rate: {}\n",
        summary::quantile(&clients, 0.5).map_or("n/a".into(), pct2),
        summary::quantile(&servers, 0.5).map_or("n/a".into(), pct2),
        summary::quantile(&clients, 0.95).map_or("n/a".into(), pct2),
    )
}

pub fn render_loss(ds: &Dataset) -> String {
    match loss_corr::loss_failure_correlation(ds, 30) {
        Some(r) => format!("loss/failure correlation (per client-site pair): r = {r:.2}\n"),
        None => "loss/failure correlation: insufficient data\n".into(),
    }
}

pub fn render_digcheck(ds: &Dataset) -> String {
    match dns_analysis::dig_agreement(ds) {
        Some(a) => format!("iterative dig agrees with failed wget lookups: {}\n", pct(a)),
        None => "dig agreement: no DNS failures with dig data\n".into(),
    }
}

/// The paper-vs-measured comparison sheet (EXPERIMENTS.md content).
pub fn comparisons(ds: &Dataset, a5: &Analysis<'_>, a10: &Analysis<'_>) -> Vec<Comparison> {
    let p = PaperTargets::published();
    let mut out = Vec::new();
    let mut push = |what: &'static str, paper: String, measured: String, ok: bool| {
        out.push(Comparison {
            what,
            paper,
            measured,
            ok,
        });
    };

    let rates = summary::client_failure_rates(&a5.cds);
    let med_c = summary::quantile(&rates, 0.5).unwrap_or(0.0);
    push(
        "median client failure rate",
        pct2(p.median_client_failure_rate),
        pct2(med_c),
        (0.005..0.035).contains(&med_c),
    );
    let s_rates = summary::server_failure_rates(&a5.cds);
    let med_s = summary::quantile(&s_rates, 0.5).unwrap_or(0.0);
    push(
        "median server failure rate",
        pct2(p.median_server_failure_rate),
        pct2(med_s),
        (0.005..0.04).contains(&med_s),
    );

    let f1 = summary::figure1(&a5.cds);
    let rate_of = |cat: ClientCategory| {
        f1.iter()
            .find(|(c, _, _)| *c == cat)
            .map(|(_, r, _)| *r)
            .unwrap_or(0.0)
    };
    let pl = rate_of(ClientCategory::PlanetLab);
    let du = rate_of(ClientCategory::Dialup);
    let bb = rate_of(ClientCategory::Broadband);
    let cn = rate_of(ClientCategory::CorpNet);
    push("PL failure rate", pct2(p.pl_failure_rate), pct2(pl), (0.018..0.042).contains(&pl));
    push("BB failure rate", pct2(p.bb_failure_rate), pct2(bb), (0.007..0.022).contains(&bb));
    push("DU failure rate", pct2(p.du_failure_rate), pct2(du), (0.003..0.013).contains(&du));
    push("CN failure rate", pct2(p.cn_failure_rate), pct2(cn), (0.004..0.016).contains(&cn));
    push(
        "ordering DU < CN ≤ BB < PL",
        "holds".into(),
        format!("{} / {} / {} / {}", pct2(du), pct2(cn), pct2(bb), pct2(pl)),
        du < bb && bb < pl && du < cn,
    );

    let b = summary::overall_breakdown(&a5.cds);
    push(
        "DNS share of failures",
        format!("{}–{}", pct(p.dns_share_low), pct(p.dns_share_high)),
        pct(b.dns_share()),
        (0.28..0.48).contains(&b.dns_share()),
    );
    push(
        "TCP share of failures",
        format!("{}–{}", pct(p.tcp_share_low), pct(p.tcp_share_high)),
        pct(b.tcp_share()),
        (0.50..0.70).contains(&b.tcp_share()),
    );
    push(
        "HTTP share of failures",
        format!("<{}", pct(p.http_share_max)),
        pct(b.http_share()),
        b.http_share() < 0.04,
    );

    let pl_dns = dns_analysis::dns_breakdown(ds, ClientCategory::PlanetLab);
    push(
        "PL LDNS-timeout share of DNS failures",
        pct(p.pl_ldns_timeout_share),
        pct(pl_dns.ldns_share()),
        (0.70..0.92).contains(&pl_dns.ldns_share()),
    );
    if let Some(agreement) = dns_analysis::dig_agreement(ds) {
        push(
            "dig agreement on failed lookups",
            format!(">{}", pct(p.dig_agreement_min)),
            pct(agreement),
            agreement > 0.85,
        );
    }

    let pl_tcp = tcp_analysis::tcp_breakdown(ds, ClientCategory::PlanetLab);
    let du_tcp = tcp_analysis::tcp_breakdown(ds, ClientCategory::Dialup);
    let bb_tcp = tcp_analysis::tcp_breakdown(ds, ClientCategory::Broadband);
    push(
        "PL no-connection share of TCP failures",
        pct(p.pl_no_connection_share),
        pct(pl_tcp.no_connection_share()),
        (0.65..0.92).contains(&pl_tcp.no_connection_share()),
    );
    push(
        "DU no-connection share",
        pct(p.du_no_connection_share),
        pct(du_tcp.no_connection_share()),
        (0.45..0.85).contains(&du_tcp.no_connection_share()),
    );
    push(
        "BB no-connection share (rest merged, untraced)",
        pct(p.bb_no_connection_share),
        pct(bb_tcp.no_connection_share()),
        (0.25..0.60).contains(&bb_tcp.no_connection_share()),
    );

    let perm = &a5.permanent;
    push(
        "near-permanent pairs",
        p.permanent_pairs.to_string(),
        perm.len().to_string(),
        (30..=46).contains(&perm.len()),
    );
    push(
        "permanent share of connection failures",
        pct(p.permanent_share_of_connection_failures),
        pct(perm.share_of_connection_failures),
        (0.30..0.70).contains(&perm.share_of_connection_failures),
    );
    push(
        "permanent share of transaction failures",
        pct(p.permanent_share_of_transaction_failures),
        pct(perm.share_of_transaction_failures),
        (0.06..0.25).contains(&perm.share_of_transaction_failures),
    );

    let b5 = blame::table5(a5);
    let b10 = blame::table5(a10);
    push(
        "blame f=5%: server-side",
        pct(p.blame_server_side),
        pct(b5.share(blame::BlameClass::ServerSide)),
        (0.35..0.62).contains(&b5.share(blame::BlameClass::ServerSide)),
    );
    push(
        "blame f=5%: client-side",
        pct(p.blame_client_side),
        pct(b5.share(blame::BlameClass::ClientSide)),
        (0.04..0.20).contains(&b5.share(blame::BlameClass::ClientSide)),
    );
    push(
        "blame f=5%: server-side dominates client-side",
        "yes".into(),
        format!(
            "{} vs {}",
            pct(b5.share(blame::BlameClass::ServerSide)),
            pct(b5.share(blame::BlameClass::ClientSide))
        ),
        b5.share(blame::BlameClass::ServerSide) > 2.0 * b5.share(blame::BlameClass::ClientSide),
    );
    push(
        "blame f=10%: more lands in other",
        format!("{} → {}", pct(p.blame_other), pct(p.blame_other_f10)),
        format!(
            "{} → {}",
            pct(b5.share(blame::BlameClass::Other)),
            pct(b10.share(blame::BlameClass::Other))
        ),
        b10.share(blame::BlameClass::Other) > b5.share(blame::BlameClass::Other),
    );

    let stats = blame::server_episode_stats(a5);
    let scale = f64::from(ds.hours) / 744.0;
    push(
        "server-side episode hours (scaled)",
        format!("{} × {:.2}", p.server_episode_hours, scale),
        stats.total_hours.to_string(),
        (stats.total_hours as f64) > 0.3 * p.server_episode_hours as f64 * scale
            && (stats.total_hours as f64) < 3.0 * p.server_episode_hours as f64 * scale,
    );
    push(
        "servers with ≥1 episode",
        format!("{} / 80", p.servers_with_episode),
        format!("{} / 80", stats.servers_affected),
        (40..=80).contains(&stats.servers_affected),
    );
    push(
        "episode run median is 1 hour",
        "1".into(),
        stats.median_run_hours.to_string(),
        stats.median_run_hours <= 2,
    );

    let t6 = spread::table6(a5);
    let heavy_spreads: Vec<f64> = t6.iter().take(8).map(|r| r.spread()).collect();
    let heavy_ok = heavy_spreads.iter().filter(|s| **s >= 0.6).count() >= heavy_spreads.len() / 2;
    push(
        "spread of top failure-prone servers ≥70%",
        format!("≥{}", pct(p.spread_typical_min)),
        heavy_spreads
            .first()
            .map(|s| pct(*s))
            .unwrap_or_else(|| "n/a".into()),
        heavy_ok,
    );

    let coloc = similarity::colocated_similarities(a5);
    let random = similarity::random_pair_similarities(a5, coloc.len(), 17);
    let mean = |v: &[netprofiler::similarity::PairSimilarity]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().map(|x| x.similarity()).sum::<f64>() / v.len() as f64
        }
    };
    push(
        "co-located pairs more similar than random",
        "yes".into(),
        format!("{} vs {}", pct(mean(&coloc)), pct(mean(&random))),
        mean(&coloc) > mean(&random),
    );

    let rep = replicas::analyze(a5);
    push(
        "zero/single/multi replica sites",
        format!(
            "{}/{}/{}",
            p.zero_replica_sites, p.single_replica_sites, p.multi_replica_sites
        ),
        format!(
            "{}/{}/{}",
            rep.zero_replica_sites, rep.single_replica_sites, rep.multi_replica_sites
        ),
        rep.zero_replica_sites >= 4
            && (36..=48).contains(&rep.single_replica_sites)
            && (26..=38).contains(&rep.multi_replica_sites),
    );
    push(
        "total-replica share of multi-site episodes",
        pct(p.total_replica_share),
        pct(rep.total_share()),
        rep.total_share() > 0.6,
    );
    push(
        "total-replica failures are same-/24",
        "almost all".into(),
        pct(rep.same_subnet_share()),
        rep.same_subnet_share() > 0.8,
    );

    let sev = bgp_corr::severe_instability(a5, SeverityRule::Neighbors(bgp_corr::SEVERE_NEIGHBORS));
    push(
        "severe BGP instances (scaled)",
        format!("{} × {:.2}", p.severe_bgp_instances, scale),
        sev.instances.len().to_string(),
        (sev.instances.len() as f64) > 0.3 * p.severe_bgp_instances as f64 * scale,
    );
    push(
        "severe instability ⇒ TCP failures >5%",
        format!(">{}", pct(p.severe_bgp_failure_above_5pct)),
        pct(sev.fraction_above_5pct),
        sev.fraction_above_5pct > 0.6,
    );

    if let Some(r) = loss_corr::loss_failure_correlation(ds, 30) {
        push(
            "loss/failure correlation is weak",
            format!("r≈{:.2}", p.loss_failure_correlation),
            format!("r={r:.2}"),
            r.abs() < 0.45,
        );
    }

    // Table 9 shape on iitb.
    if let Some(site) = ds.sites.iter().find(|s| s.hostname.contains("iitb")) {
        let row = &proxy_analysis::residual_table(a5)[site.id.0 as usize];
        let cn_min = row
            .proxied
            .iter()
            .map(|(_, rr)| rr.rate())
            .fold(f64::INFINITY, f64::min);
        let ok = !row.proxied.is_empty()
            && cn_min > 2.0 * row.non_cn.rate()
            && row
                .external
                .as_ref()
                .map(|(_, rr)| rr.rate() < cn_min)
                .unwrap_or(true);
        push(
            "iitb residual: proxied CN ≫ non-CN and SEAEXT",
            format!(
                "CN >{} vs non-CN <{}",
                pct2(p.iitb_cn_residual_min),
                pct2(p.iitb_non_cn_residual_max)
            ),
            format!("CN min {} vs non-CN {}", pct2(cn_min), pct2(row.non_cn.rate())),
            ok,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use model::{ClientId, ProxyId, SiteId};
    use netprofiler::synthetic::SynthWorld;
    use netprofiler::AnalysisConfig;

    fn tiny_ds() -> Dataset {
        let mut w = SynthWorld::new(4, 3, 6);
        w.set_category(ClientId(3), ClientCategory::CorpNet);
        w.set_proxy(ClientId(3), ProxyId(0));
        w.colocate(&[ClientId(0), ClientId(1)], 1);
        for h in 0..6 {
            for c in 0..3u16 {
                w.add_txn_batch(ClientId(c), SiteId(0), h, 20, u32::from(h == 0));
                w.add_conn_batch(ClientId(c), SiteId(0), h, 20, u32::from(h == 0));
            }
            w.add_txn_batch(ClientId(3), SiteId(1), h, 20, 0);
        }
        w.finish()
    }

    #[test]
    fn all_text_renderers_produce_output() {
        let ds = tiny_ds();
        let a5 = Analysis::new(&ds, AnalysisConfig::default());
        let a10 = a5.at(0.10);
        for s in [
            render_table1(&ds),
            render_table2(&ds),
            render_table3(&a5.cds),
            render_figure1(&a5.cds),
            render_table4(&ds),
            render_figure2(&ds),
            render_figure3(&ds),
            render_permanent(&a5),
            render_figure4(&a5),
            render_table5(&a5, &a10),
            render_episode_stats(&a5),
            render_table6(&a5, 5),
            render_table7(&a5, 1),
            render_table8(&a5, 5),
            render_replicas(&a5),
            render_bgp(&a5),
            render_figure6_csv(&a5),
            render_table9(&a5, &["site1"]),
            render_medians(&a5.cds),
            render_loss(&ds),
            render_digcheck(&ds),
        ] {
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn render_all_is_paper_blocks_plus_compare() {
        let ds = tiny_ds();
        let config = AnalysisConfig::default();
        let a5 = Analysis::new(&ds, config);
        let a10 = a5.at(0.10);
        let mut expected = String::new();
        for (id, body) in paper_blocks(&ds, &a5, &a10, 7) {
            expected.push_str(&format!("==== {id} ====\n{body}\n"));
        }
        let comps = comparisons(&ds, &a5, &a10);
        expected.push_str(&format!(
            "==== compare ====\n{}\n",
            comps.iter().map(|c| c.line() + "\n").collect::<String>()
        ));
        assert_eq!(render_all(&ds, config, 7), expected);
    }

    #[test]
    fn paper_blocks_follow_the_id_list() {
        let mut ds = tiny_ds();
        ds.clients[0].name = "nodea.howard.edu".into();
        ds.clients[1].name = "kscy".into();
        let a5 = Analysis::new(&ds, AnalysisConfig::default());
        let ids: Vec<&str> = paper_blocks(&ds, &a5, &a5.at(0.10), 7)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(ids, PAPER_BLOCK_IDS);
    }

    #[test]
    fn paper_section_anchors_every_block() {
        let ds = tiny_ds();
        let config = AnalysisConfig::default();
        let a5 = Analysis::new(&ds, config);
        let a10 = a5.at(0.10);
        let blocks = paper_blocks(&ds, &a5, &a10, 7);
        let n = blocks.len();
        let mut page = crate::html::HtmlReport::new("t");
        let section = PaperSection { blocks };
        page.add_section(&section);
        let html = page.render();
        assert!(html.contains("id=\"paper-table1\""));
        assert!(html.contains("id=\"paper-digcheck\""));
        assert_eq!(html.matches("<pre>").count(), n);
        // Table text is escaped, never interpreted.
        assert!(!html.contains("≥{"));
    }

    #[test]
    fn table3_marks_cn_masked() {
        let ds = tiny_ds();
        let a = Analysis::new(&ds, AnalysisConfig::default());
        let t3 = render_table3(&a.cds);
        assert!(t3.contains("N/A"));
        assert!(t3.contains("PL"));
    }

    #[test]
    fn timeseries_csv_for_known_client() {
        let ds = tiny_ds();
        let csv = render_client_timeseries_csv(&ds, "client0").unwrap();
        assert!(csv.starts_with("hour,attempts"));
        assert!(csv.lines().count() > 1);
        assert!(render_client_timeseries_csv(&ds, "nosuch").is_none());
    }

    #[test]
    fn comparisons_cover_the_headline_findings() {
        let ds = tiny_ds();
        let a5 = Analysis::new(&ds, AnalysisConfig::default());
        let a10 = a5.at(0.10);
        let comps = comparisons(&ds, &a5, &a10);
        assert!(comps.len() >= 20, "{} comparison lines", comps.len());
        for c in &comps {
            assert!(!c.line().is_empty());
        }
    }
}
