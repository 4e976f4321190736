//! Directional checks of the paper's findings at test scale.
//!
//! The full quantitative sheet runs at reproduction scale via the
//! `reproduce` harness (see EXPERIMENTS.md); these tests assert the
//! *directions* that must hold even in a week-long run.

use model::{ClientCategory, Dataset, DnsFailureKind};
use netprofiler::{
    blame, dns_analysis, replicas, similarity, summary, tcp_analysis, Analysis, AnalysisConfig,
};
use std::sync::OnceLock;
use workload::{run_experiment, ExperimentConfig};

fn shared() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| {
        let mut cfg = ExperimentConfig::quick(4242);
        cfg.hours = 120;
        cfg.wire_fidelity = false;
        run_experiment(&cfg).dataset
    })
}

fn shared_cds() -> &'static model::ColumnarDataset {
    static CDS: OnceLock<model::ColumnarDataset> = OnceLock::new();
    CDS.get_or_init(|| model::ColumnarDataset::from_dataset(shared()))
}

#[test]
fn failure_rates_are_low_but_nonzero() {
    let ds = shared();
    let overall = ds.overall_failure_rate();
    assert!(
        (0.005..0.05).contains(&overall),
        "overall failure rate {overall}"
    );
    let rates = summary::client_failure_rates(shared_cds());
    let median = summary::quantile(&rates, 0.5).unwrap();
    assert!((0.004..0.04).contains(&median), "median {median}");
}

#[test]
fn planetlab_fails_more_than_dialup() {
    let f1 = summary::figure1(shared_cds());
    let get = |cat| {
        f1.iter()
            .find(|(c, _, _)| *c == cat)
            .map(|(_, r, _)| *r)
            .unwrap()
    };
    assert!(get(ClientCategory::PlanetLab) > 2.0 * get(ClientCategory::Dialup));
}

#[test]
fn dns_and_tcp_dominate_http_is_rare() {
    let b = summary::overall_breakdown(shared_cds());
    assert!(b.dns_share() > 0.25, "DNS share {}", b.dns_share());
    assert!(b.tcp_share() > 0.40, "TCP share {}", b.tcp_share());
    assert!(b.http_share() < 0.05, "HTTP share {}", b.http_share());
}

#[test]
fn ldns_timeouts_dominate_dns_failures() {
    let ds = shared();
    let b = dns_analysis::dns_breakdown(ds, ClientCategory::PlanetLab);
    assert!(b.total > 100, "enough DNS failures to judge: {}", b.total);
    assert!(b.ldns_share() > 0.6, "LDNS share {}", b.ldns_share());
}

#[test]
fn dns_errors_concentrate_on_broken_domains() {
    let ds = shared();
    let errors = dns_analysis::domain_concentration(ds, |k| {
        matches!(k, DnsFailureKind::ErrorResponse(_))
    });
    let ldns = dns_analysis::domain_concentration(ds, |k| k == DnsFailureKind::LdnsTimeout);
    // Errors pile onto brazzil/espn; LDNS timeouts spread across all sites.
    assert!(errors.top_share() > 0.3, "error top share {}", errors.top_share());
    assert!(ldns.top_share() < 0.08, "ldns top share {}", ldns.top_share());
    assert!(errors.skew() > ldns.skew());
    // The top error domain is one of the two configured broken zones.
    let top_site = ds.site(model::SiteId(errors.per_site[0].0));
    assert!(
        top_site.hostname.contains("brazzil") || top_site.hostname.contains("espn"),
        "unexpected top error domain {}",
        top_site.hostname
    );
}

#[test]
fn no_connection_dominates_tcp_failures_for_pl() {
    let ds = shared();
    let pl = tcp_analysis::tcp_breakdown(ds, ClientCategory::PlanetLab);
    assert!(pl.total > 500);
    assert!(pl.no_connection_share() > 0.6);
    // BB clients have no traces: their post-handshake failures are merged.
    let bb = tcp_analysis::tcp_breakdown(ds, ClientCategory::Broadband);
    assert_eq!(bb.no_response, 0);
    assert_eq!(bb.partial_response, 0);
    assert!(bb.no_or_partial > 0);
    assert!(
        bb.no_connection_share() < pl.no_connection_share(),
        "BB no-conn share should be lower than PL's"
    );
}

#[test]
fn permanent_pairs_detected_and_heavily_retried() {
    let ds = shared();
    let a = Analysis::new(ds, AnalysisConfig::default());
    assert_eq!(a.permanent.len(), 38);
    assert!(
        a.permanent.share_of_connection_failures > a.permanent.share_of_transaction_failures,
        "wget retries inflate the connection share"
    );
    for p in &a.permanent.detail {
        assert!(p.failure_rate() > 0.9);
        assert_eq!(ds.client(p.client).category, ClientCategory::PlanetLab);
    }
}

#[test]
fn server_side_dominates_client_side() {
    let ds = shared();
    let a = Analysis::new(ds, AnalysisConfig::default());
    let b = blame::table5(&a);
    assert!(b.total() > 1_000);
    assert!(
        b.share(blame::BlameClass::ServerSide) > 1.3 * b.share(blame::BlameClass::ClientSide),
        "server {} vs client {}",
        b.share(blame::BlameClass::ServerSide),
        b.share(blame::BlameClass::ClientSide)
    );
    assert!(b.share(blame::BlameClass::Both) < 0.3);
}

#[test]
fn conservative_threshold_classifies_less() {
    let ds = shared();
    let a5 = Analysis::new(ds, AnalysisConfig::default());
    let (b5, b10) = (blame::table5(&a5), blame::table5(&a5.at(0.10)));
    assert!(b10.classified_share() < b5.classified_share());
    assert_eq!(b5.total(), b10.total());
}

#[test]
fn replica_structure_recovered_from_measurements() {
    let ds = shared();
    let a = Analysis::new(ds, AnalysisConfig::default());
    let r = replicas::analyze(&a);
    assert_eq!(r.zero_replica_sites, 6, "CDN sites have no qualifying replicas");
    assert_eq!(r.single_replica_sites, 42);
    assert_eq!(r.multi_replica_sites, 32);
    if r.total_replica_hours > 0 {
        assert!(
            r.same_subnet_share() > 0.7,
            "total-replica failures are a same-subnet phenomenon: {}",
            r.same_subnet_share()
        );
    }
}

#[test]
fn colocated_similarity_beats_random() {
    let ds = shared();
    let a = Analysis::new(ds, AnalysisConfig::default());
    let coloc = similarity::colocated_similarities(&a);
    assert_eq!(coloc.len(), 35);
    let random = similarity::random_pair_similarities(&a, 35, 5);
    let mean = |v: &[similarity::PairSimilarity]| {
        v.iter().map(|p| p.similarity()).sum::<f64>() / v.len() as f64
    };
    assert!(mean(&coloc) > mean(&random));
    // The Intel-like pair is the standout sharer (Table 8's top row).
    let rows = similarity::table8(&a);
    let top = &rows[0];
    let name = &ds.client(top.a).name;
    assert!(
        name.contains("intel-research"),
        "top sharing pair should be the Intel-like site, got {name}"
    );
    assert!(top.similarity() > 0.5, "Intel pair similarity {}", top.similarity());
}

#[test]
fn proxied_clients_show_residual_failures_on_flappy_sites() {
    let ds = shared();
    let a = Analysis::new(ds, AnalysisConfig::default());
    let site = ds
        .sites
        .iter()
        .find(|s| s.hostname.contains("iitb"))
        .unwrap();
    let row = &netprofiler::proxy_analysis::residual_table(&a)[site.id.0 as usize];
    assert_eq!(row.proxied.len(), 5);
    let cn_mean: f64 = row
        .proxied
        .iter()
        .map(|(_, rr)| rr.rate())
        .sum::<f64>()
        / 5.0;
    assert!(
        cn_mean > 3.0 * row.non_cn.rate(),
        "CN mean {cn_mean} vs non-CN {}",
        row.non_cn.rate()
    );
}
