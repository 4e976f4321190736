//! Flight-recorder guarantees: the provenance sidecar is parallel to the
//! dataset, stamps track fault boundaries exactly (including faults that
//! start or end mid-hour), overlapping faults union their flags, proxied
//! clients share one true cause, the sidecar and the forensic exemplars
//! stay aligned with the records under collection loss, and the audit
//! scored against the sidecar clears the agreement floor.

use model::{FaultSet, SimTime, TrueBlame};
use netsim::Timeline;
use webclient::AccessEnvironment;
use workload::{build_fleet, build_sites, run_experiment, ExperimentConfig, GroundTruth};
use workload::{ClientView, ProxyView};

fn t(hours: f64) -> SimTime {
    SimTime::from_micros((hours * 3_600.0 * 1_000_000.0) as u64)
}

fn small_world(hours: u32) -> (workload::FleetSpec, Vec<workload::SiteSpec>, GroundTruth) {
    let fleet = build_fleet();
    let sites = build_sites();
    let gt = GroundTruth::materialize(&fleet, &sites, hours, 7);
    (fleet, sites, gt)
}

#[test]
fn stamps_follow_a_fault_that_starts_and_ends_mid_hour() {
    let (_, sites, mut gt) = small_world(6);
    // Last-mile outage for client 0 from 1h24m to 2h12m: covers 0.6 of
    // hour 1 (stamped as a fault hour at the 0.5-coverage rule) and 0.2 of
    // hour 2 (not a fault hour) — but the *stamp* tracks the instant, not
    // the hour.
    gt.link[0] = Timeline::from_changes(false, [(t(1.4), true), (t(2.2), false)]);
    let view = ClientView::new(&gt, 0);
    let host: dnswire::DomainName = sites[0].hostname.parse().expect("valid hostname");

    assert!(
        !view.true_dns_faults(&host, t(1.39)).contains(FaultSet::LAST_MILE),
        "before onset the stamp must be clean"
    );
    for probe in [1.4, 1.5, 1.99, 2.0, 2.19] {
        assert!(
            view.true_dns_faults(&host, t(probe)).contains(FaultSet::LAST_MILE),
            "at {probe}h the outage is active"
        );
        let replica = workload::sites::site_addresses(0, sites[0].layout)[0];
        assert!(
            view.server_behavior(replica, t(probe)).1.contains(FaultSet::LAST_MILE),
            "the connect-phase stamp sees the same outage at {probe}h"
        );
    }
    assert!(
        !view.true_dns_faults(&host, t(2.21)).contains(FaultSet::LAST_MILE),
        "after recovery the stamp must be clean again"
    );

    // The answer key applies the half-hour coverage rule.
    let sidecar = gt.truth_sidecar(&sites);
    assert!(sidecar.client_fault_hours[0].contains(&1), "hour 1 is 60% covered");
    assert!(!sidecar.client_fault_hours[0].contains(&2), "hour 2 is only 20% covered");
}

#[test]
fn overlapping_faults_union_their_flags() {
    let (_, sites, mut gt) = small_world(6);
    // Last-mile outage 1h–3h overlapping an LDNS outage 2h–4h, with a WAN
    // outage inside the overlap.
    gt.link[0] = Timeline::from_changes(false, [(t(1.0), true), (t(3.0), false)]);
    gt.ldns[0] = Timeline::from_changes(false, [(t(2.0), true), (t(4.0), false)]);
    gt.wan[0] = Timeline::from_changes(false, [(t(2.25), true), (t(2.75), false)]);
    let view = ClientView::new(&gt, 0);
    let host: dnswire::DomainName = sites[0].hostname.parse().expect("valid hostname");

    let only_link = view.true_dns_faults(&host, t(1.5));
    assert!(only_link.contains(FaultSet::LAST_MILE) && !only_link.contains(FaultSet::LDNS_DOWN));

    let both = view.true_dns_faults(&host, t(2.1));
    assert!(both.contains(FaultSet::LAST_MILE) && both.contains(FaultSet::LDNS_DOWN));

    let all_three = view.true_dns_faults(&host, t(2.5));
    assert!(all_three.contains(FaultSet::LAST_MILE | FaultSet::LDNS_DOWN | FaultSet::WAN));
    assert_eq!(all_three.true_blame(), TrueBlame::ClientSide);

    let only_ldns = view.true_dns_faults(&host, t(3.5));
    assert!(!only_ldns.contains(FaultSet::LAST_MILE) && only_ldns.contains(FaultSet::LDNS_DOWN));

    // The answer key records hours 1–3 as fault hours (each is majority-
    // covered by at least one of the overlapping outages).
    let sidecar = gt.truth_sidecar(&sites);
    for h in 1..=3u32 {
        assert!(sidecar.client_fault_hours[0].contains(&h), "hour {h}");
    }
    assert!(!sidecar.client_fault_hours[0].contains(&4));
}

#[test]
fn proxied_clients_share_one_true_cause() {
    let (fleet, sites, mut gt) = small_world(6);
    // Proxy 0's upstream link goes down 1h–2h. Every client behind that
    // proxy must see the same PROXY_LINK stamp — one true cause, shared.
    gt.proxy_link[0] = Timeline::from_changes(false, [(t(1.0), true), (t(2.0), false)]);
    let host: dnswire::DomainName = sites[0].hostname.parse().expect("valid hostname");
    let proxy_view = ProxyView::new(&gt, 0);

    let during = proxy_view.true_dns_faults(&host, t(1.5));
    assert!(during.contains(FaultSet::PROXY_LINK));
    assert_eq!(during.true_blame(), TrueBlame::ClientSide);
    assert!(!proxy_view.true_dns_faults(&host, t(0.5)).contains(FaultSet::PROXY_LINK));

    // The proxy-level stamp is identical regardless of which client sits
    // behind it, and the clients' own last-mile stamps stay independent.
    let behind: Vec<u16> = fleet
        .clients
        .iter()
        .enumerate()
        .filter(|(_, c)| c.proxy.map(|p| p.0) == Some(0))
        .map(|(i, _)| i as u16)
        .collect();
    assert!(behind.len() >= 1, "fleet has clients behind proxy 0");
    for &c in &behind {
        let own = ClientView::new(&gt, c).true_dns_faults(&host, t(1.5));
        assert!(
            !own.contains(FaultSet::PROXY_LINK),
            "client-vantage stamps never carry proxy flags"
        );
    }
}

#[test]
fn sidecar_is_parallel_and_vantage_consistent() {
    let mut cfg = ExperimentConfig::quick(20050101);
    cfg.hours = 8;
    cfg.wire_fidelity = false;
    cfg.record_provenance = true;
    let out = run_experiment(&cfg);
    let log = out.provenance.expect("provenance requested");
    assert_eq!(log.records.len(), out.dataset.records.len());
    assert_eq!(log.truth.hours, out.dataset.hours);
    assert_eq!(log.truth.client_fault_hours.len(), out.dataset.clients.len());
    assert_eq!(log.truth.site_fault_hours.len(), out.dataset.sites.len());
    assert_eq!(log.truth.blocked_pairs.len(), 38, "the injected blocked pairs");

    let mut stamped_faults = 0u64;
    for (r, stamp) in out.dataset.records.iter().zip(&log.records) {
        let all = stamp.all();
        if r.proxy.is_some() {
            // The proxy hides the replica: connect-phase stamping is
            // impossible from this vantage, and pair-level conditions
            // between the *client* and the site cannot reach the stamp.
            assert!(stamp.connect.is_empty(), "proxied records stamp DNS-phase only");
            assert!(!all.contains(FaultSet::BLOCKED_PAIR) && !all.contains(FaultSet::DEGRADED_PAIR));
        } else {
            // Direct records never carry proxy-infrastructure flags.
            assert!(!all.contains(FaultSet::PROXY_LINK) && !all.contains(FaultSet::PROXY_LDNS));
        }
        stamped_faults += u64::from(!all.is_empty());
    }
    assert!(stamped_faults > 0, "an 8-hour window must hit some injected fault");

    // Failed records on an injected blocked pair whose failure reached the
    // connect phase must carry the pair-specific stamp.
    let blocked: std::collections::HashSet<(u16, u16)> =
        log.truth.blocked_pairs.iter().copied().collect();
    let mut blocked_failures = 0u64;
    for (r, stamp) in out.dataset.records.iter().zip(&log.records) {
        if r.proxy.is_none()
            && r.failed()
            && !r.failure().expect("failed").is_dns()
            && blocked.contains(&(r.client.0, r.site.0))
        {
            assert!(stamp.connect.contains(FaultSet::BLOCKED_PAIR));
            assert_eq!(stamp.all().true_blame(), TrueBlame::PairSpecific);
            blocked_failures += 1;
        }
    }
    assert!(blocked_failures > 0, "blocked pairs fail constantly by design");
}

#[test]
fn archetype_stamps_track_window_boundaries_mid_hour() {
    let (fleet, sites, mut gt) = small_world(6);
    // BGP reconfiguration transient for client 0 from 1h24m to 1h36m, and a
    // co-location blast on site 3's shared rack from 2h15m to 2h45m. Both
    // stamps must flip at the instant, not at the hour bin.
    gt.adversarial.bgp_transient =
        vec![netsim::Timeline::constant(false); fleet.clients.len()];
    gt.adversarial.bgp_transient[0] =
        Timeline::from_changes(false, [(t(1.4), true), (t(1.6), false)]);
    gt.adversarial.colo_of_site.insert(3, 0);
    gt.adversarial.colo_blast =
        vec![Timeline::from_changes(false, [(t(2.25), true), (t(2.75), false)])];
    let view = ClientView::new(&gt, 0);
    let replica = workload::sites::site_addresses(3, sites[3].layout)[0];

    assert!(!view.server_behavior(replica, t(1.39)).1.contains(FaultSet::BGP_TRANSIENT));
    for probe in [1.4, 1.5, 1.59] {
        let s = view.server_behavior(replica, t(probe)).1;
        assert!(s.contains(FaultSet::BGP_TRANSIENT), "transient active at {probe}h");
        assert_eq!(s.true_blame(), TrueBlame::ClientSide, "a path flap is the client's problem");
    }
    assert!(!view.server_behavior(replica, t(1.61)).1.contains(FaultSet::BGP_TRANSIENT));

    assert!(!view.server_behavior(replica, t(2.2)).1.contains(FaultSet::COLO_BLAST));
    let blast = view.server_behavior(replica, t(2.5)).1;
    assert!(blast.contains(FaultSet::COLO_BLAST));
    assert_eq!(blast.true_blame(), TrueBlame::ServerSide);
    assert!(!view.server_behavior(replica, t(2.8)).1.contains(FaultSet::COLO_BLAST));

    // A site outside the blasted rack never picks up the stamp.
    let other = workload::sites::site_addresses(4, sites[4].layout)[0];
    assert!(!view.server_behavior(other, t(2.5)).1.contains(FaultSet::COLO_BLAST));
}

#[test]
fn overlapping_archetypes_union_and_censorship_short_circuits() {
    let (_, sites, mut gt) = small_world(6);
    // Censorship of (client 0, site 0) from 1h to 3h, a colo blast covering
    // site 0 from 2h to 4h, and the client's own last-mile outage inside
    // the overlap — the stamp must union all three, and censorship must
    // dominate the blame verdict like the paper's near-permanent pairs.
    gt.adversarial.censored_clients.insert(0);
    gt.adversarial.censored_sites.insert(0);
    gt.adversarial.censor_window =
        Timeline::from_changes(false, [(t(1.0), true), (t(3.0), false)]);
    gt.adversarial.colo_of_site.insert(0, 0);
    gt.adversarial.colo_blast =
        vec![Timeline::from_changes(false, [(t(2.0), true), (t(4.0), false)])];
    gt.link[0] = Timeline::from_changes(false, [(t(2.25), true), (t(2.75), false)]);
    // Silence the materialized world's own faults on the probed pair so the
    // verdicts below reflect the archetypes alone.
    gt.wan[0] = Timeline::constant(false);
    gt.blocked.remove(&(0, 0));
    gt.degraded_pairs.remove(&(0, 0));
    let view = ClientView::new(&gt, 0);
    let replica = workload::sites::site_addresses(0, sites[0].layout)[0];

    let only_censor = view.server_behavior(replica, t(1.5)).1;
    assert!(only_censor.contains(FaultSet::CENSORED));
    assert!(!only_censor.contains(FaultSet::COLO_BLAST));
    assert_eq!(only_censor.true_blame(), TrueBlame::PairSpecific);

    let two = view.server_behavior(replica, t(2.1)).1;
    assert!(two.contains(FaultSet::CENSORED | FaultSet::COLO_BLAST));

    let three = view.server_behavior(replica, t(2.5)).1;
    assert!(three.contains(
        FaultSet::CENSORED | FaultSet::COLO_BLAST | FaultSet::LAST_MILE
    ));
    assert_eq!(
        three.true_blame(),
        TrueBlame::PairSpecific,
        "censorship short-circuits blame even under a client+server overlap"
    );

    let after = view.server_behavior(replica, t(3.5)).1;
    assert!(!after.contains(FaultSet::CENSORED));
    assert!(after.contains(FaultSet::COLO_BLAST));
    assert_eq!(after.true_blame(), TrueBlame::ServerSide);

    // An uncensored client at the same site sees only the blast.
    let bystander = ClientView::new(&gt, 1).server_behavior(replica, t(2.5)).1;
    assert!(bystander.contains(FaultSet::COLO_BLAST));
    assert!(!bystander.contains(FaultSet::CENSORED));
}

#[test]
fn proxied_vantage_hides_client_scoped_archetypes() {
    let (fleet, sites, mut gt) = small_world(6);
    // Turn every archetype on at once for site 0 and every client. The
    // direct vantage stamps them all; the proxy path stamps only the
    // archetypes that are really upstream of it (shared-rack blasts and
    // poisoned zones) — censorship of the *client's* region, the client
    // prefix's route flap, the direct-path-only split, the regional
    // brownout, and the client-path MTU hole do not exist from there.
    let everywhere = Timeline::constant(true);
    let n = fleet.clients.len();
    gt.adversarial.bgp_transient = vec![everywhere.clone(); n];
    for c in 0..n as u16 {
        gt.adversarial.censored_clients.insert(c);
        gt.adversarial.mtu_blackhole.insert((c, 0), everywhere.clone());
    }
    gt.adversarial.censored_sites.insert(0);
    gt.adversarial.censor_window = everywhere.clone();
    gt.adversarial.colo_of_site.insert(0, 0);
    gt.adversarial.colo_blast = vec![everywhere.clone()];
    gt.adversarial.vantage_split.insert(0, everywhere.clone());
    gt.adversarial.group_of_client = vec![Some(0); n];
    gt.adversarial
        .cdn_brownout
        .insert(0, (std::collections::HashSet::from([0u16]), everywhere.clone()));
    let decoy: std::net::Ipv4Addr = "192.0.2.10".parse().expect("valid addr");
    gt.adversarial.decoys.insert(decoy);

    let replica = workload::sites::site_addresses(0, sites[0].layout)[0];
    let direct = ClientView::new(&gt, 0).server_behavior(replica, t(1.0)).1;
    assert!(direct.contains(
        FaultSet::BGP_TRANSIENT
            | FaultSet::CENSORED
            | FaultSet::COLO_BLAST
            | FaultSet::VANTAGE_SPLIT
            | FaultSet::CDN_BROWNOUT
            | FaultSet::MTU_BLACKHOLE
    ));

    let proxied = ProxyView::new(&gt, 0).server_behavior(replica, t(1.0)).1;
    assert!(proxied.contains(FaultSet::COLO_BLAST), "rack blasts hit every vantage");
    for hidden in [
        FaultSet::BGP_TRANSIENT,
        FaultSet::CENSORED,
        FaultSet::VANTAGE_SPLIT,
        FaultSet::CDN_BROWNOUT,
        FaultSet::MTU_BLACKHOLE,
    ] {
        assert!(
            !proxied.contains(hidden),
            "{:?} is client-scoped and must not stamp the proxy path",
            hidden.names()
        );
    }
    // Decoy addresses are poisoned at the zone, so both vantages stamp them.
    assert!(ProxyView::new(&gt, 0).server_behavior(decoy, t(1.0)).1.contains(FaultSet::WRONG_DNS));
    assert!(ClientView::new(&gt, 0).server_behavior(decoy, t(1.0)).1.contains(FaultSet::WRONG_DNS));
}

#[test]
fn vantage_split_and_mtu_shape_the_direct_path_only() {
    use tcpsim::ServerBehavior;
    let (_, sites, mut gt) = small_world(6);
    gt.adversarial.vantage_split.insert(0, Timeline::from_changes(false, [(t(1.0), true), (t(2.0), false)]));
    gt.adversarial.mtu_blackhole.insert((0, 2), Timeline::from_changes(false, [(t(1.0), true), (t(2.0), false)]));

    let view = ClientView::new(&gt, 0);
    let split_replica = workload::sites::site_addresses(0, sites[0].layout)[0];
    // The split site accepts the connect and never answers — but only on
    // the direct path, and only inside the window.
    assert_eq!(view.server_behavior(split_replica, t(1.5)).0, ServerBehavior::AcceptNoResponse);
    assert_ne!(
        ProxyView::new(&gt, 0).server_behavior(split_replica, t(1.5)).0,
        ServerBehavior::AcceptNoResponse
    );

    // The MTU hole lets the connect and the first ~1.2 kB through, then
    // the transfer hangs; another client's path to the same site is clean.
    let mtu_replica = workload::sites::site_addresses(2, sites[2].layout)[0];
    let bytes = gt.site_index_bytes[2];
    let (behavior, stamp) = view.server_behavior(mtu_replica, t(1.5));
    assert_eq!(behavior, ServerBehavior::StallAfter(1200u64.min(bytes)));
    assert!(stamp.contains(FaultSet::MTU_BLACKHOLE));
    assert_eq!(stamp.true_blame(), TrueBlame::PairSpecific);
    let bystander = ClientView::new(&gt, 1).server_behavior(mtu_replica, t(1.5)).1;
    assert!(!bystander.contains(FaultSet::MTU_BLACKHOLE));
    assert!(!view.server_behavior(mtu_replica, t(2.1)).1.contains(FaultSet::MTU_BLACKHOLE));
}

#[test]
fn cdn_brownout_scopes_to_the_faulted_region() {
    let (fleet, sites, mut gt) = small_world(6);
    // Site 2 browns out for region group 0 between 1h and 2h. Clients in
    // group 0 carry the stamp inside the window; clients elsewhere never do.
    let n = fleet.clients.len();
    gt.adversarial.group_of_client = (0..n).map(|c| Some((c % 2) as u16)).collect();
    gt.adversarial.cdn_brownout.insert(
        2,
        (
            std::collections::HashSet::from([0u16]),
            Timeline::from_changes(false, [(t(1.0), true), (t(2.0), false)]),
        ),
    );
    let replica = workload::sites::site_addresses(2, sites[2].layout)[0];

    let in_region = ClientView::new(&gt, 0).server_behavior(replica, t(1.5)).1;
    assert!(in_region.contains(FaultSet::CDN_BROWNOUT));
    assert_eq!(in_region.true_blame(), TrueBlame::ServerSide);
    let before = ClientView::new(&gt, 0).server_behavior(replica, t(0.5)).1;
    assert!(!before.contains(FaultSet::CDN_BROWNOUT));
    let elsewhere = ClientView::new(&gt, 1).server_behavior(replica, t(1.5)).1;
    assert!(!elsewhere.contains(FaultSet::CDN_BROWNOUT));
}

#[test]
fn wrong_dns_stamps_both_phases_and_heals_with_the_window() {
    let (_, sites, mut gt) = small_world(6);
    let host: dnswire::DomainName = sites[0].hostname.parse().expect("valid hostname");
    let apex = dnssim::zones::registrable_domain(&host);
    let decoy: std::net::Ipv4Addr = "192.0.2.10".parse().expect("valid addr");
    gt.adversarial.wrong_dns.insert(
        apex,
        (Timeline::from_changes(false, [(t(1.0), true), (t(2.0), false)]), decoy),
    );
    gt.adversarial.decoys.insert(decoy);

    let view = ClientView::new(&gt, 0);
    // DNS-phase stamp follows the poisoning window exactly.
    assert!(!view.true_dns_faults(&host, t(0.9)).contains(FaultSet::WRONG_DNS));
    assert!(view.true_dns_faults(&host, t(1.5)).contains(FaultSet::WRONG_DNS));
    assert!(!view.true_dns_faults(&host, t(2.1)).contains(FaultSet::WRONG_DNS));
    // Connect-phase: the decoy is stamped whenever it is dialed (a cached
    // poisoned answer can outlive the window); real replicas never are.
    let stamp = view.server_behavior(decoy, t(1.5)).1;
    assert!(stamp.contains(FaultSet::WRONG_DNS));
    assert_eq!(stamp.true_blame(), TrueBlame::ServerSide);
    let real = workload::sites::site_addresses(0, sites[0].layout)[0];
    assert!(!view.server_behavior(real, t(1.5)).1.contains(FaultSet::WRONG_DNS));
    // The zone serves everyone the decoy, so the proxy vantage agrees.
    assert!(ProxyView::new(&gt, 0).true_dns_faults(&host, t(1.5)).contains(FaultSet::WRONG_DNS));
}

#[test]
fn both_observers_stay_aligned_under_collection_loss() {
    use model::fingerprint;
    use workload::forensics::{ARCHETYPE_SLOTS, BLAME_CLASSES};
    use workload::{AdversarialProfile, ApparatusFaults, ForensicsConfig};
    let run = |observers: bool, threads: usize| {
        let mut cfg = ExperimentConfig::quick(20050101);
        cfg.hours = 8;
        cfg.wire_fidelity = false;
        cfg.threads = threads;
        cfg.adversarial = AdversarialProfile::adversarial_month();
        cfg.apparatus = ApparatusFaults {
            record_drop_prob: 0.05,
            ..ApparatusFaults::none()
        };
        cfg.record_provenance = observers;
        cfg.forensics = observers.then(ForensicsConfig::default);
        run_experiment(&cfg)
    };
    let unobserved = fingerprint(&run(false, 1).dataset);
    let mut first_keys = None;
    for threads in [1usize, 2, 7] {
        let out = run(true, threads);
        assert!(out.report.records_dropped > 0, "no record dropped");
        assert_eq!(fingerprint(&out.dataset), unobserved);
        let log = out.provenance.as_ref().expect("provenance requested");
        assert_eq!(log.records.len(), out.dataset.records.len());
        let store = out.forensics.as_ref().expect("forensics requested");
        assert!(!store.is_empty());
        assert!(store.len() <= BLAME_CLASSES * ARCHETYPE_SLOTS * 2 * report::caps::MAX_SAMPLES);
        for x in store.iter() {
            let r = &out.dataset.records[x.record_index];
            assert_eq!(
                (r.client.0, r.site.0, r.start, r.failed()),
                (x.client, x.site, x.start, x.failed),
                "exemplar points at the wrong row"
            );
            assert_eq!(log.records[x.record_index].all(), x.truth, "stamp vs trace");
        }
        let keys: Vec<_> = store.iter().map(|x| (x.key(), x.record_index)).collect();
        match &first_keys {
            None => first_keys = Some(keys),
            Some(first) => assert_eq!(&keys, first, "exemplars drift at {threads} threads"),
        }
    }
}

#[test]
fn audit_clears_the_agreement_floor_end_to_end() {
    use netprofiler::{audit, Analysis, AnalysisConfig};
    let mut cfg = ExperimentConfig::quick(20050101);
    cfg.hours = 24;
    cfg.wire_fidelity = false;
    cfg.record_provenance = true;
    let out = run_experiment(&cfg);
    let log = out.provenance.expect("provenance requested");
    let analysis = Analysis::new(&out.dataset, AnalysisConfig::default());
    let report = audit::audit(&analysis, &log);

    assert_eq!(report.stamped_records, out.dataset.records.len() as u64);
    assert!(report.blame.total() > 0, "a day of accesses produces scorable failures");
    assert!(
        report.blame.agreement() >= 0.5,
        "blame agreement {:.3} below the 0.5 floor\nmatrix: {:?}",
        report.blame.agreement(),
        report.blame.matrix
    );
    // Detection never invents blocked pairs that were not injected.
    assert_eq!(report.pairs.spurious, Vec::<(u16, u16)>::new());
    assert!(report.pairs.overlap.precision() >= 0.5);
}
