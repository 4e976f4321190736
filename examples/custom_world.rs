//! Building your own measurement world with the public APIs.
//!
//! The `workload` crate ships the paper's exact fleet and site list, but
//! every layer is usable on its own. This example builds a small custom
//! world from scratch — three sites with different fault behaviours, eight
//! clients at two offices — runs a week of accesses through the real
//! client/resolver/TCP machinery, and analyzes the result with the
//! `netprofiler` framework.
//!
//! ```text
//! cargo run --release --example custom_world
//! ```

use dnssim::{DnsFaults, ZoneTree};
use dnswire::DomainName;
use httpsim::Origin;
use model::{
    BgpHourlySeries, ClientCategory, ClientId, ClientMeta, ConnectionRecord, Dataset, FaultSet,
    Ipv4Prefix, PerformanceRecord, PrefixId, SimDuration, SimTime, SiteCategory, SiteId, SiteMeta,
};
use netsim::process::EpisodeDuration;
use netsim::{OnOffProcess, SimRng, Timeline};
use tcpsim::{PathQuality, ServerBehavior};
use webclient::{AccessEnvironment, ClientSession, WgetConfig};
use std::net::Ipv4Addr;

const HOURS: u32 = 168;

/// Our custom world: one flaky site that *degrades* (a third of accesses
/// fail while its fault process is active), a shared wide-area outage
/// process for office B (its uplink drops and every server becomes
/// unreachable, while cached DNS keeps resolving), and ten steady sites so
/// one site's trouble does not drown a client's hourly aggregate.
struct OfficeWorld {
    origins: Vec<Origin>,
    flaky_site: Timeline<bool>,
    office_b_link: Timeline<bool>,
    office_b: bool,
    flaky_addr: Ipv4Addr,
}

impl DnsFaults for OfficeWorld {}

impl AccessEnvironment for OfficeWorld {
    fn server_behavior(&self, replica: Ipv4Addr, t: SimTime) -> (ServerBehavior, FaultSet) {
        // This world keeps no fault sets, so every connect's stamp is empty.
        let down = (ServerBehavior::Unreachable, FaultSet::EMPTY);
        if self.office_b && *self.office_b_link.at(t) {
            // Office B's uplink is down: nothing answers.
            return down;
        }
        if replica == self.flaky_addr && *self.flaky_site.at(t) {
            // Degraded, not dead: ~a third of accesses fail (stateless
            // hash keyed by a coarse time bucket, as the workload does).
            let mut state = 0xD1CE ^ (t.as_micros() / 120_000_000);
            let draw =
                (netsim::rng::splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            if draw < 0.33 {
                return down;
            }
        }
        (ServerBehavior::Healthy, FaultSet::EMPTY)
    }

    fn path_quality(&self, _replica: Ipv4Addr, _t: SimTime) -> PathQuality {
        PathQuality {
            loss: 0.004,
            rtt: SimDuration::from_millis(60),
        }
    }

    fn origin(&self, host: &DomainName) -> Option<&Origin> {
        self.origins.iter().find(|o| o.host() == host)
    }
}

fn main() {
    // --- Topology -----------------------------------------------------------
    let mut hosts: Vec<(DomainName, Vec<Ipv4Addr>)> = vec![
        ("www.flaky.example".parse().unwrap(), vec![Ipv4Addr::new(203, 0, 113, 10)]),
        ("www.far.example".parse().unwrap(), vec![Ipv4Addr::new(192, 0, 2, 10)]),
    ];
    let mut origins = vec![
        Origin::simple(hosts[0].0.clone(), 22_000),
        Origin::simple(hosts[1].0.clone(), 18_000),
    ];
    for i in 0..10u8 {
        let name: DomainName = format!("www.steady{i}.example").parse().unwrap();
        origins.push(Origin::simple(name.clone(), 30_000));
        hosts.push((name, vec![Ipv4Addr::new(198, 51, 100, 10 + i)]));
    }
    let tree = ZoneTree::build_for_hosts(&hosts);

    // --- Fault processes ------------------------------------------------------
    let rng = SimRng::new(99);
    let horizon = SimTime::from_hours(u64::from(HOURS));
    let flaky_site = OnOffProcess::new(
        SimDuration::from_hours(20),
        EpisodeDuration::Exp { mean: SimDuration::from_secs(50 * 60) },
    )
    .materialize(&mut rng.fork(1), horizon);
    let office_b_link = OnOffProcess::new(
        SimDuration::from_hours(60),
        EpisodeDuration::Exp { mean: SimDuration::from_secs(25 * 60) },
    )
    .materialize(&mut rng.fork(2), horizon);

    // --- Run eight clients ------------------------------------------------------
    let mut records: Vec<PerformanceRecord> = Vec::new();
    let mut connections: Vec<ConnectionRecord> = Vec::new();
    for client in 0..8u16 {
        let office_b = client >= 4;
        let env = OfficeWorld {
            origins: origins.clone(),
            flaky_site: flaky_site.clone(),
            office_b_link: office_b_link.clone(),
            office_b,
            flaky_addr: hosts[0].1[0],
        };
        let mut session = ClientSession::new(
            ClientId(client),
            &tree,
            WgetConfig::default(),
            rng.fork(100 + u64::from(client)),
        );
        let mut lrng = rng.fork(200 + u64::from(client));
        for hour in 0..HOURS {
            // Two accesses of each of the 12 sites per hour: hourly rates
            // are meaningful at the default 12-sample floor.
            for k in 0..2u64 {
                for (si, (host, _)) in hosts.iter().enumerate() {
                    let t = SimTime::from_hours(u64::from(hour))
                        + SimDuration::from_secs(k * 1_800 + lrng.below(1_500));
                    let site = SiteId(si as u16);
                    let (record, _, _) =
                        session.run_transaction(&env, site, host, t, &mut connections);
                    records.push(record);
                }
            }
        }
    }

    // --- Assemble a Dataset and analyze ----------------------------------------
    let clients = (0..8u16)
        .map(|i| ClientMeta {
            id: ClientId(i),
            name: format!("office-{}-{}", if i < 4 { "a" } else { "b" }, i),
            category: ClientCategory::CorpNet,
            colocation: Some(u16::from(i >= 4)),
            proxy: None,
            prefixes: vec![PrefixId(u32::from(i >= 4))],
            addr: Ipv4Addr::new(10, u8::from(i >= 4), 0, 10 + i as u8),
        })
        .collect();
    let sites = hosts
        .iter()
        .enumerate()
        .map(|(i, (host, addrs))| SiteMeta {
            id: SiteId(i as u16),
            hostname: host.to_string(),
            category: SiteCategory::UsMisc,
            addrs: addrs.clone(),
            replica_prefixes: addrs
                .iter()
                .map(|a| (*a, vec![PrefixId(2 + (i as u32).min(2))]))
                .collect(),
        })
        .collect();
    let prefixes: Vec<Ipv4Prefix> = vec![
        "10.0.0.0/24".parse().unwrap(),
        "10.1.0.0/24".parse().unwrap(),
        "203.0.113.0/24".parse().unwrap(),
        "192.0.2.0/24".parse().unwrap(),
        "198.51.100.0/24".parse().unwrap(),
    ];
    let ds = Dataset {
        hours: HOURS,
        clients,
        sites,
        records,
        connections,
        prefixes,
        bgp: BgpHourlySeries::new(5, HOURS),
    };

    println!(
        "custom world: {} transactions, {} connections, overall failure rate {:.2}%\n",
        ds.records.len(),
        ds.connections.len(),
        ds.overall_failure_rate() * 100.0
    );
    let analysis = netprofiler::Analysis::with_defaults(&ds);
    let blame = netprofiler::blame::table5(&analysis);
    println!(
        "blame: server-side {:.0}%, client-side {:.0}%, both {:.1}%, other {:.0}%",
        blame.share(netprofiler::BlameClass::ServerSide) * 100.0,
        blame.share(netprofiler::BlameClass::ClientSide) * 100.0,
        blame.share(netprofiler::BlameClass::Both) * 100.0,
        blame.share(netprofiler::BlameClass::Other) * 100.0,
    );
    println!(
        "note: with only 8 clients, office B's outages lift every *server's*
         hourly aggregate too, so those failures land in 'both' — the paper's
         Section 2.2 caveat about small populations, visible by construction.
         The flaky site's own failures classify cleanly as server-side."
    );
    // The flaky site should top the server-side episode list.
    let spread = netprofiler::spread::table6(&analysis);
    println!("\nserver-side episode hours by site:");
    for row in &spread {
        println!(
            "  {:<20} {:>4} h  spread {:.0}%",
            ds.site(row.site).hostname,
            row.episode_hours,
            row.spread() * 100.0
        );
    }
    // Office B's shared link trouble shows up as co-located similarity.
    let pairs = netprofiler::similarity::colocated_similarities(&analysis);
    let b_pairs: Vec<_> = pairs
        .iter()
        .filter(|p| ds.client(p.a).colocation == Some(1))
        .collect();
    let a_pairs: Vec<_> = pairs
        .iter()
        .filter(|p| ds.client(p.a).colocation == Some(0))
        .collect();
    let mean = |v: &[&netprofiler::similarity::PairSimilarity]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().map(|p| p.similarity()).sum::<f64>() / v.len() as f64
        }
    };
    println!(
        "\nco-located client-side similarity: office A {:.0}%, office B {:.0}%",
        mean(&a_pairs) * 100.0,
        mean(&b_pairs) * 100.0
    );
    println!("(office B shares a faulty uplink; office A's episodes are independent noise)");
}
