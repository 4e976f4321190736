//! The Section 4.7 proxy defect, demonstrated mechanistically.
//!
//! A website with three replicas, one of which flaps: a direct wget fails
//! over across the A records and nearly always succeeds, while a caching
//! proxy connects to the first resolved address only and fails whenever DNS
//! round-robin hands it the dead replica. This is the mechanism behind the
//! paper's Table 9 (iitb.ac.in / royal.gov.uk residual failures).
//!
//! ```text
//! cargo run --release --example proxy_failover
//! ```

use dnssim::{DnsFaults, ZoneTree};
use httpsim::Origin;
use model::{FaultSet, SimDuration, SimTime};
use netsim::process::EpisodeDuration;
use netsim::{OnOffProcess, SimRng, Timeline};
use tcpsim::{PathQuality, ServerBehavior};
use webclient::{AccessEnvironment, ClientSession, ProxyFetch, ProxySession, WgetConfig};
use std::net::Ipv4Addr;

/// A world with one 3-replica site whose first replica flaps.
struct FlappyReplica {
    origin: Origin,
    flap: Timeline<bool>,
    victim: Ipv4Addr,
}

impl DnsFaults for FlappyReplica {}

impl AccessEnvironment for FlappyReplica {
    fn server_behavior(&self, replica: Ipv4Addr, t: SimTime) -> (ServerBehavior, FaultSet) {
        let behavior = if replica == self.victim && *self.flap.at(t) {
            ServerBehavior::Unreachable
        } else {
            ServerBehavior::Healthy
        };
        (behavior, FaultSet::EMPTY)
    }

    fn path_quality(&self, _replica: Ipv4Addr, _t: SimTime) -> PathQuality {
        PathQuality {
            loss: 0.002,
            rtt: SimDuration::from_millis(120),
        }
    }

    fn origin(&self, host: &str) -> Option<&Origin> {
        self.origin.host.eq_ignore_ascii_case(host).then_some(&self.origin)
    }
}

fn main() {
    let host: dnswire::DomainName = "www.iitb.ac.in".parse().expect("valid");
    let replicas = vec![
        Ipv4Addr::new(203, 0, 113, 10),
        Ipv4Addr::new(198, 51, 100, 10),
        Ipv4Addr::new(192, 0, 2, 10),
    ];
    let tree = ZoneTree::build_for_hosts(&[(host.clone(), replicas.clone())]);

    // The first replica is down ~20% of the time in 10-minute flaps.
    let mut rng = SimRng::new(2005);
    let flap = OnOffProcess::new(
        SimDuration::from_secs(40 * 60),
        EpisodeDuration::Exp {
            mean: SimDuration::from_secs(10 * 60),
        },
    )
    .materialize(&mut rng, SimTime::from_hours(400));
    let env = FlappyReplica {
        origin: Origin::simple("www.iitb.ac.in", 19_000),
        flap,
        victim: replicas[0],
    };

    let mut direct = ClientSession::new(&tree, WgetConfig::default(), SimRng::new(1));
    let mut proxy = ProxySession::new(Default::default(), SimRng::new(2));

    let accesses = 2_000u64;
    let mut direct_fail = 0u64;
    let mut direct_extra_conns = 0u64;
    let mut proxy_fail = 0u64;
    for k in 0..accesses {
        let t = SimTime::from_secs(k * 600); // every 10 minutes
        let obs = direct.run_transaction(&env, &host, t);
        direct_fail += u64::from(obs.outcome.is_failure());
        direct_extra_conns += obs.connections.len().saturating_sub(1) as u64;

        match proxy.fetch(&env, &tree, &host, t, true) {
            ProxyFetch::Success { .. } => {}
            _ => proxy_fail += 1,
        }
    }

    let down_frac = env
        .flap
        .micros_matching(SimTime::ZERO, SimTime::from_hours(400), |s| *s) as f64
        / SimTime::from_hours(400).as_micros() as f64;
    println!("replica 1 of 3 is hard-down {:.1}% of the time (10-minute flaps)", down_frac * 100.0);
    println!("{accesses} accesses each:");
    println!(
        "  direct wget : {:>5} failures ({:.2}%) — fail-over used {} extra connections",
        direct_fail,
        direct_fail as f64 / accesses as f64 * 100.0,
        direct_extra_conns
    );
    println!(
        "  via proxy   : {:>5} failures ({:.2}%) — no fail-over, pays the full flap rate / 3",
        proxy_fail,
        proxy_fail as f64 / accesses as f64 * 100.0
    );
    println!(
        "\nthe proxy's failure rate tracks down-fraction/replicas ≈ {:.2}%,\n\
         while wget only fails on (rare) coincident outages — the paper's\n\
         Table 9 contrast between the CN clients and everyone else.",
        down_frac / 3.0 * 100.0
    );
}
