//! Cross-crate consistency: the substrates agree with each other when
//! composed, independent of the workload calibration.

use dnssim::{LdnsCache, NoFaults, ResolverConfig, StubResolver, ZoneTree};
use dnswire::DomainName;
use model::{DigOutcome, DnsErrorCode, DnsFailureKind, SimDuration, SimTime, TcpFailureKind};
use netsim::SimRng;
use proptest::prelude::*;
use std::net::Ipv4Addr;
use tcpsim::{simulate_connection, PathQuality, ServerBehavior};

fn hosts() -> Vec<(DomainName, Vec<Ipv4Addr>)> {
    (0..20)
        .map(|i| {
            let name: DomainName = format!("www.host{i:02}.example.com").parse().unwrap();
            let addrs = (0..=(i % 3))
                .map(|j| Ipv4Addr::new(203, 0, i as u8, 80 + j as u8))
                .collect();
            (name, addrs)
        })
        .collect()
}

#[test]
fn resolver_answers_match_zone_truth_for_every_host() {
    let hosts = hosts();
    let tree = ZoneTree::build_for_hosts(&hosts);
    let mut resolver = StubResolver::new(&tree, ResolverConfig::default());
    let mut rng = SimRng::new(9);
    let mut cache = LdnsCache::new();
    let mut got = Vec::new();
    for (name, addrs) in &hosts {
        let t = SimTime::from_hours(1);
        let res = resolver.resolve_into(name, &NoFaults, t, &mut rng, &mut cache, &mut got);
        res.result.expect("healthy resolution");
        got.sort();
        let mut want = addrs.clone();
        want.sort();
        assert_eq!(got, want, "addresses for {name}");
    }
}

/// Aliases in the hosts' zone, `example.com`: a two-name CNAME chain that
/// ends at a host in the zone, and a CNAME out of the zone.
const ALIASES: [(&str, &str); 3] = [
    ("w3.example.com", "web.example.com"),
    ("web.example.com", "www.host01.example.com"),
    ("away.example.com", "www.elsewhere.org"),
];

/// [`hosts`]' zone tree with the [`ALIASES`] added.
fn aliased_tree() -> ZoneTree {
    let mut tree = ZoneTree::build_for_hosts(&hosts());
    let zone = tree
        .zone_mut(&"example.com".parse().unwrap())
        .expect("the hosts' zone");
    for (alias, target) in ALIASES {
        zone.add_cname(alias.parse().unwrap(), target.parse().unwrap());
    }
    tree
}

/// Every host, then the head of the in-zone chain and the out-of-zone alias,
/// each with the outcome a healthy lookup has.
fn names() -> Vec<(DomainName, Result<(), DnsFailureKind>)> {
    let servfail = Err(DnsFailureKind::ErrorResponse(DnsErrorCode::ServFail));
    hosts()
        .into_iter()
        .map(|(name, _)| (name, Ok(())))
        .chain([
            ("w3.example.com".parse().unwrap(), Ok(())),
            ("away.example.com".parse().unwrap(), servfail),
        ])
        .collect()
}

#[test]
fn dig_and_resolver_agree_on_healthy_world() {
    let tree = aliased_tree();
    let mut resolver = StubResolver::new(&tree, ResolverConfig::default());
    let mut rng = SimRng::new(10);
    let (mut addrs, mut dug) = (Vec::new(), Vec::new());
    for (name, expected) in names() {
        let mut cache = LdnsCache::new();
        let t = SimTime::from_hours(2);
        let wget = resolver.resolve_into(&name, &NoFaults, t, &mut rng, &mut cache, &mut addrs);
        let dig = match resolver.dig_iterative(&name, &NoFaults, t, &mut rng, &mut dug) {
            DigOutcome::Resolved => Ok(()),
            DigOutcome::Failed(kind) => Err(kind),
            DigOutcome::NotRun => panic!("a dig that ran"),
        };
        assert_eq!(wget.result, expected, "{name}");
        assert_eq!(dig, expected, "disagreement on {name}");
        // wget's LDNS rotates the RRset; dig reads it in zone order.
        addrs.sort();
        dug.sort();
        assert_eq!(addrs, dug, "{name}");
    }
}

/// One connection of `bytes` at `loss` over a 70 ms path, checked against
/// what the model guarantees of every attempt: the outcome is what reached
/// the client, the capture sees no more retransmissions than the sender
/// made, and the duration holds every wait the attempt made. Each request
/// or data retransmission waits one 3 s RTO, a failure past the handshake
/// then waits out the 60 s idle rule, and an unreachable server's four
/// SYNs back off 3 + 6 + 12 + 24 s. No ceiling holds: the idle rule bounds
/// only the silence after the last progress, not the RTO waits of a
/// transfer that keeps progressing.
fn checked_connection(
    behavior: ServerBehavior,
    bytes: u64,
    loss: f64,
    seed: u64,
) -> tcpsim::ConnectionResult {
    let path = PathQuality {
        loss,
        rtt: SimDuration::from_millis(70),
    };
    let start = SimTime::from_hours(1);
    let r = simulate_connection(behavior, &path, bytes, start, &mut SimRng::new(seed));
    let case = format!("{behavior:?}, {bytes} bytes, loss {loss}, seed {seed}: {r:?}");
    assert!(
        r.retransmissions_visible <= r.retransmissions_sent,
        "{case}"
    );
    let delivered = r.bytes_delivered;
    match r.outcome {
        Ok(()) => assert_eq!(delivered, bytes, "{case}"),
        Err(TcpFailureKind::PartialResponse) => {
            assert!(delivered > 0 && delivered < bytes, "{case}")
        }
        Err(_) => assert_eq!(delivered, 0, "{case}"),
    }
    let idle = match r.outcome {
        Err(TcpFailureKind::NoResponse | TcpFailureKind::PartialResponse) => 60,
        _ => 0,
    };
    let waits = SimDuration::from_secs(3 * u64::from(r.retransmissions_sent) + idle);
    assert!(r.duration >= waits, "{case}");
    if behavior == ServerBehavior::Unreachable {
        assert_eq!(r.outcome, Err(TcpFailureKind::NoConnection), "{case}");
        assert_eq!(r.syn_retransmissions, 3, "{case}");
        assert_eq!(r.duration, SimDuration::from_secs(45), "{case}");
    }
    r
}

/// Two lossy transfers whose RTO waits alone run past the 225 s that a
/// 45 s handshake, a 60 s idle wait and 120 s more would allow: one
/// completes, one stalls.
#[test]
fn lossy_transfers_wait_out_every_retransmission() {
    for (seed, outcome) in [
        (2953, Ok(())),
        (15271, Err(TcpFailureKind::PartialResponse)),
    ] {
        let r = checked_connection(ServerBehavior::Healthy, 149_999, 0.199, seed);
        assert_eq!(r.outcome, outcome, "seed {seed}");
        assert!(
            r.duration > SimDuration::from_secs(225),
            "seed {seed}: {:?}",
            r.duration
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any seed, loss rate, behaviour and size, a connection keeps what
    /// [`checked_connection`] checks.
    #[test]
    fn tcp_outcome_always_matches_bytes_delivered(
        seed in 0u64..10_000,
        loss in 0.0f64..0.20,
        behavior_idx in 0usize..5,
        bytes in 500u64..150_000,
    ) {
        let behavior = [
            ServerBehavior::Healthy,
            ServerBehavior::Unreachable,
            ServerBehavior::Refusing,
            ServerBehavior::AcceptNoResponse,
            ServerBehavior::StallAfter(bytes / 2),
        ][behavior_idx];
        checked_connection(behavior, bytes, loss, seed);
    }

    /// DNS wire fidelity changes what a lookup costs, not what it finds:
    /// with query loss on, a walk, a cache hit and a dig give the same
    /// outcomes, latencies and RRsets (in order) with the codecs on or off,
    /// and leave the RNG at the same place.
    #[test]
    fn wire_fidelity_never_changes_outcomes(
        seed in 0u64..2_000,
        name_idx in 0usize..22,
        loss in 0.0f64..0.5,
    ) {
        let tree = aliased_tree();
        let on_cfg = ResolverConfig { query_loss_prob: loss, wire_fidelity: true };
        let off_cfg = ResolverConfig { wire_fidelity: false, ..on_cfg };
        let mut on = StubResolver::new(&tree, on_cfg);
        let mut off = StubResolver::new(&tree, off_cfg);
        let name = &names()[name_idx].0;
        let (mut rng_a, mut rng_b) = (SimRng::new(seed), SimRng::new(seed));
        let (mut x, mut y) = (Vec::new(), Vec::new());
        let (mut cache_a, mut cache_b) = (LdnsCache::new(), LdnsCache::new());
        let t = SimTime::from_hours(3);
        for at in [t, t + SimDuration::from_secs(60)] {
            let a = on.resolve_into(name, &NoFaults, at, &mut rng_a, &mut cache_a, &mut x);
            let b = off.resolve_into(name, &NoFaults, at, &mut rng_b, &mut cache_b, &mut y);
            prop_assert_eq!(a.result, b.result, "fidelity changed outcome");
            prop_assert_eq!(a.elapsed, b.elapsed);
            prop_assert_eq!(a.from_cache, b.from_cache);
            prop_assert_eq!(&x, &y);
        }
        let dig_a = on.dig_iterative(name, &NoFaults, t, &mut rng_a, &mut x);
        let dig_b = off.dig_iterative(name, &NoFaults, t, &mut rng_b, &mut y);
        prop_assert_eq!(dig_a, dig_b);
        prop_assert_eq!(&x, &y);
        prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }
}

#[test]
fn bgp_cleaning_is_stable_on_clean_data() {
    use bgpsim::{aggregate, clean, generate, BgpScenario};
    let sc = BgpScenario::quiet(30, 96);
    let raw = generate(&sc, &mut SimRng::new(3));
    let series = aggregate(&raw.updates, 30, 96);
    let (once, r1) = clean(&series, &raw.hourly_unique_prefixes);
    assert!(r1.reset_hours.is_empty());
    // Cleaning clean data twice changes nothing.
    let (twice, _) = clean(&once, &raw.hourly_unique_prefixes);
    for p in 0..30u32 {
        for h in 0..96u32 {
            assert_eq!(
                once.get(model::PrefixId(p), h),
                twice.get(model::PrefixId(p), h)
            );
        }
    }
}
