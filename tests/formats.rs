//! Wire-format round trips over real workload output: the simulated feed
//! and traces survive the same on-disk formats the paper's tooling used
//! (MRT for BGP, libpcap for packet traces).

use bgpsim::{aggregate, decode_stream, encode_stream, generate, BgpScenario, MrtPrefixTable};
use model::{PrefixId, SimDuration, SimTime};
use netsim::SimRng;
use tcpsim::{
    classify_trace, decode_pcap, encode_pcap, simulate_connection, PathQuality, PcapEndpoints,
    ServerBehavior,
};

#[test]
fn month_scale_bgp_feed_round_trips_through_mrt() {
    let prefixes: Vec<model::Ipv4Prefix> = (0..137)
        .map(|i| {
            model::Ipv4Prefix::new(
                std::net::Ipv4Addr::new(100, (i / 250) as u8, (i % 250) as u8, 0),
                24,
            )
            .unwrap()
        })
        .collect();
    let table = MrtPrefixTable::new(&prefixes);
    let mut sc = BgpScenario::quiet(137, 240);
    sc.severe_events = (0..20)
        .map(|i| bgpsim::SevereEvent {
            prefix: PrefixId(i * 5),
            hour: i * 11 % 240,
            neighbors: 71,
            withdrawals_per_neighbor: 3,
            announcements_per_neighbor: 2,
        })
        .collect();
    let raw = generate(&sc, &mut SimRng::new(77));
    assert!(raw.updates.len() > 1_000, "{} updates", raw.updates.len());

    let wire = encode_stream(&raw.updates, &table);
    let decoded = decode_stream(&wire, &table).unwrap();
    assert_eq!(decoded.len(), raw.updates.len());

    // The analysis input (hourly aggregation) is identical either way.
    let direct = aggregate(&raw.updates, 137, 240);
    let via_mrt = aggregate(&decoded, 137, 240);
    for p in 0..137u32 {
        for h in 0..240u32 {
            assert_eq!(direct.get(PrefixId(p), h), via_mrt.get(PrefixId(p), h));
        }
    }
}

#[test]
fn traces_of_every_outcome_round_trip_through_pcap() {
    let ep = PcapEndpoints::default();
    let mut rng = SimRng::new(41);
    let behaviors = [
        ServerBehavior::Healthy,
        ServerBehavior::Unreachable,
        ServerBehavior::Refusing,
        ServerBehavior::AcceptNoResponse,
        ServerBehavior::StallAfter(6_000),
    ];
    for (i, behavior) in behaviors.iter().cycle().take(100).enumerate() {
        let loss = [0.0, 0.02, 0.08][i % 3];
        let r = simulate_connection(
            *behavior,
            &PathQuality {
                loss,
                rtt: SimDuration::from_millis(60),
            },
            30_000,
            SimTime::from_hours(1) + SimDuration::from_secs(i as u64 * 100),
            &mut rng,
            true,
        );
        let trace = r.trace.unwrap();
        let wire = encode_pcap(&trace, &ep);
        let decoded = decode_pcap(&wire, ep.client).unwrap();
        assert_eq!(decoded, trace, "case {i} {behavior:?} loss {loss}");
        assert_eq!(classify_trace(&decoded), classify_trace(&trace));
    }
}
