//! Wire-format round trip over real workload output: the simulated BGP
//! feed survives MRT, the on-disk format the paper's BGP data came in.

use bgpsim::{aggregate, decode_stream, encode_stream, generate, BgpScenario, MrtPrefixTable};
use model::PrefixId;
use netsim::SimRng;

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
