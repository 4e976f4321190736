//! DNS benchmarks: wire codec and simulated resolution.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dnssim::{LdnsCache, NoFaults, ResolverConfig, StubResolver, ZoneTree};
use dnswire::{DomainName, Message, RData, RecordType};
use model::{SimDuration, SimTime};
use netsim::SimRng;
use std::hint::black_box;
use std::net::Ipv4Addr;

fn sample_response() -> Message {
    let name: DomainName = "www.example.com".parse().unwrap();
    let q = Message::query(0x1234, name.clone(), RecordType::A);
    let mut resp = q.response_from_query();
    for i in 0..4u8 {
        resp.add_answer(name.clone(), 300, RData::A(Ipv4Addr::new(203, 0, 113, i)));
    }
    resp.add_authority(
        "example.com".parse().unwrap(),
        3600,
        RData::Ns("ns1.example.com".parse().unwrap()),
    );
    resp.add_additional(
        "ns1.example.com".parse().unwrap(),
        3600,
        RData::A(Ipv4Addr::new(198, 51, 100, 53)),
    );
    resp
}

/// A referral with four NS records and their glue, as an authoritative
/// server builds one: most of its names compress to pointers.
fn sample_referral() -> Message {
    let q = Message::iterative_query(0x2a5c, "www.example.com".parse().unwrap(), RecordType::A);
    let mut resp = q.response_from_query();
    resp.header.authoritative = true;
    for (i, c) in ["a", "b", "c", "d"].into_iter().enumerate() {
        let ns: DomainName = format!("{c}.root-servers.example").parse().unwrap();
        resp.add_authority(DomainName::root(), 86_400, RData::Ns(ns.clone()));
        resp.add_additional(ns, 86_400, RData::A(Ipv4Addr::new(192, 0, 32, i as u8 + 1)));
    }
    resp
}

fn bench_codec(c: &mut Criterion) {
    let msg = sample_response();
    let wire = msg.encode().unwrap();
    let mut g = c.benchmark_group("dnswire");
    g.throughput(Throughput::Elements(1));
    g.bench_function("encode_response", |b| {
        b.iter(|| black_box(msg.encode().unwrap()))
    });
    g.bench_function("decode_response", |b| {
        b.iter(|| black_box(Message::decode(&wire).unwrap()))
    });
    g.bench_function("roundtrip", |b| {
        b.iter(|| {
            let bytes = msg.encode().unwrap();
            black_box(Message::decode(&bytes).unwrap())
        })
    });
    // What every LDNS contact costs with the codec on: build the stub's
    // query, encode it into the resolution's buffer, decode it back.
    let qname: DomainName = "www.example.com".parse().unwrap();
    g.bench_function("stub_roundtrip", |b| {
        let mut buf = Vec::new();
        let mut id = 0u16;
        b.iter(|| {
            id = id.wrapping_add(1);
            let q = Message::query(id, qname.clone(), RecordType::A);
            q.encode_into(&mut buf).unwrap();
            black_box(Message::decode(&buf).unwrap())
        })
    });
    let referral = sample_referral();
    g.bench_function("referral_roundtrip", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            referral.encode_into(&mut buf).unwrap();
            black_box(Message::decode(&buf).unwrap())
        })
    });
    g.finish();
}

fn bench_resolution(c: &mut Criterion) {
    let hosts: Vec<(DomainName, Vec<Ipv4Addr>)> = (0..80)
        .map(|i| {
            let name: DomainName = format!("www.site{i:02}.example.com").parse().unwrap();
            (name, vec![Ipv4Addr::new(203, 0, i as u8, 80)])
        })
        .collect();
    let tree = ZoneTree::build_for_hosts(&hosts);
    let mut g = c.benchmark_group("resolution");
    for (label, fidelity) in [("full_walk_wire", true), ("full_walk_fast", false)] {
        let cfg = ResolverConfig {
            wire_fidelity: fidelity,
            ..ResolverConfig::default()
        };
        let resolver = StubResolver::new(&tree, cfg);
        g.bench_function(label, |b| {
            let mut rng = SimRng::new(3);
            let mut i = 0usize;
            b.iter(|| {
                // Fresh cache each call: measure the full hierarchy walk.
                let mut cache = LdnsCache::new();
                let name = &hosts[i % hosts.len()].0;
                i += 1;
                black_box(resolver.resolve(
                    name,
                    &NoFaults,
                    SimTime::from_hours(1),
                    &mut rng,
                    &mut cache,
                ))
            })
        });
    }
    g.bench_function("cache_hit", |b| {
        let resolver = StubResolver::new(&tree, ResolverConfig::default());
        let mut rng = SimRng::new(5);
        let mut cache = LdnsCache::new();
        let name = &hosts[0].0;
        resolver.resolve(name, &NoFaults, SimTime::from_hours(1), &mut rng, &mut cache);
        let t = SimTime::from_hours(1) + SimDuration::from_secs(30);
        b.iter(|| black_box(resolver.resolve(name, &NoFaults, t, &mut rng, &mut cache)))
    });
    g.finish();
}

criterion_group!(benches, bench_codec, bench_resolution);
criterion_main!(benches);
