//! TCP-model benchmarks: connection simulation and trace post-processing.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use model::{SimDuration, SimTime};
use netsim::SimRng;
use tcpsim::{
    classify_trace, count_retransmissions, simulate_connection, PathQuality, ServerBehavior,
};
use std::hint::black_box;

fn bench_connections(c: &mut Criterion) {
    let mut g = c.benchmark_group("connection");
    g.throughput(Throughput::Elements(1));
    let cases = [
        ("healthy_30k_lossless", ServerBehavior::Healthy, 0.0, 30_000u64, true),
        ("healthy_30k_5pct_loss", ServerBehavior::Healthy, 0.05, 30_000, true),
        ("unreachable", ServerBehavior::Unreachable, 0.0, 30_000, true),
        ("stall_mid_transfer", ServerBehavior::StallAfter(10_000), 0.0, 30_000, true),
        ("healthy_no_trace", ServerBehavior::Healthy, 0.01, 30_000, false),
    ];
    for (label, behavior, loss, bytes, record) in cases {
        let path = PathQuality {
            loss,
            rtt: SimDuration::from_millis(80),
        };
        g.bench_function(label, |b| {
            let mut rng = SimRng::new(11);
            b.iter(|| {
                black_box(simulate_connection(
                    behavior,
                    &path,
                    bytes,
                    SimTime::from_hours(1),
                    &mut rng,
                    record,
                ))
            })
        });
    }
    g.finish();
}

fn bench_trace_postprocessing(c: &mut Criterion) {
    // Build a realistic lossy trace once.
    let path = PathQuality {
        loss: 0.05,
        rtt: SimDuration::from_millis(80),
    };
    let r = simulate_connection(
        ServerBehavior::Healthy,
        &path,
        120_000,
        SimTime::from_hours(1),
        &mut SimRng::new(13),
        true,
    );
    let trace = r.trace.unwrap();
    let mut g = c.benchmark_group("trace");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("classify", |b| b.iter(|| black_box(classify_trace(&trace))));
    g.bench_function("count_retransmissions", |b| {
        b.iter(|| black_box(count_retransmissions(&trace)))
    });
    g.finish();
}

fn bench_pcap(c: &mut Criterion) {
    use tcpsim::{decode_pcap, encode_pcap, PcapEndpoints};
    let path = PathQuality {
        loss: 0.03,
        rtt: SimDuration::from_millis(80),
    };
    let r = simulate_connection(
        ServerBehavior::Healthy,
        &path,
        120_000,
        SimTime::from_hours(1),
        &mut SimRng::new(21),
        true,
    );
    let trace = r.trace.unwrap();
    let ep = PcapEndpoints::default();
    let wire = encode_pcap(&trace, &ep);
    let mut g = c.benchmark_group("pcap");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("encode", |b| b.iter(|| black_box(encode_pcap(&trace, &ep))));
    g.bench_function("decode", |b| {
        b.iter(|| black_box(decode_pcap(&wire, ep.client).unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench_connections, bench_trace_postprocessing, bench_pcap);
criterion_main!(benches);
