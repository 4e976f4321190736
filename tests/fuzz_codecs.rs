//! Fuzz the wire codecs with random truncations and bit flips.
//!
//! The contract under test, for pcap, MRT and DNS alike:
//!
//! 1. neither the strict nor the salvage decoder ever panics, whatever the
//!    input bytes;
//! 2. when the strict decoder rejects the input, the salvage decoder
//!    reports at least one issue (corruption never passes silently);
//! 3. when the salvage decoder reports no issues, the strict decoder
//!    succeeds and both decode identically.
//!
//! The HTTP text codec has no salvage decoder: its request and response
//! decoders must never panic on damaged heads or overlong multi-byte
//! header lines, and intact heads must round-trip.

use bgpsim::mrt::{decode_stream, decode_stream_salvage, encode_stream, MrtPrefixTable};
use bgpsim::{BgpUpdate, UpdateKind};
use httpsim::{HttpError, HttpRequest, HttpResponse};
use model::{PrefixId, SimDuration, SimTime};
use netsim::SimRng;
use proptest::prelude::*;
use tcpsim::pcap::{decode_pcap, decode_pcap_salvage, encode_pcap, PcapEndpoints};
use tcpsim::{simulate_connection, PathQuality, ServerBehavior, TcpConfig};
use workload::apparatus::{bitflip, truncate_tail};

/// Corrupt `buf` in place: `flips` random bit flips, then (if `cut` is
/// true) a truncation somewhere in the final third.
fn corrupt(buf: &mut Vec<u8>, seed: u64, flips: u32, cut: bool) {
    let mut rng = SimRng::new(seed).fork_str("fuzz-corrupt");
    bitflip(buf, &mut rng, flips);
    if cut {
        if let Some(at) = truncate_tail(buf, &mut rng) {
            buf.truncate(at);
        }
    }
}

fn pcap_fixture(seed: u64) -> Vec<u8> {
    let r = simulate_connection(
        &TcpConfig::default(),
        ServerBehavior::Healthy,
        &PathQuality {
            loss: 0.03,
            rtt: SimDuration::from_millis(60),
        },
        20_000,
        SimTime::from_secs(50),
        &mut SimRng::new(seed),
        true,
    );
    encode_pcap(&r.trace.expect("trace requested"), &PcapEndpoints::default())
}

fn mrt_fixture(seed: u64, prefixes: &[model::Ipv4Prefix]) -> Vec<u8> {
    let table = MrtPrefixTable::new(prefixes);
    let mut rng = SimRng::new(seed).fork_str("fuzz-mrt");
    let updates: Vec<BgpUpdate> = (0..40)
        .map(|i| BgpUpdate {
            time: SimTime::from_secs(i * 97),
            peer: (rng.next_u64() % 73) as u16,
            prefix: PrefixId((rng.next_u64() % prefixes.len() as u64) as u32),
            kind: if rng.next_u64() % 3 == 0 {
                UpdateKind::Withdraw
            } else {
                UpdateKind::Announce
            },
        })
        .collect();
    encode_stream(&updates, &table)
}

fn dns_fixture(seed: u64) -> Vec<u8> {
    use dnswire::{DomainName, Message, RData, RecordType};
    let mut rng = SimRng::new(seed).fork_str("fuzz-dns");
    let host: DomainName = format!("www.site{}.example", rng.next_u64() % 50)
        .parse()
        .expect("valid name");
    let q = Message::query((rng.next_u64() & 0xFFFF) as u16, host.clone(), RecordType::A);
    let mut resp = q.response_from_query();
    for i in 0..(1 + rng.next_u64() % 6) {
        resp.add_answer(
            host.clone(),
            300,
            RData::A(std::net::Ipv4Addr::new(10, 3, 0, i as u8)),
        );
    }
    resp.add_authority(
        "example".parse().expect("valid name"),
        3600,
        RData::Ns("ns.example".parse().expect("valid name")),
    );
    resp.encode().expect("fixture encodes")
}

/// A request and one of the three response shapes an origin sends.
fn http_fixture(seed: u64) -> (HttpRequest, HttpResponse) {
    let mut rng = SimRng::new(seed).fork_str("fuzz-http");
    let host = format!("www.site{}.example", rng.next_u64() % 50);
    let request = HttpRequest::get(&host, "/", rng.next_u64().is_multiple_of(2));
    let response = match rng.next_u64() % 3 {
        0 => HttpResponse::ok(rng.next_u64() % 100_000),
        1 => HttpResponse::redirect(302, &format!("http://{host}/")),
        _ => HttpResponse::error(503, "Service Unavailable"),
    };
    (request, response)
}

fn prefixes() -> Vec<model::Ipv4Prefix> {
    (0..8u8)
        .map(|i| model::Ipv4Prefix::new(std::net::Ipv4Addr::new(10, 0, i, 0), 24).expect("/24"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// pcap: the decoder contract holds under random damage.
    #[test]
    fn pcap_decoders_survive_corruption(
        seed in 0u64..1_000_000,
        flips in 0u32..12,
        cut in 0u8..2,
    ) {
        let mut wire = pcap_fixture(seed);
        corrupt(&mut wire, seed, flips, cut == 1);
        let client = PcapEndpoints::default().client;
        let strict = decode_pcap(&wire, client);
        let (salvaged, issues) = decode_pcap_salvage(&wire, client);
        if strict.is_err() {
            prop_assert!(!issues.is_empty(), "corruption must be reported");
        }
        if issues.is_empty() {
            prop_assert_eq!(salvaged, strict.expect("no issues implies strict success"));
        }
    }

    /// MRT: the decoder contract holds under random damage.
    #[test]
    fn mrt_decoders_survive_corruption(
        seed in 0u64..1_000_000,
        flips in 0u32..12,
        cut in 0u8..2,
    ) {
        let pfx = prefixes();
        let table = MrtPrefixTable::new(&pfx);
        let mut wire = mrt_fixture(seed, &pfx);
        corrupt(&mut wire, seed, flips, cut == 1);
        let strict = decode_stream(&wire, &table);
        let (salvaged, issues) = decode_stream_salvage(&wire, &table);
        if strict.is_err() {
            prop_assert!(!issues.is_empty(), "corruption must be reported");
        }
        if issues.is_empty() {
            prop_assert_eq!(salvaged, strict.expect("no issues implies strict success"));
        }
    }

    /// DNS: the decoder contract holds under random damage.
    #[test]
    fn dns_decoders_survive_corruption(
        seed in 0u64..1_000_000,
        flips in 0u32..12,
        cut in 0u8..2,
    ) {
        let mut wire = dns_fixture(seed);
        corrupt(&mut wire, seed, flips, cut == 1);
        let strict = dnswire::Message::decode(&wire);
        let (salvaged, issues) = dnswire::Message::decode_salvage(&wire);
        if strict.is_err() {
            prop_assert!(!issues.is_empty(), "corruption must be reported");
        }
        if issues.is_empty() {
            prop_assert_eq!(salvaged, strict.expect("no issues implies strict success"));
        }
    }

    /// HTTP: damaged heads never panic either decoder; intact ones
    /// round-trip.
    #[test]
    fn http_decoders_survive_corruption(
        seed in 0u64..1_000_000,
        flips in 0u32..12,
        cut in 0u8..2,
    ) {
        let (request, response) = http_fixture(seed);
        let (request_text, head_text) = (request.encode(), response.encode_head());
        prop_assert_eq!(HttpRequest::decode(&request_text), Ok(request));
        prop_assert_eq!(HttpResponse::decode_head(&head_text), Ok(response));
        for text in [request_text, head_text] {
            let mut wire = text.into_bytes();
            corrupt(&mut wire, seed, flips, cut == 1);
            let damaged = String::from_utf8_lossy(&wire);
            let _ = HttpRequest::decode(&damaged);
            let _ = HttpResponse::decode_head(&damaged);
        }
    }

    /// An overlong header line of multi-byte text is rejected with a
    /// quote cut on a character boundary, wherever byte 64 falls.
    #[test]
    fn http_decoders_survive_long_multibyte_headers(
        prefix in 0usize..80,
        which in 0usize..4,
    ) {
        let ch = ["é", "€", "𝄞", "ß"][which];
        let line = format!("X-A:{}{}", "a".repeat(prefix), ch.repeat(8200 / ch.len()));
        let request = format!("GET / HTTP/1.1\r\n{line}\r\n\r\n");
        let response = format!("HTTP/1.1 200 OK\r\n{line}\r\n\r\n");
        for err in [
            HttpRequest::decode(&request).map(|_| ()),
            HttpResponse::decode_head(&response).map(|_| ()),
        ] {
            match err {
                Err(HttpError::BadHeader(quote)) => {
                    prop_assert!(quote.len() <= 64 && line.starts_with(&quote));
                    prop_assert!(quote.len() > 60, "cut at most one character short");
                }
                other => prop_assert!(false, "expected BadHeader, got {other:?}"),
            }
        }
    }

    /// Pure garbage never panics any decoder, strict or salvage.
    #[test]
    fn garbage_never_panics_any_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let pfx = prefixes();
        let table = MrtPrefixTable::new(&pfx);
        let client = PcapEndpoints::default().client;
        let _ = decode_pcap(&bytes, client);
        let _ = decode_pcap_salvage(&bytes, client);
        let _ = decode_stream(&bytes, &table);
        let _ = decode_stream_salvage(&bytes, &table);
        let _ = dnswire::Message::decode(&bytes);
        let _ = dnswire::Message::decode_salvage(&bytes);
    }
}
