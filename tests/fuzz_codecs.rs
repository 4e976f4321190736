//! Fuzz the wire codecs with random truncations and bit flips.
//!
//! The contract under test for MRT, the one input the apparatus corrupts:
//!
//! 1. neither the strict nor the salvage decoder ever panics, whatever the
//!    input bytes;
//! 2. when the strict decoder rejects the input, the salvage decoder
//!    reports at least one issue (corruption never passes silently);
//! 3. when the salvage decoder reports no issues, the strict decoder
//!    succeeds and both decode identically.
//!
//! The DNS codec has no salvage decoder: its strict decoder must never
//! panic on damaged messages or pure garbage, and intact messages must
//! round-trip. Its verdict (the message, or the exact error) must also
//! equal that of a reference decoder that reads each section into owned
//! records as it checks it, the way the codec decoded before it validated
//! in place.

use bgpsim::mrt::{decode_stream, decode_stream_salvage, encode_stream, MrtPrefixTable};
use bgpsim::{BgpUpdate, UpdateKind};
use model::{PrefixId, SimTime};
use netsim::SimRng;
use proptest::prelude::*;
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

fn mrt_fixture(seed: u64, prefixes: &[model::Ipv4Prefix]) -> Vec<u8> {
    let table = MrtPrefixTable::new(prefixes);
    let mut rng = SimRng::new(seed).fork_str("fuzz-mrt");
    let updates: Vec<BgpUpdate> = (0..40)
        .map(|i| BgpUpdate {
            time: SimTime::from_secs(i * 97),
            peer: (rng.next_u64() % 73) as u16,
            prefix: PrefixId((rng.next_u64() % prefixes.len() as u64) as u32),
            kind: if rng.next_u64().is_multiple_of(3) {
                UpdateKind::Withdraw
            } else {
                UpdateKind::Announce
            },
        })
        .collect();
    encode_stream(&updates, &table)
}

fn dns_fixture(seed: u64) -> Vec<u8> {
    use dnswire::{DomainName, Header, Message, Question, RData, RecordType, ResourceRecord};
    let mut rng = SimRng::new(seed).fork_str("fuzz-dns");
    let host: DomainName = format!("www.site{}.example", rng.next_u64() % 50)
        .parse()
        .expect("valid name");
    let id = (rng.next_u64() & 0xFFFF) as u16;
    let answers = (0..(1 + rng.next_u64() % 6))
        .map(|i| {
            let addr = std::net::Ipv4Addr::new(10, 3, 0, i as u8);
            ResourceRecord::new(host.clone(), 300, RData::A(addr))
        })
        .collect();
    let resp = Message {
        header: Header {
            id,
            is_response: true,
            recursion_desired: true,
            ..Header::default()
        },
        questions: vec![Question::new(host, RecordType::A)],
        answers,
        authority: vec![ResourceRecord::new(
            "example".parse().expect("valid name"),
            3600,
            RData::Ns("ns.example".parse().expect("valid name")),
        )],
        ..Message::default()
    };
    resp.encode().expect("fixture encodes")
}

/// The reference DNS decoder: header, then each question and record read
/// into owned names and data as it is checked, with the codec's checks and
/// errors. Written against the public reader only, so it shares no code
/// with the decoder under test beyond the header and the primitive reads.
mod reference {
    use dnswire::wire::WireReader;
    use dnswire::{
        DomainName, Header, Message, Question, RData, RecordClass, RecordType, ResourceRecord,
        WireError,
    };
    use std::net::Ipv4Addr;

    pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
        let mut r = WireReader::new(bytes);
        let header = Header::decode(&mut r)?;
        let mut questions = Vec::with_capacity(header.qdcount as usize);
        for _ in 0..header.qdcount {
            questions.push(Question {
                qname: name(bytes, &mut r)?,
                qtype: RecordType::from_u16(r.get_u16()?),
                qclass: RecordClass::from_u16(r.get_u16()?),
            });
        }
        let mut sections: [Vec<ResourceRecord>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (i, count) in [header.ancount, header.nscount, header.arcount]
            .iter()
            .enumerate()
        {
            for _ in 0..*count {
                if r.is_at_end() {
                    return Err(WireError::CountMismatch);
                }
                sections[i].push(record(bytes, &mut r)?);
            }
        }
        let [answers, authority, additional] = sections;
        Ok(Message {
            header,
            questions,
            answers,
            authority,
            additional,
        })
    }

    fn record(bytes: &[u8], r: &mut WireReader<'_>) -> Result<ResourceRecord, WireError> {
        let name = name(bytes, r)?;
        let rtype = RecordType::from_u16(r.get_u16()?);
        let class = RecordClass::from_u16(r.get_u16()?);
        let ttl = r.get_u32()?;
        let rdlen = r.get_u16()? as usize;
        if r.remaining() < rdlen {
            return Err(WireError::Truncated);
        }
        let start = r.pos();
        let end = start + rdlen;
        let rdata = match rtype {
            RecordType::A => {
                let b = r.get_slice(4)?;
                RData::A(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
            }
            RecordType::Ns => RData::Ns(self::name(bytes, r)?),
            RecordType::Cname => RData::Cname(self::name(bytes, r)?),
            RecordType::Other(_) => RData::Opaque(r.get_slice(rdlen)?.to_vec()),
        };
        if r.pos() != end {
            return Err(WireError::RdataLengthMismatch {
                declared: rdlen as u16,
                actual: r.pos() - start,
            });
        }
        Ok(ResourceRecord {
            name,
            rtype,
            class,
            ttl,
            rdata,
        })
    }

    /// A (possibly compressed) name at the cursor, collected label by
    /// label; the cursor moves past its in-place form.
    fn name(bytes: &[u8], r: &mut WireReader<'_>) -> Result<DomainName, WireError> {
        let mut labels: Vec<&[u8]> = Vec::new();
        let mut wire_len = 1;
        let mut bad_byte: Option<u8> = None;
        let mut read_pos = r.pos();
        let mut followed = 0;
        let mut cursor_after: Option<usize> = None;
        loop {
            let len_octet = *bytes.get(read_pos).ok_or(WireError::Truncated)?;
            match len_octet & 0xC0 {
                0x00 if len_octet == 0 => {
                    let after = cursor_after.unwrap_or(read_pos + 1);
                    r.get_slice(after - r.pos())?;
                    break;
                }
                0x00 => {
                    let (start, end) = (read_pos + 1, read_pos + 1 + len_octet as usize);
                    if end > bytes.len() {
                        return Err(WireError::Truncated);
                    }
                    let label = &bytes[start..end];
                    wire_len += 1 + label.len();
                    if wire_len > 255 {
                        return Err(WireError::NameTooLong(wire_len));
                    }
                    if bad_byte.is_none() {
                        bad_byte = label
                            .iter()
                            .copied()
                            .find(|&b| !(b.is_ascii_alphanumeric() || b == b'-' || b == b'_'));
                    }
                    labels.push(label);
                    read_pos = end;
                }
                0xC0 => {
                    let second = *bytes.get(read_pos + 1).ok_or(WireError::Truncated)?;
                    let target = (u16::from(len_octet & 0x3F) << 8) | u16::from(second);
                    cursor_after.get_or_insert(read_pos + 2);
                    if usize::from(target) >= read_pos {
                        return Err(WireError::BadPointer(target));
                    }
                    followed += 1;
                    if followed > 64 {
                        return Err(WireError::PointerLoop);
                    }
                    read_pos = usize::from(target);
                }
                other => return Err(WireError::BadLabelType(other)),
            }
        }
        match bad_byte {
            Some(b) => Err(WireError::BadLabelByte(b)),
            None => DomainName::from_labels(labels),
        }
    }
}

fn prefixes() -> Vec<model::Ipv4Prefix> {
    (0..8u8)
        .map(|i| model::Ipv4Prefix::new(std::net::Ipv4Addr::new(10, 0, i, 0), 24).expect("/24"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

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

    /// DNS: a damaged message never panics the decoder; an intact one
    /// round-trips.
    #[test]
    fn dns_decoders_survive_corruption(
        seed in 0u64..1_000_000,
        flips in 0u32..12,
        cut in 0u8..2,
    ) {
        let mut wire = dns_fixture(seed);
        let intact = dnswire::Message::decode(&wire).expect("fixture decodes");
        prop_assert_eq!(intact.encode().expect("fixture re-encodes"), wire.clone());
        prop_assert_eq!(Ok(intact), reference::decode(&wire));
        corrupt(&mut wire, seed, flips, cut == 1);
        prop_assert_eq!(dnswire::Message::decode(&wire), reference::decode(&wire));
    }

    /// Pure garbage never panics any decoder, strict or salvage.
    #[test]
    fn garbage_never_panics_any_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let pfx = prefixes();
        let table = MrtPrefixTable::new(&pfx);
        let _ = decode_stream(&bytes, &table);
        let _ = decode_stream_salvage(&bytes, &table);
        prop_assert_eq!(dnswire::Message::decode(&bytes), reference::decode(&bytes));
    }
}
