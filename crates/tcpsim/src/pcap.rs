//! Classic libpcap serialization of packet traces.
//!
//! The paper's clients ran tcpdump/windump; this module writes the
//! simulated traces in the same on-disk format (pcap 2.4, LINKTYPE_RAW
//! IPv4), so they can be opened in tcpdump/Wireshark, and parses them back
//! for the round-trip tests. Packets are synthesized as minimal IPv4+TCP
//! headers whose flags/sequence numbers encode the simulated packet kinds.

use crate::packet::{Direction, PacketKind, Trace, TracePacket};
use model::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// pcap magic (microsecond timestamps, native byte order written as LE).
const PCAP_MAGIC: u32 = 0xA1B2_C3D4;
/// LINKTYPE_RAW: packets begin with the IPv4 header.
const LINKTYPE_RAW: u32 = 101;

const TCP_FIN: u8 = 0x01;
const TCP_SYN: u8 = 0x02;
const TCP_RST: u8 = 0x04;
const TCP_PSH: u8 = 0x08;
const TCP_ACK: u8 = 0x10;

/// Endpoint addresses used when serializing a trace.
#[derive(Clone, Copy, Debug)]
pub struct PcapEndpoints {
    pub client: Ipv4Addr,
    pub server: Ipv4Addr,
    pub client_port: u16,
    pub server_port: u16,
}

impl Default for PcapEndpoints {
    fn default() -> Self {
        PcapEndpoints {
            client: Ipv4Addr::new(10, 0, 0, 10),
            server: Ipv4Addr::new(203, 0, 113, 80),
            client_port: 34_567,
            server_port: 80,
        }
    }
}

/// Errors from pcap parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PcapError {
    Truncated,
    BadMagic(u32),
    BadLinkType(u32),
    BadPacket(&'static str),
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Truncated => write!(f, "truncated pcap"),
            PcapError::BadMagic(m) => write!(f, "bad pcap magic {m:#010x}"),
            PcapError::BadLinkType(l) => write!(f, "unsupported link type {l}"),
            PcapError::BadPacket(why) => write!(f, "bad packet: {why}"),
        }
    }
}

impl std::error::Error for PcapError {}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encode a trace as a pcap byte buffer.
pub fn encode_pcap(trace: &Trace, endpoints: &PcapEndpoints) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + trace.len() * 56);
    // Global header.
    put_u32(&mut out, PCAP_MAGIC);
    put_u16(&mut out, 2); // major
    put_u16(&mut out, 4); // minor
    put_u32(&mut out, 0); // thiszone
    put_u32(&mut out, 0); // sigfigs
    put_u32(&mut out, 65_535); // snaplen
    put_u32(&mut out, LINKTYPE_RAW);

    for p in trace {
        let packet = encode_packet(p, endpoints);
        put_u32(&mut out, (p.time.as_micros() / 1_000_000) as u32);
        put_u32(&mut out, (p.time.as_micros() % 1_000_000) as u32);
        put_u32(&mut out, packet.len() as u32);
        put_u32(&mut out, packet.len() as u32);
        out.extend_from_slice(&packet);
    }
    out
}

/// Synthesize the IPv4+TCP bytes for one simulated packet.
fn encode_packet(p: &TracePacket, ep: &PcapEndpoints) -> Vec<u8> {
    let (src, dst, sport, dport) = match p.direction {
        Direction::ClientToServer => (ep.client, ep.server, ep.client_port, ep.server_port),
        Direction::ServerToClient => (ep.server, ep.client, ep.server_port, ep.client_port),
    };
    // Flags and a sequence number that encodes the simulated seq.
    let (flags, seq, payload_len): (u8, u32, u16) = match p.kind {
        PacketKind::Syn => (TCP_SYN, 0, 0),
        PacketKind::SynAck => (TCP_SYN | TCP_ACK, 0, 0),
        PacketKind::Ack => (TCP_ACK, 1, 0),
        PacketKind::Request { seq } => (TCP_PSH | TCP_ACK, seq + 1, 64),
        PacketKind::Data { seq } => (TCP_PSH | TCP_ACK, seq + 1, 512),
        PacketKind::Rst => (TCP_RST, 1, 0),
        PacketKind::Fin => (TCP_FIN | TCP_ACK, 1, 0),
    };

    let total_len = 20 + 20 + payload_len;
    let mut out = Vec::with_capacity(usize::from(total_len));
    // IPv4 header (no options).
    out.push(0x45); // version 4, IHL 5
    out.push(0); // DSCP/ECN
    out.extend_from_slice(&total_len.to_be_bytes());
    out.extend_from_slice(&[0, 0]); // identification
    out.extend_from_slice(&[0x40, 0]); // DF, no fragment offset
    out.push(64); // TTL
    out.push(6); // TCP
    out.extend_from_slice(&[0, 0]); // checksum placeholder
    out.extend_from_slice(&src.octets());
    out.extend_from_slice(&dst.octets());
    // Fill the IPv4 header checksum (bytes 10-11).
    let checksum = ipv4_checksum(&out[..20]);
    out[10..12].copy_from_slice(&checksum.to_be_bytes());

    // TCP header.
    out.extend_from_slice(&sport.to_be_bytes());
    out.extend_from_slice(&dport.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&0u32.to_be_bytes()); // ack number
    out.push(0x50); // data offset 5
    out.push(flags);
    out.extend_from_slice(&8192u16.to_be_bytes()); // window
    out.extend_from_slice(&[0, 0, 0, 0]); // checksum, urgent (left zero)
    out.resize(usize::from(total_len), 0); // payload zeros
    out
}

fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    for chunk in header.chunks(2) {
        let word = u16::from_be_bytes([chunk[0], *chunk.get(1).unwrap_or(&0)]);
        sum += u32::from(word);
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Decode one captured packet (16-byte record header already consumed).
fn decode_packet(
    pkt: &[u8],
    ts_sec: u32,
    ts_usec: u32,
    client: Ipv4Addr,
) -> Result<TracePacket, PcapError> {
    if pkt.len() < 40 || pkt[0] != 0x45 {
        return Err(PcapError::BadPacket("short or non-IPv4"));
    }
    if pkt[9] != 6 {
        return Err(PcapError::BadPacket("not TCP"));
    }
    let src = Ipv4Addr::new(pkt[12], pkt[13], pkt[14], pkt[15]);
    let direction = if src == client {
        Direction::ClientToServer
    } else {
        Direction::ServerToClient
    };
    let tcp = &pkt[20..];
    let seq = u32::from_be_bytes([tcp[4], tcp[5], tcp[6], tcp[7]]);
    let flags = tcp[13];
    let payload = pkt.len() - 40;
    let kind = match flags {
        f if f & TCP_RST != 0 => PacketKind::Rst,
        f if f & TCP_SYN != 0 && f & TCP_ACK != 0 => PacketKind::SynAck,
        f if f & TCP_SYN != 0 => PacketKind::Syn,
        f if f & TCP_FIN != 0 => PacketKind::Fin,
        f if f & TCP_PSH != 0 && payload > 0 => {
            // Our encoder writes seq+1; wrapping keeps hand-crafted
            // packets carrying seq 0 from underflowing.
            if direction == Direction::ClientToServer {
                PacketKind::Request {
                    seq: seq.wrapping_sub(1),
                }
            } else {
                PacketKind::Data {
                    seq: seq.wrapping_sub(1),
                }
            }
        }
        _ => PacketKind::Ack,
    };
    Ok(TracePacket {
        time: SimTime::from_micros(0)
            + SimDuration::from_secs(u64::from(ts_sec))
            + SimDuration::from_micros(u64::from(ts_usec)),
        direction,
        kind,
    })
}

fn u32at(data: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]])
}

/// Parse a pcap buffer produced by [`encode_pcap`] back into a trace.
///
/// The client address is needed to recover packet directions.
pub fn decode_pcap(data: &[u8], client: Ipv4Addr) -> Result<Trace, PcapError> {
    if data.len() < 24 {
        return Err(PcapError::Truncated);
    }
    let magic = u32at(data, 0);
    if magic != PCAP_MAGIC {
        return Err(PcapError::BadMagic(magic));
    }
    let linktype = u32at(data, 20);
    if linktype != LINKTYPE_RAW {
        return Err(PcapError::BadLinkType(linktype));
    }

    let mut pos = 24;
    let mut trace = Vec::new();
    while pos < data.len() {
        if data.len() - pos < 16 {
            return Err(PcapError::Truncated);
        }
        let ts_sec = u32at(data, pos);
        let ts_usec = u32at(data, pos + 4);
        let incl = u32at(data, pos + 8) as usize;
        pos += 16;
        if data.len() - pos < incl {
            return Err(PcapError::Truncated);
        }
        let pkt = &data[pos..pos + incl];
        pos += incl;
        trace.push(decode_packet(pkt, ts_sec, ts_usec, client)?);
    }
    Ok(trace)
}

/// One quarantined region found while salvage-decoding a pcap buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PcapIssue {
    /// Byte offset of the record header (or garbage run) that failed.
    pub offset: usize,
    pub error: PcapError,
}

impl std::fmt::Display for PcapIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "offset {}: {}", self.offset, self.error)
    }
}

/// Does `pos` look like the start of a pcap record header? Our encoder
/// always writes `incl == orig` and whole IPv4+TCP packets, so a credible
/// header has matching lengths in packet range, fully contained in the
/// input.
fn plausible_record(data: &[u8], pos: usize) -> bool {
    if data.len().saturating_sub(pos) < 16 {
        return false;
    }
    let incl = u32at(data, pos + 8) as usize;
    let orig = u32at(data, pos + 12) as usize;
    incl == orig && (40..=2048).contains(&incl) && pos + 16 + incl <= data.len()
}

/// Lossy parse of a possibly corrupt pcap buffer: skips records that fail
/// to decode, resynchronizes on the next credible record header after a
/// framing error, and reports everything it quarantined. Never fails and
/// never panics; a hopeless input yields `(vec![], issues)`.
pub fn decode_pcap_salvage(data: &[u8], client: Ipv4Addr) -> (Trace, Vec<PcapIssue>) {
    let mut trace = Vec::new();
    let mut issues = Vec::new();
    if data.len() < 24 {
        issues.push(PcapIssue {
            offset: 0,
            error: PcapError::Truncated,
        });
        return (trace, issues);
    }
    // A damaged global header is reported but not fatal: record framing is
    // independent of it, so the packets may still be recoverable.
    let magic = u32at(data, 0);
    if magic != PCAP_MAGIC {
        issues.push(PcapIssue {
            offset: 0,
            error: PcapError::BadMagic(magic),
        });
    }
    let linktype = u32at(data, 20);
    if linktype != LINKTYPE_RAW {
        issues.push(PcapIssue {
            offset: 20,
            error: PcapError::BadLinkType(linktype),
        });
    }

    let mut pos = 24;
    while pos < data.len() {
        if data.len() - pos < 16 {
            issues.push(PcapIssue {
                offset: pos,
                error: PcapError::Truncated,
            });
            break;
        }
        if !plausible_record(data, pos) {
            issues.push(PcapIssue {
                offset: pos,
                error: PcapError::BadPacket("implausible record header"),
            });
            match ((pos + 1)..data.len()).find(|&p| plausible_record(data, p)) {
                Some(next) => {
                    pos = next;
                    continue;
                }
                None => break,
            }
        }
        let ts_sec = u32at(data, pos);
        let ts_usec = u32at(data, pos + 4);
        let incl = u32at(data, pos + 8) as usize;
        let pkt = &data[pos + 16..pos + 16 + incl];
        match decode_packet(pkt, ts_sec, ts_usec, client) {
            Ok(p) => trace.push(p),
            // Framing was sound, only the packet bytes were bad: skip just
            // this record.
            Err(error) => issues.push(PcapIssue { offset: pos, error }),
        }
        pos += 16 + incl;
    }
    (trace, issues)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::{simulate_connection, PathQuality, ServerBehavior};
    use crate::trace::classify_trace;
    use netsim::SimRng;

    fn run_trace(behavior: ServerBehavior, loss: f64, seed: u64) -> Trace {
        let r = simulate_connection(
            behavior,
            &PathQuality {
                loss,
                rtt: SimDuration::from_millis(80),
            },
            25_000,
            SimTime::from_secs(100),
            &mut SimRng::new(seed),
            true,
        );
        r.trace.unwrap()
    }

    #[test]
    fn roundtrip_preserves_trace_semantics() {
        let ep = PcapEndpoints::default();
        for (behavior, loss, seed) in [
            (ServerBehavior::Healthy, 0.0, 1),
            (ServerBehavior::Healthy, 0.05, 2),
            (ServerBehavior::Unreachable, 0.0, 3),
            (ServerBehavior::Refusing, 0.0, 4),
            (ServerBehavior::AcceptNoResponse, 0.0, 5),
            (ServerBehavior::StallAfter(9_000), 0.0, 6),
        ] {
            let trace = run_trace(behavior, loss, seed);
            let wire = encode_pcap(&trace, &ep);
            let decoded = decode_pcap(&wire, ep.client).unwrap();
            assert_eq!(decoded.len(), trace.len());
            for (a, b) in trace.iter().zip(&decoded) {
                assert_eq!(a.direction, b.direction);
                assert_eq!(a.kind, b.kind, "{behavior:?}");
                // Timestamps survive at microsecond precision.
                assert_eq!(a.time.as_micros(), b.time.as_micros());
            }
            // The post-processor sees the same verdict through the pcap.
            assert_eq!(classify_trace(&trace), classify_trace(&decoded));
        }
    }

    #[test]
    fn header_fields_are_wire_sane() {
        let trace = run_trace(ServerBehavior::Healthy, 0.0, 7);
        let ep = PcapEndpoints::default();
        let wire = encode_pcap(&trace, &ep);
        // Magic + version.
        assert_eq!(&wire[0..4], &0xA1B2_C3D4u32.to_le_bytes());
        assert_eq!(u16::from_le_bytes([wire[4], wire[5]]), 2);
        assert_eq!(u16::from_le_bytes([wire[6], wire[7]]), 4);
        // First packet: IPv4 with valid checksum.
        let pkt = &wire[24 + 16..24 + 16 + 40];
        assert_eq!(pkt[0], 0x45);
        let mut check = 0u32;
        for chunk in pkt[..20].chunks(2) {
            check += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        while check > 0xFFFF {
            check = (check & 0xFFFF) + (check >> 16);
        }
        assert_eq!(check, 0xFFFF, "IPv4 checksum validates");
    }

    #[test]
    fn empty_trace_is_header_only() {
        let wire = encode_pcap(&Vec::new(), &PcapEndpoints::default());
        assert_eq!(wire.len(), 24);
        let decoded = decode_pcap(&wire, PcapEndpoints::default().client).unwrap();
        assert!(decoded.is_empty());
    }

    /// Byte offsets of each record header in an encoded buffer.
    fn record_offsets(wire: &[u8]) -> Vec<usize> {
        let mut offs = Vec::new();
        let mut pos = 24;
        while pos < wire.len() {
            offs.push(pos);
            let incl = u32at(wire, pos + 8) as usize;
            pos += 16 + incl;
        }
        offs
    }

    #[test]
    fn salvage_on_clean_stream_matches_strict() {
        let ep = PcapEndpoints::default();
        let trace = run_trace(ServerBehavior::Healthy, 0.05, 9);
        let wire = encode_pcap(&trace, &ep);
        let strict = decode_pcap(&wire, ep.client).unwrap();
        let (salvaged, issues) = decode_pcap_salvage(&wire, ep.client);
        assert!(issues.is_empty(), "clean input must not report issues");
        assert_eq!(salvaged, strict);
    }

    #[test]
    fn salvage_skips_a_corrupt_packet_and_keeps_the_rest() {
        let ep = PcapEndpoints::default();
        let trace = run_trace(ServerBehavior::Healthy, 0.0, 10);
        let wire = encode_pcap(&trace, &ep);
        let offs = record_offsets(&wire);
        assert!(offs.len() >= 4, "need a few packets for this test");
        let mut bad = wire.clone();
        // Wreck the IP header of the second packet; framing stays intact.
        bad[offs[1] + 16] = 0xFF;
        assert!(decode_pcap(&bad, ep.client).is_err());
        let (salvaged, issues) = decode_pcap_salvage(&bad, ep.client);
        assert_eq!(salvaged.len(), trace.len() - 1);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].offset, offs[1]);
        assert!(matches!(issues[0].error, PcapError::BadPacket(_)));
    }

    #[test]
    fn salvage_resyncs_over_injected_garbage() {
        let ep = PcapEndpoints::default();
        let trace = run_trace(ServerBehavior::Healthy, 0.0, 11);
        let wire = encode_pcap(&trace, &ep);
        let offs = record_offsets(&wire);
        assert!(offs.len() >= 4);
        let mut bad = wire[..offs[2]].to_vec();
        bad.extend(std::iter::repeat_n(0xEE, 33));
        bad.extend_from_slice(&wire[offs[2]..]);
        let (salvaged, issues) = decode_pcap_salvage(&bad, ep.client);
        assert_eq!(salvaged.len(), trace.len(), "all real packets recovered");
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].offset, offs[2], "garbage run flagged where it starts");
    }

    #[test]
    fn salvage_of_truncated_capture_keeps_the_prefix() {
        let ep = PcapEndpoints::default();
        let trace = run_trace(ServerBehavior::Healthy, 0.0, 12);
        let wire = encode_pcap(&trace, &ep);
        let offs = record_offsets(&wire);
        assert!(offs.len() >= 4);
        // Cut inside the third record's packet bytes.
        let cut = &wire[..offs[2] + 16 + 7];
        assert_eq!(decode_pcap(cut, ep.client), Err(PcapError::Truncated));
        let (salvaged, issues) = decode_pcap_salvage(cut, ep.client);
        assert_eq!(salvaged.len(), 2);
        assert_eq!(issues.len(), 1);
        assert!(matches!(
            issues[0].error,
            PcapError::Truncated | PcapError::BadPacket(_)
        ));
    }

    #[test]
    fn salvage_recovers_packets_despite_damaged_global_header() {
        let ep = PcapEndpoints::default();
        let trace = run_trace(ServerBehavior::Healthy, 0.0, 13);
        let mut wire = encode_pcap(&trace, &ep);
        wire[0] = 0; // break the magic
        wire[20] = 1; // and the linktype
        assert!(decode_pcap(&wire, ep.client).is_err());
        let (salvaged, issues) = decode_pcap_salvage(&wire, ep.client);
        assert_eq!(salvaged.len(), trace.len());
        assert_eq!(issues.len(), 2);
        assert!(matches!(issues[0].error, PcapError::BadMagic(_)));
        assert!(matches!(issues[1].error, PcapError::BadLinkType(1)));
    }

    #[test]
    fn salvage_of_pure_garbage_yields_nothing_quietly() {
        let garbage = vec![0xABu8; 300];
        let (salvaged, issues) = decode_pcap_salvage(&garbage, Ipv4Addr::new(10, 0, 0, 1));
        assert!(salvaged.is_empty());
        assert!(!issues.is_empty());
    }

    #[test]
    fn zero_seq_payload_packet_does_not_underflow() {
        // Hand-craft a PSH+ACK data packet with seq == 0: the decoder must
        // wrap rather than panic in debug builds.
        let ep = PcapEndpoints::default();
        let mut wire = encode_pcap(&Vec::new(), &ep);
        let mut pkt = vec![0u8; 41];
        pkt[0] = 0x45;
        pkt[9] = 6; // TCP
        pkt[12..16].copy_from_slice(&ep.server.octets());
        pkt[33] = TCP_PSH | TCP_ACK; // tcp[13]
        put_u32(&mut wire, 1); // ts_sec
        put_u32(&mut wire, 0); // ts_usec
        put_u32(&mut wire, pkt.len() as u32); // incl
        put_u32(&mut wire, pkt.len() as u32); // orig
        wire.extend_from_slice(&pkt);
        let decoded = decode_pcap(&wire, ep.client).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].kind, PacketKind::Data { seq: u32::MAX });
    }

    #[test]
    fn malformed_inputs_error() {
        let ep = PcapEndpoints::default();
        let trace = run_trace(ServerBehavior::Healthy, 0.0, 8);
        let wire = encode_pcap(&trace, &ep);
        assert_eq!(decode_pcap(&wire[..10], ep.client), Err(PcapError::Truncated));
        let mut bad_magic = wire.clone();
        bad_magic[0] = 0;
        assert!(matches!(
            decode_pcap(&bad_magic, ep.client),
            Err(PcapError::BadMagic(_))
        ));
        let mut bad_link = wire.clone();
        bad_link[20] = 1; // ethernet
        assert!(matches!(
            decode_pcap(&bad_link, ep.client),
            Err(PcapError::BadLinkType(1))
        ));
        let truncated = &wire[..wire.len() - 5];
        assert_eq!(decode_pcap(truncated, ep.client), Err(PcapError::Truncated));
    }
}
